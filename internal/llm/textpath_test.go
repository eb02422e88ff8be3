package llm

import (
	"reflect"
	"testing"

	"repro/internal/cisco"
	"repro/internal/modularizer"
	"repro/internal/netgen"
)

// promptPatterns are the synthesizer's line-filtered prompt regexps.
var promptPatterns = []promptPattern{reASRouter, reIfc, reNeighbor, reNetworks, reIngress, reEgress}

// checkPromptPatterns holds each line-filtered pattern to a scan of the
// whole prompt: findAll to FindAllStringSubmatch and find to
// FindStringSubmatch.
func checkPromptPatterns(t *testing.T, prompt string) {
	t.Helper()
	for _, p := range promptPatterns {
		if got, want := p.findAll(prompt), p.FindAllStringSubmatch(prompt, -1); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: line-filtered matches %q, whole-prompt %q", p, got, want)
		}
		if got, want := p.find(prompt), p.FindStringSubmatch(prompt); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: line-filtered first match %q, whole-prompt %q", p, got, want)
		}
	}
}

// registryPrompts returns the modularizer's prompts for every registry
// scenario at its default size, the global prompt included.
func registryPrompts(t testing.TB) []string {
	var out []string
	for _, sc := range netgen.Scenarios() {
		topo, err := sc.Generate(sc.DefaultSize)
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		for _, task := range modularizer.Tasks(topo) {
			out = append(out, task.Prompt)
		}
		out = append(out, modularizer.GlobalPrompt(topo))
	}
	return out
}

func TestPromptPatternsMatchWholePrompt(t *testing.T) {
	for _, prompt := range registryPrompts(t) {
		checkPromptPatterns(t, prompt)
	}
}

// FuzzPromptPatterns holds the line-filtered prompt regexps to
// whole-prompt matching on arbitrary text, seeded with the star's prompts
// and with lines that hold a lead but do not match.
func FuzzPromptPatterns(f *testing.F) {
	topo, err := netgen.Star(5)
	if err != nil {
		f.Fatal(err)
	}
	for _, task := range modularizer.Tasks(topo) {
		f.Add(task.Prompt)
	}
	f.Add("Router R1 has interface eth0 with IP address 10.0.0.1/24.Router R1 has interface eth1 with IP address 1.2.3.4/31.\r\n" +
		"Router R1 announces the networks: 10.0.0.0/24. and more.\nRouter  has AS number 1 and router ID 1.1.1.1.\n" +
		"At the egress to R2 (neighbor 2.0.0.2), apply route-map X that denies any route carrying any of the communities 1:1 \n and permits")
	f.Fuzz(checkPromptPatterns)
}

// TestRenderWithoutCloneMatchesClone: render prints the golden device
// itself unless a fault mutates it. For every error class, live
// router-wide and, where the class has one, on one attachment, the text
// must equal printing a mutated clone, and the golden device must come
// out unchanged.
func TestRenderWithoutCloneMatchesClone(t *testing.T) {
	topo, err := netgen.Star(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range AllSynthErrors() {
		for _, scoped := range []bool{false, true} {
			if scoped && !e.AttachmentScoped() {
				continue
			}
			for _, interfere := range []bool{false, true} {
				s := NewSynthesizer(SynthConfig{Seed: 1, Errors: map[string][]SynthError{}})
				for _, task := range modularizer.Tasks(topo) {
					if _, err := s.Complete([]Message{{Role: RoleAutomated, Content: task.Prompt}}); err != nil {
						t.Fatal(err)
					}
				}
				for _, st := range s.routers {
					pols := st.ingressPols
					if e.ScopeDirection() == "out" {
						pols = st.egressPols
					}
					switch {
					case !scoped:
						st.active[e] = true
					case pols["R2"] != "":
						st.scoped[e] = map[string]bool{"R2": true}
					}
					st.interfere = interfere
					golden := cisco.Print(st.golden)
					clone := st.golden.Clone()
					st.mutate(clone)
					want := st.print(clone)
					if got := s.render(st); got != want {
						t.Errorf("%s %s (scoped %v, interfere %v): render differs from the clone's print:\ngot:\n%s\nwant:\n%s",
							st.name, e, scoped, interfere, got, want)
					}
					if cisco.Print(st.golden) != golden {
						t.Errorf("%s %s (scoped %v, interfere %v): render changed the golden device", st.name, e, scoped, interfere)
					}
				}
			}
		}
	}
}
