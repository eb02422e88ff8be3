package llm

import (
	"reflect"
	"regexp"
	"testing"

	"repro/internal/cisco"
	"repro/internal/modularizer"
	"repro/internal/netgen"
)

// sentenceRefs pairs each prompt sentence with the regexp it stood for
// before the scanner replaced it, the reference the scanner is held to.
var sentenceRefs = []struct {
	s  sentence
	re *regexp.Regexp
}{
	{sGenerate, regexp.MustCompile(`Generate the Cisco IOS configuration file for router (\w+)\.`)},
	{sASRouter, regexp.MustCompile(`Router (\w+) has AS number (\d+) and router ID ([\d.]+)\.`)},
	{sIfc, regexp.MustCompile(`Router \w+ has interface (\S+) with IP address ([\d./]+)\.`)},
	{sNeighbor, regexp.MustCompile(`Router \w+ is connected to (?:router|external peer) (\S+) at IP address ([\d.]+) in AS (\d+)\.`)},
	{sNetworks, regexp.MustCompile(`Router \w+ announces the networks: (.+)\.`)},
	{sIngress, regexp.MustCompile(`At the ingress from \S+ \(neighbor ([\d.]+)\), apply route-map (\S+) that adds the community (\S+)`)},
	{sEgress, regexp.MustCompile(`At the egress to \S+ \(neighbor ([\d.]+)\), apply route-map (\S+) that denies any route carrying any of the communities ([\d: ]+) and permits`)},
}

// checkPromptPatterns holds each sentence scanner to its regexp: findAll
// to FindAllStringSubmatch and find to FindStringSubmatch.
func checkPromptPatterns(t *testing.T, prompt string) {
	t.Helper()
	for _, ref := range sentenceRefs {
		if got, want := ref.s.findAll(prompt), ref.re.FindAllStringSubmatch(prompt, -1); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: scanner matches %q, regexp %q", ref.re, got, want)
		}
		if got, want := ref.s.find(prompt), ref.re.FindStringSubmatch(prompt); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: scanner first match %q, regexp %q", ref.re, got, want)
		}
	}
}

// scannerCases are texts on which a scanner that matched only at line
// starts, only once per line, or without giving bytes back would differ
// from the regexps.
var scannerCases = []string{
	// Several matches on one line, and matches that start mid-line.
	"Router R1 has interface eth0 with IP address 10.0.0.1/24.Router R1 has interface eth1 with IP address 1.2.3.4/31.\r\n" +
		"xxRouter R2 has AS number 7 and router ID 1.1.1.1. Router R3 has AS number 8 and router ID 2.2.2.2.\n",
	// Greedy fields that give bytes back to the literal after them:
	// ([\d./]+)\. keeps the last dot of a run, (.+)\. the line's last dot,
	// and ([\d: ]+) and permits the run's last space.
	"Router R1 has interface e0 with IP address 10.0.0.1/24...5.\nRouter R1 has interface e1 with IP address ./. .\n" +
		"Router R1 announces the networks: 10.0.0.0/24. and more. tail\nRouter  has AS number 1 and router ID 1.1.1.1.\n" +
		"Router R1 has AS number 1 and router ID 1..2.\n",
	"At the egress to R2 (neighbor 2.0.0.2), apply route-map X that denies any route carrying any of the communities 1:1 2:2  and permits " +
		"At the egress to R3 (neighbor 3.0.0.2), apply route-map Y that denies any route carrying any of the communities 1:1 \n and permits\n" +
		"At the egress to R4 (neighbor 4.), apply route-map Z that denies any route carrying any of the communities  and permits",
	// An alternative that fails and one that matches, a lead inside an
	// earlier field, and fields holding multi-byte and invalid UTF-8.
	"Router R1 is connected to routers R2 at IP address 1.1.1.1 in AS 2.Router R1 is connected to external peer é\xff at IP address 1.2 in AS 3.\n" +
		"At the ingress from At the ingress from R2 (neighbor 2.0.0.2), apply route-map A\x80 that adds the community 100:1\tx\n" +
		"Generate the Cisco IOS configuration file for router R_9x.Generate the Cisco IOS configuration file for router R1.\n",
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
	for _, prompt := range append(registryPrompts(t), scannerCases...) {
		checkPromptPatterns(t, prompt)
	}
}

// FuzzPromptPatterns holds the sentence scanners to their regexps on
// arbitrary text, seeded with the star's prompts and with scannerCases.
func FuzzPromptPatterns(f *testing.F) {
	topo, err := netgen.Star(5)
	if err != nil {
		f.Fatal(err)
	}
	for _, task := range modularizer.Tasks(topo) {
		f.Add(task.Prompt)
	}
	for _, c := range scannerCases {
		f.Add(c)
	}
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
