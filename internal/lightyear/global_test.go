package lightyear_test

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/batfish"
	"repro/internal/core"
	"repro/internal/lightyear"
	"repro/internal/llm"
	"repro/internal/modularizer"
	"repro/internal/netcfg"
	"repro/internal/netgen"
	"repro/internal/topology"
)

// goldenStarConfigs produces verified star configurations by running the
// pipeline with an error-free synthesizer.
func goldenStarConfigs(t *testing.T, n int) (map[string]*netcfg.Device, map[string]string) {
	t.Helper()
	topo, err := netgen.Star(n)
	if err != nil {
		t.Fatal(err)
	}
	return goldenConfigs(t, topo)
}

// goldenConfigs produces verified configurations for any topology by
// running the pipeline with an error-free synthesizer, without the global
// check.
func goldenConfigs(t *testing.T, topo *topology.Topology) (map[string]*netcfg.Device, map[string]string) {
	t.Helper()
	res, err := core.Synthesize(topo, core.SynthOptions{
		Model:           llm.NewSynthesizer(llm.SynthConfig{Seed: 1, Errors: map[string][]llm.SynthError{}}),
		SkipGlobalCheck: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatalf("golden synthesis did not verify:\n%s", res.Transcript)
	}
	devs := map[string]*netcfg.Device{}
	for name, text := range res.Configs {
		dev, warns := batfish.ParseConfig(text)
		if len(warns) != 0 {
			t.Fatalf("%s warnings: %v", name, warns)
		}
		devs[name] = dev
	}
	return devs, res.Configs
}

func TestGlobalNoTransitHoldsOnGoldenConfigs(t *testing.T) {
	topo, _ := netgen.Star(5)
	devs, _ := goldenStarConfigs(t, 5)
	res, err := lightyear.CheckGlobalNoTransit(topo, devs)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("violations=%v missing=%v converged=%v",
			res.Violations, res.MissingReachability, res.Converged)
	}
}

// TestGlobalNoTransitVerdictsAcrossScenarios checks the global verdict on
// every registry scenario: golden configs pass, a deny-all export on the
// first ISP attachment's router loses reachability, and stripping the
// egress filters the spec obligates (the hub's on the star, each
// attachment router's elsewhere) leaks transit.
func TestGlobalNoTransitVerdictsAcrossScenarios(t *testing.T) {
	for _, s := range netgen.Scenarios() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			topo, err := s.Generate(s.DefaultSize)
			if err != nil {
				t.Fatal(err)
			}
			_, configs := goldenConfigs(t, topo)
			check := func(mutate func(devs map[string]*netcfg.Device)) *lightyear.GlobalResult {
				t.Helper()
				devs := map[string]*netcfg.Device{}
				for name, text := range configs {
					devs[name], _ = batfish.ParseConfig(text)
				}
				if mutate != nil {
					mutate(devs)
				}
				res, err := lightyear.CheckGlobalNoTransit(topo, devs)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}

			if res := check(nil); !res.OK() {
				t.Errorf("golden configs fail the global check: %+v", res)
			}

			atts := lightyear.ISPAttachments(topo)
			if len(atts) == 0 {
				t.Fatal("no ISP attachment to mutate")
			}
			denied := check(func(devs map[string]*netcfg.Device) {
				dev := devs[atts[0].Router]
				dev.RoutePolicies["DENY_ALL"] = &netcfg.RoutePolicy{Name: "DENY_ALL",
					Clauses: []*netcfg.PolicyClause{{Seq: 10, Action: netcfg.Deny}}}
				for _, nb := range dev.BGP.Neighbors {
					nb.ExportPolicy = "DENY_ALL"
				}
			})
			if len(denied.MissingReachability) == 0 {
				t.Errorf("deny-all export on %s lost no reachability: %+v", atts[0].Router, denied)
			}

			egress := map[string]map[string]bool{}
			for _, r := range lightyear.SpecFor(topo) {
				if r.Kind != lightyear.EgressDropsCommunity {
					continue
				}
				if egress[r.Router] == nil {
					egress[r.Router] = map[string]bool{}
				}
				egress[r.Router][r.Policy] = true
			}
			if len(egress) == 0 {
				t.Fatal("the spec obligates no egress filter")
			}
			stripped := check(func(devs map[string]*netcfg.Device) {
				for router, pols := range egress {
					for _, nb := range devs[router].BGP.Neighbors {
						if pols[nb.ExportPolicy] {
							nb.ExportPolicy = ""
						}
					}
				}
			})
			if len(stripped.Violations) == 0 {
				t.Errorf("stripping the spec's egress filters leaked no transit: %+v", stripped)
			}
		})
	}
}

// TestGlobalNoTransitDeepRing checks the golden configurations of a
// 130-router ring, whose routes need about 65 propagation rounds: the
// round cap must grow with the network (a fixed cap of 64 rounds reports
// the run as not converged, with ten reachabilities missing).
func TestGlobalNoTransitDeepRing(t *testing.T) {
	topo, err := netgen.Generate("ring", 130)
	if err != nil {
		t.Fatal(err)
	}
	devs, _ := goldenConfigs(t, topo)
	res, err := lightyear.CheckGlobalNoTransit(topo, devs)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("golden ring:130 fails the global check: converged %v, %d violations, %d missing reachabilities",
			res.Converged, len(res.Violations), len(res.MissingReachability))
	}
}

// TestGlobalNoTransitCatchesMissingEgressFilter removes R1's egress
// filtering: the simulation must report transit violations — the exact
// failure the final global check exists to catch (§4.1).
func TestGlobalNoTransitCatchesMissingEgressFilter(t *testing.T) {
	topo, _ := netgen.Star(5)
	devs, _ := goldenStarConfigs(t, 5)
	for _, nb := range devs["R1"].BGP.Neighbors {
		nb.ExportPolicy = ""
	}
	res, err := lightyear.CheckGlobalNoTransit(topo, devs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) == 0 {
		t.Fatal("unfiltered hub should produce transit violations")
	}
}

// TestGlobalNoTransitCatchesOverFiltering makes R1 deny everything toward
// the spokes: the positive reachability requirements must fail.
func TestGlobalNoTransitCatchesOverFiltering(t *testing.T) {
	topo, _ := netgen.Star(5)
	devs, _ := goldenStarConfigs(t, 5)
	deny := &netcfg.RoutePolicy{Name: "DENY_ALL", Clauses: []*netcfg.PolicyClause{
		{Seq: 10, Action: netcfg.Deny},
	}}
	devs["R1"].RoutePolicies["DENY_ALL"] = deny
	for _, nb := range devs["R1"].BGP.Neighbors {
		nb.ExportPolicy = "DENY_ALL"
	}
	res, err := lightyear.CheckGlobalNoTransit(topo, devs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.MissingReachability) == 0 {
		t.Fatal("deny-all hub should break required reachability")
	}
	if len(res.Violations) != 0 {
		t.Errorf("deny-all hub cannot have transit violations: %v", res.Violations)
	}
}

// TestGlobalNoTransitCatchesANDFilter wires the paper's AND-semantics
// egress error into the simulation: single-tag routes leak, so transit
// violations appear end to end, not just in the local check.
func TestGlobalNoTransitCatchesANDFilter(t *testing.T) {
	topo, err := netgen.Star(4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Synthesize(topo, core.SynthOptions{
		Model: llm.NewSynthesizer(llm.SynthConfig{Seed: 1,
			Errors: map[string][]llm.SynthError{"R1": {llm.SErrAndOr}}}),
		SkipGlobalCheck:       true,
		MaxAttemptsPerFinding: 1,
		Human:                 core.NoHuman{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verified {
		t.Fatal("AND filter should fail local verification")
	}
	devs := map[string]*netcfg.Device{}
	for name, text := range res.Configs {
		dev, _ := batfish.ParseConfig(text)
		devs[name] = dev
	}
	global, err := lightyear.CheckGlobalNoTransit(topo, devs)
	if err != nil {
		t.Fatal(err)
	}
	if len(global.Violations) == 0 {
		t.Fatal("AND-semantics egress should leak transit routes in the simulation")
	}
}

func TestGlobalNoTransitMissingDeviceErrors(t *testing.T) {
	topo, _ := netgen.Star(3)
	if _, err := lightyear.CheckGlobalNoTransit(topo, map[string]*netcfg.Device{}); err == nil {
		t.Fatal("missing devices should error")
	}
}

// oversizedISPs is the ISP count that takes one router's network just over
// batfish.MaxRIBSlots: 8,201 speakers × 8,200 originated prefixes.
const oversizedISPs = 8200

// oversizedNetwork returns one router with oversizedISPs external
// neighbors, each originating a /24 of its own.
func oversizedNetwork() (*topology.Topology, map[string]*netcfg.Device) {
	r := topology.RouterSpec{Name: "R1", ASN: 65000}
	for i := range oversizedISPs {
		r.Neighbors = append(r.Neighbors, topology.NeighborSpec{
			PeerName: fmt.Sprintf("ISP%d", i),
			PeerIP:   netcfg.FormatIP(10<<24 | uint32(i)),
			PeerAS:   uint32(100000 + i),
			External: true,
			Prefixes: []string{netcfg.NewPrefix(150<<24|uint32(i)<<8, 24).String()},
		})
	}
	topo := &topology.Topology{Name: "oversized", Routers: []topology.RouterSpec{r}}
	return topo, map[string]*netcfg.Device{"R1": netcfg.NewDevice("R1", netcfg.VendorCisco)}
}

// TestGlobalNoTransitRefusesOversizedNetwork checks that a network whose
// RIB rows would pass batfish.MaxRIBSlots is refused with an error naming
// the bound, before the rows are allocated: they would take 512 MiB.
func TestGlobalNoTransitRefusesOversizedNetwork(t *testing.T) {
	topo, devs := oversizedNetwork()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := lightyear.CheckGlobalNoTransit(topo, devs)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), strconv.Itoa(batfish.MaxRIBSlots)) {
		t.Fatalf("got error %v, want one naming the bound %d", err, batfish.MaxRIBSlots)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<20 {
		t.Errorf("the refused check allocated %d MB", grew>>20)
	}
}

// TestGlobalSliceMatchesUnsliced checks that CheckGlobalNoTransit, which
// simulates only the slice of the network its verdict reads, returns the
// verdict of a simulation of every originated prefix, field for field.
// The networks are every registry scenario's golden configurations, the
// first drafts of every synthesis error class with the error on every
// router, and seeded mutations of the golden configurations: a router
// originates a supernet of a stub's prefix or an exact copy of an ISP's,
// or drops a neighbor's export or import route-map.
func TestGlobalSliceMatchesUnsliced(t *testing.T) {
	for i, sc := range netgen.Scenarios() {
		t.Run(sc.Name, func(t *testing.T) {
			topo, err := sc.Generate(sc.DefaultSize)
			if err != nil {
				t.Fatal(err)
			}
			_, configs := goldenConfigs(t, topo)
			requireSlicedVerdict(t, "golden", topo, parseConfigs(configs))
			for _, e := range llm.AllSynthErrors() {
				requireSlicedVerdict(t, "draft with "+e.String(), topo, draftConfigs(t, topo, e))
			}
			isp, customer, err := lightyear.StubPrefixes(topo, parseConfigs(configs))
			if err != nil {
				t.Fatal(err)
			}
			stubs := append(isp, customer...)
			rng := rand.New(rand.NewPCG(uint64(i), 29))
			for k := range 30 {
				devs := parseConfigs(configs)
				for range 1 + rng.IntN(3) {
					dev := devs[topo.Routers[rng.IntN(len(topo.Routers))].Name]
					if dev.BGP == nil || len(dev.BGP.Neighbors) == 0 {
						continue
					}
					nb := dev.BGP.Neighbors[rng.IntN(len(dev.BGP.Neighbors))]
					switch rng.IntN(4) {
					case 0:
						p := stubs[rng.IntN(len(stubs))]
						dev.BGP.Networks = append(dev.BGP.Networks, netcfg.NewPrefix(p.Addr, p.Len-1-rng.IntN(12)))
					case 1:
						dev.BGP.Networks = append(dev.BGP.Networks, isp[rng.IntN(len(isp))])
					case 2:
						nb.ExportPolicy = ""
					case 3:
						nb.ImportPolicy = ""
					}
				}
				requireSlicedVerdict(t, fmt.Sprintf("mutation %d", k), topo, devs)
			}
		})
	}
}

// requireSlicedVerdict fails unless CheckGlobalNoTransit returns the
// verdict of the unsliced simulation.
func requireSlicedVerdict(t *testing.T, label string, topo *topology.Topology, devs map[string]*netcfg.Device) {
	t.Helper()
	got, err := lightyear.CheckGlobalNoTransit(topo, devs)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	want, err := lightyear.CheckGlobalNoTransitUnsliced(topo, devs)
	if err != nil {
		t.Fatalf("%s: unsliced: %v", label, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: the sliced verdict %+v differs from the unsliced %+v", label, got, want)
	}
}

// parseConfigs parses every configuration, warnings ignored.
func parseConfigs(configs map[string]string) map[string]*netcfg.Device {
	devs := make(map[string]*netcfg.Device, len(configs))
	for name, text := range configs {
		devs[name], _ = batfish.ParseConfig(text)
	}
	return devs
}

// draftConfigs returns the model's first draft of every router of the
// topology, with the error class injected on every router.
func draftConfigs(t *testing.T, topo *topology.Topology, e llm.SynthError) map[string]*netcfg.Device {
	t.Helper()
	tasks := modularizer.Tasks(topo)
	errs := map[string][]llm.SynthError{}
	for _, task := range tasks {
		errs[task.Router] = []llm.SynthError{e}
	}
	model := llm.NewSynthesizer(llm.SynthConfig{Seed: 1, Errors: errs})
	texts := map[string]string{}
	for _, task := range tasks {
		text, err := model.Complete([]llm.Message{{Role: llm.RoleAutomated, Content: task.Prompt}})
		if err != nil {
			t.Fatalf("%s draft of %s: %v", e, task.Router, err)
		}
		texts[task.Router] = text
	}
	return parseConfigs(texts)
}
