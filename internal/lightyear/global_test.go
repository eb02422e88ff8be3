package lightyear_test

import (
	"testing"

	"repro/internal/batfish"
	"repro/internal/core"
	"repro/internal/lightyear"
	"repro/internal/llm"
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
