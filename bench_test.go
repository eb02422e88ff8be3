// The benchmark harness regenerates every table and figure of the paper's
// evaluation (the E1–E10 index in DESIGN.md). Each benchmark prints the
// regenerated rows once (via b.Logf, visible with -v or on shape
// mismatch) and reports the paper's headline quantities as custom metrics
// so `go test -bench=. -benchmem` reproduces the evaluation wholesale:
//
//	leverage            automated prompts per human prompt (§3.2: ~10, §4.2: 6)
//	automated-prompts   the fast-loop prompt count
//	human-prompts       the slow-loop prompt count
package repro

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/batfish/rest"
	"repro/internal/core"
	"repro/internal/fuzz"
	"repro/internal/llm"
	"repro/internal/modularizer"
	"repro/internal/netgen"
	"repro/internal/obs"
)

// benchJSON emits one machine-readable result line per benchmark so CI
// and scripts can scrape the evaluation without parsing the Go benchmark
// format: `go test -bench=. | grep '^BENCH '` yields JSON objects.
func benchJSON(b *testing.B, metrics map[string]float64) {
	b.Helper()
	payload, err := json.Marshal(struct {
		Bench   string             `json:"bench"`
		Metrics map[string]float64 `json:"metrics"`
	}{Bench: b.Name(), Metrics: metrics})
	if err != nil {
		b.Fatal(err)
	}
	fmt.Printf("BENCH %s\n", payload)
}

// BenchmarkTable1RectificationPrompts (E1) regenerates the four sample
// translation rectification prompts of Table 1.
func BenchmarkTable1RectificationPrompts(b *testing.B) {
	var prompts []GeneratedPrompt
	var err error
	for i := 0; i < b.N; i++ {
		prompts, err = Table1RectificationPrompts()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range prompts {
		b.Logf("Table 1 [%s]: %s", p.Type, p.Prompt)
	}
	b.ReportMetric(float64(len(prompts)), "prompt-classes")
}

// BenchmarkTable2TranslationErrors (E2) regenerates Table 2: the eight
// error classes and whether generated prompts alone fixed each.
func BenchmarkTable2TranslationErrors(b *testing.B) {
	var rows []Table2Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = Table2TranslationErrors()
		if err != nil {
			b.Fatal(err)
		}
	}
	fixed := 0
	for _, r := range rows {
		b.Logf("Table 2: %-35s %-20s fixed=%v", r.Error, r.Type, r.FixedByAutomated)
		if r.FixedByAutomated {
			fixed++
		}
	}
	b.ReportMetric(float64(fixed), "fixed-by-automated")
	b.ReportMetric(float64(len(rows)-fixed), "needing-human")
}

// BenchmarkLeverageTranslation (E3) reproduces §3.2: the full error
// scenario, ~20 automated / 2 human prompts, leverage 10X.
func BenchmarkLeverageTranslation(b *testing.B) {
	var rep LeverageReport
	var err error
	for i := 0; i < b.N; i++ {
		rep, err = ExperimentTranslationLeverage()
		if err != nil {
			b.Fatal(err)
		}
	}
	if !rep.Verified {
		b.Fatal("translation did not verify")
	}
	b.Logf("E3: %s (paper: ~20 automated / 2 human, 10X)", rep)
	reportLeverage(b, rep)
}

// BenchmarkTable3SynthesisPrompts (E4) regenerates Table 3's sample
// rectification prompts for local synthesis.
func BenchmarkTable3SynthesisPrompts(b *testing.B) {
	var prompts []GeneratedPrompt
	var err error
	for i := 0; i < b.N; i++ {
		prompts, err = Table3RectificationPrompts()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range prompts {
		b.Logf("Table 3 [%s]: %s", p.Type, p.Prompt)
	}
	b.ReportMetric(float64(len(prompts)), "prompt-classes")
}

// BenchmarkLeverageNoTransit (E5) reproduces §4.2: the 7-router star,
// 12 automated / 2 human prompts, leverage 6X.
func BenchmarkLeverageNoTransit(b *testing.B) {
	var rep LeverageReport
	var err error
	for i := 0; i < b.N; i++ {
		rep, err = ExperimentNoTransitLeverage(7)
		if err != nil {
			b.Fatal(err)
		}
	}
	if !rep.Verified {
		b.Fatal("synthesis did not verify")
	}
	b.Logf("E5: %s (paper: 12 automated / 2 human, 6X)", rep)
	reportLeverage(b, rep)
}

// BenchmarkFigure4StarTopology (E6) regenerates the Figure 4 star: the
// JSON dictionary plus the textual description the network generator
// emits.
func BenchmarkFigure4StarTopology(b *testing.B) {
	var txt string
	for i := 0; i < b.N; i++ {
		topo, err := netgen.Star(7)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := topo.Marshal(); err != nil {
			b.Fatal(err)
		}
		txt = netgen.Describe(topo)
	}
	b.ReportMetric(float64(len(txt)), "description-bytes")
}

// BenchmarkAblationLocalVsGlobal (E7) contrasts local-spec prompting
// (converges, leverage 6X) with global-spec prompting (oscillates, never
// verifies) — §4.1's central lesson.
func BenchmarkAblationLocalVsGlobal(b *testing.B) {
	var local, global LeverageReport
	var err error
	for i := 0; i < b.N; i++ {
		local, global, err = AblationLocalVsGlobal(7)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Logf("E7 local:  %s", local)
	b.Logf("E7 global: %s", global)
	if !local.Verified || global.Verified {
		b.Fatalf("shape violated: local verified=%v global verified=%v",
			local.Verified, global.Verified)
	}
	b.ReportMetric(local.Leverage, "local-leverage")
	b.ReportMetric(boolMetric(global.Verified), "global-verified")
}

// BenchmarkAblationIIP (E8) measures the initial-instruction-prompt
// database: without it, the common error classes reappear and cost extra
// automated corrections (§4.2).
func BenchmarkAblationIIP(b *testing.B) {
	var withIIP, withoutIIP LeverageReport
	var err error
	for i := 0; i < b.N; i++ {
		withIIP, withoutIIP, err = AblationIIP(7)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Logf("E8 with IIP:    %s", withIIP)
	b.Logf("E8 without IIP: %s", withoutIIP)
	if withoutIIP.Automated <= withIIP.Automated {
		b.Fatalf("shape violated: IIP should save prompts (with=%d without=%d)",
			withIIP.Automated, withoutIIP.Automated)
	}
	b.ReportMetric(float64(withoutIIP.Automated-withIIP.Automated), "prompts-saved-by-iip")
}

// BenchmarkAblationHumanizer measures the humanizer (DESIGN.md ablation
// 3): raw verifier feedback shifts work to the human and drops leverage.
func BenchmarkAblationHumanizer(b *testing.B) {
	var humanized, raw LeverageReport
	var err error
	for i := 0; i < b.N; i++ {
		humanized, raw, err = AblationHumanizer()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Logf("humanized: %s", humanized)
	b.Logf("raw:       %s", raw)
	if raw.Leverage >= humanized.Leverage {
		b.Fatalf("shape violated: humanized leverage %.1f <= raw %.1f",
			humanized.Leverage, raw.Leverage)
	}
	b.ReportMetric(humanized.Leverage, "humanized-leverage")
	b.ReportMetric(raw.Leverage, "raw-leverage")
}

// BenchmarkRESTVerifier (E9) runs the translation loop against the suite
// behind the REST wrapper and measures the round-trip overhead relative
// to the in-process suite.
func BenchmarkRESTVerifier(b *testing.B) {
	srv := httptest.NewServer(rest.NewHandler())
	defer srv.Close()
	client := rest.NewClient(srv.URL)
	var rep *core.Result
	for i := 0; i < b.N; i++ {
		model := llm.NewTranslator(llm.DefaultTranslateConfig())
		res, err := core.Translate(ExampleCiscoConfig(), core.TranslateOptions{
			Model: model, Verifier: client})
		if err != nil {
			b.Fatal(err)
		}
		rep = res
	}
	if !rep.Verified {
		b.Fatal("REST-backed translation did not verify")
	}
	a, h := rep.Transcript.Counts()
	b.ReportMetric(float64(a)/float64(h), "leverage")
}

// BenchmarkLeverageVsNetworkSize (E10) sweeps the star size: automated
// prompts grow with the router count while human prompts stay flat, so
// leverage grows with network size.
func BenchmarkLeverageVsNetworkSize(b *testing.B) {
	sizes := []int{3, 5, 7, 9, 11}
	for _, n := range sizes {
		n := n
		b.Run(fmt.Sprintf("star-%d", n), func(b *testing.B) {
			var rep LeverageReport
			var err error
			for i := 0; i < b.N; i++ {
				rep, err = ExperimentNoTransitLeverage(n)
				if err != nil {
					b.Fatal(err)
				}
			}
			if !rep.Verified {
				b.Fatalf("star-%d did not verify", n)
			}
			b.Logf("E10: %s", rep)
			reportLeverage(b, rep)
		})
	}
}

func reportLeverage(b *testing.B, rep LeverageReport) {
	b.Helper()
	b.ReportMetric(rep.Leverage, "leverage")
	b.ReportMetric(float64(rep.Automated), "automated-prompts")
	b.ReportMetric(float64(rep.Human), "human-prompts")
	benchJSON(b, map[string]float64{
		"leverage":          rep.Leverage,
		"automated-prompts": float64(rep.Automated),
		"human-prompts":     float64(rep.Human),
		"verified":          boolMetric(rep.Verified),
	})
}

func boolMetric(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

// BenchmarkTopologyScenarios (E12, extension) sweeps the topology
// scenario registry: the same VPP loop converges on the ring, full mesh,
// and fat-tree with the attachment-point local specification, not just
// the paper's star.
func BenchmarkTopologyScenarios(b *testing.B) {
	for _, info := range Topologies() {
		info := info
		b.Run(info.Name, func(b *testing.B) {
			var rep LeverageReport
			var err error
			for i := 0; i < b.N; i++ {
				rep, err = ExperimentTopologyLeverage(info.Name, info.DefaultSize, 0)
				if err != nil {
					b.Fatal(err)
				}
			}
			if !rep.Verified {
				b.Fatalf("%s did not verify", info.Name)
			}
			b.Logf("E12: %s", rep)
			reportLeverage(b, rep)
		})
	}
}

// BenchmarkParallelVsSequentialSynthesis (E13, extension) contrasts the
// sequential repair loop with the bounded worker pool on a 16-router full
// mesh and on the dual-homed ring, whose per-attachment obligations give
// each router two independent blocks of semantic work: per-router loops
// avoid the sequential loop's whole-network re-verification scans, so the
// parallel path wins wall-clock even on one CPU — and adds core
// parallelism on real hardware. The star is the adversarial case (all
// repair concentrates on the hub), which is why the dense graphs are the
// headline.
func BenchmarkParallelVsSequentialSynthesis(b *testing.B) {
	for _, sc := range []struct {
		scenario string
		size     int
	}{{"full-mesh", 16}, {"dual-homed", 8}} {
		sc := sc
		for _, par := range []int{1, 8} {
			par := par
			mode := "sequential"
			if par > 1 {
				mode = fmt.Sprintf("parallel-%d", par)
			}
			b.Run(fmt.Sprintf("%s-%d/%s", sc.scenario, sc.size, mode), func(b *testing.B) {
				var rep LeverageReport
				var err error
				for i := 0; i < b.N; i++ {
					rep, err = ExperimentTopologyLeverage(sc.scenario, sc.size, par)
					if err != nil {
						b.Fatal(err)
					}
				}
				// b.Elapsed() excludes pause/resume and setup, unlike the
				// manual wall-clock bracketing this replaced.
				elapsed := b.Elapsed()
				if !rep.Verified {
					b.Fatalf("%s-%d did not verify", sc.scenario, sc.size)
				}
				b.ReportMetric(rep.Leverage, "leverage")
				benchJSON(b, map[string]float64{
					"parallelism":       float64(par),
					"routers":           float64(sc.size),
					"wall-ms-per-run":   float64(elapsed.Milliseconds()) / float64(b.N),
					"leverage":          rep.Leverage,
					"automated-prompts": float64(rep.Automated),
					"human-prompts":     float64(rep.Human),
				})
			})
		}
	}
}

// BenchmarkIncrementalVerification (E14, extension) measures the
// incremental re-verification cache: cached vs uncached sequential
// synthesis on the 16-router full mesh (the re-scan-heavy case), the
// 16-router star (the hub-concentrated case), the dual-homed ring (two
// attachment-scoped obligation blocks per router), and the seeded random
// graph (mixed single-/dual-homing). The cached loop re-checks only the
// attachment-scoped units whose configuration the last prompt changed;
// transcripts are byte-identical either way (see
// TestAcceleratedSynthesisByteIdentical).
func BenchmarkIncrementalVerification(b *testing.B) {
	for _, sc := range []struct {
		scenario string
		size     int
	}{{"full-mesh", 16}, {"star", 16}, {"dual-homed", 8}, {"random", 12}} {
		sc := sc
		for _, cached := range []bool{false, true} {
			cached := cached
			mode := "uncached"
			if cached {
				mode = "cached"
			}
			b.Run(fmt.Sprintf("%s-%d/%s", sc.scenario, sc.size, mode), func(b *testing.B) {
				var res *core.Result
				for i := 0; i < b.N; i++ {
					topo, err := netgen.Generate(sc.scenario, sc.size)
					if err != nil {
						b.Fatal(err)
					}
					res, err = Synthesize(topo, SynthesizeOptions{
						DisableVerifierCache: !cached})
					if err != nil {
						b.Fatal(err)
					}
				}
				if !res.Verified {
					b.Fatalf("%s-%d did not verify", sc.scenario, sc.size)
				}
				wallMS := float64(b.Elapsed().Milliseconds()) / float64(b.N)
				b.ReportMetric(wallMS, "wall-ms-per-run")
				metrics := map[string]float64{
					"cached":          boolMetric(cached),
					"routers":         float64(sc.size),
					"wall-ms-per-run": wallMS,
				}
				if res.CacheStats != nil {
					metrics["cache-hits"] = float64(res.CacheStats.Hits)
					metrics["cache-misses"] = float64(res.CacheStats.Misses)
				}
				benchJSON(b, metrics)
			})
		}
	}
}

// BenchmarkBatchedRESTVerifier (E15, extension) contrasts the batched REST
// transport (protocol v2, carrying per-attachment requirement identities)
// with the seed's one-HTTP-call-per-check loop on the fat-tree and on the
// seeded random graph: with the cache and /v1/batch, each pipeline
// iteration costs at most one verification round-trip (plus one final
// global check per run), however many attachment-scoped checks it carries.
func BenchmarkBatchedRESTVerifier(b *testing.B) {
	srv := httptest.NewServer(rest.NewHandler())
	defer srv.Close()
	for _, scenario := range []string{"fat-tree", "random"} {
		info := TopologyInfo{Name: scenario}
		for _, t := range Topologies() {
			if t.Name == scenario {
				info = t
			}
		}
		for _, batched := range []bool{false, true} {
			batched := batched
			mode := "per-check"
			if batched {
				mode = "batched"
			}
			b.Run(fmt.Sprintf("%s/%s", info.Name, mode), func(b *testing.B) {
				client := rest.NewClient(srv.URL)
				var verifier Verifier = client
				if !batched {
					// Hide the client's batch seam, so the uncached
					// loop asks for one check per call, as the seed did.
					verifier = struct{ Verifier }{client}
				}
				var res *core.Result
				for i := 0; i < b.N; i++ {
					topo, err := netgen.Generate(info.Name, info.DefaultSize)
					if err != nil {
						b.Fatal(err)
					}
					res, err = Synthesize(topo, SynthesizeOptions{
						Verifier:             verifier,
						DisableVerifierCache: !batched,
					})
					if err != nil {
						b.Fatal(err)
					}
				}
				if !res.Verified {
					b.Fatalf("%s REST run did not verify", info.Name)
				}
				callsPerRun := float64(client.Calls()) / float64(b.N)
				wallMS := float64(b.Elapsed().Milliseconds()) / float64(b.N)
				b.ReportMetric(callsPerRun, "rest-calls-per-run")
				metrics := map[string]float64{
					"batched":            boolMetric(batched),
					"rest-calls-per-run": callsPerRun,
					"wall-ms-per-run":    wallMS,
				}
				if res.CacheStats != nil {
					iters := float64(res.CacheStats.Prefetches)
					metrics["iterations-per-run"] = iters
					// The acceptance shape: ≤ 1 verification round-trip per
					// iteration, plus the final global check.
					if callsPerRun > iters+1 {
						b.Fatalf("shape violated: %.1f calls for %.0f iterations",
							callsPerRun, iters)
					}
				}
				benchJSON(b, metrics)
			})
		}
	}
}

// BenchmarkShardedRESTVerifier (E16, extension) fans the batched suite
// out across batfishd shards: synthesis on the fat-tree and the seeded
// random graph through a REST client over 1 vs 3 in-process shard
// servers. The accounting contract generalizes PR 2's: at most one
// verification round-trip per iteration *per shard*, issued in parallel,
// plus the final global check — so total REST calls may grow with the
// shard count while each shard's queue shrinks.
func BenchmarkShardedRESTVerifier(b *testing.B) {
	for _, scenario := range []string{"fat-tree", "random"} {
		info := TopologyInfo{Name: scenario}
		for _, t := range Topologies() {
			if t.Name == scenario {
				info = t
			}
		}
		for _, nshards := range []int{1, 3} {
			nshards := nshards
			b.Run(fmt.Sprintf("%s/shards-%d", info.Name, nshards), func(b *testing.B) {
				endpoints := make([]string, nshards)
				for i := range endpoints {
					srv := httptest.NewServer(rest.NewHandler())
					defer srv.Close()
					endpoints[i] = srv.URL
				}
				client, err := rest.Dial(endpoints)
				if err != nil {
					b.Fatal(err)
				}
				probes := client.Calls() // Dial's health probes
				var res *core.Result
				for i := 0; i < b.N; i++ {
					topo, err := netgen.Generate(info.Name, info.DefaultSize)
					if err != nil {
						b.Fatal(err)
					}
					res, err = Synthesize(topo, SynthesizeOptions{Verifier: client})
					if err != nil {
						b.Fatal(err)
					}
				}
				if !res.Verified {
					b.Fatalf("%s sharded run did not verify", info.Name)
				}
				callsPerRun := float64(client.Calls()-probes) / float64(b.N)
				wallMS := float64(b.Elapsed().Milliseconds()) / float64(b.N)
				b.ReportMetric(callsPerRun, "rest-calls-per-run")
				b.ReportMetric(float64(nshards), "shards")
				metrics := map[string]float64{
					"shards":             float64(nshards),
					"rest-calls-per-run": callsPerRun,
					"wall-ms-per-run":    wallMS,
				}
				if res.CacheStats != nil {
					iters := float64(res.CacheStats.Prefetches)
					metrics["iterations-per-run"] = iters
					// The sharded acceptance shape: ≤ 1 round-trip per
					// iteration per shard, plus the final global check.
					if callsPerRun > iters*float64(nshards)+1 {
						b.Fatalf("shape violated: %.1f calls for %.0f iterations on %d shards",
							callsPerRun, iters, nshards)
					}
				}
				benchJSON(b, metrics)
			})
		}
	}
}

// BenchmarkFuzzCampaignThroughput (E17, extension) measures the fuzz
// campaign engine's case throughput: the same deterministic
// (random × sizes × seeds) sweep — every case a full synthesis pipeline
// run under a seeded error plan — on 1 worker vs 8. The sweep must pass
// (the default alphabet is the repairable set), so the benchmark doubles
// as a campaign regression gate; cases/s is the headline metric the
// campaign budget trades against coverage.
func BenchmarkFuzzCampaignThroughput(b *testing.B) {
	for _, workers := range []int{1, 8} {
		workers := workers
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			var rep *fuzz.Report
			for i := 0; i < b.N; i++ {
				c := fuzz.Campaign{
					Family:  "random",
					Sizes:   []int{6, 8, 10, 12},
					Seeds:   4,
					Workers: workers,
				}
				var err error
				rep, err = c.Run(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				if rep.Failures != 0 {
					b.Fatalf("campaign failed %d cases: %+v", rep.Failures, rep.Counterexample)
				}
			}
			wallMS := float64(b.Elapsed().Milliseconds()) / float64(b.N)
			cps := 0.0
			if wallMS > 0 {
				cps = float64(rep.Cases) / (wallMS / 1000)
			}
			b.ReportMetric(cps, "cases-per-sec")
			b.ReportMetric(float64(rep.Cases), "cases")
			benchJSON(b, map[string]float64{
				"workers":          float64(workers),
				"cases":            float64(rep.Cases),
				"planned-errors":   float64(rep.PlannedErrors),
				"total-iterations": float64(rep.TotalIterations),
				"wall-ms-per-run":  wallMS,
				"cases-per-sec":    cps,
			})
		})
	}
}

// BenchmarkScaleWall (E18, extension) sweeps the scale wall: synthesis
// wall-clock across routers and parallelism, every cell ending in the full
// whole-network BGP simulation. The paper-faithful configuration —
// sequential repair — is the baseline on the dense 16-router full mesh,
// where the simulation is a large share of the run; the parallel cells
// show what the forked per-router workers buy there and two hundred
// routers up. The cell labels are kept from when the sweep also had
// compositional cells, so the BENCH trajectory stays comparable.
func BenchmarkScaleWall(b *testing.B) {
	cells := []struct {
		scenario    string
		size        int
		parallelism int
		label       string
	}{
		{"full-mesh", 16, 1, "sequential"},
		{"full-mesh", 16, 8, "parallel-8-simulated"},
		{"random", 200, 8, "parallel-8-simulated"},
	}
	for _, c := range cells {
		c := c
		b.Run(fmt.Sprintf("%s-%d/%s", c.scenario, c.size, c.label), func(b *testing.B) {
			var res *core.Result
			for i := 0; i < b.N; i++ {
				topo, err := netgen.Generate(c.scenario, c.size)
				if err != nil {
					b.Fatal(err)
				}
				res, err = Synthesize(topo, SynthesizeOptions{Parallelism: c.parallelism})
				if err != nil {
					b.Fatal(err)
				}
			}
			if !res.Verified || res.Global == nil {
				b.Fatalf("%s-%d did not verify through the global check", c.scenario, c.size)
			}
			wallMS := float64(b.Elapsed().Milliseconds()) / float64(b.N)
			b.ReportMetric(wallMS, "wall-ms-per-run")
			a, h := res.Transcript.Counts()
			benchJSON(b, map[string]float64{
				"routers":           float64(len(res.Configs)),
				"parallelism":       float64(c.parallelism),
				"wall-ms-per-run":   wallMS,
				"automated-prompts": float64(a),
				"human-prompts":     float64(h),
			})
		})
	}
}

// BenchmarkWarmRestart (E19, extension) measures what the durable cache
// buys a restarted process: the same no-transit synthesis runs twice
// against one cache directory — once cold (empty disk tier) and once
// warm (a fresh in-memory cache, as after a crash or redeploy, but a
// populated disk tier). The warm run must answer part of its
// verification load from disk and spend fewer backend verifier calls
// (Misses) while producing the identical transcript; the cold/warm
// wall-clock pair is the headline. Note: E18 is BenchmarkScaleWall, so
// the durability experiment takes E19.
func BenchmarkWarmRestart(b *testing.B) {
	var cold, warm *Result
	var coldMS, warmMS float64
	for i := 0; i < b.N; i++ {
		dir := b.TempDir()
		start := time.Now()
		var err error
		cold, err = SynthesizeNoTransit(SynthesizeOptions{CacheDir: dir})
		if err != nil {
			b.Fatal(err)
		}
		coldMS = float64(time.Since(start).Microseconds()) / 1000
		start = time.Now()
		warm, err = SynthesizeNoTransit(SynthesizeOptions{CacheDir: dir})
		if err != nil {
			b.Fatal(err)
		}
		warmMS = float64(time.Since(start).Microseconds()) / 1000
	}
	if cold.CacheStats.DiskWrites == 0 || warm.CacheStats.DiskHits == 0 {
		b.Fatalf("durable tier idle: cold %+v, warm %+v", cold.CacheStats, warm.CacheStats)
	}
	if warm.CacheStats.Misses >= cold.CacheStats.Misses {
		b.Fatalf("warm restart not cheaper: %d backend calls vs %d cold",
			warm.CacheStats.Misses, cold.CacheStats.Misses)
	}
	if cold.Transcript.String() != warm.Transcript.String() {
		b.Fatal("warm restart changed the transcript")
	}
	b.ReportMetric(coldMS, "cold-wall-ms")
	b.ReportMetric(warmMS, "warm-wall-ms")
	benchJSON(b, map[string]float64{
		"cold-wall-ms":       coldMS,
		"warm-wall-ms":       warmMS,
		"cold-backend-calls": float64(cold.CacheStats.Misses),
		"warm-backend-calls": float64(warm.CacheStats.Misses),
		"warm-disk-hits":     float64(warm.CacheStats.DiskHits),
		"cold-disk-writes":   float64(cold.CacheStats.DiskWrites),
	})
}

// BenchmarkPromptRender (E20, extension) measures the
// modularizer's per-router prompt derivation on the 200-router random
// graph: the spec is bucketed by router and every community tag is
// formatted once, so rendering is linear in V+E instead of the seed's
// O(V·(V+E)) rescans. Prompts are byte-identical to the seed's (pinned by
// the modularizer tests); the wall-clock per derivation is the metric.
func BenchmarkPromptRender(b *testing.B) {
	topo, err := netgen.Generate("random", 200)
	if err != nil {
		b.Fatal(err)
	}
	var tasks []modularizer.Task
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tasks = modularizer.Tasks(topo)
	}
	b.StopTimer()
	bytes := 0
	for _, t := range tasks {
		bytes += len(t.Prompt)
	}
	wallMS := float64(b.Elapsed().Milliseconds()) / float64(b.N)
	b.ReportMetric(float64(len(tasks)), "tasks")
	b.ReportMetric(float64(bytes), "prompt-bytes")
	benchJSON(b, map[string]float64{
		"tasks":           float64(len(tasks)),
		"prompt-bytes":    float64(bytes),
		"wall-ms-per-run": wallMS,
	})
}

// BenchmarkIncrementalPolicyAddition (E11, extension) runs the paper's §6
// open question: add a policy to an already-verified network and catch
// the interference the careless edit introduces.
func BenchmarkIncrementalPolicyAddition(b *testing.B) {
	topo, err := netgen.Star(5)
	if err != nil {
		b.Fatal(err)
	}
	var automated, human int
	for i := 0; i < b.N; i++ {
		model := llm.NewSynthesizer(llm.DefaultSynthConfig())
		base, err := core.Synthesize(topo, core.SynthOptions{Model: model})
		if err != nil {
			b.Fatal(err)
		}
		res, err := core.AddPolicyIncremental(topo, base.Configs,
			core.IncrementalOptions{Model: model})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Verified {
			b.Fatal("incremental change did not verify")
		}
		automated, human = res.Transcript.Counts()
	}
	b.ReportMetric(float64(automated), "automated-prompts")
	b.ReportMetric(float64(human), "human-prompts")
}

// BenchmarkTelemetryOverhead (E22, extension) prices the observability
// layer on a scale synthesis (random:200): the same run with telemetry
// off, with a metrics registry and a JSONL trace sink armed, and with a
// live /metrics scraper reading the registry mid-run on top. The BENCH
// line reports the three wall-clocks and the on-vs-off overhead
// percentages; the transcripts are asserted byte-identical across the
// legs, so the numbers price the telemetry alone.
func BenchmarkTelemetryOverhead(b *testing.B) {
	topo, err := netgen.Generate("random", 200)
	if err != nil {
		b.Fatal(err)
	}
	run := func(o SynthesizeOptions) (*Result, time.Duration) {
		t, err := netgen.Generate("random", 200)
		if err != nil {
			b.Fatal(err)
		}
		start := time.Now()
		res, err := Synthesize(t, o)
		if err != nil {
			b.Fatal(err)
		}
		return res, time.Since(start)
	}
	_ = topo
	var offNS, onNS, scrapedNS int64
	for i := 0; i < b.N; i++ {
		base, offD := run(SynthesizeOptions{SuiteParallelism: 8})
		offNS += int64(offD)

		reg := obs.NewRegistry()
		tracer, err := obs.OpenTrace(filepath.Join(b.TempDir(), "trace.jsonl"))
		if err != nil {
			b.Fatal(err)
		}
		traced, onD := run(SynthesizeOptions{SuiteParallelism: 8, Metrics: reg, Trace: tracer})
		if err := tracer.Close(); err != nil {
			b.Fatal(err)
		}
		onNS += int64(onD)
		if !reflect.DeepEqual(base.Transcript, traced.Transcript) {
			b.Fatal("telemetry changed the transcript")
		}

		reg2 := obs.NewRegistry()
		tracer2, err := obs.OpenTrace(filepath.Join(b.TempDir(), "trace2.jsonl"))
		if err != nil {
			b.Fatal(err)
		}
		msrv := httptest.NewServer(obs.Handler(reg2))
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			// A deliberately aggressive scrape cadence — every 10ms, three
			// orders of magnitude hotter than a production Prometheus —
			// so the leg prices scrape contention, not idle time.
			tick := time.NewTicker(10 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					resp, gerr := http.Get(msrv.URL + obs.MetricsPath)
					if gerr == nil {
						resp.Body.Close()
					}
				}
			}
		}()
		scraped, scD := run(SynthesizeOptions{SuiteParallelism: 8, Metrics: reg2, Trace: tracer2})
		close(stop)
		<-done
		msrv.Close()
		if err := tracer2.Close(); err != nil {
			b.Fatal(err)
		}
		scrapedNS += int64(scD)
		if !reflect.DeepEqual(base.Transcript, scraped.Transcript) {
			b.Fatal("a live scraper changed the transcript")
		}
	}
	overheadOn := 100 * (float64(onNS) - float64(offNS)) / float64(offNS)
	overheadScraped := 100 * (float64(scrapedNS) - float64(offNS)) / float64(offNS)
	b.ReportMetric(float64(offNS)/float64(b.N)/1e6, "off-ms")
	b.ReportMetric(float64(onNS)/float64(b.N)/1e6, "on-ms")
	b.ReportMetric(float64(scrapedNS)/float64(b.N)/1e6, "scraped-ms")
	b.ReportMetric(overheadOn, "overhead-pct")
	benchJSON(b, map[string]float64{
		"off_ms":               float64(offNS) / float64(b.N) / 1e6,
		"on_ms":                float64(onNS) / float64(b.N) / 1e6,
		"scraped_ms":           float64(scrapedNS) / float64(b.N) / 1e6,
		"overhead_on_pct":      overheadOn,
		"overhead_scraped_pct": overheadScraped,
	})
}
