package repro

import (
	"fmt"
	"testing"

	"repro/internal/fuzz"
	"repro/internal/netgen"
	"repro/internal/topology"
)

// TestResultTierMatchesTierFreeLoop holds the result tier to the loop
// without it on randomly edited drafts. In process there is no result
// tier: every check is evaluated on its revision's memoized parse. The
// tier answers only over REST and under a disk tier, so this test is what
// exercises it on varied inputs. Each seed draws a random:16 graph and a
// fuzz plan of injected errors from the repairable alphabet, and runs the
// plan in process, over a 2-endpoint fleet, as a cold then a warm run on
// one cache directory, and as a cold run over a fleet on a second cache
// directory then a warm run over a fresh fleet on it, sequentially and on
// 2 lanes. Every run must produce the in-process run's transcript and
// configurations. The restarted fleet must be asked nothing the directory
// holds: the warm run answers every check from disk and sends no batch.
func TestResultTierMatchesTierFreeLoop(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		graph := func() *topology.Topology {
			topo, err := netgen.GenerateSeeded("random", 16, seed)
			if err != nil {
				t.Fatal(err)
			}
			return topo
		}
		plan := fuzz.PlanFor(graph(), seed, fuzz.DefaultAlphabet())
		if plan.Cardinality() == 0 {
			t.Fatalf("seed %d: the plan injects nothing", seed)
		}
		sites, err := plan.SiteErrors()
		if err != nil {
			t.Fatal(err)
		}
		for _, lanes := range []int{1, 2} {
			t.Run(fmt.Sprintf("seed-%d/lanes-%d", seed, lanes), func(t *testing.T) {
				run := func(label string, opts SynthesizeOptions) *Result {
					t.Helper()
					opts.Parallelism, opts.ErrorPlan = lanes, sites
					res, err := Synthesize(graph(), opts)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					return res
				}
				base := run("in process", SynthesizeOptions{})
				if !base.Verified {
					t.Errorf("in process: the run did not verify; punted %v", base.PuntedFindings)
				}
				if st := base.CacheStats; st.Hits != 0 || st.Misses == 0 {
					t.Errorf("in process: %v, want no hits and every check a miss", st)
				}
				requireSameRun(t, "2-endpoint", base, run("2-endpoint", SynthesizeOptions{Verifier: fleet(t, 2)}))
				dir := t.TempDir()
				cold := run("cold", SynthesizeOptions{CacheDir: dir})
				requireSameRun(t, "cold", base, cold)
				warm := run("warm", SynthesizeOptions{CacheDir: dir})
				requireSameRun(t, "warm", base, warm)
				if cold.CacheStats.DiskWrites == 0 || warm.CacheStats.DiskHits == 0 {
					t.Errorf("disk tier idle: cold %v, warm %v", cold.CacheStats, warm.CacheStats)
				}
				restartDir := t.TempDir()
				requireSameRun(t, "cold fleet", base,
					run("cold fleet", SynthesizeOptions{Verifier: fleet(t, 2), CacheDir: restartDir}))
				restarted := run("restarted fleet", SynthesizeOptions{Verifier: fleet(t, 2), CacheDir: restartDir})
				requireSameRun(t, "restarted fleet", base, restarted)
				if st := restarted.CacheStats; st.Prefetches != 0 || st.Misses != 0 || st.DiskHits == 0 {
					t.Errorf("restarted fleet: %v, want no prefetch and every check from disk", st)
				}
			})
		}
	}
}
