package core

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/llm"
	"repro/internal/netgen"
)

// TestScanFirstRunsWholeWaves: with workers > 1 the checks that run are
// whole waves of workers indexes, up to the first wave holding an outcome,
// however long each check takes. Index 0's check is slow and finds
// something; the others are instant and clean, and must not run past the
// first wave while it sleeps.
func TestScanFirstRunsWholeWaves(t *testing.T) {
	for _, c := range []struct {
		n, workers, found int
		ran               int
	}{
		{n: 100, workers: 4, found: 0, ran: 4},
		{n: 100, workers: 4, found: 5, ran: 8},
		{n: 10, workers: 4, found: 9, ran: 10},
		{n: 10, workers: 4, found: -1, ran: 10},
		{n: 3, workers: 8, found: 1, ran: 3},
	} {
		var mu sync.Mutex
		ran := map[int]bool{}
		want := &Finding{Key: "first"}
		f, err := scanFirst(c.n, c.workers, func(i int) (*Finding, error) {
			mu.Lock()
			ran[i] = true
			mu.Unlock()
			if i == c.found {
				time.Sleep(10 * time.Millisecond)
				return want, nil
			}
			if i > c.found && c.found >= 0 {
				return &Finding{Key: "later"}, nil
			}
			return nil, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if (c.found >= 0) != (f == want) {
			t.Errorf("%+v: finding %v, want index %d's", c, f, c.found)
		}
		if len(ran) != c.ran {
			t.Errorf("%+v: %d checks ran, want %d", c, len(ran), c.ran)
		}
	}
}

// TestSuiteParallelCacheStatsRepeat: a run whose suite scans on 4 workers
// reports the same cache counters every time, as its transcript is the
// same every time. The counters used to depend on how far the workers got
// past the first finding before they saw it.
func TestSuiteParallelCacheStatsRepeat(t *testing.T) {
	topo, err := netgen.Star(40)
	if err != nil {
		t.Fatal(err)
	}
	var first *Result
	for run := 0; run < 4; run++ {
		res, err := Synthesize(topo, SynthOptions{
			Model: llm.NewSynthesizer(llm.DefaultSynthConfig()), SuiteParallelism: 4})
		if err != nil {
			t.Fatal(err)
		}
		if res.CacheStats == nil {
			t.Fatal("no cache stats")
		}
		if first == nil {
			first = res
			continue
		}
		if got, want := res.Transcript.String(), first.Transcript.String(); got != want {
			t.Fatalf("run %d: transcript differs from run 0", run)
		}
		if !reflect.DeepEqual(*res.CacheStats, *first.CacheStats) {
			t.Fatalf("run %d: %v, run 0: %v", run, *res.CacheStats, *first.CacheStats)
		}
	}
}
