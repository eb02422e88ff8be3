package repro

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/llm"
	"repro/internal/netgen"
)

// pinsPath holds the digests TestTranscriptsPinned checks. They were taken
// once, from the code before the stanza-incremental config pipeline was
// removed, and are never regenerated: a digest that moves means a
// transcript, a configuration or a prompt count changed.
var pinsPath = filepath.Join("testdata", "transcripts.json")

// runPin is one run's paper-visible outcome, reduced to digests.
type runPin struct {
	// Transcript is the SHA-256 of every record's kind, stage, changed
	// flag and prompt, in order.
	Transcript string `json:"transcript"`
	// Configs is the SHA-256 of the final configurations in router order.
	Configs   string `json:"configs"`
	Automated int    `json:"automated"`
	Human     int    `json:"human"`
}

// pinOf digests a result. Every field is length-prefixed, so no two
// distinct transcripts or config sets share an encoding.
func pinOf(r *Result) runPin {
	th := sha256.New()
	for _, rec := range r.Transcript {
		fmt.Fprintf(th, "%d %d:%s %t %d:%s\n", rec.Kind, len(rec.Stage), rec.Stage,
			rec.Changed, len(rec.Prompt), rec.Prompt)
	}
	names := make([]string, 0, len(r.Configs))
	for name := range r.Configs {
		names = append(names, name)
	}
	sort.Strings(names)
	ch := sha256.New()
	for _, name := range names {
		fmt.Fprintf(ch, "%d:%s %d:%s\n", len(name), name, len(r.Configs[name]), r.Configs[name])
	}
	a, h := r.Transcript.Counts()
	return runPin{
		Transcript: hex.EncodeToString(th.Sum(nil)),
		Configs:    hex.EncodeToString(ch.Sum(nil)),
		Automated:  a,
		Human:      h,
	}
}

// pinnedRuns runs every pinned scenario and digests its result: each
// registry scenario at its default size, sequentially and with four repair
// lanes, plus the paper's two use cases and the §6 policy-addition task.
func pinnedRuns(t *testing.T) map[string]runPin {
	t.Helper()
	pins := map[string]runPin{}
	record := func(key string, r *Result, err error) {
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		pins[key] = pinOf(r)
	}
	for _, info := range Topologies() {
		for _, par := range []int{1, 4} {
			key := fmt.Sprintf("synthesize/%s:%d/parallel-%d", info.Name, info.DefaultSize, par)
			r, err := Synthesize(mustTopo(t, info.Name, info.DefaultSize),
				SynthesizeOptions{Parallelism: par})
			record(key, r, err)
		}
	}
	r, err := SynthesizeNoTransit(SynthesizeOptions{})
	record("notransit/star:7", r, err)
	r, err = Translate(ExampleCiscoConfig(), TranslateOptions{})
	record("translate/example", r, err)

	topo, err := netgen.Star(5)
	if err != nil {
		t.Fatal(err)
	}
	model := llm.NewSynthesizer(llm.DefaultSynthConfig())
	base, err := core.Synthesize(topo, core.SynthOptions{Model: model})
	if err != nil {
		t.Fatal(err)
	}
	r, err = core.AddPolicyIncremental(topo, base.Configs, core.IncrementalOptions{Model: model})
	record("add-policy-incremental/star:5", r, err)
	return pins
}

// TestTranscriptsPinned checks every pinned run against its recorded
// digests, so a refactor of the parse, render or verification layers
// cannot change what a run produces without this test noticing.
func TestTranscriptsPinned(t *testing.T) {
	data, err := os.ReadFile(pinsPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]runPin
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", pinsPath, err)
	}
	got := pinnedRuns(t)
	for key, w := range want {
		g, ok := got[key]
		if !ok {
			t.Errorf("%s: pinned run no longer produced", key)
			continue
		}
		if g != w {
			t.Errorf("%s: outcome moved:\n got %+v\nwant %+v", key, g, w)
		}
	}
	for key := range got {
		if _, ok := want[key]; !ok {
			t.Errorf("%s: run has no pinned digest in %s", key, pinsPath)
		}
	}
}

// checkCounts pins how many checks the in-process run of each registry
// scenario at its default size evaluates, sequentially and on 2 lanes.
// The scan stops at the first finding of every iteration, so a scan that
// ran past it would keep every transcript and show only here.
var checkCounts = map[string]uint64{
	"star:7/lanes-1":           113,
	"star:7/lanes-2":           51,
	"ring:8/lanes-1":           139,
	"ring:8/lanes-2":           56,
	"full-mesh:6/lanes-1":      111,
	"full-mesh:6/lanes-2":      46,
	"fat-tree:4/lanes-1":       271,
	"fat-tree:4/lanes-2":       80,
	"dual-homed:6/lanes-1":     138,
	"dual-homed:6/lanes-2":     61,
	"multi-customer:6/lanes-1": 96,
	"multi-customer:6/lanes-2": 43,
	"random:12/lanes-1":        198,
	"random:12/lanes-2":        79,
}

// TestInProcessCheckCountsPinned runs each pinned configuration twice: the
// counters must repeat from run to run, and the checks evaluated
// (CacheStats.Misses, since in process there is no result tier) must equal
// the pinned count.
func TestInProcessCheckCountsPinned(t *testing.T) {
	for _, info := range Topologies() {
		for _, lanes := range []int{1, 2} {
			key := fmt.Sprintf("%s:%d/lanes-%d", info.Name, info.DefaultSize, lanes)
			var first *core.CacheStats
			for run := 0; run < 2; run++ {
				r, err := Synthesize(mustTopo(t, info.Name, info.DefaultSize),
					SynthesizeOptions{Parallelism: lanes})
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				if first == nil {
					first = r.CacheStats
					continue
				}
				if *r.CacheStats != *first {
					t.Errorf("%s: run %d: %v, run 0: %v", key, run, *r.CacheStats, *first)
				}
			}
			if got, want := first.Misses, checkCounts[key]; got != want {
				t.Errorf("%s: %d checks evaluated, pinned %d", key, got, want)
			}
		}
	}
}
