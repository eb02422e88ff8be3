package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTracerEmitsValidJSONL(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	start := time.Unix(100, 0)
	tr.Emit(Event{TS: start, Stage: StageRun, DurNS: int64(8 * time.Second), Run: "synth"})
	tr.Emit(Event{TS: start, Stage: StageBatchRPC, Shard: "http://127.0.0.1:9/", Checks: 12, Bytes: 3400, DurNS: 5})
	tr.Emit(Event{TS: start, Stage: StageCacheHit, Outcome: "disk", Router: "r3"})
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	n := 0
	for sc.Scan() {
		n++
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line %d is not valid JSON: %v", n, err)
		}
		if ev.Stage == "" {
			t.Fatalf("line %d has no stage", n)
		}
	}
	if n != 3 {
		t.Fatalf("got %d lines, want 3", n)
	}
}

func TestTracerNilIsNoOp(t *testing.T) {
	var tr *Tracer
	tr.Emit(Event{Stage: StageLLMCall})
	tr.Span(time.Now(), Event{Stage: StageParse})
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestTracerConcurrentEmit(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tr.Emit(Event{Stage: StageParse, Router: "r"})
			}
		}()
	}
	wg.Wait()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if got := bytes.Count(buf.Bytes(), []byte("\n")); got != 8*200 {
		t.Fatalf("got %d lines, want %d (events interleaved or lost)", got, 8*200)
	}
}

// traceFixture builds a synthetic sequential run: the top-level stages
// tile 9.8s of a 10s run span, with nested transport/cache/parse detail
// events that must NOT be double counted.
func traceFixture() string {
	ts := time.Unix(1000, 0)
	evs := []Event{
		{TS: ts, Stage: StageRun, DurNS: int64(10 * time.Second), Run: "synth"},
		{TS: ts, Stage: StageLLMCall, DurNS: int64(4 * time.Second), Iter: 1, Router: "r1"},
		{TS: ts, Stage: StageLocalCheck, DurNS: int64(3 * time.Second), Outcome: "prefetch", Checks: 20},
		{TS: ts, Stage: StageGlobalCheck, DurNS: int64(2 * time.Second)},
		{TS: ts, Stage: StageCheckpointSave, DurNS: int64(500 * time.Millisecond)},
		{TS: ts, Stage: StageCacheFlush, DurNS: int64(300 * time.Millisecond), Checks: 20, Bytes: 4096},
		// Nested detail: inside local_check and llm_call above.
		{TS: ts, Stage: StageBatchRPC, DurNS: int64(2 * time.Second), Shard: "http://a", Checks: 20, Bytes: 999},
		{TS: ts, Stage: StageRetry, Shard: "http://a"},
		{TS: ts, Stage: StageParse, DurNS: int64(1 * time.Second), Router: "r1"},
		{TS: ts, Stage: StageCacheHit, Outcome: "memory"},
		{TS: ts, Stage: StageCacheHit, Outcome: "disk"},
		{TS: ts, Stage: StageCacheMiss},
	}
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	for _, ev := range evs {
		tr.Emit(ev)
	}
	tr.Close()
	return buf.String()
}

func TestSummarizeAttribution(t *testing.T) {
	s, err := Summarize(strings.NewReader(traceFixture()))
	if err != nil {
		t.Fatal(err)
	}
	if s.Runs != 1 || s.RunNS != int64(10*time.Second) {
		t.Fatalf("run span: %d spans, %v", s.Runs, time.Duration(s.RunNS))
	}
	// 4 + 3 + 2 + 0.5 + 0.3 = 9.8s of the 10s run: 98%, with the nested
	// 3s of batch_rpc+parse excluded from attribution.
	if got := s.AttributedNS(); got != int64(9800*time.Millisecond) {
		t.Fatalf("attributed = %v, want 9.8s", time.Duration(got))
	}
	if f := s.AttributedFraction(); f < 0.979 || f > 0.981 {
		t.Fatalf("attributed fraction = %v, want 0.98", f)
	}
	sh := s.Shards["http://a"]
	if sh == nil || sh.RPCs != 1 || sh.Checks != 20 || sh.Bytes != 999 || sh.Retries != 1 {
		t.Fatalf("shard table wrong: %+v", sh)
	}
	if s.CacheHitsMemory != 1 || s.CacheHitsDisk != 1 || s.CacheMisses != 1 {
		t.Fatalf("cache tallies: %d/%d/%d", s.CacheHitsMemory, s.CacheHitsDisk, s.CacheMisses)
	}
	out := s.String()
	for _, want := range []string{"llm_call", "cache_flush", "attributed", "98.0%", "http://a"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary table missing %q:\n%s", want, out)
		}
	}
}

func TestSummarizeToleratesTornTail(t *testing.T) {
	text := traceFixture() + `{"ts":"2026-01-01T00:00:00Z","stage":"parse","dur_` // killed mid-write
	s, err := Summarize(strings.NewReader(text))
	if err != nil {
		t.Fatalf("torn tail should be tolerated: %v", err)
	}
	if s.Runs != 1 {
		t.Fatalf("runs = %d, want 1", s.Runs)
	}
}
