package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
	"sync"
	"time"
)

// Trace-event stages. Every span a pipeline run emits carries one of
// these in Event.Stage; the -trace-summary post-processor keys its
// attribution table on them.
const (
	// StageRun is the enclosing span of one whole Synthesize/Translate
	// run; its duration is the denominator of the attribution table.
	StageRun = "run"
	// StageLLMCall is one model completion (session.send), including
	// prompt rendering.
	StageLLMCall = "llm_call"
	// StageRender is one config render inside the model layer.
	StageRender = "render"
	// StageParse is one cache-missing configuration parse.
	StageParse = "parse"
	// StageLocalCheck is one verification dispatch through the cached
	// verifier — a single check or a prefetch batch (Outcome "check" or
	// "prefetch"); key hashing, cache lookups, evaluations, parses and
	// batch RPCs nest inside it.
	StageLocalCheck = "local_check"
	// StageEvaluate is the verifier's evaluation of one check the cache
	// missed, nested in that check's local_check span and keyed like it
	// (Detail is the check kind). The local_check time a run's evaluate
	// spans do not cover is dispatch: key hashing and cache lookups.
	StageEvaluate = "evaluate"
	// StageGlobalCheck is one global no-transit check: one cold
	// whole-network BGP simulation.
	StageGlobalCheck = "global_check"
	// StageCacheHit / StageCacheMiss are point events from the
	// verification result cache; Outcome is the tier ("memory", "disk").
	StageCacheHit  = "cache_hit"
	StageCacheMiss = "cache_miss"
	// StageBatchRPC is one POST to a shard's batch endpoint, with its
	// check count and bytes on the wire.
	StageBatchRPC = "batch_rpc"
	// StageRetry is one transport retry.
	StageRetry = "retry"
	// StageCheckpointSave / StageCheckpointRestore bracket durability.
	StageCheckpointSave    = "checkpoint_save"
	StageCheckpointRestore = "checkpoint_restore"
	// StageCacheFlush is one pack write to the durable verification
	// cache, with its entry count in Checks and its size in Bytes.
	StageCacheFlush = "cache_flush"
	// StageFuzzCase is one fuzz campaign case verdict.
	StageFuzzCase = "fuzz_case"
)

// Event is one JSONL trace record. TS is wall-clock; DurNS is the span
// duration (zero for point events). Run/Iter/Router/Attachment key the
// event to the pipeline position that emitted it; Shard/Checks/Bytes
// describe transport work; Outcome and Detail are stage-specific.
type Event struct {
	TS         time.Time `json:"ts"`
	Stage      string    `json:"stage"`
	DurNS      int64     `json:"dur_ns,omitempty"`
	Run        string    `json:"run,omitempty"`
	Iter       int       `json:"iter,omitempty"`
	Router     string    `json:"router,omitempty"`
	Attachment string    `json:"attachment,omitempty"`
	Shard      string    `json:"shard,omitempty"`
	// Proto is no longer set: the wire has one protocol version. The
	// field stays because bench/cobench still reads it (its
	// rest.delta_rpc_share metric now reads 0) until the benchmark drops
	// that metric.
	Proto   int    `json:"proto,omitempty"`
	Checks  int    `json:"checks,omitempty"`
	Bytes   int64  `json:"bytes,omitempty"`
	Outcome string `json:"outcome,omitempty"`
	Detail  string `json:"detail,omitempty"`
}

// Tracer serializes Events to a JSONL sink. All methods are nil-safe: a
// nil *Tracer is the disabled state and every Emit on it is a no-op, so
// call sites thread one pointer and never branch. A non-nil Tracer is
// safe for concurrent use.
type Tracer struct {
	mu  sync.Mutex
	w   *bufio.Writer
	c   io.Closer
	err error
}

// NewTracer returns a tracer writing JSONL events to w.
func NewTracer(w io.Writer) *Tracer {
	t := &Tracer{w: bufio.NewWriterSize(w, 1<<16)}
	if c, ok := w.(io.Closer); ok {
		t.c = c
	}
	return t
}

// OpenTrace creates (truncating) the JSONL trace file at path.
func OpenTrace(path string) (*Tracer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return NewTracer(f), nil
}

// Emit appends one event. Events with a zero TS are stamped with the
// current time. Write errors are sticky and surfaced by Close.
func (t *Tracer) Emit(ev Event) {
	if t == nil {
		return
	}
	if ev.TS.IsZero() {
		ev.TS = time.Now()
	}
	data, err := json.Marshal(ev)
	t.mu.Lock()
	defer t.mu.Unlock()
	if err != nil {
		if t.err == nil {
			t.err = err
		}
		return
	}
	if t.err != nil {
		return
	}
	if _, err := t.w.Write(data); err != nil {
		t.err = err
		return
	}
	if err := t.w.WriteByte('\n'); err != nil {
		t.err = err
	}
}

// Span emits a duration event for work that began at start: TS is the
// start time and DurNS the elapsed time since. The remaining fields come
// from ev.
func (t *Tracer) Span(start time.Time, ev Event) {
	if t == nil {
		return
	}
	ev.TS = start
	ev.DurNS = time.Since(start).Nanoseconds()
	t.Emit(ev)
}

// Flush forces buffered events to the sink (the live tail case).
func (t *Tracer) Flush() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return t.err
	}
	return t.w.Flush()
}

// Close flushes and closes the sink, returning the first error the
// tracer hit. Nil-safe.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	ferr := t.w.Flush()
	if t.err == nil {
		t.err = ferr
	}
	if t.c != nil {
		if cerr := t.c.Close(); t.err == nil {
			t.err = cerr
		}
		t.c = nil
	}
	return t.err
}
