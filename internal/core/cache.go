package core

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"repro/internal/batfish"
	"repro/internal/durable"
	"repro/internal/lightyear"
	"repro/internal/obs"
	"repro/internal/suite"
	"repro/internal/topology"
)

// SuiteCheck is one independent check of the verification suite in a
// transport-neutral form (see internal/suite): the pipeline's stages list
// their checks as SuiteCheck values, Verifier.Check evaluates one, and a
// batch-capable verifier ships a whole iteration's worth in one
// round-trip.
type SuiteCheck = suite.Check

// SuiteResult is the outcome of one SuiteCheck; which fields are
// meaningful depends on the check's kind.
type SuiteResult = suite.Result

// Suite check kinds, re-exported from internal/suite.
const (
	SuiteSyntax   = suite.KindSyntax
	SuiteTopology = suite.KindTopology
	SuiteLocal    = suite.KindLocal
	SuiteDiff     = suite.KindDiff
)

// CacheStats are a CachedVerifier's counters.
type CacheStats struct {
	// Hits and Misses count the Check calls the result tier answered from
	// memory or disk and the ones evaluated on the verifier, over every
	// check kind. In process without a disk tier there is no result tier:
	// Hits stays 0 and Misses counts every check evaluated. A batched
	// run's prefetch fills the tier before the scan, so its scan reads
	// only hits.
	Hits   uint64
	Misses uint64
	// Prefetches counts batched prefetch calls that shipped work — one
	// per pipeline iteration that had uncached checks — and BatchedChecks
	// the individual checks they carried.
	Prefetches    uint64
	BatchedChecks uint64
	// DiskHits counts checks the durable disk tier answered after the
	// memory tier missed (each still counts toward Hits — the backend
	// was spared), and DiskWrites the results Flush persisted to it. Both
	// stay zero without a mounted durable cache.
	DiskHits   uint64
	DiskWrites uint64
	// RestRetries counts transport retries across every REST endpoint
	// the run's verifier dispatched to (zero in process).
	RestRetries uint64
	// FragmentHits, FragmentMisses and FragmentDiskHits are never set.
	//
	// Deprecated: the stanza sub-cache they counted is gone; they exist
	// only so bench/cobench keeps compiling, and go at the next benchmark
	// change.
	FragmentHits     uint64
	FragmentMisses   uint64
	FragmentDiskHits uint64
}

// String renders the counters.
func (s CacheStats) String() string {
	base := fmt.Sprintf("cache: %d hits / %d misses, %d prefetch round-trips (%d checks)",
		s.Hits, s.Misses, s.Prefetches, s.BatchedChecks)
	if s.DiskHits > 0 || s.DiskWrites > 0 {
		base += fmt.Sprintf(", disk tier: %d hits / %d writes", s.DiskHits, s.DiskWrites)
	}
	if s.RestRetries > 0 {
		base += fmt.Sprintf(", transport: %d retries", s.RestRetries)
	}
	return base
}

// CachedVerifier is the one dispatch layer every run verifies through:
// it wraps a Verifier with the run's counters, trace spans and dispatch
// histogram, the batched prefetch, and the result tier, which memoizes
// Check calls — syntax, topology, local policy, and translation diff —
// keyed by a hash of the check's inputs (config text plus
// spec/requirement).
//
// The result tier is read and filled only where a result costs more to
// fetch than to key: when the verifier is not the in-process
// LocalVerifier (the REST client, or a custom suite), or when a durable
// disk tier is mounted. In process without one, Check evaluates directly
// on the LocalVerifier, whose parse cache parses each configuration
// revision once: re-checking an unchanged router against its memoized
// parse costs about what a tier hit does, since keying a check hashes its
// spec or requirement's JSON. Results are pure functions of their inputs,
// so transcripts are byte-identical whichever path answers.
//
// When the verifier also implements the batch seam, suite.Backend (the
// REST client, rest.Client), Prefetch ships all outstanding misses as one
// batched call per iteration — one round-trip per endpoint, issued in
// parallel — turning a pipeline iteration's many verifier round-trips
// into at most one per endpoint. A miss outside a prefetch asks the
// verifier for that one check.
//
// The global BGP simulation is deliberately not memoized: it runs once per
// converged run, on the whole network, and its inputs change whenever any
// router changes.
//
// CachedVerifier is safe for concurrent use and may be shared by the
// parallel per-router repair workers: the result tier is a grow-only
// sync.Map, which keeps concurrent workers from serializing on one lock.
type CachedVerifier struct {
	v Verifier
	// backend is v as a batch seam, nil when v is not one: then Prefetch
	// does nothing and every miss is evaluated on its own.
	backend suite.Backend
	// local reports that v is the in-process LocalVerifier: then the
	// result tier is bypassed unless a disk tier is mounted (see tiered).
	local bool

	// results is the memory tier, suite key → SuiteResult.
	results sync.Map

	// disk is the optional durable tier underneath the memory tier (see
	// SetDurable): an in-memory miss consults it before dispatching to
	// the backend, and every backend result is queued in pending until
	// Flush persists the queue as one pack.
	disk      *durable.Cache
	pendingMu sync.Mutex
	pending   []durable.Entry

	// digests memoizes each configuration revision's TextDigest, and each
	// spec's and requirement's body digest per pointer, so the thousands
	// of check keys a run derives against the same few revisions and
	// stage lists hash each body once (suite.KeyD).
	digests *suite.Digests

	// The counters are obs instruments from birth (standalone atomics);
	// SetObs adopts them into a registry without losing counts. Stats()
	// reads them back, so the struct stays a view over the instruments.
	hits          *obs.Counter
	misses        *obs.Counter
	prefetches    *obs.Counter
	batchedChecks *obs.Counter
	diskHits      *obs.Counter
	diskWrites    *obs.Counter

	// tracer is the optional JSONL trace sink (nil = off) and runLabel
	// the run name its events carry; verifySeconds the optional dispatch
	// histogram a bound registry provides.
	tracer        *obs.Tracer
	runLabel      string
	verifySeconds *obs.Histogram
}

// NewCachedVerifier wraps a verifier in the dispatch layer. nil (and the
// zero LocalVerifier) become a LocalVerifier threaded with a fresh parse
// cache, so each configuration revision is parsed once per run instead
// of once per stage per iteration.
//
// The layer batches exactly when the verifier implements suite.Backend
// (rest.Client). The in-process suite does not, so it evaluates lazily and
// the stage scan keeps its early exit: there is no round-trip to amortize.
func NewCachedVerifier(v Verifier) *CachedVerifier {
	if v == nil {
		v = LocalVerifier{}
	}
	lv, local := v.(LocalVerifier)
	if local && lv.Parses == nil {
		v = LocalVerifier{Parses: batfish.NewParseCache()}
	}
	c := &CachedVerifier{
		v: v, local: local, digests: suite.NewDigests(),
		hits: &obs.Counter{}, misses: &obs.Counter{},
		prefetches: &obs.Counter{}, batchedChecks: &obs.Counter{},
		diskHits: &obs.Counter{}, diskWrites: &obs.Counter{},
	}
	c.backend, _ = v.(suite.Backend)
	return c
}

// tiered reports whether Check reads and fills the result tier: always
// over a verifier that is not the in-process LocalVerifier, and in
// process only under a mounted disk tier.
func (c *CachedVerifier) tiered() bool { return !c.local || c.disk != nil }

// Batched reports whether the verifier takes batches, i.e. whether eager
// per-iteration prefetching pays for itself.
func (c *CachedVerifier) Batched() bool { return c.backend != nil }

// SetDurable mounts a disk-backed tier under the memory tier, and so
// switches the result tier on in process too: an in-memory miss consults
// it (a hit is decoded, promoted into memory, and served without touching
// the backend), and every result the backend computes is queued for it;
// Flush writes the queue as one pack, so later runs — and concurrent
// processes sharing the directory — restart warm. nil unmounts. The disk
// tier never changes a result: entries are content-addressed by suite.Key
// and results are pure functions of the keyed inputs, so transcripts stay
// byte-identical whether a result came from memory, disk, or the backend.
func (c *CachedVerifier) SetDurable(d *durable.Cache) {
	c.disk = d
}

// SetObs binds the verifier's instruments to a metrics registry and/or a
// trace sink; either may be nil. The existing counters are adopted into
// the registry (counts preserved), and the binding propagates to every
// layer the verifier owns: the parse cache, the durable disk tier, and a
// REST backend that itself carries a SetObs method. runLabel names this
// run's trace events. Call it before the run starts dispatching; telemetry
// never changes a result.
func (c *CachedVerifier) SetObs(reg *obs.Registry, tr *obs.Tracer, runLabel string) {
	c.tracer = tr
	c.runLabel = runLabel
	if reg != nil {
		reg.RegisterCounter("cosynth_verify_cache_hits_total", c.hits)
		reg.RegisterCounter("cosynth_verify_cache_misses_total", c.misses)
		reg.RegisterCounter("cosynth_verify_prefetch_calls_total", c.prefetches)
		reg.RegisterCounter("cosynth_verify_batched_checks_total", c.batchedChecks)
		reg.RegisterCounter("cosynth_verify_cache_disk_hits_total", c.diskHits)
		reg.RegisterCounter("cosynth_verify_cache_disk_writes_total", c.diskWrites)
		c.verifySeconds = reg.Histogram("cosynth_verify_dispatch_seconds", obs.DefSecondsBuckets)
	}
	if lv, ok := c.v.(LocalVerifier); ok && lv.Parses != nil {
		lv.Parses.SetObs(reg, tr)
	}
	if c.disk != nil {
		c.disk.SetMetrics(reg)
	}
	if bo, ok := c.backend.(interface {
		SetObs(*obs.Registry, *obs.Tracer)
	}); ok {
		bo.SetObs(reg, tr)
	}
}

// Stats returns the counters, with the REST transport retries summed
// across endpoints when the verifier reports them.
func (c *CachedVerifier) Stats() CacheStats {
	s := CacheStats{
		Hits:          c.hits.Value(),
		Misses:        c.misses.Value(),
		Prefetches:    c.prefetches.Value(),
		BatchedChecks: c.batchedChecks.Value(),
		DiskHits:      c.diskHits.Value(),
		DiskWrites:    c.diskWrites.Value(),
	}
	if r, ok := c.backend.(interface{ Retries() int64 }); ok {
		if n := r.Retries(); n > 0 {
			s.RestRetries = uint64(n)
		}
	}
	return s
}

// traceCache emits one cache point event, if tracing.
func (c *CachedVerifier) traceCache(stage, tier string, sc SuiteCheck) {
	if c.tracer == nil {
		return
	}
	ev := obs.Event{Stage: stage, Outcome: tier, Run: c.runLabel, Detail: string(sc.Kind)}
	fillCheckIdentity(&ev, sc)
	c.tracer.Emit(ev)
}

// fillCheckIdentity keys a trace event to the check's pipeline position.
func fillCheckIdentity(ev *obs.Event, sc SuiteCheck) {
	switch {
	case sc.Req != nil:
		ev.Router = sc.Req.Router
		if sc.Req.Attachment.Router != "" {
			ev.Attachment = sc.Req.Attachment.String()
		}
	case sc.Spec != nil:
		ev.Router = sc.Spec.Name
	}
}

// lookup returns the memoized result for a check, if present, along with
// the tier that answered ("memory" or "disk"): first the memory tier,
// then the mounted durable tier, whose hit is promoted into memory so it
// is paid for once per process. A disk entry that fails to decode, or is
// violated with no violation, reads as a miss and is recomputed: the
// durable layer already quarantined anything failing its checksum, so
// such an entry means a format drift or another writer's fault, and must
// not crash the scan.
func (c *CachedVerifier) lookup(key [sha256.Size]byte) (SuiteResult, string, bool) {
	if res, ok := c.results.Load(key); ok {
		return res.(SuiteResult), "memory", true
	}
	if c.disk == nil {
		return SuiteResult{}, "", false
	}
	payload, ok := c.disk.Get(key)
	if !ok {
		return SuiteResult{}, "", false
	}
	// Decoding moves its target to the heap, so only a disk read pays.
	var dres SuiteResult
	if json.Unmarshal(payload, &dres) != nil || dres.Validate() != nil {
		return SuiteResult{}, "", false
	}
	c.diskHits.Inc()
	return c.remember(key, dres), "disk", true
}

// remember memoizes one result in the memory tier and returns the one
// kept: when concurrent misses on a key race, the first result stored
// wins and every caller gets it.
func (c *CachedVerifier) remember(key [sha256.Size]byte, res SuiteResult) SuiteResult {
	kept, _ := c.results.LoadOrStore(key, res)
	return kept.(SuiteResult)
}

// persist queues one result for the durable tier's next pack, if mounted.
func (c *CachedVerifier) persist(key [sha256.Size]byte, res SuiteResult) {
	if c.disk == nil {
		return
	}
	payload, err := json.Marshal(res)
	if err != nil {
		return
	}
	c.pendingMu.Lock()
	c.pending = append(c.pending, durable.Entry{Key: key, Payload: payload})
	c.pendingMu.Unlock()
}

// Flush writes the results queued since the last Flush to the durable
// tier as one pack, in one cache_flush span. RunPipeline flushes once per
// iteration, so a crash loses at most that iteration's results, which the
// resumed run recomputes. Disk failures are deliberately swallowed: a
// full or read-only disk downgrades the run to memory-only caching, it
// does not fail verification.
func (c *CachedVerifier) Flush() {
	if c.disk == nil {
		return
	}
	c.pendingMu.Lock()
	entries := c.pending
	c.pending = nil
	c.pendingMu.Unlock()
	if len(entries) == 0 {
		return
	}
	start := time.Now()
	n, err := c.disk.Put(entries...)
	ev := obs.Event{Stage: obs.StageCacheFlush, Run: c.runLabel, Checks: len(entries), Bytes: int64(n)}
	if err != nil {
		ev.Outcome = "error"
	} else {
		c.diskWrites.Add(uint64(len(entries)))
	}
	c.tracer.Span(start, ev)
}

// Check implements Verifier: it answers one suite check, through the
// result tier when tiered, evaluating a miss on the verifier. The
// local_check span covers the whole dispatch — key hashing, tier lookup,
// and (on a miss) the verifier call — so a traced run's verification time
// is attributed even when the tier answers most of it; Outcome
// distinguishes "hit" from a verifier "check". The verifier call has an
// evaluate span of its own inside it, so the trace tells dispatch apart
// from evaluation.
func (c *CachedVerifier) Check(sc SuiteCheck) (SuiteResult, error) {
	var start time.Time
	if c.tracer != nil || c.verifySeconds != nil {
		start = time.Now()
	}
	span := func(outcome string) {
		if start.IsZero() {
			return
		}
		if c.verifySeconds != nil {
			c.verifySeconds.Observe(time.Since(start).Seconds())
		}
		if c.tracer != nil {
			ev := obs.Event{Stage: obs.StageLocalCheck, Outcome: outcome, Checks: 1,
				Run: c.runLabel, Detail: string(sc.Kind)}
			fillCheckIdentity(&ev, sc)
			c.tracer.Span(start, ev)
		}
	}
	if !c.tiered() {
		res, err := c.evaluate(sc, start)
		span("check")
		if err != nil {
			return SuiteResult{}, err
		}
		c.misses.Inc()
		return res, nil
	}
	key := suite.KeyD(sc, c.digests)
	if res, tier, ok := c.lookup(key); ok {
		c.hits.Inc()
		c.traceCache(obs.StageCacheHit, tier, sc)
		span("hit")
		return res, nil
	}
	c.traceCache(obs.StageCacheMiss, "", sc)
	res, err := c.evaluate(sc, time.Time{})
	span("check")
	if err != nil {
		return SuiteResult{}, err
	}
	c.misses.Inc()
	c.persist(key, res)
	return c.remember(key, res), nil
}

// evaluate runs one check on the verifier, in an evaluate span when
// tracing. The span starts at start, or now when start is zero: without
// the result tier nothing runs between the two, so the check's
// local_check span passes its own start and the evaluate span nests in
// it exactly.
func (c *CachedVerifier) evaluate(sc SuiteCheck, start time.Time) (SuiteResult, error) {
	if c.tracer == nil {
		return c.v.Check(sc)
	}
	if start.IsZero() {
		start = time.Now()
	}
	res, err := c.v.Check(sc)
	ev := obs.Event{Stage: obs.StageEvaluate, Run: c.runLabel, Detail: string(sc.Kind)}
	fillCheckIdentity(&ev, sc)
	c.tracer.Span(start, ev)
	return res, err
}

// Prefetch warms the cache with every not-yet-cached check in one batched
// call against the backend. It is a no-op when the verifier takes no
// batches (the in-process suite evaluates lazily, so the stage scan's
// early exit keeps its savings) or when every check is already cached.
func (c *CachedVerifier) Prefetch(checks []SuiteCheck) error {
	if !c.Batched() || len(checks) == 0 {
		return nil
	}
	// The prefetch span covers the key-hashing probe as well as the
	// batched backend call: on a warm iteration the probe IS the cost.
	var start time.Time
	if c.tracer != nil || c.verifySeconds != nil {
		start = time.Now()
	}
	span := func(n int) {
		if start.IsZero() {
			return
		}
		if c.verifySeconds != nil {
			c.verifySeconds.Observe(time.Since(start).Seconds())
		}
		if c.tracer != nil {
			c.tracer.Span(start, obs.Event{Stage: obs.StageLocalCheck, Outcome: "prefetch",
				Checks: n, Run: c.runLabel})
		}
	}
	var missing []SuiteCheck
	var keys [][sha256.Size]byte
	seen := map[[sha256.Size]byte]bool{}
	for _, sc := range checks {
		key := suite.KeyD(sc, c.digests)
		if seen[key] {
			continue
		}
		seen[key] = true
		// The probe promotes a disk-warm check into memory rather than
		// shipping it, and counts no hit: the scan's Check counts that.
		if _, _, ok := c.lookup(key); !ok {
			missing = append(missing, sc)
			keys = append(keys, key)
		}
	}
	if len(missing) == 0 {
		span(0)
		return nil
	}
	results, err := c.backend.CheckBatch(context.Background(), missing)
	span(len(missing))
	if err != nil {
		return err
	}
	if len(results) != len(missing) {
		return fmt.Errorf("batched backend returned %d results for %d checks",
			len(results), len(missing))
	}
	c.prefetches.Inc()
	c.batchedChecks.Add(uint64(len(missing)))
	for i, res := range results {
		c.remember(keys[i], res)
		c.persist(keys[i], res)
	}
	return nil
}

// GlobalNoTransit implements Verifier; it passes through uncached (see the
// type comment).
func (c *CachedVerifier) GlobalNoTransit(t *topology.Topology, configs map[string]string) (*lightyear.GlobalResult, error) {
	if c.tracer == nil {
		return c.v.GlobalNoTransit(t, configs)
	}
	start := time.Now()
	res, err := c.v.GlobalNoTransit(t, configs)
	c.tracer.Span(start, obs.Event{Stage: obs.StageGlobalCheck, Run: c.runLabel, Checks: len(configs)})
	return res, err
}
