package core

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"repro/internal/batfish"
	"repro/internal/campion"
	"repro/internal/durable"
	"repro/internal/lightyear"
	"repro/internal/netcfg"
	"repro/internal/obs"
	"repro/internal/suite"
	"repro/internal/topology"
)

// SuiteCheck is one independent check of the verification suite in a
// transport-neutral form (see internal/suite): the pipeline's stages
// enumerate their outstanding checks as SuiteChecks so a batch-capable
// verifier can ship a whole iteration's worth in one round-trip.
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
	// Hits and Misses count memoized-result lookups across CheckSyntax,
	// VerifyTopology, CheckLocalPolicy, and DiffTranslation.
	Hits   uint64
	Misses uint64
	// Prefetches counts batched prefetch calls that shipped work — one
	// per pipeline iteration that had uncached checks — and BatchedChecks
	// the individual checks they carried.
	Prefetches    uint64
	BatchedChecks uint64
	// DiskHits counts checks the durable disk tier answered after the
	// memory stripes missed (each still counts toward Hits — the backend
	// was spared), and DiskWrites the results Flush persisted to it. Both
	// stay zero without a mounted durable cache.
	DiskHits   uint64
	DiskWrites uint64
	// RestRetries counts transport retries across every REST endpoint
	// the run's verifier dispatched to (zero in process). Populated by
	// MergedStats.
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

// CachedVerifier memoizes the per-config checks of a Verifier — syntax,
// topology, local policy, and translation diff — keyed by a hash of the
// check's inputs (config text plus spec/requirement). A pipeline iteration
// therefore only re-verifies the router whose configuration the last
// prompt changed: every other router's results are cache hits. Results are
// pure functions of their inputs, so transcripts are byte-identical to the
// uncached loop.
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
// parallel per-router repair workers: the result map is striped into
// cacheShards independently-locked shards selected by the first key byte
// (the key is a SHA-256, so the stripe assignment is uniform), which keeps
// 8+ workers from serializing on one RWMutex.
type CachedVerifier struct {
	v Verifier
	// backend is v as a batch seam, nil when v is not one: then Prefetch
	// does nothing and every miss is evaluated on its own.
	backend suite.Backend

	shards [cacheShards]cacheShard

	// disk is the optional durable tier underneath the memory stripes
	// (see SetDurable): an in-memory miss consults it before dispatching
	// to the backend, and every backend result is queued in pending until
	// Flush persists the queue as one pack.
	disk      *durable.Cache
	pendingMu sync.Mutex
	pending   []durable.Entry

	// digests memoizes each configuration revision's TextDigest, so the
	// thousands of check keys a run derives against the same few revisions
	// hash each revision body once (suite.KeyD).
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

// cacheShards is the stripe count of the memoized-result map. 64 shards
// keep the per-shard collision probability negligible for any realistic
// worker count while costing one fixed 64-entry array per verifier.
const cacheShards = 64

// cacheShard is one independently-locked stripe of the result map.
type cacheShard struct {
	mu      sync.RWMutex
	results map[[sha256.Size]byte]SuiteResult
}

// shard selects a key's stripe by its first hash byte.
func (c *CachedVerifier) shard(key [sha256.Size]byte) *cacheShard {
	return &c.shards[key[0]%cacheShards]
}

// NewCachedVerifier wraps a verifier with result memoization. nil (and the
// zero LocalVerifier) become a LocalVerifier threaded with a shared parse
// cache, so each configuration revision is parsed once per run instead of
// once per stage per iteration.
//
// The cache batches exactly when the verifier implements suite.Backend
// (rest.Client). The in-process suite does not, so it evaluates lazily and
// the stage scan keeps its early exit: there is no round-trip to amortize.
func NewCachedVerifier(v Verifier) *CachedVerifier {
	if v == nil {
		v = LocalVerifier{}
	}
	if lv, ok := v.(LocalVerifier); ok && lv.Parses == nil {
		v = LocalVerifier{Parses: batfish.NewParseCache()}
	}
	c := &CachedVerifier{
		v: v, digests: suite.NewDigests(),
		hits: &obs.Counter{}, misses: &obs.Counter{},
		prefetches: &obs.Counter{}, batchedChecks: &obs.Counter{},
		diskHits: &obs.Counter{}, diskWrites: &obs.Counter{},
	}
	for i := range c.shards {
		c.shards[i].results = map[[sha256.Size]byte]SuiteResult{}
	}
	c.backend, _ = v.(suite.Backend)
	return c
}

// Batched reports whether the verifier takes batches, i.e. whether eager
// per-iteration prefetching pays for itself.
func (c *CachedVerifier) Batched() bool { return c.backend != nil }

// SetDurable mounts a disk-backed tier under the memory stripes: an
// in-memory miss consults it (a hit is decoded, promoted into memory, and
// served without touching the backend), and every result the backend
// computes is queued for it; Flush writes the queue as one pack, so later
// runs — and concurrent processes sharing the directory — restart warm.
// nil unmounts. The disk tier never changes a result: entries are
// content-addressed by suite.Key and results are pure functions of the
// keyed inputs, so transcripts stay byte-identical whether a result came
// from memory, disk, or the backend.
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

// Stats returns the cache counters.
func (c *CachedVerifier) Stats() CacheStats {
	return CacheStats{
		Hits:          c.hits.Value(),
		Misses:        c.misses.Value(),
		Prefetches:    c.prefetches.Value(),
		BatchedChecks: c.batchedChecks.Value(),
		DiskHits:      c.diskHits.Value(),
		DiskWrites:    c.diskWrites.Value(),
	}
}

// MergedStats returns Stats plus the counter no earlier surface rolled up
// into the top-level result: REST transport retries, summed across
// endpoints.
func (c *CachedVerifier) MergedStats() CacheStats {
	s := c.Stats()
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
// the tier that answered ("memory" or "disk"): first the memory stripe,
// then — on a mounted durable tier — the disk, promoting a disk hit into
// memory so it is paid for once per process. A disk entry that fails to
// decode is treated as a miss (the durable layer already quarantined
// anything failing its checksum; a decode failure here means a format
// drift and must fall through to recomputation, not crash).
func (c *CachedVerifier) lookup(key [sha256.Size]byte) (SuiteResult, string, bool) {
	s := c.shard(key)
	s.mu.RLock()
	res, ok := s.results[key]
	s.mu.RUnlock()
	if ok {
		c.hits.Inc()
		return res, "memory", true
	}
	if c.disk != nil {
		if payload, ok := c.disk.Get(key); ok {
			var dres SuiteResult
			if err := json.Unmarshal(payload, &dres); err == nil {
				c.hits.Inc()
				c.diskHits.Inc()
				s.mu.Lock()
				s.results[key] = dres
				s.mu.Unlock()
				return dres, "disk", true
			}
		}
	}
	return SuiteResult{}, "", false
}

// store memoizes one backend-computed result, queueing it for the
// durable tier when one is mounted.
func (c *CachedVerifier) store(key [sha256.Size]byte, res SuiteResult) {
	c.misses.Inc()
	s := c.shard(key)
	s.mu.Lock()
	s.results[key] = res
	s.mu.Unlock()
	c.persist(key, res)
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

// check answers one suite check through the cache, evaluating a miss on
// the verifier. The local_check span covers the whole dispatch — key
// hashing, cache lookup, and (on a miss) the verifier call — so a traced
// run's verification time is attributed even when the cache answers most
// of it; Outcome distinguishes "hit" from a verifier "check".
func (c *CachedVerifier) check(sc SuiteCheck) (SuiteResult, error) {
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
	key := suite.KeyD(sc, c.digests)
	if res, tier, ok := c.lookup(key); ok {
		c.traceCache(obs.StageCacheHit, tier, sc)
		span("hit")
		return res, nil
	}
	c.traceCache(obs.StageCacheMiss, "", sc)
	res, err := suite.Eval(c.v, sc)
	span("check")
	if err != nil {
		return SuiteResult{}, err
	}
	c.store(key, res)
	return res, nil
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
		if !c.cached(key) {
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
		s := c.shard(keys[i])
		s.mu.Lock()
		s.results[keys[i]] = res
		s.mu.Unlock()
		c.persist(keys[i], res)
	}
	return nil
}

// cached reports whether a key is answerable without the backend,
// promoting a disk-tier entry into memory on the way — the prefetch probe,
// which must not ship disk-warm checks to the backend but also must not
// count a memory hit the eventual lookup will count itself.
func (c *CachedVerifier) cached(key [sha256.Size]byte) bool {
	s := c.shard(key)
	s.mu.RLock()
	_, ok := s.results[key]
	s.mu.RUnlock()
	if ok || c.disk == nil {
		return ok
	}
	payload, ok := c.disk.Get(key)
	if !ok {
		return false
	}
	var res SuiteResult
	if err := json.Unmarshal(payload, &res); err != nil {
		return false
	}
	c.diskHits.Inc()
	s.mu.Lock()
	s.results[key] = res
	s.mu.Unlock()
	return true
}

// CheckSyntax implements Verifier.
func (c *CachedVerifier) CheckSyntax(config string) ([]netcfg.ParseWarning, error) {
	res, err := c.check(SuiteCheck{Kind: SuiteSyntax, Config: config})
	return res.Warnings, err
}

// DiffTranslation implements Verifier.
func (c *CachedVerifier) DiffTranslation(original, translation string) ([]campion.Finding, error) {
	res, err := c.check(SuiteCheck{Kind: SuiteDiff, Original: original, Config: translation})
	return res.Diffs, err
}

// VerifyTopology implements Verifier.
func (c *CachedVerifier) VerifyTopology(spec topology.RouterSpec, config string) ([]topology.Finding, error) {
	res, err := c.check(SuiteCheck{Kind: SuiteTopology, Spec: &spec, Config: config})
	return res.Findings, err
}

// CheckLocalPolicy implements Verifier.
func (c *CachedVerifier) CheckLocalPolicy(config string, req lightyear.Requirement) (lightyear.Violation, bool, error) {
	res, err := c.check(SuiteCheck{Kind: SuiteLocal, Req: &req, Config: config})
	if err != nil || !res.Violated {
		return lightyear.Violation{}, false, err
	}
	if res.Violation == nil {
		// A prefetched result from a version-skewed remote server could be
		// violated with no violation body; fail loudly instead of panicking.
		return lightyear.Violation{}, false,
			fmt.Errorf("local-policy check on %s violated but carried no violation", req.Policy)
	}
	return *res.Violation, true, nil
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
