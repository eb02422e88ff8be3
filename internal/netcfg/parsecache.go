package netcfg

import (
	"sync"
	"time"

	"repro/internal/obs"
)

// Parsed is one configuration revision's complete parse product: the IR
// device, the parser's own warnings, and the full syntax-check feed (parse
// warnings plus the dialect's lint pass). Keeping all three together lets a
// cache answer both "give me the device" and "is the syntax clean" from a
// single parse.
//
// A Parsed is an immutable revision, and it carries a slot for products
// derived from it: CompiledPolicy holds each route-map's compiled form,
// filled lazily on first use and shared by every later check of the same
// revision. The slot is sound because a cached device is never mutated:
// a ParseCache hands one device to every caller, and every verifier in
// the suite reads the IR without modifying it. A caller that edits a
// device of its own wraps it in a new Parsed after each edit
// (&Parsed{Device: dev}), which starts with an empty slot; a Parsed whose
// device changed underneath it would answer from stale compiled forms.
type Parsed struct {
	Device        *Device
	ParseWarnings []ParseWarning
	CheckWarnings []ParseWarning

	// policies maps a route-map name to its compiled form. The form's type
	// belongs to the compiler (internal/symbolic imports this package), so
	// the slot stores it opaquely.
	policies sync.Map
}

// CompiledPolicy returns the compiled form of the named route-map, calling
// compile to build it the first time the name is asked for. It is safe for
// concurrent use: two first calls may both compile, but one result is kept
// and every caller receives that one.
func (p *Parsed) CompiledPolicy(name string, compile func() any) any {
	if v, ok := p.policies.Load(name); ok {
		return v
	}
	v, _ := p.policies.LoadOrStore(name, compile())
	return v
}

// ParseFunc parses one configuration revision into its Parsed product.
type ParseFunc func(text string) *Parsed

// ParseCache memoizes a ParseFunc keyed by the configuration text itself,
// so each revision of a config is parsed exactly once no matter how many
// verifier stages and repair iterations inspect it, and equal texts share
// one product whatever memory backs them. A hit is one sync.Map lookup,
// which hashes the text once: it neither copies nor digests the text, and
// allocates nothing. The cache keeps each revision's text beside its
// product and never evicts. It is safe for concurrent use, and concurrent
// misses on the same revision may parse twice, but the first product
// stored wins and every caller shares it.
type ParseCache struct {
	parse ParseFunc

	entries sync.Map // text → *Parsed
	// Counters are obs instruments from birth; SetObs adopts them into a
	// registry (counts preserved) and optionally binds a trace sink that
	// sees one parse span per cache-missing revision.
	hits   *obs.Counter
	misses *obs.Counter
	tracer *obs.Tracer
}

// NewParseCache returns an empty cache over the given parser.
func NewParseCache(parse ParseFunc) *ParseCache {
	return &ParseCache{parse: parse, hits: &obs.Counter{}, misses: &obs.Counter{}}
}

// Parse returns the memoized parse product for the text, parsing on first
// sight of the revision.
func (c *ParseCache) Parse(text string) *Parsed {
	if p, ok := c.entries.Load(text); ok {
		c.hits.Inc()
		return p.(*Parsed)
	}
	var start time.Time
	if c.tracer != nil {
		start = time.Now()
	}
	p := c.parse(text)
	if c.tracer != nil {
		c.tracer.Span(start, obs.Event{Stage: obs.StageParse, Bytes: int64(len(text))})
	}
	if prev, loaded := c.entries.LoadOrStore(text, p); loaded {
		// A concurrent miss beat us to it; keep the first result so every
		// caller shares one device.
		c.hits.Inc()
		return prev.(*Parsed)
	}
	c.misses.Inc()
	return p
}

// Stats returns the hit/miss counters. Misses equal the number of distinct
// revisions parsed.
func (c *ParseCache) Stats() (hits, misses uint64) {
	return c.hits.Value(), c.misses.Value()
}

// FragmentStats always reports zeros.
//
// Deprecated: the stanza sub-cache it reported on is gone; it exists only
// so bench/cobench keeps compiling, and goes at the next benchmark change.
func (c *ParseCache) FragmentStats() (hits, misses, diskHits uint64) { return 0, 0, 0 }

// SetObs adopts the cache's counters into a metrics registry and binds an
// optional trace sink; either may be nil. Telemetry never changes a parse
// product.
func (c *ParseCache) SetObs(reg *obs.Registry, tr *obs.Tracer) {
	c.tracer = tr
	if reg == nil {
		return
	}
	reg.RegisterCounter("cosynth_parse_cache_hits_total", c.hits)
	reg.RegisterCounter("cosynth_parse_cache_misses_total", c.misses)
}

// Len returns the number of cached revisions.
func (c *ParseCache) Len() int {
	n := 0
	c.entries.Range(func(_, _ any) bool {
		n++
		return true
	})
	return n
}
