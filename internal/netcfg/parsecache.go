package netcfg

import (
	"crypto/sha256"
	"sync"
	"time"

	"repro/internal/obs"
)

// Parsed is one configuration revision's complete parse product: the IR
// device, the parser's own warnings, and the full syntax-check feed (parse
// warnings plus the dialect's lint pass). Keeping all three together lets a
// cache answer both "give me the device" and "is the syntax clean" from a
// single parse. The device is shared between callers and must be treated
// as immutable — every verifier in the suite reads the IR without
// modifying it.
type Parsed struct {
	Device        *Device
	ParseWarnings []ParseWarning
	CheckWarnings []ParseWarning
}

// ParseFunc parses one configuration revision into its Parsed product.
type ParseFunc func(text string) *Parsed

// parseShards is the stripe count of the revision map. The key is a
// SHA-256 of the configuration text, so stripe selection by the first key
// byte is uniform; 64 independently-locked shards keep concurrent repair
// workers (and a shard server's batch pool) from serializing on one lock.
const parseShards = 64

// parseShard is one independently-locked stripe of the revision map.
type parseShard struct {
	mu      sync.RWMutex
	entries map[[sha256.Size]byte]*Parsed
}

// ParseCache memoizes a ParseFunc keyed by the SHA-256 of the
// configuration text, so each revision of a config is parsed exactly once
// no matter how many verifier stages and repair iterations inspect it. It
// is safe for concurrent use — the map is striped into independently
// locked shards — and concurrent misses on the same revision may parse
// twice, but both results are identical and one wins.
type ParseCache struct {
	parse ParseFunc

	shards [parseShards]parseShard
	// Counters are obs instruments from birth; SetObs adopts them into a
	// registry (counts preserved) and optionally binds a trace sink that
	// sees one parse span per cache-missing revision.
	hits   *obs.Counter
	misses *obs.Counter
	tracer *obs.Tracer
}

// NewParseCache returns an empty cache over the given parser.
func NewParseCache(parse ParseFunc) *ParseCache {
	c := &ParseCache{parse: parse, hits: &obs.Counter{}, misses: &obs.Counter{}}
	for i := range c.shards {
		c.shards[i].entries = map[[sha256.Size]byte]*Parsed{}
	}
	return c
}

// Parse returns the memoized parse product for the text, parsing on first
// sight of the revision.
func (c *ParseCache) Parse(text string) *Parsed {
	key := sha256.Sum256([]byte(text))
	s := &c.shards[key[0]%parseShards]
	s.mu.RLock()
	p := s.entries[key]
	s.mu.RUnlock()
	if p != nil {
		c.hits.Inc()
		return p
	}
	var start time.Time
	if c.tracer != nil {
		start = time.Now()
	}
	p = c.parse(text)
	if c.tracer != nil {
		c.tracer.Span(start, obs.Event{Stage: obs.StageParse, Bytes: int64(len(text))})
	}
	s.mu.Lock()
	if prev, ok := s.entries[key]; ok {
		// A concurrent miss beat us to it; keep the first result so every
		// caller shares one device.
		p = prev
		c.hits.Inc()
	} else {
		s.entries[key] = p
		c.misses.Inc()
	}
	s.mu.Unlock()
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
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		n += len(s.entries)
		s.mu.RUnlock()
	}
	return n
}
