package netcfg

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func countingParser(calls *atomic.Int64) ParseFunc {
	return func(text string) *Parsed {
		calls.Add(1)
		return &Parsed{Device: NewDevice(text, VendorCisco)}
	}
}

func TestParseCacheParsesEachRevisionOnce(t *testing.T) {
	var calls atomic.Int64
	c := NewParseCache(countingParser(&calls))
	a1 := c.Parse("rev-a")
	a2 := c.Parse("rev-a")
	if a1 != a2 {
		t.Error("same revision must return the same shared product")
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("parse calls = %d, want 1", got)
	}
	// A changed revision is a different key: it must be parsed anew.
	b := c.Parse("rev-b")
	if b == a1 {
		t.Error("different revision must not share a product")
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("parse calls = %d, want 2", got)
	}
	if hits, misses := c.Stats(); hits != 1 || misses != 2 {
		t.Errorf("stats = %d hits / %d misses, want 1/2", hits, misses)
	}
	if c.Len() != 2 {
		t.Errorf("len = %d, want 2", c.Len())
	}
}

// TestParseCacheHitAllocatesNothing pins the text-keyed lookup: a hit on
// a multi-KB revision allocates nothing (no copy of the text, no digest),
// equal texts in different memory share one product, and different texts
// do not.
func TestParseCacheHitAllocatesNothing(t *testing.T) {
	var calls atomic.Int64
	c := NewParseCache(countingParser(&calls))
	text := "hostname R1\n" + strings.Repeat("ip prefix-list PL seq 5 permit 10.0.0.0/8\n", 200)
	if len(text) < 8<<10 {
		t.Fatalf("config is %d bytes, want a multi-KB one", len(text))
	}
	p := c.Parse(text)
	if allocs := testing.AllocsPerRun(100, func() { c.Parse(text) }); allocs != 0 {
		t.Errorf("a parse-cache hit allocates %v times, want 0", allocs)
	}
	same := strings.Clone(text)
	if c.Parse(same) != p {
		t.Error("an equal text in other memory got another product")
	}
	other := strings.Replace(text, "R1", "R2", 1)
	if c.Parse(other) == p {
		t.Error("a different text shares a product")
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("parse calls = %d, want 2", got)
	}
}

func TestParseCacheConcurrent(t *testing.T) {
	var calls atomic.Int64
	c := NewParseCache(countingParser(&calls))
	const workers, revisions = 8, 16
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				rev := fmt.Sprintf("rev-%d", (i+w)%revisions)
				if p := c.Parse(rev); p.Device.Hostname != rev {
					t.Errorf("wrong product for %s", rev)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Len() != revisions {
		t.Errorf("len = %d, want %d", c.Len(), revisions)
	}
	hits, misses := c.Stats()
	if hits+misses != workers*200 {
		t.Errorf("hits+misses = %d, want %d", hits+misses, workers*200)
	}
}

// TestParseCacheStripedHammer drives every stripe of the sharded revision
// map from 16 goroutines at once — enough concurrent writers that a
// single-mutex regression shows up under -race and as contention, and
// enough distinct revisions (512, hash-striped) that all 64 shards see
// traffic. Every caller must observe the one shared product per revision.
func TestParseCacheStripedHammer(t *testing.T) {
	var calls atomic.Int64
	c := NewParseCache(countingParser(&calls))
	const workers, revisions, rounds = 16, 512, 300
	products := make([]atomic.Pointer[Parsed], revisions)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				n := (i*workers + w*7) % revisions
				p := c.Parse(fmt.Sprintf("rev-%d", n))
				if prev := products[n].Swap(p); prev != nil && prev != p {
					t.Errorf("revision %d returned two distinct products", n)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Len() != revisions {
		t.Errorf("len = %d, want %d", c.Len(), revisions)
	}
	// First-writer-wins dedup may parse a colliding revision twice, but
	// the cache must never under-parse.
	if got := calls.Load(); got < revisions {
		t.Errorf("parse calls = %d, want >= %d", got, revisions)
	}
}
