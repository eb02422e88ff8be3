package core

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/durable"
	"repro/internal/lightyear"
	"repro/internal/netcfg"
	"repro/internal/suite"
	"repro/internal/topology"
)

// countingVerifier wraps the in-process suite and counts underlying calls
// per check kind, so tests can observe what the cache actually
// re-evaluates.
type countingVerifier struct {
	LocalVerifier
	syntax, topo, local, diff atomic.Int64
}

func (v *countingVerifier) Check(c SuiteCheck) (SuiteResult, error) {
	switch c.Kind {
	case SuiteSyntax:
		v.syntax.Add(1)
	case SuiteTopology:
		v.topo.Add(1)
	case SuiteLocal:
		v.local.Add(1)
	case SuiteDiff:
		v.diff.Add(1)
	}
	return v.LocalVerifier.Check(c)
}

func syntaxCheck(config string) SuiteCheck {
	return SuiteCheck{Kind: SuiteSyntax, Config: config}
}

func localPolicyCheck(config string, req lightyear.Requirement) SuiteCheck {
	return SuiteCheck{Kind: SuiteLocal, Config: config, Req: &req}
}

func testRequirement() lightyear.Requirement {
	return lightyear.Requirement{
		Kind:        lightyear.EgressDropsCommunity,
		Router:      "R1",
		Policy:      "FILTER",
		Communities: []netcfg.Community{netcfg.MustCommunity("100:1")},
		LearnedFrom: []string{"ISP1"},
	}
}

func TestCachedVerifierMemoizesPerRevision(t *testing.T) {
	under := &countingVerifier{}
	cv := NewCachedVerifier(under)
	cfg := "hostname R1\n"

	for i := 0; i < 3; i++ {
		if _, err := cv.Check(syntaxCheck(cfg)); err != nil {
			t.Fatal(err)
		}
	}
	if got := under.syntax.Load(); got != 1 {
		t.Errorf("underlying syntax calls = %d, want 1 (memoized)", got)
	}

	req := testRequirement()
	for i := 0; i < 3; i++ {
		if _, err := cv.Check(localPolicyCheck(cfg, req)); err != nil {
			t.Fatal(err)
		}
	}
	if got := under.local.Load(); got != 1 {
		t.Errorf("underlying local-policy calls = %d, want 1 (memoized)", got)
	}

	stats := cv.Stats()
	if stats.Hits != 4 || stats.Misses != 2 {
		t.Errorf("stats = %+v, want 4 hits / 2 misses", stats)
	}
}

func TestCachedVerifierInvalidatesOnConfigChange(t *testing.T) {
	under := &countingVerifier{}
	cv := NewCachedVerifier(under)

	if _, err := cv.Check(syntaxCheck("hostname R1\n")); err != nil {
		t.Fatal(err)
	}
	// A new revision of the config is a new key: the underlying verifier
	// must run again and must see the new text's warnings.
	res, err := cv.Check(syntaxCheck("hostname R1\nconfigure terminal\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Warnings) == 0 {
		t.Error("changed config's warnings were not recomputed")
	}
	if got := under.syntax.Load(); got != 2 {
		t.Errorf("underlying syntax calls = %d, want 2 (one per revision)", got)
	}

	// Same config under a different requirement is also a distinct key.
	req := testRequirement()
	if _, err := cv.Check(localPolicyCheck("hostname R1\n", req)); err != nil {
		t.Fatal(err)
	}
	req.Community = netcfg.MustCommunity("100:2")
	if _, err := cv.Check(localPolicyCheck("hostname R1\n", req)); err != nil {
		t.Fatal(err)
	}
	if got := under.local.Load(); got != 2 {
		t.Errorf("underlying local calls = %d, want 2 (one per requirement)", got)
	}
}

// driveConcurrently hammers one shared CachedVerifier from many workers
// mixing all four check kinds; run under -race this is the concurrency
// test for the cache (both the result map and the shared parse cache).
func driveConcurrently(t *testing.T, cv *CachedVerifier) {
	t.Helper()
	spec := topology.RouterSpec{Name: "R1", ASN: 1}
	req := testRequirement()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				cfg := fmt.Sprintf("hostname R%d\n", (i+w)%5)
				if _, err := cv.Check(syntaxCheck(cfg)); err != nil {
					t.Error(err)
					return
				}
				if _, err := cv.Check(SuiteCheck{Kind: SuiteTopology, Spec: &spec, Config: cfg}); err != nil {
					t.Error(err)
					return
				}
				if _, err := cv.Check(localPolicyCheck(cfg, req)); err != nil {
					t.Error(err)
					return
				}
				if _, err := cv.Check(SuiteCheck{Kind: SuiteDiff, Original: cfg, Config: cfg}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	stats := cv.Stats()
	if stats.Hits+stats.Misses != 8*25*4 {
		t.Errorf("hits+misses = %d, want %d", stats.Hits+stats.Misses, 8*25*4)
	}
}

func TestCachedVerifierConcurrentInProcess(t *testing.T) {
	driveConcurrently(t, NewCachedVerifier(nil))
}

// TestCachedVerifierStripedHammer drives the sharded result map from 16
// goroutines at once — the scale configuration's worker count doubled —
// over enough distinct checks (SHA-keyed, so uniformly spread across all
// 64 stripes) that a regression to one shared mutex surfaces under -race
// and as serialization. Results must stay correct and the counters must
// balance: every lookup is either a hit or a miss.
func TestCachedVerifierStripedHammer(t *testing.T) {
	v := &countingVerifier{}
	c := NewCachedVerifier(v)
	const workers, configs, rounds = 16, 256, 200
	req := testRequirement()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				n := (i*workers + w*11) % configs
				cfg := fmt.Sprintf("hostname R%d\n", n)
				if _, err := c.Check(syntaxCheck(cfg)); err != nil {
					t.Error(err)
					return
				}
				if _, err := c.Check(localPolicyCheck(cfg, req)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	stats := c.Stats()
	want := uint64(workers * rounds * 2)
	if stats.Hits+stats.Misses != want {
		t.Errorf("hits+misses = %d, want %d", stats.Hits+stats.Misses, want)
	}
	// Concurrent first sights of one key may each miss and re-evaluate
	// (both store the same pure result), but misses can never fall below
	// the number of distinct (kind, config) keys.
	if stats.Misses < configs*2 {
		t.Errorf("misses = %d, want >= %d", stats.Misses, configs*2)
	}
	if calls := v.syntax.Load() + v.local.Load(); uint64(calls) != stats.Misses {
		t.Errorf("underlying calls = %d, want %d (one per miss)", calls, stats.Misses)
	}
}

// TestCheckRejectsMalformedChecks pins the guard on checks whose required
// pointer fields are missing: a topology check with no spec or a local
// check with no requirement must fail with a descriptive error, not a nil
// dereference — such checks can arrive over the wire from peers this
// process does not control.
func TestCheckRejectsMalformedChecks(t *testing.T) {
	for _, tc := range []struct {
		check SuiteCheck
		want  string
	}{
		{SuiteCheck{Kind: SuiteTopology, Config: "hostname R1\n"}, "no router spec"},
		{SuiteCheck{Kind: SuiteLocal, Config: "hostname R1\n"}, "no requirement"},
		{SuiteCheck{Kind: "bogus"}, "unknown suite check kind"},
	} {
		_, err := LocalVerifier{}.Check(tc.check)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Check(%s) error = %v, want mention of %q", tc.check.Kind, err, tc.want)
		}
	}
}

// TestCheckWellFormedChecks confirms the guards do not reject checks whose
// pointers are present.
func TestCheckWellFormedChecks(t *testing.T) {
	spec := &topology.RouterSpec{Name: "R1"}
	req := &lightyear.Requirement{Router: "R1", Policy: "FILTER"}
	for _, c := range []SuiteCheck{
		{Kind: SuiteSyntax, Config: "hostname R1\n"},
		{Kind: SuiteTopology, Spec: spec, Config: "hostname R1\n"},
		{Kind: SuiteLocal, Req: req, Config: "hostname R1\n"},
		{Kind: SuiteDiff, Original: "hostname R1\n", Config: "system {}\n"},
	} {
		if _, err := (LocalVerifier{}).Check(c); err != nil {
			t.Errorf("Check(%s) = %v, want nil", c.Kind, err)
		}
	}
}

// TestDiskEntryViolatedWithoutViolationIsRecomputed stores a disk-tier
// entry that is violated but carries no violation under a local check's
// key. No evaluator produces such a result, so the cache must read it as
// a miss and recompute the check, not serve it.
func TestDiskEntryViolatedWithoutViolationIsRecomputed(t *testing.T) {
	d, err := durable.Open(t.TempDir(), durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	check := localPolicyCheck("hostname R1\n", testRequirement())
	if _, err := d.Put(durable.Entry{Key: suite.Key(check), Payload: []byte(`{"violated":true}`)}); err != nil {
		t.Fatal(err)
	}
	under := &countingVerifier{}
	cv := NewCachedVerifier(under)
	cv.SetDurable(d)
	got, err := cv.Check(check)
	if err != nil {
		t.Fatalf("the forged entry was served: %v", err)
	}
	want, err := LocalVerifier{}.Check(check)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Check = %+v, want the recomputed %+v", got, want)
	}
	if n, hits := under.local.Load(), cv.Stats().DiskHits; n != 1 || hits != 0 {
		t.Errorf("%d evaluations and %d disk hits, want 1 and 0", n, hits)
	}
}
