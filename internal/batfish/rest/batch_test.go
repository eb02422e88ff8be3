package rest

import (
	"context"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/exampledata"
	"repro/internal/lightyear"
	"repro/internal/netcfg"
	"repro/internal/netgen"
	"repro/internal/suite"
)

func lightyearRequirement() lightyear.Requirement {
	return lightyear.Requirement{
		Kind:      lightyear.EgressDropsCommunity,
		Router:    "R1",
		Policy:    "FILTER",
		Community: netcfg.MustCommunity("100:1"),
	}
}

// batchChecks builds one check of every kind against a star-3 scenario.
func batchChecks(t *testing.T) []suite.Check {
	t.Helper()
	topo, err := netgen.Star(3)
	if err != nil {
		t.Fatal(err)
	}
	req := lightyearRequirement()
	return []suite.Check{
		{Kind: suite.KindSyntax, Config: "configure terminal\nhostname R1\n"},
		{Kind: suite.KindTopology, Spec: topo.Router("R2"), Config: "hostname R2\n"},
		{Kind: suite.KindLocal, Req: &req, Config: "hostname R1\n" +
			"ip community-list 1 permit 100:1\n" +
			"route-map FILTER permit 10\n"},
		{Kind: suite.KindDiff, Original: exampledata.CiscoExample,
			Config: "system {\n    host-name border1;\n}\n"},
	}
}

// TestBatchRoundTrip ships one check of every kind in one /v1/batch
// round-trip and requires the results to match the per-check methods.
func TestBatchRoundTrip(t *testing.T) {
	c := newTestClient(t)
	checks := batchChecks(t)
	before := c.Calls()
	results, err := c.CheckBatch(context.Background(), checks)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Calls() - before; got != 1 {
		t.Errorf("batched round-trips = %d, want 1", got)
	}
	if len(results) != len(checks) {
		t.Fatalf("results = %d, want %d", len(results), len(checks))
	}
	if len(results[0].Warnings) == 0 {
		t.Error("syntax check lost its warning")
	}
	if len(results[1].Findings) == 0 {
		t.Error("topology check lost its findings")
	}
	if !results[2].Violated || results[2].Violation == nil {
		t.Error("local check lost its violation")
	}
	if len(results[3].Diffs) == 0 {
		t.Error("diff check lost its findings")
	}
	// Cross-check one result against the per-check method (a one-check
	// batch).
	warns, err := c.CheckSyntax(checks[0].Config)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warns, results[0].Warnings) {
		t.Errorf("batched syntax = %v, per-check = %v", results[0].Warnings, warns)
	}
}

// TestBatchDurablePack mounts a durable cache under the batch handler: one
// request writes one pack holding every computed result, and a second
// handler opened on the same directory answers the same batch from disk,
// computing and writing nothing.
func TestBatchDurablePack(t *testing.T) {
	dir := t.TempDir()
	checks := batchChecks(t)
	serve := func() ([]suite.Result, durable.Stats) {
		d, err := durable.Open(dir, durable.Options{})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(NewHandlerOpts(HandlerOptions{Durable: d}))
		defer srv.Close()
		results, err := NewClient(srv.URL).CheckBatch(context.Background(), checks)
		if err != nil {
			t.Fatal(err)
		}
		return results, d.Stats()
	}
	packs := func() []string {
		names, err := filepath.Glob(filepath.Join(dir, "packs", "*"))
		if err != nil {
			t.Fatal(err)
		}
		return names
	}

	cold, st := serve()
	if st.Writes != uint64(len(checks)) || st.Hits != 0 {
		t.Fatalf("first handler: %+v, want %d writes and no hits", st, len(checks))
	}
	if got := packs(); len(got) != 1 {
		t.Fatalf("one request wrote %v, want one pack", got)
	}
	warm, st := serve()
	if st.Hits != uint64(len(checks)) || st.Writes != 0 {
		t.Fatalf("second handler: %+v, want %d disk hits and no writes", st, len(checks))
	}
	if got := packs(); len(got) != 1 {
		t.Fatalf("answering from disk wrote %v", got)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Errorf("disk answers differ from computed ones:\n%+v\n%+v", warm, cold)
	}
}

// TestPrefetchBatchesAndCaches drives core's CachedVerifier over the REST
// client: a prefetch is one round-trip, and the stage-scan reads that
// follow are pure cache hits costing zero HTTP calls.
func TestPrefetchBatchesAndCaches(t *testing.T) {
	c := newTestClient(t)
	cv := core.NewCachedVerifier(c)
	if !cv.Batched() {
		t.Fatal("rest.Client must be detected as a batch verifier")
	}
	checks := batchChecks(t)

	before := c.Calls()
	if err := cv.Prefetch(checks); err != nil {
		t.Fatal(err)
	}
	if got := c.Calls() - before; got != 1 {
		t.Errorf("prefetch round-trips = %d, want 1", got)
	}

	// Reading every prefetched result back must not touch the network.
	before = c.Calls()
	warns, err := cv.CheckSyntax(checks[0].Config)
	if err != nil {
		t.Fatal(err)
	}
	if len(warns) == 0 {
		t.Error("prefetched syntax warnings missing")
	}
	if _, err := cv.VerifyTopology(*checks[1].Spec, checks[1].Config); err != nil {
		t.Fatal(err)
	}
	if _, bad, err := cv.CheckLocalPolicy(checks[2].Config, *checks[2].Req); err != nil || !bad {
		t.Fatalf("prefetched local check: bad=%v err=%v, want violation", bad, err)
	}
	if _, err := cv.DiffTranslation(checks[3].Original, checks[3].Config); err != nil {
		t.Fatal(err)
	}
	if got := c.Calls() - before; got != 0 {
		t.Errorf("round-trips after prefetch = %d, want 0 (all cache hits)", got)
	}

	// Re-prefetching the same checks is free: everything is cached.
	before = c.Calls()
	if err := cv.Prefetch(checks); err != nil {
		t.Fatal(err)
	}
	if got := c.Calls() - before; got != 0 {
		t.Errorf("re-prefetch round-trips = %d, want 0", got)
	}
	stats := cv.Stats()
	if stats.Prefetches != 1 || stats.BatchedChecks != uint64(len(checks)) {
		t.Errorf("stats = %+v, want 1 prefetch carrying %d checks", stats, len(checks))
	}
}
