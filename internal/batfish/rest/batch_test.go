package rest

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
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

// wireResult is the wire form of a check's outcome, the result or the
// per-check error, in which a nil and an empty slice read the same.
func wireResult(t testing.TB, r suite.Result, err error) string {
	t.Helper()
	br := BatchResult{Warnings: r.Warnings, Findings: r.Findings,
		Diffs: r.Diffs, Violated: r.Violated, Violation: r.Violation}
	if err != nil {
		br = BatchResult{Error: err.Error()}
	}
	data, merr := json.Marshal(br)
	if merr != nil {
		t.Fatal(merr)
	}
	return string(data)
}

// TestBatchShipsEachBodyOnce sends a batch of every check kind whose seven
// checks name four distinct texts: the request's body table carries each
// text exactly once, the checks' indices resolve back to the checks sent,
// and the results equal the in-process suite's.
func TestBatchShipsEachBodyOnce(t *testing.T) {
	var mu sync.Mutex
	var last []byte
	srv := httptest.NewServer(recordBatches(NewHandler(), &last, &mu))
	t.Cleanup(srv.Close)
	topo, err := netgen.Star(3)
	if err != nil {
		t.Fatal(err)
	}
	req := lightyearRequirement()
	r1 := "hostname R1\nip community-list 1 permit 100:1\nroute-map FILTER permit 10\n"
	r2 := "hostname R2\n"
	junos := "system {\n    host-name border1;\n}\n"
	checks := []suite.Check{
		{Kind: suite.KindSyntax, Config: r1},
		{Kind: suite.KindSyntax, Config: r2},
		{Kind: suite.KindTopology, Spec: topo.Router("R1"), Config: r1},
		{Kind: suite.KindTopology, Spec: topo.Router("R2"), Config: r2},
		{Kind: suite.KindLocal, Req: &req, Config: r1},
		{Kind: suite.KindDiff, Original: exampledata.CiscoExample, Config: junos},
		{Kind: suite.KindDiff, Original: exampledata.CiscoExample, Config: r1},
	}
	got, err := NewClient(srv.URL).CheckBatch(context.Background(), checks)
	if err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	var sent BatchRequest
	err = json.Unmarshal(last, &sent)
	mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{r1, r2, junos, exampledata.CiscoExample}
	if !slices.Equal(sent.Bodies, want) {
		t.Errorf("body table = %q, want each distinct text once in order of first use: %q", sent.Bodies, want)
	}
	resolved, err := sent.resolve()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resolved, checks) {
		t.Errorf("the wire form resolves to\n%+v\nwant\n%+v", resolved, checks)
	}

	for i, c := range checks {
		res, err := suite.Eval(core.LocalVerifier{}, c)
		if err != nil {
			t.Fatal(err)
		}
		if g, w := wireResult(t, got[i], nil), wireResult(t, res, nil); g != w {
			t.Errorf("check %d (%s): batch answered %s, in-process suite %s", i, c.Kind, g, w)
		}
	}
}

// TestBatchBodyIndexOutOfRange pins the server's bound on body indices: a
// negative index, or one past the table, fails the whole batch with a 400
// that names the check and the index.
func TestBatchBodyIndexOutOfRange(t *testing.T) {
	c := newTestClient(t)
	one := 1
	for _, tc := range []struct {
		name  string
		check BatchCheck
		want  string
	}{
		{"negative config", BatchCheck{Kind: string(suite.KindSyntax), Config: -1}, "check 1: config body index -1"},
		{"config past the table", BatchCheck{Kind: string(suite.KindSyntax), Config: 1}, "check 1: config body index 1"},
		{"original past the table", BatchCheck{Kind: string(suite.KindDiff), Config: 0, Original: &one},
			"check 1: original body index 1"},
	} {
		req := BatchRequest{Bodies: []string{"hostname R1\n"}, Checks: []BatchCheck{
			{Kind: string(suite.KindSyntax), Config: 0}, tc.check}}
		var resp BatchResponse
		status, err := c.post(context.Background(), PathBatch, req, &resp)
		if status != http.StatusBadRequest || err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: HTTP %d, %v; want 400 naming %q", tc.name, status, err, tc.want)
		}
	}
}
