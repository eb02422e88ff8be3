package rest

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exampledata"
	"repro/internal/lightyear"
	"repro/internal/netcfg"
	"repro/internal/netgen"
	"repro/internal/obs"
	"repro/internal/suite"
)

func lightyearRequirement() lightyear.Requirement {
	return lightyear.Requirement{
		Kind:        lightyear.EgressDropsCommunity,
		Router:      "R1",
		Policy:      "FILTER",
		Communities: []netcfg.Community{netcfg.MustCommunity("100:1")},
		LearnedFrom: []string{"ISP1"},
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
// round-trip and requires the results to match Client.Check.
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
	// Cross-check every result against Client.Check (a one-check batch).
	for i, check := range checks {
		one, err := c.Check(check)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(one, results[i]) {
			t.Errorf("check %d (%s): batched %+v, one-check %+v", i, check.Kind, results[i], one)
		}
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
	var read []suite.Result
	for _, check := range checks {
		res, err := cv.Check(check)
		if err != nil {
			t.Fatal(err)
		}
		read = append(read, res)
	}
	if len(read[0].Warnings) == 0 {
		t.Error("prefetched syntax warnings missing")
	}
	if !read[2].Violated {
		t.Error("prefetched local check lost its violation")
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

// TestBatchRefusesViolatedWithoutViolation answers a one-check batch with
// a result that is violated but carries no violation, which no evaluator
// produces. CheckBatch must fail naming the check instead of returning a
// result whose Violation the local-policy stage would read.
func TestBatchRefusesViolatedWithoutViolation(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = io.WriteString(w, `{"results":[{"violated":true}]}`)
	}))
	t.Cleanup(srv.Close)
	req := lightyearRequirement()
	res, err := NewClient(srv.URL).CheckBatch(context.Background(),
		[]suite.Check{{Kind: suite.KindLocal, Req: &req, Config: "hostname R1\n"}})
	if err == nil || !strings.Contains(err.Error(), "check 0 (local)") ||
		!strings.Contains(err.Error(), "no violation") {
		t.Fatalf("CheckBatch = %+v, %v; want an error naming check 0 (local) and its missing violation", res, err)
	}
}

// TestBatchResultWireKeys pins the wire form of a batch result: the
// embedded suite.Result encodes its fields at the top level under the
// keys the protocol defines, beside "error", and a clean result
// encodes as {}.
func TestBatchResultWireKeys(t *testing.T) {
	checks := batchChecks(t)
	keys := map[string]bool{}
	for _, c := range checks {
		res, err := core.LocalVerifier{}.Check(c)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(BatchResult{Result: res, Error: "e"})
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]json.RawMessage
		if err := json.Unmarshal(data, &m); err != nil {
			t.Fatal(err)
		}
		for k := range m {
			keys[k] = true
		}
	}
	want := map[string]bool{"warnings": true, "findings": true, "diffs": true,
		"violated": true, "violation": true, "error": true}
	if !reflect.DeepEqual(keys, want) {
		t.Errorf("batch results encode the keys %v, want %v", keys, want)
	}
	if data, _ := json.Marshal(BatchResult{}); string(data) != "{}" {
		t.Errorf("a clean result encodes as %s, want {}", data)
	}
}

// wireResult is the wire form of a check's outcome, the result or the
// per-check error, in which a nil and an empty slice read the same.
func wireResult(t testing.TB, r suite.Result, err error) string {
	t.Helper()
	br := BatchResult{Result: r}
	if err != nil {
		br = BatchResult{Error: err.Error()}
	}
	data, merr := json.Marshal(br)
	if merr != nil {
		t.Fatal(merr)
	}
	return string(data)
}

// recordBatches wraps a handler, capturing the raw body of the last
// /v1/batch request so tests can assert what was actually on the wire.
func recordBatches(inner http.Handler, last *[]byte, mu *sync.Mutex) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == PathBatch {
			body, _ := io.ReadAll(r.Body)
			mu.Lock()
			*last = append([]byte(nil), body...)
			mu.Unlock()
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		inner.ServeHTTP(w, r)
	})
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
		res, err := core.LocalVerifier{}.Check(c)
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
		status, _, err := c.post(context.Background(), c.eps[0], PathBatch, req, &resp)
		if status != http.StatusBadRequest || err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: HTTP %d, %v; want 400 naming %q", tc.name, status, err, tc.want)
		}
	}
}

// TestBatchSpanBytesAreTheCallsOwn sends two traced batches to one
// endpoint at once, and the handler holds the first until the second
// arrives, so each call is in flight while the other puts its body on the
// wire. Each batch_rpc span must count only its own request body: the
// spans sum to BytesSent.
func TestBatchSpanBytesAreTheCallsOwn(t *testing.T) {
	inner := NewHandler()
	second := make(chan struct{})
	var arrivals atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == PathBatch {
			switch arrivals.Add(1) {
			case 1:
				select {
				case <-second:
				case <-time.After(10 * time.Second):
					t.Error("the second batch never arrived while the first was held")
				}
			case 2:
				close(second)
			}
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	var trace bytes.Buffer
	tr := obs.NewTracer(&trace)
	c := NewClient(srv.URL)
	c.SetObs(nil, tr)
	checks := batchChecks(t)
	shares := [][]suite.Check{checks[:1], checks[1:]}
	errs := make([]error, len(shares))
	var wg sync.WaitGroup
	for i, share := range shares {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = c.CheckBatch(context.Background(), share)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	spans, sum := 0, int64(0)
	for sc := bufio.NewScanner(&trace); sc.Scan(); {
		var ev obs.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Stage == obs.StageBatchRPC {
			spans++
			sum += ev.Bytes
		}
	}
	if spans != len(shares) || sum != c.BytesSent() {
		t.Errorf("%d batch_rpc spans carry %d bytes; want %d spans carrying BytesSent() = %d",
			spans, sum, len(shares), c.BytesSent())
	}
}
