package rest

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/lightyear"
	"repro/internal/netcfg"
	"repro/internal/suite"
	"repro/internal/topology"
)

// killableServer is an in-process batfishd that can be "killed": after
// Kill, every request aborts its connection without a response, exactly
// the failure a crashed batfishd produces (the client sees a transport
// error, not a served error).
type killableServer struct {
	srv    *httptest.Server
	killed atomic.Bool
	served atomic.Int64
}

func newKillableServer(t *testing.T) *killableServer {
	t.Helper()
	ks := &killableServer{}
	inner := NewHandler()
	ks.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if ks.killed.Load() {
			panic(http.ErrAbortHandler)
		}
		ks.served.Add(1)
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(ks.srv.Close)
	return ks
}

func (ks *killableServer) Kill() { ks.killed.Store(true) }

// newFleet spins up n in-process servers and one client over all of
// them, with the backoff shortened.
func newFleet(t *testing.T, n int) ([]*killableServer, *Client) {
	t.Helper()
	servers := make([]*killableServer, n)
	endpoints := make([]string, n)
	for i := range servers {
		servers[i] = newKillableServer(t)
		endpoints[i] = servers[i].srv.URL
	}
	c, err := newFanout(endpoints)
	if err != nil {
		t.Fatal(err)
	}
	return servers, withFastRetries(c)
}

// TestShardedClientValidation pins the constructor's loud failures: no
// endpoints, an empty element, and a duplicate are each rejected with a
// descriptive error instead of silently spreading the work over fewer
// endpoints.
func TestShardedClientValidation(t *testing.T) {
	for _, tc := range []struct {
		endpoints []string
		want      string
	}{
		{nil, "no endpoints"},
		{[]string{"http://a:1", ""}, "empty"},
		{[]string{"http://a:1", "http://a:1/"}, "duplicate"},
	} {
		if _, err := Dial(tc.endpoints); err == nil ||
			!strings.Contains(err.Error(), tc.want) {
			t.Errorf("Dial(%v) error = %v, want mention of %q",
				tc.endpoints, err, tc.want)
		}
	}
}

// TestSplitEndpoints pins the CLI flag normalization: repeatable values,
// comma-separated elements, trimming, and the loud empty-element error.
func TestSplitEndpoints(t *testing.T) {
	got, err := SplitEndpoints([]string{"http://a:1, http://b:2", "http://c:3"})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"http://a:1", "http://b:2", "http://c:3"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("SplitEndpoints = %v, want %v", got, want)
	}
	for _, bad := range [][]string{{"http://a:1,"}, {",http://a:1"}, {""}, {"http://a:1,,http://b:2"}} {
		if _, err := SplitEndpoints(bad); err == nil ||
			!strings.Contains(err.Error(), "empty endpoint element") {
			t.Errorf("SplitEndpoints(%v) error = %v, want empty-element error", bad, err)
		}
	}
}

// TestShardedBatchMatchesSingle requires a batch over 3 endpoints to
// return exactly the results a single endpoint returns, in order, while
// spreading the round-trips over the endpoints: one per endpoint that got
// any checks. Extra distinct-config syntax checks pad the key population.
func TestShardedBatchMatchesSingle(t *testing.T) {
	single := newTestClient(t)
	servers, c := newFleet(t, 3)
	checks := batchChecks(t)
	for i := 0; i < 12; i++ {
		checks = append(checks, suite.Check{Kind: suite.KindSyntax,
			Config: fmt.Sprintf("hostname X%d\n", i)})
	}

	want, err := single.CheckBatch(context.Background(), checks)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.CheckBatch(context.Background(), checks)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("fanned-out results diverge from single endpoint:\n got %+v\nwant %+v", got, want)
	}
	served := 0
	for _, ks := range servers {
		if ks.served.Load() > 0 {
			served++
		}
	}
	if served < 2 {
		t.Errorf("batch of %d checks touched %d endpoints, want >= 2", len(checks), served)
	}
	if calls := c.Calls(); calls != int64(served) {
		t.Errorf("total calls = %d, want one per touched endpoint (%d)", calls, served)
	}
}

// TestShardKeyRoutingIsSticky pins the routing's locality contract: all
// of a config's whole-config checks land on one endpoint, and repeated
// lookups are stable.
func TestShardKeyRoutingIsSticky(t *testing.T) {
	_, c := newFleet(t, 3)
	cfg := "hostname R1\n"
	syntax := suite.Check{Kind: suite.KindSyntax, Config: cfg}
	topoCheck := suite.Check{Kind: suite.KindTopology,
		Spec: &topology.RouterSpec{Name: "R1"}, Config: cfg}
	route := func(ch suite.Check) int {
		return c.owner(func() string { return shardKey(ch, c.digests) })
	}
	a, b := route(syntax), route(topoCheck)
	if a != b {
		t.Errorf("syntax routed to endpoint %d, topology to %d; want the same", a, b)
	}
	for i := 0; i < 100; i++ {
		if got := route(syntax); got != a {
			t.Fatalf("routing not stable: %d then %d", a, got)
		}
	}
}

// TestShardKey pins the routing key: whole-config checks of one revision
// share a key while local checks spread per attachment.
func TestShardKey(t *testing.T) {
	cfg := "hostname R1\n"
	syntax := suite.Check{Kind: suite.KindSyntax, Config: cfg}
	topo := suite.Check{Kind: suite.KindTopology, Spec: &topology.RouterSpec{}, Config: cfg}
	if shardKey(syntax, nil) != shardKey(topo, nil) {
		t.Error("syntax and topology checks of one config should share a routing key")
	}
	reqA := lightyear.Requirement{Router: "R2", Attachment: lightyear.AttachmentRef{
		Router: "R2", Peer: "ISP1", Direction: lightyear.DirIn}}
	reqB := lightyear.Requirement{Router: "R2", Attachment: lightyear.AttachmentRef{
		Router: "R2", Peer: "ISP2", Direction: lightyear.DirIn}}
	keyA := shardKey(suite.Check{Kind: suite.KindLocal, Req: &reqA, Config: cfg}, nil)
	keyB := shardKey(suite.Check{Kind: suite.KindLocal, Req: &reqB, Config: cfg}, nil)
	if keyA == keyB {
		t.Error("sibling attachments on one router should hash independently")
	}
	if got := shardKey(suite.Check{Kind: suite.KindLocal, Config: cfg}, nil); got != shardKey(syntax, nil) {
		t.Errorf("malformed local check key = %q, want the whole-config routing key", got)
	}
	if shardKey(syntax, nil) != suite.TextDigest(cfg) {
		t.Error("whole-config routing key should be the revision's TextDigest")
	}
	d := suite.NewDigests()
	if shardKey(syntax, d) != shardKey(syntax, nil) ||
		shardKey(suite.Check{Kind: suite.KindLocal, Req: &reqA, Config: cfg}, d) != keyA {
		t.Error("memoized routing keys must equal the memo-less ones")
	}
	if d.Len() != 1 {
		t.Errorf("digest memo holds %d entries, want 1 (one revision)", d.Len())
	}
}

// TestRoutingIgnoresEndpointAddresses pins that the routing depends on
// the endpoint order alone: two clients over different listeners, with
// their endpoints in the same order, send every check of a batch to the
// same endpoint index.
func TestRoutingIgnoresEndpointAddresses(t *testing.T) {
	checks := batchChecks(t)
	for i := 0; i < 8; i++ {
		checks = append(checks, suite.Check{Kind: suite.KindSyntax,
			Config: fmt.Sprintf("hostname Y%d\n", i)})
	}
	// received returns, per endpoint index, the configs of the checks
	// that endpoint was sent.
	received := func() [][]string {
		const n = 3
		var mu sync.Mutex
		got := make([][]string, n)
		endpoints := make([]string, n)
		for e := range endpoints {
			inner := NewHandler()
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				body, _ := io.ReadAll(r.Body)
				var req BatchRequest
				if err := json.Unmarshal(body, &req); err != nil {
					t.Errorf("endpoint %d: %v", e, err)
				}
				mu.Lock()
				for _, bc := range req.Checks {
					got[e] = append(got[e], string(bc.Kind)+" "+req.Bodies[bc.Config])
				}
				mu.Unlock()
				r.Body = io.NopCloser(bytes.NewReader(body))
				inner.ServeHTTP(w, r)
			}))
			t.Cleanup(srv.Close)
			endpoints[e] = srv.URL
		}
		c, err := newFanout(endpoints)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.CheckBatch(context.Background(), checks); err != nil {
			t.Fatal(err)
		}
		return got
	}
	a, b := received(), received()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("the same checks went to different endpoint indices:\n%q\n%q", a, b)
	}
}

// TestShardedServedErrorsPropagate pins that a served error (here a
// malformed check the server answers per-result) fails the batch, naming
// the endpoint and the check's position in the batch, and leaves the
// client serving.
func TestShardedServedErrorsPropagate(t *testing.T) {
	_, c := newFleet(t, 3)
	checks := append(batchChecks(t), suite.Check{Kind: suite.KindTopology, Config: "hostname R1\n"})
	_, err := c.CheckBatch(context.Background(), checks)
	if err == nil || !strings.Contains(err.Error(), "batfishd at http://") ||
		!strings.Contains(err.Error(), "check "+strconv.Itoa(len(checks)-1)+" (topology)") {
		t.Fatalf("malformed check error = %v, want one naming the endpoint and check %d",
			err, len(checks)-1)
	}
	if c.Retries() != 0 {
		t.Errorf("a served error was retried %d times", c.Retries())
	}
	if _, err := c.CheckBatch(context.Background(), batchChecks(t)); err != nil {
		t.Fatalf("batch after a served error: %v", err)
	}
}

// TestShardedCancelledContextSparesShards pins that a caller-cancelled
// context, which surfaces on every in-flight request, comes back as the
// context error, and that the client serves again once the caller
// supplies a live context.
func TestShardedCancelledContextSparesShards(t *testing.T) {
	_, c := newFleet(t, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := c.CheckBatch(ctx, batchChecks(t))
	if err == nil || !strings.Contains(err.Error(), "context canceled") {
		t.Fatalf("cancelled batch error = %v, want context cancellation", err)
	}
	if c.Retries() != 0 {
		t.Errorf("a cancelled batch was retried %d times", c.Retries())
	}
	if _, err := c.CheckBatch(context.Background(), batchChecks(t)); err != nil {
		t.Fatalf("batch after cancelled batch: %v", err)
	}
}

// TestHealthNamesDownEndpoint pins Health over several endpoints: with
// every endpoint up it passes; with one down it fails, naming that
// endpoint and no other.
func TestHealthNamesDownEndpoint(t *testing.T) {
	servers, c := newFleet(t, 3)
	if err := c.Health(); err != nil {
		t.Fatalf("health with every endpoint up: %v", err)
	}
	servers[1].Kill()
	err := c.Health()
	if err == nil || !strings.Contains(err.Error(), servers[1].srv.URL) {
		t.Fatalf("health with %s down = %v, want an error naming it", servers[1].srv.URL, err)
	}
	for _, i := range []int{0, 2} {
		if strings.Contains(err.Error(), servers[i].srv.URL) {
			t.Errorf("health error names the live endpoint %s: %v", servers[i].srv.URL, err)
		}
	}
}

// TestShardedCountersRace hammers one client over three endpoints from
// many goroutines — batches, per-check calls, stats reads, health probes,
// and a mid-run endpoint kill — so `go test -race` patrols the
// per-endpoint counters and the shared result slice.
func TestShardedCountersRace(t *testing.T) {
	servers, c := newFleet(t, 3)
	checks := batchChecks(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if g%2 == 0 {
					_, _ = c.CheckBatch(context.Background(), checks)
				} else {
					_, _ = c.CheckSyntax("hostname R1\n")
				}
				_ = c.Stats()
				_ = c.Calls()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		servers[1].Kill()
		_ = c.Health()
	}()
	wg.Wait()
	var batches int64
	for _, st := range c.Stats() {
		batches += st.Batches
	}
	if batches == 0 {
		t.Error("no batched round-trips recorded")
	}
}

// TestSharedParseCacheAcrossBatches pins the shared parse cache: a batch
// re-uses an earlier batch's parse of the same revision instead of parsing
// again.
func TestSharedParseCacheAcrossBatches(t *testing.T) {
	parses := netcfg.NewParseCache(func(text string) *netcfg.Parsed {
		return &netcfg.Parsed{}
	})
	srv := httptest.NewServer(NewHandlerOpts(HandlerOptions{Parses: parses}))
	t.Cleanup(srv.Close)
	c := NewClient(srv.URL)

	cfg := "hostname R1\n"
	if _, err := c.CheckBatch(context.Background(),
		[]suite.Check{{Kind: suite.KindSyntax, Config: cfg}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CheckBatch(context.Background(),
		[]suite.Check{{Kind: suite.KindSyntax, Config: cfg}}); err != nil {
		t.Fatal(err)
	}
	hits, misses := parses.Stats()
	if misses != 1 || hits == 0 {
		t.Errorf("shared cache stats = %d hits / %d misses, want 1 parse shared across batches",
			hits, misses)
	}
}
