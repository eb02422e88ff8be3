package rest

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand/v2"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/batfish"
	"repro/internal/lightyear"
	"repro/internal/obs"
	"repro/internal/suite"
	"repro/internal/topology"
)

// TransportError marks a request that failed at the transport layer — the
// connection could not be established, died mid-request, or the response
// body was cut off — as opposed to a server that answered with an error.
// Only a transport failure is worth re-sending: a served error (bad
// request, protocol mismatch, semantic rejection) would come back the
// same on every attempt.
type TransportError struct {
	Path string
	Err  error
}

// Error implements error.
func (e *TransportError) Error() string {
	return fmt.Sprintf("calling %s: %v", e.Path, e.Err)
}

// Unwrap exposes the underlying transport failure.
func (e *TransportError) Unwrap() error { return e.Err }

// IsTransportError reports whether err (or anything it wraps) is a
// transport-layer failure rather than a served error response.
func IsTransportError(err error) bool {
	var te *TransportError
	return errors.As(err, &te)
}

// errProtocolMismatch marks a Health probe answered by a server speaking
// another protocol version than BatchProtocolVersion.
var errProtocolMismatch = errors.New("protocol mismatch")

// The transport policy. requestTimeout bounds each request attempt; a
// batch carries a whole iteration's checks. maxIdleConnsPerHost sizes
// the connection pool against net/http's default of 2, so concurrent
// suite checks and back-to-back batches reuse warm connections. Every
// check is a pure function of its inputs, so a request that died at the
// transport layer is safe to re-send: it gets maxAttempts attempts in
// all, with full-jitter backoff starting at retryBaseDelay and doubling
// up to retryMaxDelay.
const (
	requestTimeout      = 30 * time.Second
	maxIdleConnsPerHost = 16
	maxAttempts         = 3
	retryBaseDelay      = 50 * time.Millisecond
	retryMaxDelay       = 2 * time.Second
)

// endpoint is one batfishd base URL of a Client, with its round-trip
// accounting. The counters are obs instruments from birth, so SetObs can
// adopt them into a metrics registry without losing counts.
type endpoint struct {
	base string
	// calls counts HTTP round-trips issued, health probes and retries
	// included; retries counts the attempts beyond each request's first;
	// bytesOut sums the request-body bytes put on the wire.
	calls    *obs.Counter
	retries  *obs.Counter
	bytesOut *obs.Counter
	// batches and batchNS count the /v1/batch calls and their cumulative
	// wall-clock, encoding and decoding included.
	batches atomic.Int64
	batchNS atomic.Int64
	// batchSeconds is the optional RPC-duration histogram a bound registry
	// provides.
	batchSeconds *obs.Histogram
}

// Client calls the verification suite over HTTP, on one batfishd
// endpoint or several. It implements core.Verifier and the engine's
// batch seam, suite.Backend. Every check is a pure function of its
// inputs, so any endpoint gives any check the same answer; several
// endpoints only split the work. CheckBatch sends each check to endpoint
// FNV-1a(routing key) mod N, where the key is the check's config digest
// (plus its attachment for a local-policy check; see shardKey), and posts
// the per-endpoint batches concurrently, so an iteration costs one
// round-trip per endpoint, in parallel. GlobalNoTransit and Search route
// by the same hash. With one endpoint the client computes no key.
//
// A request that fails at the transport layer is retried (see
// maxAttempts); once the retries give up, the call fails. A batch fails
// as a whole, with the error of the lowest-numbered endpoint that failed.
// The client does not move work off an endpoint that stopped answering.
//
// Client is safe for concurrent use.
type Client struct {
	eps  []*endpoint
	http *http.Client
	// maxAttempts, retryBase and retryMax are the transport retry policy;
	// tests shorten them.
	maxAttempts int
	retryBase   time.Duration
	retryMax    time.Duration
	// digests memoizes each revision's digest for the routing keys, so a
	// configuration is hashed once however many checks route by it; nil
	// with one endpoint, where nothing is routed.
	digests *suite.Digests
	// tracer is the optional trace sink (nil = off): one batch_rpc span
	// per /v1/batch round-trip and one retry event per backoff attempt.
	tracer *obs.Tracer
}

// ShardedClient is the former name of the multi-endpoint client.
//
// Deprecated: use Client. It stays only so bench/cobench keeps compiling,
// and goes at the next benchmark change.
type ShardedClient = Client

// NewClient returns a client for one batfishd base URL (e.g.
// "http://localhost:9876").
func NewClient(base string) *Client {
	return newClient([]string{strings.TrimRight(base, "/")})
}

// Dial returns a client over one or more batfishd base URLs once every
// one of them answers its health probe in this client's protocol
// version. Endpoints must be non-empty and distinct.
func Dial(endpoints []string) (*Client, error) {
	c, err := newFanout(endpoints)
	if err != nil {
		return nil, err
	}
	if err := c.Health(); err != nil {
		return nil, err
	}
	return c, nil
}

// NewShardedClient returns a client over the given batfishd base URLs
// without probing them.
//
// Deprecated: use Dial. It stays only so bench/cobench keeps compiling,
// and goes at the next benchmark change.
func NewShardedClient(endpoints []string) (*ShardedClient, error) {
	return newFanout(endpoints)
}

// newFanout validates an endpoint list and builds a client over it. An
// empty element or a duplicate is rejected loudly: dropping it silently
// would spread the work over fewer endpoints than the operator listed.
func newFanout(endpoints []string) (*Client, error) {
	if len(endpoints) == 0 {
		return nil, fmt.Errorf("rest client: no endpoints")
	}
	seen := map[string]bool{}
	bases := make([]string, len(endpoints))
	for i, ep := range endpoints {
		base := strings.TrimRight(strings.TrimSpace(ep), "/")
		if base == "" {
			return nil, fmt.Errorf("rest client: endpoint %d of %d is empty", i+1, len(endpoints))
		}
		if seen[base] {
			return nil, fmt.Errorf("rest client: duplicate endpoint %q", ep)
		}
		seen[base] = true
		bases[i] = base
	}
	return newClient(bases), nil
}

func newClient(bases []string) *Client {
	transport := http.DefaultTransport.(*http.Transport).Clone()
	transport.MaxIdleConnsPerHost = maxIdleConnsPerHost
	c := &Client{
		http:        &http.Client{Timeout: requestTimeout, Transport: transport},
		maxAttempts: maxAttempts,
		retryBase:   retryBaseDelay,
		retryMax:    retryMaxDelay,
	}
	for _, base := range bases {
		c.eps = append(c.eps, &endpoint{base: base,
			calls: &obs.Counter{}, retries: &obs.Counter{}, bytesOut: &obs.Counter{}})
	}
	if len(c.eps) > 1 {
		c.digests = suite.NewDigests()
	}
	return c
}

// SplitEndpoints normalizes a repeatable, comma-separated endpoint flag
// into an endpoint list: every value may carry several comma-separated
// endpoints, whitespace is trimmed, and an empty element is a loud error
// rather than a silently shorter list.
func SplitEndpoints(values []string) ([]string, error) {
	var out []string
	for _, v := range values {
		for _, ep := range strings.Split(v, ",") {
			ep = strings.TrimSpace(ep)
			if ep == "" {
				return nil, fmt.Errorf("empty endpoint element in %q", v)
			}
			out = append(out, ep)
		}
	}
	return out, nil
}

// shardKey is the routing key of a check. All of one configuration's
// whole-config checks (syntax, topology, diff) share the revision's
// digest as their key, so they land on one endpoint and share its parse
// of the revision; a local-policy check appends its attachment identity,
// so the obligations of a multi-homed router spread over the endpoints
// independently.
func shardKey(c suite.Check, d *suite.Digests) string {
	if c.Kind == suite.KindLocal && c.Req != nil {
		return d.Of(c.Config) + "\x00" + c.Req.Attachment.String()
	}
	return d.Of(c.Config)
}

// globalKey routes whole-network calls, which have no single config: by
// the topology name.
func globalKey(t *topology.Topology) string {
	if t == nil {
		return ""
	}
	return "global|" + t.Name
}

// owner returns the index of the endpoint that answers the routing key
// key builds: 64-bit FNV-1a of the key mod the endpoint count, the same
// in every process. With one endpoint it builds no key.
func (c *Client) owner(key func() string) int {
	if len(c.eps) == 1 {
		return 0
	}
	h := fnv.New64a()
	h.Write([]byte(key()))
	return int(h.Sum64() % uint64(len(c.eps)))
}

// total sums one of the endpoints' counters.
func (c *Client) total(counter func(*endpoint) *obs.Counter) int64 {
	var n uint64
	for _, ep := range c.eps {
		n += counter(ep).Value()
	}
	return int64(n)
}

// Calls returns the number of HTTP round-trips issued so far.
func (c *Client) Calls() int64 { return c.total(func(ep *endpoint) *obs.Counter { return ep.calls }) }

// BytesSent returns the request-body bytes put on the wire so far.
func (c *Client) BytesSent() int64 {
	return c.total(func(ep *endpoint) *obs.Counter { return ep.bytesOut })
}

// Retries returns the number of transport-layer retry attempts issued —
// round-trips beyond each request's first.
func (c *Client) Retries() int64 {
	return c.total(func(ep *endpoint) *obs.Counter { return ep.retries })
}

// ShardStat is one endpoint's counters, for benchmarks and diagnostics.
type ShardStat struct {
	// Endpoint is the base URL.
	Endpoint string
	// Calls is the total HTTP round-trips issued to the endpoint: batches
	// (Check calls are one-check batches), global checks, searches,
	// health probes and retries alike.
	Calls int64
	// Batches is the number of /v1/batch calls.
	Batches int64
	// Retries is the number of transport-layer retry attempts.
	Retries int64
	// Latency is the cumulative wall-clock of the /v1/batch calls.
	Latency time.Duration
}

// String renders the counters.
func (s ShardStat) String() string {
	return fmt.Sprintf("%s: %d calls, %d batches (%v), %d retries",
		s.Endpoint, s.Calls, s.Batches, s.Latency, s.Retries)
}

// Stats returns a snapshot of every endpoint's counters, in endpoint
// order.
func (c *Client) Stats() []ShardStat {
	out := make([]ShardStat, len(c.eps))
	for i, ep := range c.eps {
		out[i] = ShardStat{
			Endpoint: ep.base,
			Calls:    int64(ep.calls.Value()),
			Batches:  ep.batches.Load(),
			Retries:  int64(ep.retries.Value()),
			Latency:  time.Duration(ep.batchNS.Load()),
		}
	}
	return out
}

// SetObs adopts the client's transport counters into a metrics registry
// (labeled by endpoint) and binds an optional trace sink; either may be
// nil. Telemetry never changes what the client sends or accepts.
func (c *Client) SetObs(reg *obs.Registry, tr *obs.Tracer) {
	c.tracer = tr
	if reg == nil {
		return
	}
	for _, ep := range c.eps {
		reg.RegisterCounter("cosynth_rest_calls_total", ep.calls, "endpoint", ep.base)
		reg.RegisterCounter("cosynth_rest_retries_total", ep.retries, "endpoint", ep.base)
		reg.RegisterCounter("cosynth_rest_bytes_out_total", ep.bytesOut, "endpoint", ep.base)
		ep.batchSeconds = reg.Histogram("cosynth_rest_batch_seconds", obs.DefSecondsBuckets,
			"endpoint", ep.base)
	}
}

// post sends a JSON request to one endpoint and decodes the JSON response
// into out; the returned status is valid whenever err is nil or the
// status was not OK, and sent is the request-body bytes this call put on
// the wire, summed over its attempts. Transport-layer failures are
// retried with capped exponential backoff and jitter (the per-attempt
// deadline is requestTimeout) up to the attempt budget; a failure that
// survives the budget comes back as *TransportError. Caller cancellation
// is different in kind: the ctx going away is the caller's decision, not
// the endpoint's health, so it propagates immediately as the bare context
// error — no retry, no backoff sleep.
func (c *Client) post(ctx context.Context, ep *endpoint, path string, in, out interface{}) (status int, sent int64, err error) {
	delay := c.retryBase
	for attempt := 1; ; attempt++ {
		var n int64
		status, n, err = c.post1(ctx, ep, path, in, out)
		sent += n
		if err == nil || !IsTransportError(err) {
			return status, sent, err
		}
		if cerr := ctx.Err(); cerr != nil {
			return status, sent, cerr
		}
		if attempt >= c.maxAttempts {
			return status, sent, err
		}
		ep.retries.Inc()
		if c.tracer != nil {
			c.tracer.Emit(obs.Event{Stage: obs.StageRetry, Shard: ep.base,
				Detail: path, Outcome: fmt.Sprintf("attempt %d", attempt)})
		}
		// Full jitter over the capped exponential window: concurrent
		// retries against one recovering endpoint spread out instead of
		// stampeding it in lockstep.
		if delay > c.retryMax {
			delay = c.retryMax
		}
		sleep := time.Duration(rand.Int64N(int64(delay))) + delay/2
		t := time.NewTimer(sleep)
		select {
		case <-ctx.Done():
			t.Stop()
			return status, sent, ctx.Err()
		case <-t.C:
		}
		delay *= 2
	}
}

// post1 issues one attempt of a JSON POST and reports the request-body
// bytes it put on the wire. Transport-layer failures come back as
// *TransportError; caller cancellation comes back as the bare context
// error. A response body is read under maxBody, the bound the server
// applies to request bodies; a longer one is an error naming the bound.
func (c *Client) post1(ctx context.Context, ep *endpoint, path string, in, out interface{}) (status int, sent int64, err error) {
	body, err := json.Marshal(in)
	if err != nil {
		return 0, 0, fmt.Errorf("encoding %s request: %w", path, err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ep.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, 0, fmt.Errorf("building %s request: %w", path, err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(ProtocolHeader, protocolVersion)
	sent = int64(len(body))
	ep.calls.Inc()
	ep.bytesOut.Add(uint64(sent))
	resp, err := c.http.Do(req)
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return 0, sent, cerr
		}
		return 0, sent, &TransportError{Path: path, Err: err}
	}
	defer resp.Body.Close()
	if resp.ContentLength > maxBody {
		return resp.StatusCode, sent, errResponseTooLarge(path)
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxBody+1))
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return resp.StatusCode, sent, cerr
		}
		return resp.StatusCode, sent, &TransportError{Path: path, Err: err}
	}
	if int64(len(data)) > maxBody {
		return resp.StatusCode, sent, errResponseTooLarge(path)
	}
	if resp.StatusCode != http.StatusOK {
		var e ErrorResponse
		if json.Unmarshal(data, &e) == nil && e.Error != "" {
			return resp.StatusCode, sent, fmt.Errorf("%s: %s", path, e.Error)
		}
		return resp.StatusCode, sent, fmt.Errorf("%s: HTTP %d", path, resp.StatusCode)
	}
	if err := json.Unmarshal(data, out); err != nil {
		return resp.StatusCode, sent, fmt.Errorf("decoding %s response: %w", path, err)
	}
	return resp.StatusCode, sent, nil
}

func errResponseTooLarge(path string) error {
	return fmt.Errorf("%s: response exceeds the %d-byte limit", path, maxBody)
}

// Health probes every endpoint and checks that each speaks this client's
// protocol version. It fails naming every endpoint that does not answer;
// a server on another version yields an error wrapping
// errProtocolMismatch that names both versions.
//
// The probe closes its connections before returning, so their TIME_WAIT
// sockets sit on the client's ephemeral ports. Left idle, they were
// closed by a stopping server, whose listening ports then held them: in
// back-to-back 20 s wire-random-75 runs, which start, probe and stop two
// loopback shards thousands of times, that slowed a shard's listener
// start-up from 0.15 ms to 2.5 ms.
func (c *Client) Health() error {
	var errs []error
	for _, ep := range c.eps {
		if err := c.health(ep); err != nil {
			errs = append(errs, fmt.Errorf("batfishd at %s: %w", ep.base, err))
		}
	}
	c.http.CloseIdleConnections()
	return errors.Join(errs...)
}

func (c *Client) health(ep *endpoint) error {
	ep.calls.Inc()
	req, err := http.NewRequest(http.MethodGet, ep.base+PathHealth, nil)
	if err != nil {
		return fmt.Errorf("building health request: %w", err)
	}
	req.Header.Set(ProtocolHeader, protocolVersion)
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("health: HTTP %d", resp.StatusCode)
	}
	var h HealthResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&h); err != nil {
		return fmt.Errorf("health: decoding response: %w", err)
	}
	if h.Version != BatchProtocolVersion {
		return fmt.Errorf("%w: the server speaks v%d, this client speaks v%d",
			errProtocolMismatch, h.Version, BatchProtocolVersion)
	}
	return nil
}

// GlobalNoTransit implements core.Verifier: the server runs one cold
// whole-network simulation.
func (c *Client) GlobalNoTransit(t *topology.Topology, configs map[string]string) (*lightyear.GlobalResult, error) {
	ep := c.eps[c.owner(func() string { return globalKey(t) })]
	var resp NoTransitResponse
	if _, _, err := c.post(context.Background(), ep, PathNoTransit,
		NoTransitRequest{Topology: t, Configs: configs}, &resp); err != nil {
		return nil, err
	}
	return resp.Result, nil
}

// Search asks a SearchRoutePolicies question about one config, on the
// endpoint its other whole-config checks route to.
func (c *Client) Search(config string, q batfish.SearchQuery) (batfish.SearchResult, error) {
	ep := c.eps[c.owner(func() string { return c.digests.Of(config) })]
	var resp SearchResponse
	if _, _, err := c.post(context.Background(), ep, PathSearch,
		SearchRequest{Config: config, Query: q}, &resp); err != nil {
		return batfish.SearchResult{}, err
	}
	return resp.Result, nil
}

// WarmScenario does nothing and returns (0, nil). Spec and requirement
// bodies always travel inline, so there is nothing to prepare.
//
// Deprecated: it stays only so bench/cobench keeps compiling, and goes at
// the next benchmark change.
func (c *Client) WarmScenario(scenario string, seed int64) (int, error) {
	return 0, nil
}

// CheckBatch implements the engine's backend seam (suite.Backend). Each
// endpoint gets its share of the checks as one /v1/batch round-trip,
// carrying each distinct config text once in the request's body table;
// the round-trips run concurrently. An error fails the whole batch.
func (c *Client) CheckBatch(ctx context.Context, checks []suite.Check) ([]suite.Result, error) {
	if len(checks) == 0 {
		return nil, nil
	}
	out := make([]suite.Result, len(checks))
	if len(c.eps) == 1 {
		if err := c.batch(ctx, c.eps[0], checks, nil, out); err != nil {
			return nil, err
		}
		return out, nil
	}
	shares := make([][]int, len(c.eps))
	for i := range checks {
		e := c.owner(func() string { return shardKey(checks[i], c.digests) })
		shares[e] = append(shares[e], i)
	}
	errs := make([]error, len(c.eps))
	var wg sync.WaitGroup
	for e, idx := range shares {
		if len(idx) == 0 {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[e] = c.batch(ctx, c.eps[e], checks, idx, out)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// batch ships the checks at the positions idx (all of them when idx is
// nil) to one endpoint as one /v1/batch round-trip, and writes their
// results at the same positions of out. Errors from a batch that could
// have gone to several endpoints name the endpoint.
func (c *Client) batch(ctx context.Context, ep *endpoint, checks []suite.Check, idx []int, out []suite.Result) error {
	share := checks
	if idx != nil {
		share = make([]suite.Check, len(idx))
		for j, i := range idx {
			share[j] = checks[i]
		}
	}
	start := time.Now()
	var resp BatchResponse
	status, sent, err := c.post(ctx, ep, PathBatch, newBatchRequest(share), &resp)
	elapsed := time.Since(start)
	ep.batches.Add(1)
	ep.batchNS.Add(int64(elapsed))
	if ep.batchSeconds != nil {
		ep.batchSeconds.Observe(elapsed.Seconds())
	}
	if c.tracer != nil {
		outcome := "ok"
		if err != nil {
			outcome = fmt.Sprintf("http %d", status)
		}
		c.tracer.Span(start, obs.Event{Stage: obs.StageBatchRPC,
			Shard: ep.base, Checks: len(share), Bytes: sent, Outcome: outcome})
	}
	if err == nil {
		err = decodeResults(resp.Results, share, idx, out)
	}
	if err != nil && idx != nil && ctx.Err() == nil {
		err = fmt.Errorf("batfishd at %s: %w", ep.base, err)
	}
	return err
}

// decodeResults writes the results of the checks share, sent from the
// positions idx (0, 1, ... when idx is nil), at those positions of out.
// A check the server could not answer, or answered with a result no
// evaluator produces (see suite.Result.Validate), fails the batch, named
// by its position.
func decodeResults(results []BatchResult, share []suite.Check, idx []int, out []suite.Result) error {
	if len(results) != len(share) {
		return fmt.Errorf("%s: %d results for %d checks", PathBatch, len(results), len(share))
	}
	for j, r := range results {
		i := j
		if idx != nil {
			i = idx[j]
		}
		if r.Error != "" {
			return fmt.Errorf("%s: check %d (%s): %s", PathBatch, i, share[j].Kind, r.Error)
		}
		if err := r.Validate(); err != nil {
			return fmt.Errorf("%s: check %d (%s): %v", PathBatch, i, share[j].Kind, err)
		}
		out[i] = r.Result
	}
	return nil
}

// Check implements core.Verifier. It ships the check as a one-check
// batch, so a lone check takes the same wire path and retries as a
// prefetch.
func (c *Client) Check(check suite.Check) (suite.Result, error) {
	res, err := c.CheckBatch(context.Background(), []suite.Check{check})
	if err != nil {
		return suite.Result{}, err
	}
	return res[0], nil
}
