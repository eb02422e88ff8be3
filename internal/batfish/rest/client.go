package rest

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/batfish"
	"repro/internal/campion"
	"repro/internal/lightyear"
	"repro/internal/netcfg"
	"repro/internal/obs"
	"repro/internal/suite"
	"repro/internal/topology"
)

// TransportError marks a request that failed at the transport layer — the
// connection could not be established, died mid-request, or the response
// body was cut off — as opposed to a server that answered with an error.
// The distinction drives shard failover: a transport failure means the
// endpoint is down and its work should re-hash onto surviving shards,
// while a served error (bad request, protocol mismatch, semantic
// rejection) would reproduce identically on any shard and must propagate
// instead.
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

// ClientOptions tunes the REST client.
type ClientOptions struct {
	// Timeout bounds each request attempt (default 30s) — the per-attempt
	// deadline of the retry loop. Batched requests carry a whole
	// iteration's checks, so set it with the batch size in mind.
	Timeout time.Duration
	// MaxIdleConnsPerHost sizes the connection pool (default 16, against
	// net/http's default of 2): concurrent suite checks and back-to-back
	// batches reuse warm connections instead of opening one per check.
	MaxIdleConnsPerHost int
	// MaxAttempts bounds transport-layer attempts per request (default 3,
	// 1 disables retries). Every check is a pure function of its inputs,
	// so a request that died at the transport layer — connection refused,
	// connection reset, attempt timeout — is safe to re-send; the client
	// retries it with capped exponential backoff and jitter before the
	// failure propagates to the failover layer. Served errors and caller
	// context cancellation are never retried.
	MaxAttempts int
	// RetryBaseDelay is the backoff before the first retry (default
	// 50ms); each further retry doubles it.
	RetryBaseDelay time.Duration
	// RetryMaxDelay caps the backoff growth (default 2s).
	RetryMaxDelay time.Duration
}

// batchChecker gives a batch backend core.Verifier's four per-check
// methods: each ships its check as a one-check batch, so a lone call takes
// the same wire path, retries, and failover as a prefetch. Client and
// ShardedClient embed it over their own CheckBatch.
type batchChecker struct {
	batch func(context.Context, []suite.Check) ([]suite.Result, error)
}

func (b batchChecker) one(c suite.Check) (suite.Result, error) {
	res, err := b.batch(context.Background(), []suite.Check{c})
	if err != nil {
		return suite.Result{}, err
	}
	return res[0], nil
}

// CheckSyntax implements core.Verifier.
func (b batchChecker) CheckSyntax(config string) ([]netcfg.ParseWarning, error) {
	res, err := b.one(suite.Check{Kind: suite.KindSyntax, Config: config})
	return res.Warnings, err
}

// DiffTranslation implements core.Verifier.
func (b batchChecker) DiffTranslation(original, translation string) ([]campion.Finding, error) {
	res, err := b.one(suite.Check{Kind: suite.KindDiff, Original: original, Config: translation})
	return res.Diffs, err
}

// VerifyTopology implements core.Verifier.
func (b batchChecker) VerifyTopology(spec topology.RouterSpec, config string) ([]topology.Finding, error) {
	res, err := b.one(suite.Check{Kind: suite.KindTopology, Spec: &spec, Config: config})
	return res.Findings, err
}

// CheckLocalPolicy implements core.Verifier.
func (b batchChecker) CheckLocalPolicy(config string, req lightyear.Requirement) (lightyear.Violation, bool, error) {
	res, err := b.one(suite.Check{Kind: suite.KindLocal, Req: &req, Config: config})
	if err != nil || !res.Violated {
		return lightyear.Violation{}, false, err
	}
	if res.Violation == nil {
		return lightyear.Violation{}, false,
			fmt.Errorf("local-policy check on %s violated but carried no violation", req.Policy)
	}
	return *res.Violation, true, nil
}

// Client calls the verification suite over HTTP. It implements
// core.Verifier — and the engine's backend seam (suite.Backend) via
// CheckBatch, which ships many checks in one /v1/batch round-trip.
// ShardedClient fans the same seam out over several endpoints.
type Client struct {
	batchChecker
	base string
	http *http.Client
	// maxAttempts / retryBase / retryMax are the transport retry policy
	// (see ClientOptions).
	maxAttempts int
	retryBase   time.Duration
	retryMax    time.Duration
	// calls counts HTTP round-trips issued, for round-trip accounting in
	// benchmarks and tests. It is an obs instrument from birth so SetObs
	// can adopt it into a metrics registry without losing counts.
	calls *obs.Counter
	// retries counts transport-layer attempts beyond each request's first
	// — how much transient-fault riding the retry loop did.
	retries *obs.Counter
	// bytesOut sums the request-body bytes this client put on the wire.
	bytesOut *obs.Counter
	// refs is the scenario registry WarmScenario built, nil until then:
	// batched checks whose spec or requirement body it holds ship the
	// body's RefDigest instead.
	refs atomic.Pointer[scenarioRegistry]
	// tracer is the optional trace sink (nil = off): one batch_rpc span
	// per /v1/batch round-trip and one retry event per backoff attempt.
	// batchSeconds is the optional RPC-duration histogram a bound
	// registry provides.
	tracer       *obs.Tracer
	batchSeconds *obs.Histogram
}

// NewClient returns a client for a batfishd base URL (e.g.
// "http://localhost:9876") with default options.
func NewClient(base string) *Client {
	return NewClientOpts(base, ClientOptions{})
}

// NewClientOpts returns a client with tuned transport options.
func NewClientOpts(base string, opts ClientOptions) *Client {
	if opts.Timeout == 0 {
		opts.Timeout = 30 * time.Second
	}
	if opts.MaxIdleConnsPerHost == 0 {
		opts.MaxIdleConnsPerHost = 16
	}
	if opts.MaxAttempts == 0 {
		opts.MaxAttempts = 3
	}
	if opts.RetryBaseDelay == 0 {
		opts.RetryBaseDelay = 50 * time.Millisecond
	}
	if opts.RetryMaxDelay == 0 {
		opts.RetryMaxDelay = 2 * time.Second
	}
	transport := http.DefaultTransport.(*http.Transport).Clone()
	transport.MaxIdleConnsPerHost = opts.MaxIdleConnsPerHost
	c := &Client{
		base:        strings.TrimRight(base, "/"),
		http:        &http.Client{Timeout: opts.Timeout, Transport: transport},
		maxAttempts: opts.MaxAttempts,
		retryBase:   opts.RetryBaseDelay,
		retryMax:    opts.RetryMaxDelay,
		calls:       &obs.Counter{},
		retries:     &obs.Counter{},
		bytesOut:    &obs.Counter{},
	}
	c.batchChecker = batchChecker{batch: c.CheckBatch}
	return c
}

// Calls returns the number of HTTP round-trips issued so far.
func (c *Client) Calls() int64 { return int64(c.calls.Value()) }

// BytesSent returns the request-body bytes put on the wire so far.
func (c *Client) BytesSent() int64 { return int64(c.bytesOut.Value()) }

// Retries returns the number of transport-layer retry attempts issued —
// round-trips beyond each request's first.
func (c *Client) Retries() int64 { return int64(c.retries.Value()) }

// SetObs adopts the client's transport counters into a metrics registry
// (labeled by endpoint) and binds an optional trace sink; either may be
// nil. Telemetry never changes what the client sends or accepts.
func (c *Client) SetObs(reg *obs.Registry, tr *obs.Tracer) {
	c.tracer = tr
	if reg == nil {
		return
	}
	reg.RegisterCounter("cosynth_rest_calls_total", c.calls, "endpoint", c.base)
	reg.RegisterCounter("cosynth_rest_retries_total", c.retries, "endpoint", c.base)
	reg.RegisterCounter("cosynth_rest_bytes_out_total", c.bytesOut, "endpoint", c.base)
	c.batchSeconds = reg.Histogram("cosynth_rest_batch_seconds", obs.DefSecondsBuckets,
		"endpoint", c.base)
}

// post sends a JSON request and decodes the JSON response into out; the
// returned status is valid whenever err is nil or the status was not OK.
// Transport-layer failures are retried with capped exponential backoff
// and jitter (the per-attempt deadline is the client's Timeout) up to the
// MaxAttempts budget; a failure that survives the budget comes back as
// *TransportError so callers (the sharded client) can tell a dead
// endpoint from a served error. Caller cancellation is different in kind:
// the ctx going away is the caller's decision, not the endpoint's health,
// so it propagates immediately as the bare context error — no retry, no
// backoff sleep, and no *TransportError wrapper for the failover layer to
// misread as a dead shard.
func (c *Client) post(ctx context.Context, path string, in, out interface{}) (status int, err error) {
	delay := c.retryBase
	for attempt := 1; ; attempt++ {
		status, err = c.post1(ctx, path, in, out)
		if err == nil || !IsTransportError(err) {
			return status, err
		}
		if cerr := ctx.Err(); cerr != nil {
			return status, cerr
		}
		if attempt >= c.maxAttempts {
			return status, err
		}
		c.retries.Inc()
		if c.tracer != nil {
			c.tracer.Emit(obs.Event{Stage: obs.StageRetry, Shard: c.base,
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
			return status, ctx.Err()
		case <-t.C:
		}
		delay *= 2
	}
}

// post1 issues one attempt of a JSON POST. Transport-layer failures come
// back as *TransportError; caller cancellation comes back as the bare
// context error.
func (c *Client) post1(ctx context.Context, path string, in, out interface{}) (status int, err error) {
	body, err := json.Marshal(in)
	if err != nil {
		return 0, fmt.Errorf("encoding %s request: %w", path, err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, fmt.Errorf("building %s request: %w", path, err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(ProtocolHeader, protocolVersion)
	c.calls.Inc()
	c.bytesOut.Add(uint64(len(body)))
	resp, err := c.http.Do(req)
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return 0, cerr
		}
		return 0, &TransportError{Path: path, Err: err}
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return resp.StatusCode, cerr
		}
		return resp.StatusCode, &TransportError{Path: path, Err: err}
	}
	if resp.StatusCode != http.StatusOK {
		var e ErrorResponse
		if json.Unmarshal(data, &e) == nil && e.Error != "" {
			return resp.StatusCode, fmt.Errorf("%s: %s", path, e.Error)
		}
		return resp.StatusCode, fmt.Errorf("%s: HTTP %d", path, resp.StatusCode)
	}
	if err := json.Unmarshal(data, out); err != nil {
		return resp.StatusCode, fmt.Errorf("decoding %s response: %w", path, err)
	}
	return resp.StatusCode, nil
}

// Health checks the service and that it speaks this client's protocol
// version; a server on another version yields an error wrapping
// errProtocolMismatch that names both versions.
func (c *Client) Health() error {
	c.calls.Inc()
	req, err := http.NewRequest(http.MethodGet, c.base+PathHealth, nil)
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
		return fmt.Errorf("%w: batfishd at %s speaks v%d, this client speaks v%d",
			errProtocolMismatch, c.base, h.Version, BatchProtocolVersion)
	}
	return nil
}

// GlobalNoTransit implements core.Verifier: the server runs one cold
// whole-network simulation.
func (c *Client) GlobalNoTransit(t *topology.Topology, configs map[string]string) (*lightyear.GlobalResult, error) {
	req := NoTransitRequest{Topology: t, Configs: configs}
	var resp NoTransitResponse
	if _, err := c.post(context.Background(), PathNoTransit, req, &resp); err != nil {
		return nil, err
	}
	return resp.Result, nil
}

// WarmScenario prepares the client for a run on one registered topology
// family ("fat-tree:4"; size optional). It makes no request: it generates
// the family and builds the same reference registry the server builds, so
// later batches ship the RefDigest of every spec and requirement body the
// registry holds instead of the body. Bodies outside it — a graph
// variant's specs, requirements the family does not derive — still travel
// in full. The registry derives from the topology alone, so seed only
// keeps the call shape of the simulated-LLM seed a run is driven with. It
// returns the number of registered bodies.
func (c *Client) WarmScenario(scenario string, seed int64) (int, error) {
	reg, err := buildScenarioRegistry(scenario)
	if err != nil {
		return 0, err
	}
	c.refs.Store(reg)
	return reg.size(), nil
}

// Search asks a SearchRoutePolicies question about one config.
func (c *Client) Search(config string, q batfish.SearchQuery) (batfish.SearchResult, error) {
	var resp SearchResponse
	if _, err := c.post(context.Background(), PathSearch, SearchRequest{Config: config, Query: q}, &resp); err != nil {
		return batfish.SearchResult{}, err
	}
	return resp.Result, nil
}

// Capabilities implements suite.Backend: one batched endpoint.
func (c *Client) Capabilities() suite.Capabilities {
	return suite.Capabilities{Batched: true}
}

// CheckBatch implements the engine's backend seam (suite.Backend): all
// checks ship as one /v1/batch round-trip, carrying each distinct config
// text once in the request's body table. After WarmScenario, spec and
// requirement bodies the scenario's registry holds leave the wire: checks
// carry their RefDigest instead, and the request names the scenario the
// server resolves them against.
func (c *Client) CheckBatch(ctx context.Context, checks []suite.Check) ([]suite.Result, error) {
	if len(checks) == 0 {
		return nil, nil
	}
	req := newBatchRequest(checks)
	if reg := c.refs.Load(); reg != nil {
		for i := range req.Checks {
			if reg.elide(&req.Checks[i]) {
				req.Scenario = reg.name
			}
		}
	}
	var resp BatchResponse
	var rpcStart time.Time
	if c.tracer != nil || c.batchSeconds != nil {
		rpcStart = time.Now()
	}
	sentBefore := c.bytesOut.Value()
	status, err := c.post(ctx, PathBatch, req, &resp)
	if !rpcStart.IsZero() {
		if c.batchSeconds != nil {
			c.batchSeconds.Observe(time.Since(rpcStart).Seconds())
		}
		if c.tracer != nil {
			outcome := "ok"
			if err != nil {
				outcome = fmt.Sprintf("http %d", status)
			}
			c.tracer.Span(rpcStart, obs.Event{Stage: obs.StageBatchRPC,
				Shard: c.base, Checks: len(checks),
				Bytes: int64(c.bytesOut.Value() - sentBefore), Outcome: outcome})
		}
	}
	if err != nil {
		return nil, err
	}
	if len(resp.Results) != len(checks) {
		return nil, fmt.Errorf("%s: %d results for %d checks",
			PathBatch, len(resp.Results), len(checks))
	}
	out := make([]suite.Result, len(checks))
	for i, r := range resp.Results {
		if r.Error != "" {
			return nil, fmt.Errorf("%s: check %d (%s): %s",
				PathBatch, i, checks[i].Kind, r.Error)
		}
		out[i] = suite.Result{
			Warnings:  r.Warnings,
			Findings:  r.Findings,
			Diffs:     r.Diffs,
			Violated:  r.Violated,
			Violation: r.Violation,
		}
	}
	return out, nil
}
