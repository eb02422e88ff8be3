package rest

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/batfish"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/lightyear"
	"repro/internal/netcfg"
	"repro/internal/netgen"
	"repro/internal/obs"
	"repro/internal/suite"
	"repro/internal/topology"
)

// HandlerOptions tunes the verification-suite handler.
type HandlerOptions struct {
	// BatchWorkers bounds the worker pool evaluating the checks of one
	// /v1/batch request concurrently; <= 0 uses GOMAXPROCS.
	BatchWorkers int
	// Parses, when set, is a parse cache shared across requests: batched
	// and no-transit checks parse through it instead of a request-scoped
	// cache, so a revision one request parsed is not parsed again, nor are
	// the route-maps its local checks compiled. It grows with every
	// distinct configuration revision seen, and keeps each revision's
	// text (median about 8 KB) as its key beside its device, so
	// long-lived servers trade memory for parse time; leave nil to keep
	// the request-scoped behaviour.
	Parses *netcfg.ParseCache
	// Durable, when set, answers batched checks from a disk cache keyed by
	// suite.Key and persists each request's computed results into it as
	// one pack — the same content-addressed store the engine's
	// CachedVerifier mounts, so a restarted shard (or a whole fleet sharing
	// a directory) comes back warm instead of re-verifying every revision
	// it had already seen. Per-check errors are never cached.
	Durable *durable.Cache
	// Metrics, when set, is the registry behind the handler's
	// observability surface: GET /metrics (Prometheus text exposition) and
	// GET /debug/vars (JSON snapshot) are mounted on the handler's mux,
	// and the handler's own request/batch counters register into it. Nil
	// gets the handler a private registry, so the endpoints are always
	// live — an in-process shard scrapes the same way a remote one does.
	Metrics *obs.Registry
}

// NewHandler returns the HTTP handler serving the verification suite with
// default options.
func NewHandler() http.Handler {
	return NewHandlerOpts(HandlerOptions{})
}

// NewHandlerOpts returns the HTTP handler serving the verification suite.
func NewHandlerOpts(opts HandlerOptions) http.Handler {
	if opts.BatchWorkers <= 0 {
		opts.BatchWorkers = runtime.GOMAXPROCS(0)
	}
	if opts.Metrics == nil {
		opts.Metrics = obs.NewRegistry()
	}
	mux := http.NewServeMux()
	obsHandler := obs.Handler(opts.Metrics)
	mux.Handle(obs.MetricsPath, obsHandler)
	mux.Handle(obs.VarsPath, obsHandler)
	mux.HandleFunc(PathHealth, handleHealth)
	mux.HandleFunc(PathSearch, handleSearch)
	env := &batchEnv{
		workers:   opts.BatchWorkers,
		parses:    opts.Parses,
		scenarios: newFIFOStore[*scenarioRegistry](maxScenarioRegistries),
		disk:      opts.Durable,
		digests:   suite.NewDigests(),
		reg:       opts.Metrics,
	}
	mux.HandleFunc(PathBatch, func(w http.ResponseWriter, r *http.Request) {
		handleBatch(w, r, env)
	})
	mux.HandleFunc(PathNoTransit, func(w http.ResponseWriter, r *http.Request) {
		handleNoTransit(w, r, env.parses)
	})
	// Per-path request accounting wraps the whole mux; the observability
	// endpoints themselves are excluded so a scrape loop does not inflate
	// the very numbers it reads.
	reg := opts.Metrics
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != obs.MetricsPath && r.URL.Path != obs.VarsPath {
			reg.Counter("batfishd_requests_total", "path", r.URL.Path).Inc()
		}
		mux.ServeHTTP(w, r)
	})
}

// batchEnv is the handler state every /v1/batch request is served with;
// /v1/notransit shares its parse cache.
type batchEnv struct {
	workers   int
	parses    *netcfg.ParseCache
	scenarios *fifoStore[*scenarioRegistry]
	disk      *durable.Cache
	digests   *suite.Digests
	reg       *obs.Registry
}

// fifoStore is a string-keyed map bounded to max entries, evicting the
// oldest insertion first. It is safe for concurrent use.
type fifoStore[V any] struct {
	mu      sync.Mutex
	max     int
	entries map[string]V
	order   []string // insertion order, for oldest-first eviction
}

func newFIFOStore[V any](max int) *fifoStore[V] {
	return &fifoStore[V]{max: max, entries: map[string]V{}}
}

// get returns the entry under key.
func (s *fifoStore[V]) get(key string) (V, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.entries[key]
	return v, ok
}

// put stores v under key, evicting the oldest entries past the bound.
func (s *fifoStore[V]) put(key string, v V) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.entries[key]; ok {
		s.order = slices.DeleteFunc(s.order, func(k string) bool { return k == key })
	}
	s.entries[key] = v
	s.order = append(s.order, key)
	for len(s.order) > s.max {
		delete(s.entries, s.order[0])
		s.order = s.order[1:]
	}
}

// maxScenarioRegistries bounds the handler's memo of scenario registries:
// a registry holds one generated family's bodies, and the family name
// arrives over the wire, so an unbounded memo would let any client pin
// memory. A run names one family, so 8 covers concurrent runs with room.
const maxScenarioRegistries = 8

// scenarioRegistry holds one registered family's spec and requirement
// bodies, content-addressed by RefDigest. Client and server build it from
// the same generator: the client to decide which bodies it may replace by
// a reference, the server to resolve those references. Because both run
// the same code, a reference the server cannot resolve can only come from
// a client bug, and the server rejects the batch instead of guessing.
type scenarioRegistry struct {
	name  string // the resolved "family:size"
	specs map[string]*topology.RouterSpec
	reqs  map[string]*lightyear.Requirement
}

// buildScenarioRegistry generates the family named by a "name[:size]"
// argument (default size when omitted; netgen bounds the size) and
// registers its router specs and local no-transit requirements under
// their content digests.
func buildScenarioRegistry(scenario string) (*scenarioRegistry, error) {
	name, size, err := netgen.ParseScenarioArg(scenario)
	if err != nil {
		return nil, err
	}
	if size <= 0 {
		sc, _ := netgen.Lookup(name)
		size = sc.DefaultSize
	}
	topo, err := netgen.Generate(name, size)
	if err != nil {
		return nil, err
	}
	reg := &scenarioRegistry{
		name:  fmt.Sprintf("%s:%d", name, size),
		specs: make(map[string]*topology.RouterSpec, len(topo.Routers)),
		reqs:  map[string]*lightyear.Requirement{},
	}
	for i := range topo.Routers {
		spec := &topo.Routers[i]
		reg.specs[RefDigest(spec)] = spec
	}
	for _, req := range lightyear.SpecFor(topo) {
		req := req
		reg.reqs[RefDigest(&req)] = &req
	}
	return reg, nil
}

// size returns the number of registered bodies.
func (r *scenarioRegistry) size() int { return len(r.specs) + len(r.reqs) }

// elide replaces the check's spec and requirement bodies by references
// where this registry holds them, reporting whether it set any reference.
// Bodies outside the registry — a graph variant's specs, a requirement the
// family does not derive — stay in full.
func (r *scenarioRegistry) elide(c *BatchCheck) bool {
	elided := false
	if c.Spec != nil {
		if d := RefDigest(c.Spec); r.specs[d] != nil {
			c.Spec, c.SpecRef, elided = nil, d, true
		}
	}
	if c.Requirement != nil {
		if d := RefDigest(c.Requirement); r.reqs[d] != nil {
			c.Requirement, c.ReqRef, elided = nil, d, true
		}
	}
	return elided
}

// protocolVersion is BatchProtocolVersion as the header carries it.
var protocolVersion = strconv.Itoa(BatchProtocolVersion)

func handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, HealthResponse{Status: "ok", Version: BatchProtocolVersion})
}

// maxRequestBody bounds the POST body batfishd reads: 3 GiB. Since a batch
// carries each config text once, the largest batch bodies measured under
// `cosynth -mode notransit -shards 2` on an x86-64 Linux host are 832,697
// bytes at random:75, 4,905,532 bytes at random:200, and 8,394,040 bytes
// at random:200 with -seed 3, a graph variant whose specs and requirements
// the family's registry does not hold. When each check carried its config
// inline, random:200 reached 544.6 MB. The bound stays well above these:
// random, ring and dual-homed allow 1,000 routers, where no batch has been
// measured, and a requirement outside the registry still travels in full
// with every check that names it.
const maxRequestBody int64 = 3 << 30

// decode reads a JSON POST body after checking the request speaks this
// server's protocol version; it writes the error response itself and
// reports whether decoding succeeded. A body over maxRequestBody is refused
// with 413 as soon as it is known to be over: up front when its declared
// length is, otherwise once reading passes the limit.
func decode(w http.ResponseWriter, r *http.Request, v interface{}) bool {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, ErrorResponse{Error: "POST required"})
		return false
	}
	if got := r.Header.Get(ProtocolHeader); got != protocolVersion {
		client := "v" + got
		if got == "" {
			client = "no version (missing " + ProtocolHeader + " header)"
		}
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: fmt.Sprintf(
			"protocol mismatch: client speaks %s, server speaks v%d", client, BatchProtocolVersion)})
		return false
	}
	if r.ContentLength > maxRequestBody {
		writeTooLarge(w)
		return false
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeTooLarge(w)
			return false
		}
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: fmt.Sprintf("bad request: %v", err)})
		return false
	}
	return true
}

// writeTooLarge answers a request whose body is over maxRequestBody.
func writeTooLarge(w http.ResponseWriter) {
	writeJSON(w, http.StatusRequestEntityTooLarge, ErrorResponse{Error: fmt.Sprintf(
		"request body exceeds the %d-byte limit", maxRequestBody)})
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// handleNoTransit serves the global no-transit check: one cold BGP
// simulation through core.LocalVerifier, the verifier batched checks
// evaluate through. parses is the handler's shared parse cache when one is
// set, so a revision a batch already parsed is not parsed again; nothing
// else outlives the request.
func handleNoTransit(w http.ResponseWriter, r *http.Request, parses *netcfg.ParseCache) {
	var req NoTransitRequest
	if !decode(w, r, &req) {
		return
	}
	if req.Topology == nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "topology required"})
		return
	}
	result, err := core.LocalVerifier{Parses: parses}.GlobalNoTransit(req.Topology, req.Configs)
	if err != nil {
		writeJSON(w, http.StatusUnprocessableEntity, ErrorResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, NoTransitResponse{Result: result})
}

// evalBatchCheck answers one resolved batched check through suite.Eval,
// the single mapping from check kinds to verifier calls; parses is the
// batch's parse cache, so a batch carrying the same configuration for its
// syntax, topology, and local checks parses it once. A malformed check
// comes back as a per-result error.
func evalBatchCheck(c suite.Check, parses *netcfg.ParseCache) BatchResult {
	res, err := suite.Eval(core.LocalVerifier{Parses: parses}, c)
	if err != nil {
		return BatchResult{Error: err.Error()}
	}
	return BatchResult{
		Warnings:  res.Warnings,
		Findings:  res.Findings,
		Diffs:     res.Diffs,
		Violated:  res.Violated,
		Violation: res.Violation,
	}
}

// evalBatchCheckDurable answers one batched check through the server's
// mounted disk cache: a hit (decoded from the content-addressed entry)
// skips the evaluation entirely, a miss computes and — unless the check
// itself was malformed — returns the entry to persist beside the result
// (a zero Entry otherwise). The cache key is suite.Key over the check's
// resolved form, the same identity the engine's client-side cache uses,
// so a cosynth run and the shard it talks to can share one directory
// without double-keying. Decode failures fall through to recomputation.
func evalBatchCheckDurable(c suite.Check, parses *netcfg.ParseCache, d *durable.Cache,
	digests *suite.Digests) (BatchResult, durable.Entry) {
	key := suite.KeyD(c, digests)
	if payload, ok := d.Get(key); ok {
		var res BatchResult
		if err := json.Unmarshal(payload, &res); err == nil && res.Error == "" {
			return res, durable.Entry{}
		}
	}
	res := evalBatchCheck(c, parses)
	if res.Error == "" {
		if payload, err := json.Marshal(res); err == nil {
			return res, durable.Entry{Key: key, Payload: payload}
		}
	}
	return res, durable.Entry{}
}

// resolveBatchRefs substitutes the registry bodies for the request's
// SpecRef/ReqRef references in checks, the request's resolved checks.
// The registry of the named scenario is built on first use and memoized.
// Any failure — no scenario named, a family the registry rejects, a digest
// the registry does not hold — fails the whole batch: answering the other
// checks while one is unresolvable would hand back untrustworthy results.
func resolveBatchRefs(req *BatchRequest, checks []suite.Check, scenarios *fifoStore[*scenarioRegistry]) error {
	if !slices.ContainsFunc(req.Checks, func(c BatchCheck) bool { return c.SpecRef != "" || c.ReqRef != "" }) {
		return nil
	}
	if req.Scenario == "" {
		return fmt.Errorf("batch carries body references but names no scenario")
	}
	reg, ok := scenarios.get(req.Scenario)
	if !ok {
		var err error
		if reg, err = buildScenarioRegistry(req.Scenario); err != nil {
			return err
		}
		scenarios.put(req.Scenario, reg)
	}
	for i, bc := range req.Checks {
		c := &checks[i]
		if bc.SpecRef != "" {
			if c.Spec = reg.specs[bc.SpecRef]; c.Spec == nil {
				return fmt.Errorf("unresolvable spec ref %s for %s", bc.SpecRef, reg.name)
			}
		}
		if bc.ReqRef != "" {
			if c.Req = reg.reqs[bc.ReqRef]; c.Req == nil {
				return fmt.Errorf("unresolvable requirement ref %s for %s", bc.ReqRef, reg.name)
			}
		}
	}
	return nil
}

// handleBatch evaluates a whole batch of independent checks in one
// round-trip, fanning them onto a bounded worker pool. Results are
// positional; a malformed individual check yields a per-result error
// without failing the batch, but a body index outside the request's table
// or an unresolvable reference fails it with a 400. env.parses, when non-nil, replaces the
// request-scoped parse cache so earlier requests' parses are reused. With
// a durable cache mounted, the results the batch computed are written as
// one pack before the response; a write failure is swallowed (a full disk
// degrades the shard to uncached, it does not fail the batch).
func handleBatch(w http.ResponseWriter, r *http.Request, env *batchEnv) {
	var req BatchRequest
	if !decode(w, r, &req) {
		return
	}
	start := time.Now()
	env.reg.Counter("batfishd_batch_requests_total").Inc()
	env.reg.Counter("batfishd_batch_checks_total").Add(uint64(len(req.Checks)))
	defer func() {
		env.reg.Histogram("batfishd_batch_seconds", obs.DefSecondsBuckets).Observe(time.Since(start).Seconds())
	}()
	checks, err := req.resolve()
	if err == nil {
		err = resolveBatchRefs(&req, checks, env.scenarios)
	}
	if err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
		return
	}
	parses := env.parses
	if parses == nil {
		parses = batfish.NewParseCache()
	}
	results := make([]BatchResult, len(checks))
	eval := func(i int) { results[i] = evalBatchCheck(checks[i], parses) }
	var fresh []durable.Entry // positional; a zero Entry persists nothing
	if env.disk != nil {
		fresh = make([]durable.Entry, len(checks))
		eval = func(i int) {
			results[i], fresh[i] = evalBatchCheckDurable(checks[i], parses, env.disk, env.digests)
		}
	}
	workers := env.workers
	if workers > len(checks) {
		workers = len(checks)
	}
	if workers <= 1 {
		for i := range checks {
			eval(i)
		}
	} else {
		jobs := make(chan int)
		var wg sync.WaitGroup
		for n := 0; n < workers; n++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range jobs {
					eval(i)
				}
			}()
		}
		for i := range checks {
			jobs <- i
		}
		close(jobs)
		wg.Wait()
	}
	if env.disk != nil {
		fresh = slices.DeleteFunc(fresh, func(e durable.Entry) bool { return e.Payload == nil })
		_, _ = env.disk.Put(fresh...)
	}
	writeJSON(w, http.StatusOK, BatchResponse{Results: results})
}

func handleSearch(w http.ResponseWriter, r *http.Request) {
	var req SearchRequest
	if !decode(w, r, &req) {
		return
	}
	dev, _ := batfish.ParseConfig(req.Config)
	result, err := batfish.SearchRoutePolicies(&netcfg.Parsed{Device: dev}, req.Query)
	if err != nil {
		writeJSON(w, http.StatusUnprocessableEntity, ErrorResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, SearchResponse{Result: result})
}
