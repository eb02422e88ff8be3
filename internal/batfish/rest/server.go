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
	"repro/internal/netcfg"
	"repro/internal/obs"
	"repro/internal/suite"
)

// HandlerOptions tunes the verification-suite handler.
type HandlerOptions struct {
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
		parses:  opts.Parses,
		disk:    opts.Durable,
		digests: suite.NewDigests(),
		reg:     opts.Metrics,
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
	parses  *netcfg.ParseCache
	disk    *durable.Cache
	digests *suite.Digests
	reg     *obs.Registry
}

// protocolVersion is BatchProtocolVersion as the header carries it.
var protocolVersion = strconv.Itoa(BatchProtocolVersion)

func handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, HealthResponse{Status: "ok", Version: BatchProtocolVersion})
}

// maxBody bounds a JSON body in either direction: the POST body batfishd
// reads and the response body the client reads. It is 3 GiB. A batch
// carries each config text once and every spec and requirement inline;
// the largest batch bodies measured under `cosynth -mode notransit
// -shards 2` on an x86-64 Linux host are 623,941 bytes at random:75,
// 3,501,106 bytes at random:200 and 14,743,682 bytes at random:400. With
// one egress-drop requirement per pair of attachments they were
// 1,523,031, 8,419,717 and 37,111,479 bytes, and when each check carried
// its config inline, random:200 reached 544.6 MB. Responses can be large
// too: the global check of random:600's first drafts, with 298,662
// transit violations, encodes to a 20,375,379-byte NoTransitResponse. The
// bound stays well above these: random, ring and dual-homed allow 1,000
// routers, where no batch has been measured, and a batch's requirements
// still grow with the square of the external attachments, since each
// attachment's egress-drop requirement lists every other attachment's
// community.
const maxBody int64 = 3 << 30

// decode reads a JSON POST body after checking the request speaks this
// server's protocol version; it writes the error response itself and
// reports whether decoding succeeded. A body over maxBody is refused
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
	if r.ContentLength > maxBody {
		writeTooLarge(w)
		return false
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody))
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

// writeTooLarge answers a request whose body is over maxBody.
func writeTooLarge(w http.ResponseWriter) {
	writeJSON(w, http.StatusRequestEntityTooLarge, ErrorResponse{Error: fmt.Sprintf(
		"request body exceeds the %d-byte limit", maxBody)})
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

// evalBatchCheck answers one resolved batched check through
// core.LocalVerifier.Check, the single mapping from check kinds to
// evaluators; parses is the batch's parse cache, so a batch carrying the
// same configuration for its syntax, topology, and local checks parses it
// once. A malformed check comes back as a per-result error.
func evalBatchCheck(c suite.Check, parses *netcfg.ParseCache) BatchResult {
	res, err := core.LocalVerifier{Parses: parses}.Check(c)
	if err != nil {
		return BatchResult{Error: err.Error()}
	}
	return BatchResult{Result: res}
}

// evalBatchCheckDurable answers one batched check through the server's
// mounted disk cache: a hit (decoded from the content-addressed entry)
// skips the evaluation entirely, a miss computes and — unless the check
// itself was malformed — returns the entry to persist beside the result
// (a zero Entry otherwise). The cache key is suite.Key over the check's
// resolved form, the same identity the engine's client-side cache uses,
// so a cosynth run and the shard it talks to can share one directory
// without double-keying. An entry that fails to decode, or is violated
// with no violation, falls through to recomputation.
func evalBatchCheckDurable(c suite.Check, parses *netcfg.ParseCache, d *durable.Cache,
	digests *suite.Digests) (BatchResult, durable.Entry) {
	key := suite.KeyD(c, digests)
	if payload, ok := d.Get(key); ok {
		var res suite.Result
		if json.Unmarshal(payload, &res) == nil && res.Validate() == nil {
			return BatchResult{Result: res}, durable.Entry{}
		}
	}
	res := evalBatchCheck(c, parses)
	if res.Error == "" {
		if payload, err := json.Marshal(res.Result); err == nil {
			return res, durable.Entry{Key: key, Payload: payload}
		}
	}
	return res, durable.Entry{}
}

// handleBatch evaluates a whole batch of independent checks in one
// round-trip, fanning them onto a pool of GOMAXPROCS workers. Results are
// positional; a malformed individual check yields a per-result error
// without failing the batch, but a body index outside the request's table
// fails it with a 400. env.parses, when non-nil, replaces the
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
	workers := runtime.GOMAXPROCS(0)
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
