// Command batfishd serves the verification suite over HTTP, so the
// COSYNTH engine can point at it with -rest (see cmd/cosynth); that is how
// the Batfish dependency is reproduced without Go bindings. Several
// batfishd instances can share the work: cosynth -rest takes a
// comma-separated endpoint list and sends each check to one of them by a
// hash of the check.
//
// The daemon speaks one protocol version (rest.BatchProtocolVersion) on
// these endpoints:
//
//	POST /v1/batch      syntax, topology, local-policy, and diff checks
//	POST /v1/notransit  the global no-transit check: one cold BGP
//	                    simulation, stateless
//	POST /v1/search     SearchRoutePolicies
//	GET  /v1/health     liveness and the protocol version
//	GET  /metrics       Prometheus text exposition of the request, batch,
//	                    parse, and durable-cache counters
//	GET  /debug/vars    the same registry as a JSON snapshot
//
// A client on another version is refused with HTTP 400 naming both
// versions. A version-8 /v1/batch body carries each distinct config text
// once in its "bodies" table; each check names its config, and a diff
// check its original, by index into that table, and carries its router
// spec or requirement inline. An index outside the table, or a field the
// version does not define (version 7's "scenario", "spec_ref" and
// "req_ref" among them), gets HTTP 400 naming it.
//
// Batched checks and no-transit checks parse through one parse cache
// shared across requests, and -cache-dir mounts a durable result cache
// beneath the batched checks.
package main

import (
	"flag"
	"log"
	"net/http"
	"runtime"
	"time"

	"repro/internal/batfish"
	"repro/internal/batfish/rest"
	"repro/internal/durable"
	"repro/internal/obs"
)

func main() {
	addr := flag.String("addr", "localhost:9876", "listen address")
	batchWorkers := flag.Int("batch-workers", 0,
		"worker pool size for /v1/batch check evaluation (0 = GOMAXPROCS)")
	cacheDir := flag.String("cache-dir", "",
		"mount a durable verification-result cache at this directory: batched checks are "+
			"answered from disk when content-addressed entries exist, and each request's computed "+
			"results are persisted as one pack, so restarts (and fleets sharing the directory) stay warm")
	flag.Parse()

	reg := obs.NewRegistry()
	opts := rest.HandlerOptions{BatchWorkers: *batchWorkers, Metrics: reg,
		Parses: batfish.NewParseCache()}
	opts.Parses.SetObs(reg, nil)
	if *cacheDir != "" {
		d, err := durable.Open(*cacheDir, durable.Options{})
		if err != nil {
			// An unusable cache directory (a newer on-disk format, a
			// permission problem) degrades the daemon to uncached serving:
			// the cache is an optimization, not a correctness dependency.
			log.Printf("batfishd: durable cache disabled: %v", err)
		} else {
			opts.Durable = d
			d.SetMetrics(reg)
			log.Printf("batfishd: durable result cache mounted at %s", d.Dir())
		}
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           rest.NewHandlerOpts(opts),
		ReadHeaderTimeout: 5 * time.Second,
	}
	workers := *batchWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	log.Printf("batfishd: serving verification suite on http://%s (protocol v%d, batch workers: %d)",
		*addr, rest.BatchProtocolVersion, workers)
	log.Printf("batfishd: metrics on http://%s%s and http://%s%s", *addr, obs.MetricsPath, *addr, obs.VarsPath)
	if err := srv.ListenAndServe(); err != nil {
		log.Fatalf("batfishd: %v", err)
	}
}
