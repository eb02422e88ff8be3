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
//	                    and parse counters
//	GET  /debug/vars    the same registry as a JSON snapshot
//
// A client on another version is refused with HTTP 400 naming both
// versions. A version-9 /v1/batch body carries each distinct config text
// once in its "bodies" table; each check names its config, and a diff
// check its original, by index into that table, and carries its router
// spec or requirement inline. A local check covers one route-map: an
// egress-drop requirement lists every community its route-map must drop,
// and a violation names the first one it permits. An index outside the
// table, or a field the version does not define (version 7's "scenario",
// "spec_ref" and "req_ref" among them), gets HTTP 400 naming it.
//
// Batched checks and no-transit checks parse through one parse cache
// shared across requests; nothing else outlives a request, so a restarted
// daemon answers exactly as before. A client that keeps results across
// restarts mounts its own disk tier (cosynth -cache-dir). A batch's
// checks are evaluated on GOMAXPROCS workers; set Go's GOMAXPROCS
// environment variable to change the count.
package main

import (
	"flag"
	"log"
	"net/http"
	"runtime"
	"time"

	"repro/internal/batfish"
	"repro/internal/batfish/rest"
	"repro/internal/obs"
)

func main() {
	addr := flag.String("addr", "localhost:9876", "listen address")
	flag.Parse()

	reg := obs.NewRegistry()
	opts := rest.HandlerOptions{Metrics: reg, Parses: batfish.NewParseCache()}
	opts.Parses.SetObs(reg, nil)
	srv := &http.Server{
		Addr:              *addr,
		Handler:           rest.NewHandlerOpts(opts),
		ReadHeaderTimeout: 5 * time.Second,
	}
	log.Printf("batfishd: serving verification suite on http://%s (protocol v%d, batch workers: %d)",
		*addr, rest.BatchProtocolVersion, runtime.GOMAXPROCS(0))
	log.Printf("batfishd: metrics on http://%s%s and http://%s%s", *addr, obs.MetricsPath, *addr, obs.VarsPath)
	if err := srv.ListenAndServe(); err != nil {
		log.Fatalf("batfishd: %v", err)
	}
}
