// Package rest wraps the verification suite behind an HTTP API. Go has no
// Batfish bindings, so — per the reproduction plan — the verifier is
// callable as a service: cmd/batfishd serves it, Client implements the
// engine's core.Verifier interface (and its suite.Backend batch seam)
// over one endpoint, and ShardedClient fans the same seam out over a
// consistent-hash ring of endpoints with failover. The in-process suite
// backs the handlers. All payloads are JSON.
//
// The service speaks one protocol, version BatchProtocolVersion, over
// these endpoints:
//
//	POST /v1/batch      syntax, topology, local-policy, and diff checks
//	POST /v1/notransit  the global no-transit BGP simulation
//	POST /v1/search     a SearchRoutePolicies question about one config
//	GET  /v1/health     liveness, echoing the server's protocol version
//	GET  /metrics       Prometheus text exposition (see internal/obs)
//	GET  /debug/vars    the same registry as a JSON snapshot
//
// Every client request carries the version in the ProtocolHeader header,
// and the server answers a POST whose header is missing or different with
// HTTP 400 naming both versions. Client.Health fails on a mismatch too, so
// a client and server built from different generations fail at startup
// with a clear error instead of half-understanding each other. A POST
// body over the server's size bound gets HTTP 413 naming the bound; the
// clients surface it as a served error, without retry or failover.
package rest

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"

	"repro/internal/batfish"
	"repro/internal/campion"
	"repro/internal/lightyear"
	"repro/internal/netcfg"
	"repro/internal/suite"
	"repro/internal/topology"
)

// API paths (version-prefixed).
const (
	PathNoTransit = "/v1/notransit"
	PathSearch    = "/v1/search"
	PathHealth    = "/v1/health"
	PathBatch     = "/v1/batch"
)

// BatchProtocolVersion is the one wire protocol client and server speak.
// Version 5 dropped every older dialect: the per-check endpoints, the
// stateless no-transit shape, the /v1/scenario pre-warm, and stanza
// deltas. There is no negotiation; a peer on another version is refused.
const BatchProtocolVersion = 5

// ProtocolHeader is the request header carrying BatchProtocolVersion.
const ProtocolHeader = "X-Batfishd-Protocol"

// HealthResponse answers GET /v1/health.
type HealthResponse struct {
	Status  string `json:"status"`
	Version int    `json:"version"`
}

// NoTransitRequest asks for the global BGP-simulation check. PriorDigest
// is the suite.ConfigDigest of the configuration set the same run's
// previous check verified. The server keeps the converged simulator state
// of recent checks keyed by that digest, so a re-check re-simulates only
// the routers whose configuration text changed since
// (batfish.Sim.RunIncremental). An empty or unknown PriorDigest runs cold
// and starts a session. The server derives the changed routers itself by
// diffing against the session's stored configurations. Results are
// byte-identical either way; the session only saves time.
type NoTransitRequest struct {
	Topology    *topology.Topology `json:"topology"`
	Configs     map[string]string  `json:"configs"`
	PriorDigest string             `json:"prior_digest,omitempty"`
}

// NoTransitResponse carries the global result.
type NoTransitResponse struct {
	Result *lightyear.GlobalResult `json:"result"`
}

// SearchRequest asks a SearchRoutePolicies question about one config.
type SearchRequest struct {
	Config string              `json:"config"`
	Query  batfish.SearchQuery `json:"query"`
}

// SearchResponse carries the witness, if any.
type SearchResponse struct {
	Result batfish.SearchResult `json:"result"`
}

// RefDigest content-addresses a spec or requirement body for the reference
// scheme: hex SHA-256 of the body's JSON encoding. Specs and requirements
// are map-free structs, so the encoding — and therefore the digest — is
// deterministic across processes; a client and server that derive the
// same body from the same scenario agree on the digest.
func RefDigest(v interface{}) string {
	data, _ := json.Marshal(v)
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// BatchCheck is one independent check inside a batched request; which
// fields are required depends on Kind (a suite.Kind). Config is the
// configuration under test (the translation for diff checks). SpecRef and
// ReqRef replace the Spec and Requirement bodies with their RefDigest when
// the body belongs to the registry of the request's Scenario, which the
// server builds from the same generator the client used.
type BatchCheck struct {
	Kind        string                 `json:"kind"`
	Config      string                 `json:"config"`
	Original    string                 `json:"original,omitempty"`
	Spec        *topology.RouterSpec   `json:"spec,omitempty"`
	Requirement *lightyear.Requirement `json:"requirement,omitempty"`
	SpecRef     string                 `json:"spec_ref,omitempty"`
	ReqRef      string                 `json:"req_ref,omitempty"`
}

// check is the suite form of a resolved batch check.
func (c BatchCheck) check() suite.Check {
	return suite.Check{
		Kind:     suite.Kind(c.Kind),
		Config:   c.Config,
		Original: c.Original,
		Spec:     c.Spec,
		Req:      c.Requirement,
	}
}

// BatchRequest ships all of a pipeline iteration's outstanding checks in
// one round-trip. Scenario names the registered family ("random:75") whose
// registry resolves the checks' SpecRef/ReqRef references; it is only sent
// on requests that carry a reference.
type BatchRequest struct {
	Scenario string       `json:"scenario,omitempty"`
	Checks   []BatchCheck `json:"checks"`
}

// BatchResult is the outcome of one BatchCheck, positionally matched to
// the request. Error is set when that single check was malformed; the
// other checks in the batch still carry results.
type BatchResult struct {
	Warnings  []netcfg.ParseWarning `json:"warnings,omitempty"`
	Findings  []topology.Finding    `json:"findings,omitempty"`
	Diffs     []campion.Finding     `json:"diffs,omitempty"`
	Violated  bool                  `json:"violated,omitempty"`
	Violation *lightyear.Violation  `json:"violation,omitempty"`
	Error     string                `json:"error,omitempty"`
}

// BatchResponse carries one result per requested check, in order.
type BatchResponse struct {
	Results []BatchResult `json:"results"`
}

// ErrorResponse reports a request failure.
type ErrorResponse struct {
	Error string `json:"error"`
}
