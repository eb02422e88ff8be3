// Package rest wraps the verification suite behind an HTTP API. Go has no
// Batfish bindings, so — per the reproduction plan — the verifier is
// callable as a service: cmd/batfishd serves it, and Client implements
// the engine's core.Verifier interface (and its suite.Backend batch seam)
// over one endpoint or several, sending each check to one endpoint by a
// hash of the check. The in-process suite backs the handlers. All
// payloads are JSON.
//
// The service speaks one protocol, version BatchProtocolVersion, over
// these endpoints:
//
//	POST /v1/batch      syntax, topology, local-policy, and diff checks
//	POST /v1/notransit  the global no-transit check: one cold BGP simulation
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
// body over the size bound (maxBody) gets HTTP 413 naming the bound; the
// client surfaces it as a served error, without retry. The client reads
// responses under the same bound.
//
// A /v1/batch request carries each distinct configuration text once, in
// its body table, and each check names its config (and a diff check its
// original) by index into that table, so a router's revision crosses the
// wire once per batch however many obligations check it. Spec and
// requirement bodies travel inline in each check. An index outside the
// table fails the whole batch with HTTP 400 naming the check, and a field
// the protocol does not define fails it with HTTP 400 naming the field.
// The wire types, the encoder from suite checks and the resolver back to
// them all live in protocol.go.
//
// Every endpoint is stateless apart from caches that never change an
// answer: the parse cache and the durable result tier.
package rest

import (
	"fmt"

	"repro/internal/batfish"
	"repro/internal/lightyear"
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
// /v1/scenario pre-warm, and stanza deltas. Version 6 made /v1/notransit
// stateless: the request lost its prior-configuration digest, which
// resumed a server-side simulation session, and the result lost its
// checker name and falsification probes. Version 7 gave /v1/batch its body
// table: a batch carries each distinct config text once, and its checks
// name texts by index instead of carrying them inline. Version 8 ships
// spec and requirement bodies inline: checks lost their content-digest
// body references, and the request lost the scenario name the server
// built its registry of bodies from. Version 9 ships one egress-drop
// requirement per egress route-map: it lists the communities to drop
// with the peer each is learned from (Communities, LearnedFrom) instead
// of naming one Community, and a violation names the one community that
// failed. A version-8 peer would read such a requirement's zero
// Community and answer a wrong "clean". There is no negotiation; a peer
// on another version is refused.
const BatchProtocolVersion = 9

// ProtocolHeader is the request header carrying BatchProtocolVersion.
const ProtocolHeader = "X-Batfishd-Protocol"

// HealthResponse answers GET /v1/health.
type HealthResponse struct {
	Status  string `json:"status"`
	Version int    `json:"version"`
}

// NoTransitRequest asks for the global no-transit check of one
// configuration set on one topology. The server simulates the network
// from scratch on every request (lightyear.CheckGlobalNoTransit): every
// speaker, and the originated prefixes that equal or contain an ISP's or
// a customer's prefix, the only ones the verdict reads. The simulation
// keeps one RIB slot per (speaker, simulated prefix) pair, and a network
// needing more than batfish.MaxRIBSlots (1<<26) is refused with a 422
// naming the bound: one router with 8,200 external neighbors of one
// prefix each is just over it.
type NoTransitRequest struct {
	Topology *topology.Topology `json:"topology"`
	Configs  map[string]string  `json:"configs"`
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

// BatchCheck is one independent check inside a batched request; which
// fields are required depends on Kind (a suite.Kind). Config indexes the
// request's Bodies for the configuration under test (the translation for
// diff checks), and Original, when present, for the source configuration
// of a diff check; an absent Original is the empty text. Spec and
// Requirement travel inline.
type BatchCheck struct {
	Kind        string                 `json:"kind"`
	Config      int                    `json:"config"`
	Original    *int                   `json:"original,omitempty"`
	Spec        *topology.RouterSpec   `json:"spec,omitempty"`
	Requirement *lightyear.Requirement `json:"requirement,omitempty"`
}

// BatchRequest ships all of a pipeline iteration's outstanding checks in
// one round-trip. Bodies lists each distinct configuration text the checks
// name, once, in order of first use.
type BatchRequest struct {
	Bodies []string     `json:"bodies"`
	Checks []BatchCheck `json:"checks"`
}

// newBatchRequest encodes checks in the wire form: each distinct config
// text enters Bodies once, and every check names its texts by index.
// Spec and requirement bodies travel inline.
func newBatchRequest(checks []suite.Check) BatchRequest {
	req := BatchRequest{Checks: make([]BatchCheck, len(checks))}
	index := make(map[string]int, len(checks))
	body := func(text string) int {
		i, ok := index[text]
		if !ok {
			i = len(req.Bodies)
			index[text] = i
			req.Bodies = append(req.Bodies, text)
		}
		return i
	}
	for i, c := range checks {
		bc := BatchCheck{Kind: string(c.Kind), Config: body(c.Config), Spec: c.Spec, Requirement: c.Req}
		if c.Original != "" {
			o := body(c.Original)
			bc.Original = &o
		}
		req.Checks[i] = bc
	}
	return req
}

// resolve returns the suite form of the request's checks, their texts
// looked up in Bodies; the strings are shared with Bodies, not copied.
// An index outside Bodies fails the whole request with an error naming
// the check and the index.
func (r *BatchRequest) resolve() ([]suite.Check, error) {
	text := func(i int, field string, idx int) (string, error) {
		if idx < 0 || idx >= len(r.Bodies) {
			return "", fmt.Errorf("check %d: %s body index %d outside the %d-body table",
				i, field, idx, len(r.Bodies))
		}
		return r.Bodies[idx], nil
	}
	checks := make([]suite.Check, len(r.Checks))
	for i, bc := range r.Checks {
		c := suite.Check{Kind: suite.Kind(bc.Kind), Spec: bc.Spec, Req: bc.Requirement}
		var err error
		if c.Config, err = text(i, "config", bc.Config); err != nil {
			return nil, err
		}
		if bc.Original != nil {
			if c.Original, err = text(i, "original", *bc.Original); err != nil {
				return nil, err
			}
		}
		checks[i] = c
	}
	return checks, nil
}

// BatchResult is the outcome of one BatchCheck, positionally matched to
// the request: the suite's result, whose fields encode at the top level
// ("warnings", "findings", "diffs", "violated", "violation"), or Error
// when that single check was malformed; the other checks in the batch
// still carry results.
type BatchResult struct {
	suite.Result
	Error string `json:"error,omitempty"`
}

// BatchResponse carries one result per requested check, in order.
type BatchResponse struct {
	Results []BatchResult `json:"results"`
}

// ErrorResponse reports a request failure.
type ErrorResponse struct {
	Error string `json:"error"`
}
