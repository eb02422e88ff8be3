// Package suite defines the transport-neutral form of the verification
// suite's independent checks: the unit the repair pipeline's stages list,
// the result tier memoizes (core.CachedVerifier), and the REST batch
// endpoint ships — one Check in, one Result out, whatever the transport.
// The mapping from a check's kind to its evaluator is
// core.LocalVerifier.Check, which the engine and batfishd share. This is
// a leaf package so the engine (internal/core) and the REST client and
// server (internal/batfish/rest) can share the types without importing
// each other.
package suite

import (
	"context"
	"crypto/sha256"
	"errors"

	"repro/internal/campion"
	"repro/internal/lightyear"
	"repro/internal/netcfg"
	"repro/internal/topology"
)

// Kind names one kind of independent verifier-suite check.
type Kind string

// Suite check kinds.
const (
	KindSyntax   Kind = "syntax"
	KindTopology Kind = "topology"
	KindLocal    Kind = "local"
	KindDiff     Kind = "diff"
)

// Check is one independent check of the verification suite; which fields
// are required depends on Kind.
type Check struct {
	Kind Kind
	// Config is the configuration under test (the translation for diff
	// checks).
	Config string
	// Original is the source configuration for diff checks.
	Original string
	// Spec is the router spec for topology checks.
	Spec *topology.RouterSpec
	// Req is the Lightyear requirement for local-policy checks: one
	// route-map's obligation at one attachment, whose identity it carries
	// (Requirement.Attachment). The cache memoizes and the batch
	// transport ship one independent unit per route-map obligation.
	Req *lightyear.Requirement
}

// Result is the outcome of one Check; which fields are meaningful depends
// on the check's kind. It is the one result type of the suite: the
// evaluator returns it, the engine's cache keeps it, a batch response
// carries it (embedded in rest.BatchResult) and the durable tier stores
// it, all in this JSON form, so a clean result encodes as {}.
type Result struct {
	Warnings  []netcfg.ParseWarning `json:"warnings,omitempty"`
	Findings  []topology.Finding    `json:"findings,omitempty"`
	Diffs     []campion.Finding     `json:"diffs,omitempty"`
	Violated  bool                  `json:"violated,omitempty"`
	Violation *lightyear.Violation  `json:"violation,omitempty"`
}

// Validate refuses a result no evaluator produces: one that is violated
// but carries no violation. A result that enters the process from
// outside it, in a batch response or from a disk tier, is checked with
// it, so the stages can read a violated result's Violation.
func (r *Result) Validate() error {
	if r.Violated && r.Violation == nil {
		return errors.New("violated but carried no violation")
	}
	return nil
}

// Key derives a Check's content address: a SHA-256 over the kind and every
// input that determines the result. Results are pure functions of their
// inputs, so the key identifies the result across processes and across
// runs — it is the memoization key of the engine's in-memory cache and
// the entry name of the shared disk cache. Local-policy
// keys hash the digest of the requirement's JSON, which includes the
// per-attachment identity (lightyear.Requirement.Attachment) — two
// obligations that differ only in which attachment of a dual-homed router
// they constrain memoize independently, and each attachment is its own
// unit of incremental re-verification.
func Key(c Check) [sha256.Size]byte { return KeyD(c, nil) }

// KeyD is Key with a digest memo: the configuration bodies enter the hash
// through their per-revision TextDigest instead of their full text, so a
// run that derives thousands of check keys against the same few revisions
// hashes each revision once, and the spec and requirement through the
// digest of their JSON, which the memo computes once per spec or
// requirement. The key is the SHA-256 of the kind, 0,
// the config's digest, 0, the original's digest, then 0 and the spec's
// body digest when there is a spec, and 1 and the requirement's when
// there is one. The layout is shared by every client and server in
// lockstep (they are the same binary); only warm cache entries keyed
// under an older layout go cold: those that hashed the spec's or
// requirement's JSON itself did when the body digests replaced it.
func KeyD(c Check, d *Digests) [sha256.Size]byte {
	h := sha256.New()
	h.Write([]byte(c.Kind))
	h.Write([]byte{0})
	h.Write([]byte(d.Of(c.Config)))
	h.Write([]byte{0})
	h.Write([]byte(d.Of(c.Original)))
	if c.Spec != nil {
		h.Write([]byte{0})
		h.Write([]byte(d.body(c.Spec)))
	}
	if c.Req != nil {
		h.Write([]byte{1})
		h.Write([]byte(d.body(c.Req)))
	}
	var key [sha256.Size]byte
	h.Sum(key[:0])
	return key
}

// Backend is the batch seam the engine dispatches verification through
// when the verifier supports it: one batch of independent checks in, one
// positional result slice out. The REST client (rest.Client) implements
// it and ships each batch as one round-trip per endpoint; a verifier
// without it, such as the in-process suite, is asked check by check.
type Backend interface {
	// CheckBatch evaluates the checks and returns one result per check, in
	// order. An error means the batch as a whole failed; implementations
	// must not return partial results.
	CheckBatch(ctx context.Context, checks []Check) ([]Result, error)
}
