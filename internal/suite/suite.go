// Package suite defines the transport-neutral form of the verification
// suite's independent checks: the unit the repair pipeline's stages
// enumerate, the incremental verification cache memoizes, and the REST
// batch endpoint ships — one Check in, one Result out, whatever the
// transport. It is a leaf package so the engine (internal/core) and the
// REST client/server (internal/batfish/rest) can share the types without
// importing each other.
package suite

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"

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
	// Req is the Lightyear requirement for local-policy checks; it
	// carries the per-attachment identity (Requirement.Attachment), so a
	// suite check is attachment-scoped — the cache memoizes and the batch
	// transport ships one independent unit per attachment obligation.
	Req *lightyear.Requirement
}

// Result is the outcome of one Check; which fields are meaningful depends
// on the check's kind.
type Result struct {
	Warnings  []netcfg.ParseWarning
	Findings  []topology.Finding
	Diffs     []campion.Finding
	Violated  bool
	Violation *lightyear.Violation
}

// Checker is the minimal per-check surface a Check can be evaluated
// against — the per-config subset of the engine's Verifier, which both
// the in-process suite and the REST client satisfy.
type Checker interface {
	CheckSyntax(config string) ([]netcfg.ParseWarning, error)
	DiffTranslation(original, translation string) ([]campion.Finding, error)
	VerifyTopology(spec topology.RouterSpec, config string) ([]topology.Finding, error)
	CheckLocalPolicy(config string, req lightyear.Requirement) (lightyear.Violation, bool, error)
}

// Eval dispatches one Check onto a Checker. It is the single mapping from
// check kinds to verifier calls, shared by the engine's cache and
// batfishd's batch handler. Malformed checks — a topology check with no
// spec, a local check with no requirement — return a descriptive error
// instead of panicking: checks can arrive over the wire from peers the
// process does not control (a buggy remote client), and one bad check
// must not take the whole evaluator down.
func Eval(v Checker, c Check) (Result, error) {
	switch c.Kind {
	case KindSyntax:
		warns, err := v.CheckSyntax(c.Config)
		return Result{Warnings: warns}, err
	case KindTopology:
		if c.Spec == nil {
			return Result{}, fmt.Errorf("malformed %s check: no router spec", KindTopology)
		}
		finds, err := v.VerifyTopology(*c.Spec, c.Config)
		return Result{Findings: finds}, err
	case KindLocal:
		if c.Req == nil {
			return Result{}, fmt.Errorf("malformed %s check: no requirement", KindLocal)
		}
		viol, bad, err := v.CheckLocalPolicy(c.Config, *c.Req)
		res := Result{Violated: bad}
		if bad {
			res.Violation = &viol
		}
		return res, err
	case KindDiff:
		diffs, err := v.DiffTranslation(c.Original, c.Config)
		return Result{Diffs: diffs}, err
	default:
		return Result{}, fmt.Errorf("unknown suite check kind %q", c.Kind)
	}
}

// Key derives a Check's content address: a SHA-256 over the kind and every
// input that determines the result. Results are pure functions of their
// inputs, so the key identifies the result across processes and across
// runs — it is the memoization key of the engine's in-memory cache, the
// entry name of the shared disk cache, and the identity batfishd shards
// cache under, and it must stay in lockstep for all three. Local-policy
// keys hash the full requirement JSON, which includes the per-attachment
// identity (lightyear.Requirement.Attachment) — two obligations that
// differ only in which attachment of a dual-homed router they constrain
// memoize independently, and each attachment is its own unit of
// incremental re-verification.
func Key(c Check) [sha256.Size]byte { return KeyD(c, nil) }

// KeyD is Key with a digest memo: the configuration bodies enter the hash
// through their per-revision TextDigest instead of their full text, so a
// run that derives thousands of check keys against the same few revisions
// hashes each revision once. The key layout is shared by every client and
// server in lockstep (they are the same binary); only warm cache entries
// keyed under an older layout go cold.
func KeyD(c Check, d *Digests) [sha256.Size]byte {
	h := sha256.New()
	h.Write([]byte(c.Kind))
	h.Write([]byte{0})
	h.Write([]byte(d.Of(c.Config)))
	h.Write([]byte{0})
	h.Write([]byte(d.Of(c.Original)))
	if c.Spec != nil {
		// The JSON encoding is a stable serialization of the spec.
		b, _ := json.Marshal(c.Spec)
		h.Write([]byte{0})
		h.Write(b)
	}
	if c.Req != nil {
		b, _ := json.Marshal(c.Req)
		h.Write([]byte{1})
		h.Write(b)
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
