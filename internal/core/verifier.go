package core

import (
	"fmt"

	"repro/internal/batfish"
	"repro/internal/campion"
	"repro/internal/lightyear"
	"repro/internal/netcfg"
	"repro/internal/topology"
)

// Verifier is the verification-suite seam of Figure 3: syntax (Batfish),
// translation semantics (Campion), topology, local-policy semantics
// (Batfish SearchRoutePolicies à la Lightyear), and the global BGP
// simulation. The engine only talks to this interface, so the suite can
// run in-process (LocalVerifier) or behind the REST wrapper
// (rest.Client) — the repro note's "call verifier via REST wrapper".
type Verifier interface {
	// Check evaluates one independent check of the suite: a config's
	// syntax, a router's config against its topology spec, one local
	// policy requirement, or a translation against its original. A
	// violated local-policy result carries its Violation.
	Check(c SuiteCheck) (SuiteResult, error)
	// GlobalNoTransit runs the BGP simulation and checks the global policy.
	GlobalNoTransit(t *topology.Topology, configs map[string]string) (*lightyear.GlobalResult, error)
}

// LocalVerifier runs the suite in-process. The zero value parses each
// configuration on every call, faithfully re-doing the work the paper's
// loop re-does; with Parses set, each configuration revision is parsed
// exactly once and the resulting device is shared (read-only) across the
// syntax, topology, local-policy, and simulation stages.
type LocalVerifier struct {
	// Parses is an optional shared parse cache (see batfish.NewParseCache).
	Parses *netcfg.ParseCache
}

// parsed returns the parse product for a config, through the cache when
// one is attached.
func (v LocalVerifier) parsed(config string) *netcfg.Parsed {
	if v.Parses != nil {
		return v.Parses.Parse(config)
	}
	return batfish.ParseAndCheck(config)
}

// Check implements Verifier. It is the single mapping from check kinds
// to evaluators, shared by the engine and batfishd's batch handler.
// Malformed checks — a topology check with no spec, a local check with
// no requirement, an unknown kind — return a descriptive error instead
// of panicking: checks can arrive over the wire from peers the process
// does not control, and one bad check must not take the evaluator down.
func (v LocalVerifier) Check(c SuiteCheck) (SuiteResult, error) {
	switch c.Kind {
	case SuiteSyntax:
		return SuiteResult{Warnings: v.parsed(c.Config).CheckWarnings}, nil
	case SuiteTopology:
		if c.Spec == nil {
			return SuiteResult{}, fmt.Errorf("malformed %s check: no router spec", SuiteTopology)
		}
		return SuiteResult{Findings: topology.Verify(c.Spec, v.parsed(c.Config).Device)}, nil
	case SuiteLocal:
		if c.Req == nil {
			return SuiteResult{}, fmt.Errorf("malformed %s check: no requirement", SuiteLocal)
		}
		viol, bad := lightyear.Check(v.parsed(c.Config), *c.Req)
		if !bad {
			return SuiteResult{}, nil
		}
		return SuiteResult{Violated: true, Violation: &viol}, nil
	case SuiteDiff:
		orig := v.parsed(c.Original).Device
		return SuiteResult{Diffs: campion.Diff(orig, v.parsed(c.Config).Device)}, nil
	default:
		return SuiteResult{}, fmt.Errorf("unknown suite check kind %q", c.Kind)
	}
}

// GlobalNoTransit implements Verifier.
func (v LocalVerifier) GlobalNoTransit(t *topology.Topology, configs map[string]string) (*lightyear.GlobalResult, error) {
	devs := map[string]*netcfg.Device{}
	for name, text := range configs {
		devs[name] = v.parsed(text).Device
	}
	return lightyear.CheckGlobalNoTransit(t, devs)
}
