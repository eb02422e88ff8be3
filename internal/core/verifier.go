package core

import (
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
	// CheckSyntax returns parse/lint warnings for a config (either dialect).
	CheckSyntax(config string) ([]netcfg.ParseWarning, error)
	// DiffTranslation compares an original Cisco config against a Juniper
	// translation (Campion).
	DiffTranslation(original, translation string) ([]campion.Finding, error)
	// VerifyTopology checks one router's config against its spec.
	VerifyTopology(spec topology.RouterSpec, config string) ([]topology.Finding, error)
	// CheckLocalPolicy checks one Lightyear requirement against a config.
	CheckLocalPolicy(config string, req lightyear.Requirement) (lightyear.Violation, bool, error)
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

// CheckSyntax implements Verifier.
func (v LocalVerifier) CheckSyntax(config string) ([]netcfg.ParseWarning, error) {
	return v.parsed(config).CheckWarnings, nil
}

// DiffTranslation implements Verifier.
func (v LocalVerifier) DiffTranslation(original, translation string) ([]campion.Finding, error) {
	orig := v.parsed(original).Device
	trans := v.parsed(translation).Device
	return campion.Diff(orig, trans), nil
}

// VerifyTopology implements Verifier.
func (v LocalVerifier) VerifyTopology(spec topology.RouterSpec, config string) ([]topology.Finding, error) {
	return topology.Verify(&spec, v.parsed(config).Device), nil
}

// CheckLocalPolicy implements Verifier.
func (v LocalVerifier) CheckLocalPolicy(config string, req lightyear.Requirement) (lightyear.Violation, bool, error) {
	viol, bad := lightyear.Check(v.parsed(config), req)
	return viol, bad, nil
}

// GlobalNoTransit implements Verifier.
func (v LocalVerifier) GlobalNoTransit(t *topology.Topology, configs map[string]string) (*lightyear.GlobalResult, error) {
	devs := map[string]*netcfg.Device{}
	for name, text := range configs {
		devs[name] = v.parsed(text).Device
	}
	return lightyear.CheckGlobalNoTransit(t, devs)
}
