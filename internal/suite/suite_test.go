package suite

import (
	"strings"
	"testing"

	"repro/internal/campion"
	"repro/internal/lightyear"
	"repro/internal/netcfg"
	"repro/internal/topology"
)

// nopChecker answers every check cleanly; it exists so Eval's dispatch and
// guards can be exercised without a real verifier.
type nopChecker struct{}

func (nopChecker) CheckSyntax(string) ([]netcfg.ParseWarning, error) { return nil, nil }
func (nopChecker) DiffTranslation(string, string) ([]campion.Finding, error) {
	return nil, nil
}
func (nopChecker) VerifyTopology(topology.RouterSpec, string) ([]topology.Finding, error) {
	return nil, nil
}
func (nopChecker) CheckLocalPolicy(string, lightyear.Requirement) (lightyear.Violation, bool, error) {
	return lightyear.Violation{}, false, nil
}

// TestEvalRejectsMalformedChecks pins the guard on checks whose required
// pointer fields are missing: a topology check with no spec or a local
// check with no requirement must fail with a descriptive error, not a nil
// dereference — such checks can arrive over the wire from peers this
// process does not control.
func TestEvalRejectsMalformedChecks(t *testing.T) {
	for _, tc := range []struct {
		check Check
		want  string
	}{
		{Check{Kind: KindTopology, Config: "hostname R1\n"}, "no router spec"},
		{Check{Kind: KindLocal, Config: "hostname R1\n"}, "no requirement"},
		{Check{Kind: "bogus"}, "unknown suite check kind"},
	} {
		_, err := Eval(nopChecker{}, tc.check)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Eval(%s) error = %v, want mention of %q", tc.check.Kind, err, tc.want)
		}
	}
}

// TestEvalWellFormedChecks confirms the guards do not reject checks whose
// pointers are present.
func TestEvalWellFormedChecks(t *testing.T) {
	spec := &topology.RouterSpec{Name: "R1"}
	req := &lightyear.Requirement{Router: "R1", Policy: "FILTER"}
	for _, c := range []Check{
		{Kind: KindSyntax, Config: "hostname R1\n"},
		{Kind: KindTopology, Spec: spec, Config: "hostname R1\n"},
		{Kind: KindLocal, Req: req, Config: "hostname R1\n"},
		{Kind: KindDiff, Original: "hostname R1\n", Config: "system {}\n"},
	} {
		if _, err := Eval(nopChecker{}, c); err != nil {
			t.Errorf("Eval(%s) = %v, want nil", c.Kind, err)
		}
	}
}
