package main

import (
	"testing"

	"repro/internal/lightyear"
)

// TestGlobalFinding checks the line cosynth prints for a failed global
// check: non-convergence comes first, then a transit violation, then a
// missing reachability.
func TestGlobalFinding(t *testing.T) {
	violation := "transit violation: ISP1 can reach ISP2's prefix 20.2.0.0/24"
	missing := "ISP1 cannot reach the customer prefix 99.99.0.0/16"
	for _, tc := range []struct {
		g    lightyear.GlobalResult
		want string
	}{
		{lightyear.GlobalResult{Converged: false, MissingReachability: []string{missing}},
			"global check failed: the BGP simulation did not converge (0 transit violations, 1 missing reachabilities)"},
		{lightyear.GlobalResult{Converged: true, Violations: []string{violation}, MissingReachability: []string{missing}},
			"global check failed: " + violation + " (1 transit violations, 1 missing reachabilities)"},
		{lightyear.GlobalResult{Converged: true, MissingReachability: []string{missing, missing}},
			"global check failed: " + missing + " (0 transit violations, 2 missing reachabilities)"},
	} {
		if got := globalFinding(&tc.g); got != tc.want {
			t.Errorf("globalFinding(%+v) = %q, want %q", tc.g, got, tc.want)
		}
	}
}
