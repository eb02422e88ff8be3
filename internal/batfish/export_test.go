package batfish

import (
	"maps"
	"slices"

	"repro/internal/netcfg"
)

// RunFullRounds exposes the full-round reference simulation to the
// external test package, whose differential tests compare it with Run.
func (s *Sim) RunFullRounds() (*Result, error) { return s.runFullRounds() }

// Originated returns every prefix the network's nodes originate, in name
// order of the nodes, repeats included. Run(s.Originated()) simulates
// every originated prefix: the unsliced run, which the tests hold the
// slices of the global check to.
func (s *Sim) Originated() []netcfg.Prefix {
	var out []netcfg.Prefix
	for _, n := range s.sortedNodes() {
		for _, r := range n.origin {
			out = append(out, r.Prefix)
		}
	}
	return out
}

// Nodes returns the names of the result's nodes, sorted.
func (r *Result) Nodes() []string {
	return slices.Sorted(maps.Keys(r.rows))
}

// Entries returns every route node holds, by prefix, for tests that
// enumerate a Result.
func (r *Result) Entries(node string) map[netcfg.Prefix]*netcfg.Route {
	out := map[netcfg.Prefix]*netcfg.Route{}
	for p := range r.index {
		if route := r.Route(node, p); route != nil {
			out[p] = route
		}
	}
	return out
}

// EvalCompiled evaluates pol on r as a simulation session does, compiled
// once against dev: it returns whether the policy permits r and, when it
// does, r with the deciding clause's sets applied to a copy.
func EvalCompiled(pol *netcfg.RoutePolicy, dev *netcfg.Device, r *netcfg.Route) (bool, *netcfg.Route) {
	cl := compileSimPolicy(pol, dev).decide(r)
	if cl == nil || !cl.permit {
		return false, nil
	}
	out := *r
	cl.apply(&out)
	return true, &out
}
