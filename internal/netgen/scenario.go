package netgen

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/topology"
)

// Generator produces a topology from one size parameter. The parameter's
// meaning is per-scenario (router count for star/ring/full-mesh, arity k
// for fat-tree); Scenario.SizeHint documents it.
type Generator func(n int) (*topology.Topology, error)

// Scenario is one registered topology family the synthesis engine can
// target. The registry replaces the seed's star-only hardwiring: every
// scenario yields the same two machine-readable artifacts — the JSON
// dictionary and the formulaic natural-language description — that the
// Modularizer consumes, plus per-router local no-transit specifications
// derived by lightyear.SpecFor.
type Scenario struct {
	// Name identifies the scenario ("star", "ring", "full-mesh",
	// "fat-tree", "dual-homed", "multi-customer", "random").
	Name string
	// Summary is a one-line description for catalogs and CLIs.
	Summary string
	// SizeHint documents the generator parameter.
	SizeHint string
	// DefaultSize is a sensible paper-scale default for the parameter.
	DefaultSize int
	// MaxSize bounds the parameter; Generate and GenerateSeeded refuse
	// anything larger. Sizes can arrive over the wire (a batch naming its
	// scenario), and the generators allocate in proportion to the size —
	// quadratically for the meshes and the fat-tree — so an unbounded size
	// would let one request exhaust memory.
	MaxSize int
	// Generate builds the topology.
	Generate Generator
}

// scenarios is the built-in registry, in presentation order.
var scenarios = []Scenario{
	{
		Name:        "star",
		Summary:     "the paper's Figure 4 star: customer hub R1, one ISP per spoke",
		SizeHint:    "n = number of routers (hub + n-1 spokes), 2 <= n <= 255",
		DefaultSize: 7,
		MaxSize:     maxStarRouters,
		Generate:    Star,
	},
	{
		Name:        "ring",
		Summary:     "a cycle: customer on R1, one ISP on every other router, multi-hop transit",
		SizeHint:    "n = number of routers, n >= 3",
		DefaultSize: 8,
		MaxSize:     1000,
		Generate:    Ring,
	},
	{
		Name:        "full-mesh",
		Summary:     "a complete graph: every router pair linked, one-hop transit everywhere",
		SizeHint:    "n = number of routers, n >= 3",
		DefaultSize: 6,
		MaxSize:     100,
		Generate:    FullMesh,
	},
	{
		Name:        "fat-tree",
		Summary:     "a k-ary fat-tree Clos: ISPs at the edge, internal agg/core layers",
		SizeHint:    "k = pod arity (even), routers = 5k^2/4",
		DefaultSize: 4,
		MaxSize:     24,
		Generate:    FatTree,
	},
	{
		Name:        "dual-homed",
		Summary:     "a ring where every non-customer router is dual-homed to two ISPs (per-attachment tags)",
		SizeHint:    "n = number of routers, n >= 3 (2(n-1) ISP attachments)",
		DefaultSize: 6,
		MaxSize:     1000,
		Generate:    DualHomed,
	},
	{
		Name:        "multi-customer",
		Summary:     "a full mesh with max(2, n/3) customer networks and one ISP on each remaining router",
		SizeHint:    "n = number of routers, n >= 4",
		DefaultSize: 6,
		MaxSize:     100,
		Generate:    MultiCustomer,
	},
	{
		Name:        "random",
		Summary:     "a seeded pseudo-random connected graph mixing single- and dual-homed ISPs",
		SizeHint:    "n = number of routers, n >= 4 (seeded by n: reproducible)",
		DefaultSize: 12,
		MaxSize:     1000,
		Generate:    Random,
	},
}

// Scenarios returns the registered topology families in stable order.
func Scenarios() []Scenario {
	out := make([]Scenario, len(scenarios))
	copy(out, scenarios)
	return out
}

// Lookup returns the named scenario.
func Lookup(name string) (Scenario, bool) {
	for _, s := range scenarios {
		if s.Name == name {
			return s, true
		}
	}
	return Scenario{}, false
}

// Generate builds a topology by scenario name; size <= 0 uses the
// scenario's default, and a size past the scenario's MaxSize is an error.
func Generate(name string, size int) (*topology.Topology, error) {
	return GenerateSeeded(name, size, 0)
}

// GenerateSeeded builds a scenario variant at a seed: the random family
// re-keys its rng stream (seed 0 reproduces the registry default), every
// other family is deterministic in its size alone and ignores the seed.
// Sizes are bounded as in Generate. The fuzz campaign engine and cosynth's -seed replay path both resolve
// topologies through this one function, so a minimized counterexample
// regenerates the exact graph the campaign failed on.
func GenerateSeeded(name string, size int, seed int64) (*topology.Topology, error) {
	s, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("unknown topology scenario %q (have %v)", name, ScenarioNames())
	}
	if size <= 0 {
		size = s.DefaultSize
	}
	if size > s.MaxSize {
		return nil, fmt.Errorf("%s size %d exceeds the maximum of %d", name, size, s.MaxSize)
	}
	if name == "random" {
		return RandomWith(size, RandomOpts{Seed: seed, ExtraEdges: -1})
	}
	return s.Generate(size)
}

// ScenarioNames lists the registered scenario names in stable order.
func ScenarioNames() []string {
	names := make([]string, len(scenarios))
	for i, s := range scenarios {
		names[i] = s.Name
	}
	return names
}

// ParseScenarioArg splits a "name[:size]" scenario argument, the CLI
// shorthand for one generator invocation ("dual-homed:8", "random:20").
// size is 0 when the argument carries none, so callers can apply their
// own default (a -n flag or the scenario default).
func ParseScenarioArg(arg string) (name string, size int, err error) {
	name = arg
	if i := strings.IndexByte(arg, ':'); i >= 0 {
		name = arg[:i]
		n, err := strconv.Atoi(arg[i+1:])
		if err != nil || n <= 0 {
			return "", 0, fmt.Errorf("scenario argument %q: size after ':' must be a positive integer", arg)
		}
		size = n
	}
	if _, ok := Lookup(name); !ok {
		return "", 0, fmt.Errorf("unknown topology scenario %q (have %v)", name, ScenarioNames())
	}
	return name, size, nil
}

func ringName(n int) string          { return fmt.Sprintf("ring-%d", n) }
func meshName(n int) string          { return fmt.Sprintf("full-mesh-%d", n) }
func fatTreeName(k int) string       { return fmt.Sprintf("fat-tree-%d", k) }
func dualHomedName(n int) string     { return fmt.Sprintf("dual-homed-%d", n) }
func multiCustomerName(n int) string { return fmt.Sprintf("multi-customer-%d", n) }
func randomName(n int) string        { return fmt.Sprintf("random-%d", n) }

// ispRange lists the routers in [lo, hi] as ISP attachment points.
func ispRange(lo, hi int) []int {
	var out []int
	for i := lo; i <= hi; i++ {
		out = append(out, i)
	}
	return out
}

func errTooSmall(kind string, n, min int) error {
	return fmt.Errorf("%s topology needs at least %d routers, got %d", kind, min, n)
}
