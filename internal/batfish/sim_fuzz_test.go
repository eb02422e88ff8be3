package batfish_test

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/batfish"
	"repro/internal/core"
	"repro/internal/llm"
	"repro/internal/modularizer"
	"repro/internal/netcfg"
	"repro/internal/netgen"
	"repro/internal/topology"
)

// mutationsPerNetwork is the number of seeded mutated copies
// TestDeltaRoundsMatchReference simulates per registry scenario.
const mutationsPerNetwork = 40

// maxSimFuzzMutations bounds the mutations one FuzzSimulate input applies.
const maxSimFuzzMutations = 16

// TestDeltaRoundsMatchReference checks Run's delta rounds against the
// full-round reference: both must return the same Result, down to every
// RIB route's attributes, Iterations and Converged. The inputs are every
// registry scenario at its default size with its golden configurations,
// the first drafts of every synthesis error class on that network (built
// as fuzz.ParserSeeds builds them), and seeded mutations of the golden
// configurations. No draft varies local-pref or MED, and the mutations
// do: the tie-breaks are what make delta rounds exact.
func TestDeltaRoundsMatchReference(t *testing.T) {
	for i, net := range goldenNetworks(t) {
		t.Run(net.name, func(t *testing.T) {
			requireSameResult(t, "golden", net.topo, net.devs)
			for _, e := range llm.AllSynthErrors() {
				requireSameResult(t, "draft with "+e.String(), net.topo, drafts(t, net.topo, e))
			}
			rng := rand.New(rand.NewPCG(uint64(i), 17))
			for k := 0; k < mutationsPerNetwork; k++ {
				devs := net.clone()
				var applied []mutation
				for range 1 + rng.IntN(4) {
					m := mutation{uint8(rng.Uint32()), uint8(rng.Uint32()), uint8(rng.Uint32()), uint8(rng.Uint32())}
					m.apply(net.routers, devs)
					applied = append(applied, m)
				}
				requireSameResult(t, fmt.Sprintf("mutations %v", applied), net.topo, devs)
			}
		})
	}
}

// FuzzSimulate checks Run against the full-round reference on mutated
// golden networks: neither may panic, and both must return the same
// Result. The first input byte picks a registry scenario at its default
// size; every following group of four bytes is one mutation (router,
// neighbor, action, value), from the set TestDeltaRoundsMatchReference
// draws from.
func FuzzSimulate(f *testing.F) {
	nets := goldenNetworks(f)
	for i := range nets {
		f.Add([]byte{byte(i)})
		f.Add([]byte{byte(i), 0, 0, 0, 1, 1, 1, 1, 3, 2, 2, 2, 0, 3, 3, 3, 0})
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 1+4*maxSimFuzzMutations {
			return
		}
		net := nets[int(data[0])%len(nets)]
		devs := net.clone()
		for b := data[1:]; len(b) >= 4; b = b[4:] {
			mutation{b[0], b[1], b[2], b[3]}.apply(net.routers, devs)
		}
		requireSameResult(t, fmt.Sprintf("input %v", data), net.topo, devs)
	})
}

// network is one registry scenario at its default size, with its golden
// configurations parsed.
type network struct {
	name    string
	topo    *topology.Topology
	routers []string // in topology order
	devs    map[string]*netcfg.Device
}

// clone returns a deep copy of the network's devices, for mutation.
func (n network) clone() map[string]*netcfg.Device {
	out := make(map[string]*netcfg.Device, len(n.devs))
	for name, dev := range n.devs {
		out[name] = dev.Clone()
	}
	return out
}

// goldenNetworks synthesizes every registry scenario at its default size
// with an error-free model.
func goldenNetworks(tb testing.TB) []network {
	tb.Helper()
	var out []network
	for _, sc := range netgen.Scenarios() {
		topo, err := sc.Generate(sc.DefaultSize)
		if err != nil {
			tb.Fatal(err)
		}
		res, err := core.Synthesize(topo, core.SynthOptions{
			Model:           llm.NewSynthesizer(llm.SynthConfig{Seed: 1, Errors: map[string][]llm.SynthError{}}),
			SkipGlobalCheck: true,
		})
		if err != nil {
			tb.Fatal(err)
		}
		if !res.Verified {
			tb.Fatalf("%s: golden synthesis did not verify", sc.Name)
		}
		net := network{name: sc.Name, topo: topo, devs: parseAll(res.Configs)}
		for _, r := range topo.Routers {
			net.routers = append(net.routers, r.Name)
		}
		out = append(out, net)
	}
	return out
}

// drafts returns the model's first draft for every router of the network
// with the error class injected on every router.
func drafts(tb testing.TB, topo *topology.Topology, e llm.SynthError) map[string]*netcfg.Device {
	tb.Helper()
	tasks := modularizer.Tasks(topo)
	errs := map[string][]llm.SynthError{}
	for _, task := range tasks {
		errs[task.Router] = []llm.SynthError{e}
	}
	model := llm.NewSynthesizer(llm.SynthConfig{Seed: 1, Errors: errs})
	texts := map[string]string{}
	for _, task := range tasks {
		text, err := model.Complete([]llm.Message{{Role: llm.RoleAutomated, Content: task.Prompt}})
		if err != nil {
			tb.Fatalf("%s draft of %s: %v", e, task.Router, err)
		}
		texts[task.Router] = text
	}
	return parseAll(texts)
}

func parseAll(texts map[string]string) map[string]*netcfg.Device {
	devs := make(map[string]*netcfg.Device, len(texts))
	for name, text := range texts {
		devs[name], _ = batfish.ParseConfig(text)
	}
	return devs
}

// A mutation edits one BGP neighbor of one router of a golden network:
// its import policy also sets a local-pref or a MED, or its export or
// import policy is dropped. The indices wrap around the router and
// neighbor counts, and the values fall in a small range so that routes
// tie often.
type mutation struct{ router, neighbor, action, value uint8 }

func (m mutation) apply(routers []string, devs map[string]*netcfg.Device) {
	dev := devs[routers[int(m.router)%len(routers)]]
	if dev == nil || dev.BGP == nil || len(dev.BGP.Neighbors) == 0 {
		return
	}
	nb := dev.BGP.Neighbors[int(m.neighbor)%len(dev.BGP.Neighbors)]
	switch m.action % 4 {
	case 0:
		importSets(dev, nb, netcfg.SetLocalPref{Pref: 90 + 10*int(m.value%4)})
	case 1:
		importSets(dev, nb, netcfg.SetMED{MED: int(m.value % 4)})
	case 2:
		nb.ExportPolicy = ""
	case 3:
		nb.ImportPolicy = ""
	}
}

// importSets makes the neighbor's import policy also apply set: a copy of
// its policy with set appended to every permit clause, or a permit-all
// policy applying set where the neighbor has no defined import policy.
func importSets(dev *netcfg.Device, nb *netcfg.BGPNeighbor, set netcfg.SetAction) {
	pol := &netcfg.RoutePolicy{Name: fmt.Sprintf("MUTATED_%d", len(dev.RoutePolicies))}
	if old := dev.RoutePolicies[nb.ImportPolicy]; old != nil {
		for _, cl := range old.Clauses {
			c := *cl
			if c.Action == netcfg.Permit {
				c.Sets = append(slices.Clip(cl.Sets), set)
			}
			pol.Clauses = append(pol.Clauses, &c)
		}
	} else {
		pol.Clauses = []*netcfg.PolicyClause{{Seq: 10, Action: netcfg.Permit, Sets: []netcfg.SetAction{set}}}
	}
	dev.RoutePolicies[pol.Name] = pol
	nb.ImportPolicy = pol.Name
}

// requireSameResult simulates the network with Run and with the full-round
// reference, each on a Sim of its own, and fails unless both return the
// same Result.
func requireSameResult(tb testing.TB, label string, topo *topology.Topology, devs map[string]*netcfg.Device) {
	tb.Helper()
	got := newSim(tb, topo, devs).Run()
	want := newSim(tb, topo, devs).RunFullRounds()
	if !reflect.DeepEqual(got, want) {
		tb.Fatalf("%s: delta rounds disagree with full rounds: %s", label, diffResults(got, want))
	}
}

// newSim builds the network lightyear.CheckGlobalNoTransit simulates:
// every router, and one external stub per external neighbor originating
// the neighbor's prefixes. Star dictionaries list none, so there the
// customer stub originates the customer prefix and each ISP stub an
// attachment prefix of its own, which need not be the prefix
// CheckGlobalNoTransit derives.
func newSim(tb testing.TB, topo *topology.Topology, devs map[string]*netcfg.Device) *batfish.Sim {
	tb.Helper()
	sim := batfish.NewSim()
	stubs := 0
	for _, r := range topo.Routers {
		if err := sim.AddDevice(r.Name, devs[r.Name]); err != nil {
			tb.Fatal(err)
		}
		for _, nb := range r.Neighbors {
			if !nb.External {
				continue
			}
			addr, err := netcfg.ParseIP(nb.PeerIP)
			if err != nil {
				tb.Fatal(err)
			}
			var prefixes []netcfg.Prefix
			for _, ps := range nb.Prefixes {
				prefixes = append(prefixes, netcfg.MustPrefix(ps))
			}
			stubs++
			switch {
			case len(prefixes) > 0:
			case netgen.IsCustomerPeer(nb.PeerName):
				prefixes = []netcfg.Prefix{netgen.CustomerPrefix()}
			default:
				prefixes = []netcfg.Prefix{netgen.AttachmentPrefix(stubs)}
			}
			if err := sim.AddExternal(nb.PeerName, addr, nb.PeerAS, prefixes); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return sim
}

// diffResults describes the first difference between two results.
func diffResults(got, want *batfish.Result) string {
	if got.Iterations != want.Iterations || got.Converged != want.Converged {
		return fmt.Sprintf("%d rounds, converged %v; the reference took %d rounds, converged %v",
			got.Iterations, got.Converged, want.Iterations, want.Converged)
	}
	nodes := make([]string, 0, len(want.RIB))
	for node := range want.RIB {
		nodes = append(nodes, node)
	}
	sort.Strings(nodes)
	for _, node := range nodes {
		for p, w := range want.RIB[node] {
			if g := got.RIB[node][p]; !reflect.DeepEqual(g, w) {
				return fmt.Sprintf("%s %s: %s; the reference holds %s", node, p, describe(g), describe(w))
			}
		}
		if len(got.RIB[node]) != len(want.RIB[node]) {
			return fmt.Sprintf("%s holds %d routes; the reference holds %d",
				node, len(got.RIB[node]), len(want.RIB[node]))
		}
	}
	return fmt.Sprintf("%d nodes; the reference has %d", len(got.RIB), len(want.RIB))
}

// describe renders a route with the attributes Route.String leaves out.
func describe(r *netcfg.Route) string {
	if r == nil {
		return "no route"
	}
	return fmt.Sprintf("%s local-pref=%d next-hop=%s", r, r.LocalPref, netcfg.FormatIP(r.NextHop))
}
