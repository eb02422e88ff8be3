package batfish_test

import (
	"cmp"
	"fmt"
	"maps"
	"math/rand/v2"
	"reflect"
	"slices"
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
// full-round reference, unsliced and sliced to the stub prefixes. The
// unsliced run must return the same Result, down to every RIB route's
// attributes, Iterations and Converged. The slice must hold the same
// routes for every prefix it simulates and answer CanReach alike for
// every stub prefix. The inputs are every registry scenario at its
// default size with its golden configurations, the first drafts of every
// synthesis error class on that network (built as fuzz.ParserSeeds builds
// them), and seeded mutations of the golden configurations. No draft
// varies local-pref or MED, and the mutations do: the tie-breaks are what
// make delta rounds exact. The mutations that add export sets also make
// Run build each announced route before it compares it, and those that
// originate a stub's prefix or a supernet of it inside the network put
// more than the stubs' own prefixes in the slice.
func TestDeltaRoundsMatchReference(t *testing.T) {
	for i, net := range goldenNetworks(t) {
		t.Run(net.name, func(t *testing.T) {
			requireSameResult(t, "golden", net, net.devs)
			for _, e := range llm.AllSynthErrors() {
				requireSameResult(t, "draft with "+e.String(), net, drafts(t, net.topo, e))
			}
			rng := rand.New(rand.NewPCG(uint64(i), 17))
			for k := 0; k < mutationsPerNetwork; k++ {
				devs := net.clone()
				var applied []mutation
				for range 1 + rng.IntN(4) {
					m := mutation{uint8(rng.Uint32()), uint8(rng.Uint32()), uint8(rng.Uint32()), uint8(rng.Uint32())}
					m.apply(net, devs)
					applied = append(applied, m)
				}
				requireSameResult(t, fmt.Sprintf("mutations %v", applied), net, devs)
			}
		})
	}
}

// FuzzSimulate checks Run against the full-round reference on mutated
// golden networks, unsliced and sliced to the stub prefixes: neither may
// panic, and they must agree as in TestDeltaRoundsMatchReference. The
// first input byte picks a registry scenario at its default size; every
// following group of four bytes is one mutation (router, neighbor,
// action, value), from the set TestDeltaRoundsMatchReference draws from.
func FuzzSimulate(f *testing.F) {
	nets := goldenNetworks(f)
	for i := range nets {
		f.Add([]byte{byte(i)})
		f.Add([]byte{byte(i), 0, 0, 0, 1, 1, 1, 1, 3, 2, 2, 2, 0, 3, 3, 3, 0})
	}
	for i := range nets {
		f.Add([]byte{byte(i), 0, 0, 4, 1, 1, 1, 5, 2, 2, 2, 4, 3, 3, 3, 5, 0})
	}
	for i := range nets {
		f.Add([]byte{byte(i), 0, 0, 6, 1, 1, 1, 7, 0, 2, 2, 6, 8, 3, 3, 7, 2})
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 1+4*maxSimFuzzMutations {
			return
		}
		net := nets[int(data[0])%len(nets)]
		devs := net.clone()
		for b := data[1:]; len(b) >= 4; b = b[4:] {
			mutation{b[0], b[1], b[2], b[3]}.apply(net, devs)
		}
		requireSameResult(t, fmt.Sprintf("input %v", data), net, devs)
	})
}

// network is one registry scenario at its default size, with its golden
// configurations parsed.
type network struct {
	name    string
	topo    *topology.Topology
	routers []string // in topology order
	devs    map[string]*netcfg.Device
	// stubs are the external speakers newSim adds; queried lists their
	// prefixes, which the global check queries, and isp the ISPs' ones.
	stubs        []stub
	queried, isp []netcfg.Prefix
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
		net := network{name: sc.Name, topo: topo, devs: parseAll(res.Configs), stubs: stubsOf(tb, topo)}
		for _, r := range topo.Routers {
			net.routers = append(net.routers, r.Name)
		}
		for _, s := range net.stubs {
			net.queried = append(net.queried, s.prefixes...)
			if !netgen.IsCustomerPeer(s.name) {
				net.isp = append(net.isp, s.prefixes...)
			}
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

// A mutation edits one router of a golden network. Most edit one of its
// BGP neighbors: the import policy also sets a local-pref or a MED, the
// export policy also sets a MED or adds an attachment's community tag, or
// the export or import policy is dropped. The other two make the router
// originate a supernet of a stub's prefix (an ISP's or the customer's),
// up to 12 bits shorter, or an exact copy of an ISP's prefix: the global
// check's slice then holds more than the stubs' own prefixes, and a stub
// prefix has a rival origin inside the network. The indices wrap around
// the router, neighbor and prefix counts, and the values fall in a small
// range so that routes tie often. No golden export policy sets anything,
// so the export sets are what make Run build a route before comparing it.
type mutation struct{ router, neighbor, action, value uint8 }

func (m mutation) apply(net network, devs map[string]*netcfg.Device) {
	dev := devs[net.routers[int(m.router)%len(net.routers)]]
	if dev == nil || dev.BGP == nil || len(dev.BGP.Neighbors) == 0 {
		return
	}
	nb := dev.BGP.Neighbors[int(m.neighbor)%len(dev.BGP.Neighbors)]
	switch m.action % 8 {
	case 0:
		nb.ImportPolicy = withSet(dev, nb.ImportPolicy, netcfg.SetLocalPref{Pref: 90 + 10*int(m.value%4)})
	case 1:
		nb.ImportPolicy = withSet(dev, nb.ImportPolicy, netcfg.SetMED{MED: int(m.value % 4)})
	case 2:
		nb.ExportPolicy = ""
	case 3:
		nb.ImportPolicy = ""
	case 4:
		nb.ExportPolicy = withSet(dev, nb.ExportPolicy, netcfg.SetMED{MED: int(m.value % 4)})
	case 5:
		tag := netgen.AttachmentCommunity(1 + int(m.value%4))
		nb.ExportPolicy = withSet(dev, nb.ExportPolicy,
			netcfg.SetCommunity{Communities: []netcfg.Community{tag}, Additive: true})
	case 6:
		p := net.queried[int(m.neighbor)%len(net.queried)]
		dev.BGP.Networks = append(dev.BGP.Networks, netcfg.NewPrefix(p.Addr, p.Len-1-int(m.value%12)))
	case 7:
		dev.BGP.Networks = append(dev.BGP.Networks, net.isp[int(m.value)%len(net.isp)])
	}
}

// withSet adds a policy that also applies set to the device and returns
// its name: a copy of the named policy with set appended to every permit
// clause, or a permit-all policy applying set where the name is empty or
// undefined.
func withSet(dev *netcfg.Device, name string, set netcfg.SetAction) string {
	pol := &netcfg.RoutePolicy{Name: fmt.Sprintf("MUTATED_%d", len(dev.RoutePolicies))}
	if old := dev.RoutePolicies[name]; old != nil {
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
	return pol.Name
}

// requireSameResult simulates the network three times, each on a Sim of
// its own: with Run over every originated prefix, with the full-round
// reference, and with Run sliced to the stub prefixes. It fails unless
// the first two return the same Result and the slice agrees with the
// reference on what it simulates (diffSlice).
func requireSameResult(tb testing.TB, label string, net network, devs map[string]*netcfg.Device) {
	tb.Helper()
	sim := newSim(tb, net, devs)
	got, err := sim.Run(sim.Originated())
	if err != nil {
		tb.Fatalf("%s: %v", label, err)
	}
	want, err := newSim(tb, net, devs).RunFullRounds()
	if err != nil {
		tb.Fatalf("%s: the reference: %v", label, err)
	}
	if diff := diffResults(got, want); diff != "" {
		tb.Fatalf("%s: delta rounds disagree with full rounds: %s", label, diff)
	}
	sliced, err := newSim(tb, net, devs).Run(net.queried)
	if err != nil {
		tb.Fatalf("%s: the slice: %v", label, err)
	}
	if diff := diffSlice(sliced, want, net.queried); diff != "" {
		tb.Fatalf("%s: the slice to the stub prefixes disagrees with full rounds: %s", label, diff)
	}
}

// stub is one external speaker newSim adds.
type stub struct {
	name, router string // the peer and the router it attaches to
	addr, asn    uint32
	prefixes     []netcfg.Prefix
}

// stubsOf derives the external speakers lightyear.CheckGlobalNoTransit
// simulates: one per external neighbor, originating the neighbor's
// prefixes. Star dictionaries list none, so there the customer stub
// originates the customer prefix and each ISP stub an attachment prefix
// of its own, which need not be the prefix CheckGlobalNoTransit derives.
func stubsOf(tb testing.TB, topo *topology.Topology) []stub {
	tb.Helper()
	var out []stub
	for _, r := range topo.Routers {
		for _, nb := range r.Neighbors {
			if !nb.External {
				continue
			}
			addr, err := netcfg.ParseIP(nb.PeerIP)
			if err != nil {
				tb.Fatal(err)
			}
			s := stub{name: nb.PeerName, router: r.Name, addr: addr, asn: nb.PeerAS}
			for _, ps := range nb.Prefixes {
				s.prefixes = append(s.prefixes, netcfg.MustPrefix(ps))
			}
			switch {
			case len(s.prefixes) > 0:
			case netgen.IsCustomerPeer(nb.PeerName):
				s.prefixes = []netcfg.Prefix{netgen.CustomerPrefix()}
			default:
				s.prefixes = []netcfg.Prefix{netgen.AttachmentPrefix(len(out) + 1)}
			}
			out = append(out, s)
		}
	}
	return out
}

// newSim builds the network lightyear.CheckGlobalNoTransit simulates:
// every router, with its stubs added after it.
func newSim(tb testing.TB, net network, devs map[string]*netcfg.Device) *batfish.Sim {
	tb.Helper()
	sim := batfish.NewSim()
	stubs := net.stubs
	for _, r := range net.topo.Routers {
		if err := sim.AddDevice(r.Name, devs[r.Name]); err != nil {
			tb.Fatal(err)
		}
		for ; len(stubs) > 0 && stubs[0].router == r.Name; stubs = stubs[1:] {
			s := stubs[0]
			if err := sim.AddExternal(s.name, s.addr, s.asn, s.prefixes); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return sim
}

// diffResults describes the first difference between two results, or
// returns "" when they hold the same rounds, convergence and routes.
func diffResults(got, want *batfish.Result) string {
	if got.Iterations != want.Iterations || got.Converged != want.Converged {
		return fmt.Sprintf("%d rounds, converged %v; the reference took %d rounds, converged %v",
			got.Iterations, got.Converged, want.Iterations, want.Converged)
	}
	if g, w := got.Nodes(), want.Nodes(); !slices.Equal(g, w) {
		return fmt.Sprintf("nodes %v; the reference has %v", g, w)
	}
	for _, node := range want.Nodes() {
		if diff := diffRIB(node, got.Entries(node), want.Entries(node)); diff != "" {
			return diff
		}
	}
	return ""
}

// diffSlice describes the first difference between a Run sliced to the
// queried prefixes and the unsliced reference, or returns "". The slice
// must agree on convergence and take no more rounds; every node must hold
// exactly the reference's routes for the originated prefixes that equal
// or contain a queried one, found here by a scan; and CanReach must
// answer alike for every node and queried prefix.
func diffSlice(got, want *batfish.Result, queried []netcfg.Prefix) string {
	if got.Converged != want.Converged || got.Iterations > want.Iterations {
		return fmt.Sprintf("%d rounds, converged %v; the reference took %d rounds, converged %v",
			got.Iterations, got.Converged, want.Iterations, want.Converged)
	}
	if g, w := got.Nodes(), want.Nodes(); !slices.Equal(g, w) {
		return fmt.Sprintf("nodes %v; the reference has %v", g, w)
	}
	for _, node := range want.Nodes() {
		wantRIB := want.Entries(node)
		maps.DeleteFunc(wantRIB, func(p netcfg.Prefix, _ *netcfg.Route) bool {
			return !slices.ContainsFunc(queried, func(q netcfg.Prefix) bool { return p == q || p.Contains(q) })
		})
		if diff := diffRIB(node, got.Entries(node), wantRIB); diff != "" {
			return diff
		}
		for _, q := range queried {
			if g, w := got.CanReach(node, q), want.CanReach(node, q); g != w {
				return fmt.Sprintf("CanReach(%s, %s) = %v; the reference says %v", node, q, g, w)
			}
		}
	}
	return ""
}

// diffRIB describes the first difference between one node's routes and
// the reference's, or returns "".
func diffRIB(node string, gotRIB, wantRIB map[netcfg.Prefix]*netcfg.Route) string {
	prefixes := slices.SortedFunc(maps.Keys(wantRIB), func(a, b netcfg.Prefix) int {
		return cmp.Or(cmp.Compare(a.Addr, b.Addr), cmp.Compare(a.Len, b.Len))
	})
	for _, p := range prefixes {
		if g, w := gotRIB[p], wantRIB[p]; !reflect.DeepEqual(g, w) {
			return fmt.Sprintf("%s %s: %s; the reference holds %s", node, p, describe(g), describe(w))
		}
	}
	if len(gotRIB) != len(wantRIB) {
		return fmt.Sprintf("%s holds %d routes; the reference holds %d", node, len(gotRIB), len(wantRIB))
	}
	return ""
}

// describe renders a route with the attributes Route.String leaves out.
func describe(r *netcfg.Route) string {
	if r == nil {
		return "no route"
	}
	return fmt.Sprintf("%s local-pref=%d next-hop=%s", r, r.LocalPref, netcfg.FormatIP(r.NextHop))
}
