package batfish

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/netcfg"
)

// runFullRounds is the reference Run's delta rounds are checked against.
// It shares Run's set-up, delivery, round cap and result copy, but every
// round re-announces every RIB entry of every node, and every offered
// route is cloned before its export policy runs.
func (s *Sim) runFullRounds() *Result {
	s.reset()
	iter := 0
	converged := false
	for ; iter < s.maxRounds(); iter++ {
		if !s.fullRoundStep() {
			converged = true
			break
		}
	}
	return s.result(iter, converged)
}

// fullRoundStep performs one synchronous propagation round; it reports
// whether any node's RIB changed (false once the round reached a
// fixpoint).
func (s *Sim) fullRoundStep() bool {
	type incoming struct {
		to    *simNode
		from  *simNode
		route *netcfg.Route
	}
	var inbox []incoming
	for _, name := range s.nodeNames() {
		n := s.nodes[name]
		if len(n.sessions) == 0 {
			continue
		}
		// One sort per node per round: every session announces the same
		// round-start RIB.
		prefixes := sortedPrefixes(n.rib)
		for _, sess := range n.sessions {
			sess := sess
			announceCloned(n, sess, prefixes, func(r *netcfg.Route) {
				inbox = append(inbox, incoming{to: sess.peer, from: n, route: r})
			})
		}
	}
	changed := false
	for _, msg := range inbox {
		if deliver(msg.to, msg.from, msg.route) {
			changed = true
		}
	}
	return changed
}

// announceCloned is announce with every offered route cloned before its
// export policy runs.
func announceCloned(n *simNode, sess *session, prefixes []netcfg.Prefix, emit func(*netcfg.Route)) {
	for _, p := range prefixes {
		c := n.rib[p]
		// Split horizon: do not send a route back to the peer that
		// supplied it.
		if c.from == sess.peer.name {
			continue
		}
		out := c.route.Clone()
		if !n.external && sess.exportPol != nil {
			res := netcfg.EvalPolicy(sess.exportPol, sess.envExport, out)
			if !res.Permitted {
				continue
			}
			out = res.Route
		}
		// eBGP: prepend sender AS, reset local preference.
		out.ASPath = append([]uint32{n.asn}, out.ASPath...)
		out.LocalPref = 100
		emit(out)
	}
}

func sortedPrefixes(rib map[netcfg.Prefix]*candidate) []netcfg.Prefix {
	out := make([]netcfg.Prefix, 0, len(rib))
	for p := range rib {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Addr != out[j].Addr {
			return out[i].Addr < out[j].Addr
		}
		return out[i].Len < out[j].Len
	})
	return out
}

// twoNodeConfigs builds a pair of directly-peered routers: A (AS 1,
// originating 10.0.0.0/8) and B (AS 2).
func twoNodeConfigs(t *testing.T, exportMap, importMap string) (*netcfg.Device, *netcfg.Device) {
	t.Helper()
	a := netcfg.NewDevice("A", netcfg.VendorCisco)
	ifa := a.EnsureInterface("eth0")
	ifa.Address = netcfg.MustPrefix("192.168.0.0/24")
	ifa.Address.Addr = mustIP(t, "192.168.0.1")
	ifa.HasAddress = true
	ba := a.EnsureBGP(1)
	ba.Networks = append(ba.Networks, netcfg.MustPrefix("10.0.0.0/8"))
	na := ba.EnsureNeighbor(mustIP(t, "192.168.0.2"))
	na.RemoteAS = 2
	na.ExportPolicy = exportMap

	b := netcfg.NewDevice("B", netcfg.VendorCisco)
	ifb := b.EnsureInterface("eth0")
	ifb.Address = netcfg.MustPrefix("192.168.0.0/24")
	ifb.Address.Addr = mustIP(t, "192.168.0.2")
	ifb.HasAddress = true
	bb := b.EnsureBGP(2)
	nb := bb.EnsureNeighbor(mustIP(t, "192.168.0.1"))
	nb.RemoteAS = 1
	nb.ImportPolicy = importMap
	return a, b
}

func mustIP(t *testing.T, s string) uint32 {
	t.Helper()
	v, err := netcfg.ParseIP(s)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestSimBasicPropagation(t *testing.T) {
	a, b := twoNodeConfigs(t, "", "")
	sim := NewSim()
	if err := sim.AddDevice("A", a); err != nil {
		t.Fatal(err)
	}
	if err := sim.AddDevice("B", b); err != nil {
		t.Fatal(err)
	}
	res := sim.Run()
	if !res.Converged {
		t.Fatal("did not converge")
	}
	route := res.RIB["B"][netcfg.MustPrefix("10.0.0.0/8")]
	if route == nil {
		t.Fatal("B did not learn 10.0.0.0/8")
	}
	if len(route.ASPath) != 1 || route.ASPath[0] != 1 {
		t.Errorf("AS path = %v, want [1]", route.ASPath)
	}
	if !res.CanReach("B", netcfg.MustPrefix("10.1.0.0/16")) {
		t.Error("covering-prefix reachability failed")
	}
}

func TestSimExportPolicyFilters(t *testing.T) {
	a, b := twoNodeConfigs(t, "BLOCK", "")
	a.RoutePolicies["BLOCK"] = &netcfg.RoutePolicy{Name: "BLOCK", Clauses: []*netcfg.PolicyClause{
		{Seq: 10, Action: netcfg.Deny},
	}}
	sim := NewSim()
	_ = sim.AddDevice("A", a)
	_ = sim.AddDevice("B", b)
	res := sim.Run()
	if res.RIB["B"][netcfg.MustPrefix("10.0.0.0/8")] != nil {
		t.Error("deny-all export leaked a route")
	}
}

func TestSimImportPolicyTransforms(t *testing.T) {
	a, b := twoNodeConfigs(t, "", "TAG")
	b.CommunityLists["1"] = &netcfg.CommunityList{Name: "1", Entries: []netcfg.CommunityListEntry{
		{Action: netcfg.Permit, Community: netcfg.MustCommunity("100:1")},
	}}
	b.RoutePolicies["TAG"] = &netcfg.RoutePolicy{Name: "TAG", Clauses: []*netcfg.PolicyClause{
		{Seq: 10, Action: netcfg.Permit, Sets: []netcfg.SetAction{
			netcfg.SetCommunity{Communities: []netcfg.Community{netcfg.MustCommunity("100:1")},
				Additive: true},
		}},
	}}
	sim := NewSim()
	_ = sim.AddDevice("A", a)
	_ = sim.AddDevice("B", b)
	res := sim.Run()
	route := res.RIB["B"][netcfg.MustPrefix("10.0.0.0/8")]
	if route == nil || !route.HasCommunity(netcfg.MustCommunity("100:1")) {
		t.Fatalf("import transform missing: %v", route)
	}
}

func TestSimUndefinedPolicyFailsClosed(t *testing.T) {
	a, b := twoNodeConfigs(t, "NO_SUCH_MAP", "")
	sim := NewSim()
	_ = sim.AddDevice("A", a)
	_ = sim.AddDevice("B", b)
	res := sim.Run()
	if res.RIB["B"][netcfg.MustPrefix("10.0.0.0/8")] != nil {
		t.Error("undefined export policy should announce nothing")
	}
}

func TestSimOneSidedPeeringNeverComesUp(t *testing.T) {
	a, b := twoNodeConfigs(t, "", "")
	b.BGP.Neighbors = nil // B does not declare A
	sim := NewSim()
	_ = sim.AddDevice("A", a)
	_ = sim.AddDevice("B", b)
	res := sim.Run()
	if res.RIB["B"][netcfg.MustPrefix("10.0.0.0/8")] != nil {
		t.Error("one-sided peering propagated a route")
	}
}

func TestSimExternalStubOriginatesAndReceives(t *testing.T) {
	a, b := twoNodeConfigs(t, "", "")
	// External stub E peers with A at 1.0.0.2; A declares it.
	ifa := a.EnsureInterface("eth1")
	ifa.Address = netcfg.Prefix{Addr: mustIP(t, "1.0.0.1"), Len: 24}
	ifa.HasAddress = true
	a.BGP.EnsureNeighbor(mustIP(t, "1.0.0.2")).RemoteAS = 99
	sim := NewSim()
	_ = sim.AddDevice("A", a)
	_ = sim.AddDevice("B", b)
	if err := sim.AddExternal("E", mustIP(t, "1.0.0.2"), 99,
		[]netcfg.Prefix{netcfg.MustPrefix("99.0.0.0/8")}); err != nil {
		t.Fatal(err)
	}
	res := sim.Run()
	if res.RIB["B"][netcfg.MustPrefix("99.0.0.0/8")] == nil {
		t.Error("external origination did not propagate A->B")
	}
	e := res.RIB["E"][netcfg.MustPrefix("10.0.0.0/8")]
	if e == nil {
		t.Fatal("external stub did not receive A's network")
	}
	if len(e.ASPath) != 1 || e.ASPath[0] != 1 {
		t.Errorf("external AS path = %v", e.ASPath)
	}
}

func TestSimASPathLoopPrevention(t *testing.T) {
	// Triangle A-B, B-C, C-A with same AS on A and C: C must reject A's
	// route via B (its own AS in path simulation: C has AS 1 too).
	a, b := twoNodeConfigs(t, "", "")
	// C peers with B; C reuses AS 1.
	ifb := b.EnsureInterface("eth1")
	ifb.Address = netcfg.Prefix{Addr: mustIP(t, "192.168.1.1"), Len: 24}
	ifb.HasAddress = true
	b.BGP.EnsureNeighbor(mustIP(t, "192.168.1.2")).RemoteAS = 1

	c := netcfg.NewDevice("C", netcfg.VendorCisco)
	ifc := c.EnsureInterface("eth0")
	ifc.Address = netcfg.Prefix{Addr: mustIP(t, "192.168.1.2"), Len: 24}
	ifc.HasAddress = true
	cb := c.EnsureBGP(1)
	cb.EnsureNeighbor(mustIP(t, "192.168.1.1")).RemoteAS = 2

	sim := NewSim()
	_ = sim.AddDevice("A", a)
	_ = sim.AddDevice("B", b)
	_ = sim.AddDevice("C", c)
	res := sim.Run()
	if !res.Converged {
		t.Fatal("did not converge")
	}
	if res.RIB["C"][netcfg.MustPrefix("10.0.0.0/8")] != nil {
		t.Error("loop prevention failed: C accepted a route with its own AS")
	}
}

func TestSimSplitHorizon(t *testing.T) {
	a, b := twoNodeConfigs(t, "", "")
	sim := NewSim()
	_ = sim.AddDevice("A", a)
	_ = sim.AddDevice("B", b)
	res := sim.Run()
	// A's own originated route must remain locally originated (not
	// replaced by B echoing it back).
	route := res.RIB["A"][netcfg.MustPrefix("10.0.0.0/8")]
	if route == nil || len(route.ASPath) != 0 {
		t.Errorf("origin route corrupted: %v", route)
	}
}

func TestSimDuplicateNodeRejected(t *testing.T) {
	a, _ := twoNodeConfigs(t, "", "")
	sim := NewSim()
	if err := sim.AddDevice("A", a); err != nil {
		t.Fatal(err)
	}
	if err := sim.AddDevice("A", a); err == nil {
		t.Error("duplicate device accepted")
	}
	if err := sim.AddExternal("A", 1, 1, nil); err == nil {
		t.Error("duplicate external accepted")
	}
}

// TestSimAddresslessRouterOpensNoSession declares an external neighbor on
// a router without any usable interface address: the router must open no
// BGP session, so neither side learns the other's routes and the run
// still converges.
func TestSimAddresslessRouterOpensNoSession(t *testing.T) {
	a, _ := twoNodeConfigs(t, "", "")
	a.Interfaces = nil
	a.BGP.EnsureNeighbor(mustIP(t, "1.0.0.2")).RemoteAS = 99
	sim := NewSim()
	if err := sim.AddDevice("A", a); err != nil {
		t.Fatal(err)
	}
	if err := sim.AddExternal("E", mustIP(t, "1.0.0.2"), 99,
		[]netcfg.Prefix{netcfg.MustPrefix("99.0.0.0/8")}); err != nil {
		t.Fatal(err)
	}
	res := sim.Run()
	if !res.Converged {
		t.Fatal("did not converge")
	}
	if res.RIB["E"][netcfg.MustPrefix("10.0.0.0/8")] != nil {
		t.Error("the external stub learned a route from a router it cannot reach")
	}
	if res.RIB["A"][netcfg.MustPrefix("99.0.0.0/8")] != nil {
		t.Error("an address-less router learned the external stub's route")
	}
}

// TestSimLongChainConverges runs a chain of 100 peered routers, which
// needs 99 rounds to carry the first router's prefix to the last: the run
// must converge there with the full-length AS path, and agree with full
// rounds.
func TestSimLongChainConverges(t *testing.T) {
	const n = 100
	name := func(i int) string { return fmt.Sprintf("R%03d", i) }
	// Link i joins router i (host 1) and router i+1 (host 2) in a /30.
	addr := func(link, host int) uint32 { return 192<<24 | 168<<16 | uint32(link)<<2 | uint32(host) }
	sim := NewSim()
	for i := 0; i < n; i++ {
		dev := netcfg.NewDevice(name(i), netcfg.VendorCisco)
		bgp := dev.EnsureBGP(uint32(i + 1))
		if i == 0 {
			bgp.Networks = append(bgp.Networks, netcfg.MustPrefix("10.0.0.0/8"))
		}
		if i > 0 {
			ifc := dev.EnsureInterface("left")
			ifc.Address = netcfg.Prefix{Addr: addr(i-1, 2), Len: 30}
			ifc.HasAddress = true
			bgp.EnsureNeighbor(addr(i-1, 1)).RemoteAS = uint32(i)
		}
		if i < n-1 {
			ifc := dev.EnsureInterface("right")
			ifc.Address = netcfg.Prefix{Addr: addr(i, 1), Len: 30}
			ifc.HasAddress = true
			bgp.EnsureNeighbor(addr(i, 2)).RemoteAS = uint32(i + 2)
		}
		if err := sim.AddDevice(name(i), dev); err != nil {
			t.Fatal(err)
		}
	}
	res := sim.Run()
	if !res.Converged {
		t.Fatalf("did not converge within %d rounds", res.Iterations)
	}
	if res.Iterations != n-1 {
		t.Errorf("converged after %d rounds, want %d", res.Iterations, n-1)
	}
	if r := res.RIB[name(n-1)][netcfg.MustPrefix("10.0.0.0/8")]; r == nil || len(r.ASPath) != n-1 {
		t.Errorf("%s holds %v, want the prefix over a %d-hop AS path", name(n-1), r, n-1)
	}
	if ref := sim.runFullRounds(); !reflect.DeepEqual(res, ref) {
		t.Errorf("delta rounds and full rounds disagree: %d/%v against %d/%v rounds/converged",
			res.Iterations, res.Converged, ref.Iterations, ref.Converged)
	}
}
