package batfish

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/netcfg"
)

// runFullRounds is the reference Run's delta rounds are checked against.
// It simulates every originated prefix. It shares Run's set-up (sessions,
// prefix numbering and fresh rows) and round cap, and none of its
// delivery: every round re-announces every entry of every node from a RIB
// map of its own, scanned in prefix order; every offered route is cloned;
// both route-maps run through netcfg.EvalPolicy; and the loop check, the
// originated-wins rule and better run on the materialized route.
func (s *Sim) runFullRounds() (*Result, error) {
	order := s.sortedNodes()
	res, _, err := s.reset(order, s.Originated())
	if err != nil {
		return nil, err
	}
	ribs := make(map[*simNode]map[netcfg.Prefix]*candidate, len(order))
	for _, n := range order {
		ribs[n] = map[netcfg.Prefix]*candidate{}
		for _, r := range n.origin {
			ribs[n][r.Prefix] = &candidate{route: *r.Clone()}
		}
	}
	for ; res.Iterations < s.maxRounds(); res.Iterations++ {
		if !fullRoundStep(order, ribs) {
			res.Converged = true
			break
		}
	}
	for _, n := range order {
		row := res.rows[n.name]
		clear(row)
		for p, c := range ribs[n] {
			row[res.index[p]] = c
		}
	}
	return res, nil
}

// fullRoundStep performs one synchronous propagation round; it reports
// whether any node's RIB changed (false once the round reached a
// fixpoint).
func fullRoundStep(order []*simNode, ribs map[*simNode]map[netcfg.Prefix]*candidate) bool {
	type incoming struct {
		to    *simNode
		from  *simNode
		route *netcfg.Route
	}
	var inbox []incoming
	for _, n := range order {
		if len(n.sessions) == 0 {
			continue
		}
		// One sort per node per round: every session announces the same
		// round-start RIB.
		prefixes := sortedPrefixes(ribs[n])
		for _, sess := range n.sessions {
			for _, p := range prefixes {
				if r := announceCloned(n, sess, ribs[n][p]); r != nil {
					inbox = append(inbox, incoming{to: sess.peer, from: n, route: r})
				}
			}
		}
	}
	changed := false
	for _, msg := range inbox {
		if deliverReference(ribs[msg.to], msg.to, msg.from, msg.route) {
			changed = true
		}
	}
	return changed
}

// announceCloned returns a clone of the route node n offers on one session
// for its entry c, after split horizon and the export policy, or nil.
func announceCloned(n *simNode, sess *session, c *candidate) *netcfg.Route {
	// Split horizon: do not send a route back to the peer that supplied
	// it.
	if c.from == sess.peer {
		return nil
	}
	out := c.route.Clone()
	if !n.external && sess.exportPol != nil {
		res := netcfg.EvalPolicy(sess.exportPol, n.dev, out)
		if !res.Permitted {
			return nil
		}
		out = res.Route
	}
	// eBGP: prepend sender AS, reset local preference.
	out.ASPath = append([]uint32{n.asn}, out.ASPath...)
	out.LocalPref = 100
	return out
}

// deliverReference processes one announcement against the receiver's RIB
// — loop detection, the import policy of the receiver's session to the
// sender, best-path selection — and reports whether the RIB changed.
func deliverReference(rib map[netcfg.Prefix]*candidate, to, from *simNode, r *netcfg.Route) bool {
	if to.asn != 0 && r.HasASInPath(to.asn) {
		return false
	}
	if !to.external {
		if sess := to.sessionTo(from); sess != nil && sess.importPol != nil {
			res := netcfg.EvalPolicy(sess.importPol, to.dev, r)
			if !res.Permitted {
				return false
			}
			r = res.Route
		}
	}
	cur := rib[r.Prefix]
	if cur != nil && cur.from == nil {
		return false // locally originated always wins
	}
	if cur != nil && !better(r.LocalPref, len(r.ASPath), r.MED, from, cur) {
		return false
	}
	rib[r.Prefix] = &candidate{route: *r, from: from}
	return true
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

// sameResult reports whether two results took the same rounds, agree on
// convergence, and hold the same routes.
func sameResult(a, b *Result) bool {
	if a.Iterations != b.Iterations || a.Converged != b.Converged || !slices.Equal(a.Nodes(), b.Nodes()) {
		return false
	}
	for _, node := range a.Nodes() {
		if !reflect.DeepEqual(a.Entries(node), b.Entries(node)) {
			return false
		}
	}
	return true
}

// mustRun simulates every originated prefix and fails the test on an
// error.
func mustRun(t *testing.T, sim *Sim) *Result {
	t.Helper()
	res, err := sim.Run(sim.Originated())
	if err != nil {
		t.Fatal(err)
	}
	return res
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
	res := mustRun(t, sim)
	if !res.Converged {
		t.Fatal("did not converge")
	}
	route := res.Route("B", netcfg.MustPrefix("10.0.0.0/8"))
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
	res := mustRun(t, sim)
	if res.Route("B", netcfg.MustPrefix("10.0.0.0/8")) != nil {
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
	res := mustRun(t, sim)
	route := res.Route("B", netcfg.MustPrefix("10.0.0.0/8"))
	if route == nil || !route.HasCommunity(netcfg.MustCommunity("100:1")) {
		t.Fatalf("import transform missing: %v", route)
	}
}

func TestSimUndefinedPolicyFailsClosed(t *testing.T) {
	a, b := twoNodeConfigs(t, "NO_SUCH_MAP", "")
	sim := NewSim()
	_ = sim.AddDevice("A", a)
	_ = sim.AddDevice("B", b)
	res := mustRun(t, sim)
	if res.Route("B", netcfg.MustPrefix("10.0.0.0/8")) != nil {
		t.Error("undefined export policy should announce nothing")
	}
}

func TestSimOneSidedPeeringNeverComesUp(t *testing.T) {
	a, b := twoNodeConfigs(t, "", "")
	b.BGP.Neighbors = nil // B does not declare A
	sim := NewSim()
	_ = sim.AddDevice("A", a)
	_ = sim.AddDevice("B", b)
	res := mustRun(t, sim)
	if res.Route("B", netcfg.MustPrefix("10.0.0.0/8")) != nil {
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
	res := mustRun(t, sim)
	if res.Route("B", netcfg.MustPrefix("99.0.0.0/8")) == nil {
		t.Error("external origination did not propagate A->B")
	}
	e := res.Route("E", netcfg.MustPrefix("10.0.0.0/8"))
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
	res := mustRun(t, sim)
	if !res.Converged {
		t.Fatal("did not converge")
	}
	if res.Route("C", netcfg.MustPrefix("10.0.0.0/8")) != nil {
		t.Error("loop prevention failed: C accepted a route with its own AS")
	}
}

func TestSimSplitHorizon(t *testing.T) {
	a, b := twoNodeConfigs(t, "", "")
	sim := NewSim()
	_ = sim.AddDevice("A", a)
	_ = sim.AddDevice("B", b)
	res := mustRun(t, sim)
	// A's own originated route must remain locally originated (not
	// replaced by B echoing it back).
	route := res.Route("A", netcfg.MustPrefix("10.0.0.0/8"))
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
	res := mustRun(t, sim)
	if !res.Converged {
		t.Fatal("did not converge")
	}
	if res.Route("E", netcfg.MustPrefix("10.0.0.0/8")) != nil {
		t.Error("the external stub learned a route from a router it cannot reach")
	}
	if res.Route("A", netcfg.MustPrefix("99.0.0.0/8")) != nil {
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
	res := mustRun(t, sim)
	if !res.Converged {
		t.Fatalf("did not converge within %d rounds", res.Iterations)
	}
	if res.Iterations != n-1 {
		t.Errorf("converged after %d rounds, want %d", res.Iterations, n-1)
	}
	if r := res.Route(name(n-1), netcfg.MustPrefix("10.0.0.0/8")); r == nil || len(r.ASPath) != n-1 {
		t.Errorf("%s holds %v, want the prefix over a %d-hop AS path", name(n-1), r, n-1)
	}
	ref, err := sim.runFullRounds()
	if err != nil {
		t.Fatal(err)
	}
	if !sameResult(res, ref) {
		t.Errorf("delta rounds and full rounds disagree: %d/%v against %d/%v rounds/converged",
			res.Iterations, res.Converged, ref.Iterations, ref.Converged)
	}
}

// TestCanReachMatchesScan checks CanReach's probe against scanReach, a
// scan of the node's whole RIB. The RIBs are seeded
// random originations, with lengths clustered on a few values as real
// RIBs' are and host bits left set in some. The queries are /0, /32,
// random prefixes, and each RIB prefix with its host bits kept, and
// lengthened and shortened.
func TestCanReachMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 21))
	randomPrefix := func() netcfg.Prefix {
		l := []int{0, 8, 16, 24, 32, rng.IntN(33)}[rng.IntN(6)]
		if rng.IntN(2) == 0 {
			return netcfg.Prefix{Addr: rng.Uint32(), Len: l}
		}
		return netcfg.NewPrefix(rng.Uint32(), l)
	}
	for trial := range 40 {
		sim := NewSim()
		for k := range 1 + rng.IntN(4) {
			var prefixes []netcfg.Prefix
			for range rng.IntN(24) {
				prefixes = append(prefixes, randomPrefix())
			}
			if err := sim.AddExternal(fmt.Sprintf("E%d", k), uint32(k+1), uint32(k+1), prefixes); err != nil {
				t.Fatal(err)
			}
		}
		res := mustRun(t, sim)
		for _, node := range append(res.Nodes(), "NO-SUCH-NODE") {
			rib := res.Entries(node)
			queries := []netcfg.Prefix{{}, {Addr: rng.Uint32(), Len: 32}, {Addr: rng.Uint32()}}
			for p := range rib {
				queries = append(queries, p,
					netcfg.Prefix{Addr: p.Addr | rng.Uint32()&^netcfg.Mask(p.Len), Len: min(32, p.Len+rng.IntN(9))},
					netcfg.NewPrefix(p.Addr, max(0, p.Len-rng.IntN(9))))
			}
			for range 40 {
				queries = append(queries, randomPrefix())
			}
			for _, q := range queries {
				if got, want := res.CanReach(node, q), scanReach(rib, q); got != want {
					t.Fatalf("trial %d: CanReach(%s, %s) = %v, the scan says %v", trial, node, q, got, want)
				}
			}
		}
	}
}

// scanReach is CanReach by a scan of the node's whole RIB.
func scanReach(rib map[netcfg.Prefix]*netcfg.Route, p netcfg.Prefix) bool {
	for got := range rib {
		if got.Contains(p) || got == p {
			return true
		}
	}
	return false
}
