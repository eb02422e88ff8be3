package batfish

import (
	"testing"

	"repro/internal/netcfg"
)

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
