package topology

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/netcfg"
)

func spec() *RouterSpec {
	return &RouterSpec{
		Name:     "R1",
		ASN:      1,
		RouterID: "1.0.0.1",
		Interfaces: []InterfaceSpec{
			{Name: "eth0/0", Address: "1.0.0.1/24"},
			{Name: "eth0/1", Address: "2.0.0.1/24"},
		},
		Neighbors: []NeighborSpec{
			{PeerName: "CUSTOMER", PeerIP: "1.0.0.2", PeerAS: 65500, External: true},
			{PeerName: "R2", PeerIP: "2.0.0.2", PeerAS: 2},
		},
		Networks: []string{"1.0.0.0/24", "2.0.0.0/24"},
	}
}

func conformingDevice(t *testing.T) *netcfg.Device {
	t.Helper()
	d := netcfg.NewDevice("R1", netcfg.VendorCisco)
	for _, ifc := range spec().Interfaces {
		slash := strings.IndexByte(ifc.Address, '/')
		addr, err := netcfg.ParseIP(ifc.Address[:slash])
		if err != nil {
			t.Fatal(err)
		}
		i := d.EnsureInterface(ifc.Name)
		i.Address = netcfg.Prefix{Addr: addr, Len: 24}
		i.HasAddress = true
	}
	b := d.EnsureBGP(1)
	id, _ := netcfg.ParseIP("1.0.0.1")
	b.RouterID = id
	for _, nb := range spec().Neighbors {
		ip, _ := netcfg.ParseIP(nb.PeerIP)
		b.EnsureNeighbor(ip).RemoteAS = nb.PeerAS
	}
	for _, n := range spec().Networks {
		b.Networks = append(b.Networks, netcfg.MustPrefix(n))
	}
	return d
}

func TestVerifyConformingDeviceClean(t *testing.T) {
	if finds := Verify(spec(), conformingDevice(t)); len(finds) != 0 {
		t.Fatalf("findings on conforming device: %v", finds)
	}
}

func expectIssue(t *testing.T, dev *netcfg.Device, want string) {
	t.Helper()
	finds := Verify(spec(), dev)
	for _, f := range finds {
		if strings.Contains(f.Issue, want) {
			return
		}
	}
	t.Fatalf("no finding containing %q; got %v", want, finds)
}

func TestVerifyWrongInterfaceAddress(t *testing.T) {
	d := conformingDevice(t)
	d.Interface("eth0/1").Address.Addr++
	expectIssue(t, d, "Interface eth0/1 ip address does not match with given config. Expected 2.0.0.1, found 2.0.0.2")
}

func TestVerifyMissingInterface(t *testing.T) {
	d := conformingDevice(t)
	d.Interfaces = d.Interfaces[:1]
	expectIssue(t, d, "Interface eth0/1 with IP address 2.0.0.1 not configured")
}

func TestVerifyWrongLocalAS(t *testing.T) {
	d := conformingDevice(t)
	d.BGP.ASN = 3
	expectIssue(t, d, "Local AS number does not match. Expected 1, found 3")
}

func TestVerifyWrongRouterID(t *testing.T) {
	d := conformingDevice(t)
	d.BGP.RouterID++
	expectIssue(t, d, "Router ID does not match with given config. Expected 1.0.0.1, found 1.0.0.2")
}

func TestVerifyMissingNeighbor(t *testing.T) {
	d := conformingDevice(t)
	d.BGP.Neighbors = d.BGP.Neighbors[1:]
	expectIssue(t, d, "Neighbor with IP address 1.0.0.2 and AS 65500 not declared")
}

func TestVerifyWrongNeighborAS(t *testing.T) {
	d := conformingDevice(t)
	d.BGP.Neighbors[1].RemoteAS = 99
	expectIssue(t, d, "Neighbor with IP address 2.0.0.2 has wrong AS. Expected 2, found 99")
}

func TestVerifyMissingNetwork(t *testing.T) {
	d := conformingDevice(t)
	d.BGP.Networks = d.BGP.Networks[1:]
	expectIssue(t, d, "Network 1.0.0.0/24 not declared")
}

func TestVerifyDisconnectedNetwork(t *testing.T) {
	d := conformingDevice(t)
	d.BGP.Networks = append(d.BGP.Networks, netcfg.MustPrefix("7.0.0.0/24"))
	expectIssue(t, d, "Incorrect network declaration. 7.0.0.0/24 is not directly connected to R1")
}

func TestVerifyExtraNeighbor(t *testing.T) {
	d := conformingDevice(t)
	n := d.BGP.EnsureNeighbor(netcfg.MustPrefix("7.0.0.2/32").Addr)
	n.RemoteAS = 7
	expectIssue(t, d, "Incorrect neighbor declaration. No neighbor with IP address 7.0.0.2 AS 7 found")
}

func TestVerifyNoBGPBlock(t *testing.T) {
	d := netcfg.NewDevice("R1", netcfg.VendorCisco)
	expectIssue(t, d, "No 'router bgp 1' block declared")
}

func TestVerifyAllReportsMissingDevice(t *testing.T) {
	topo := &Topology{Name: "t", Routers: []RouterSpec{*spec()}}
	finds := VerifyAll(topo, map[string]*netcfg.Device{})
	if len(finds) != 1 || !strings.Contains(finds[0].Issue, "no configuration") {
		t.Fatalf("findings = %v", finds)
	}
}

func TestTopologyJSONRoundTrip(t *testing.T) {
	topo := &Topology{Name: "t", Routers: []RouterSpec{*spec()}}
	data, err := topo.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != "t" || len(back.Routers) != 1 {
		t.Fatalf("round trip = %+v", back)
	}
	r := back.Router("R1")
	if r == nil || r.ASN != 1 || len(r.Interfaces) != 2 || len(r.Neighbors) != 2 {
		t.Fatalf("router = %+v", r)
	}
	if back.Router("R9") != nil {
		t.Error("lookup of unknown router should be nil")
	}
}

func TestConnectedPrefixes(t *testing.T) {
	ps, err := spec().ConnectedPrefixes()
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 2 || ps[0].String() != "1.0.0.0/24" || ps[1].String() != "2.0.0.0/24" {
		t.Fatalf("prefixes = %v", ps)
	}
}

// specAddressSeeds are interface addresses at the edges of the spec's
// "a.b.c.d/len" form: white space, signs, a missing, signed, spaced or
// trailing length, lengths over 32, and bad addresses. ok marks the ones
// netcfg's prefix parser takes, all of which name 10.0.0.1/24.
var specAddressSeeds = []struct {
	addr string
	ok   bool
}{
	{"10.0.0.1/24", true}, {"", false}, {"   ", false}, {"\t\n", false},
	{" \r\n10.0.0.1/24", true}, {"\n10.0.0.1/24", true}, {" 10.0.0.1/24", true},
	{"10.0.0.1", false}, {"10.0.0.1/", false}, {"10.0.0.1/ 24", false}, {"10.0.0.1/\n24", false},
	{"10.0.0.1/+24", false}, {"10.0.0.1/-3", false}, {"10.0.0.1/33", false},
	{"10.0.0.1/24 trailing", false}, {"10.0.0.1/24x", false}, {"10.0.0.1/+", false},
	{"10.0.0.1/99999999999999999999", false}, {"10.0.0.256/24", false}, {"+10.0.0.1/24", false},
	{"\xff/1", false}, {"1.2.3.4/ 1", false}, {"10.0.0.1/-0", false}, {"10.0.0.1/99", false},
	{"10.0.0.1/24junk", false},
}

// TestVerifySpecAddressParse: Verify reads an interface's spec address
// with netcfg's prefix parser, as ConnectedPrefixes does. A spec address
// the parser refuses is reported once, as an invalid spec, and nothing
// else is reported; one it takes matches the device's 10.0.0.1/24, so
// Verify finds nothing.
func TestVerifySpecAddressParse(t *testing.T) {
	dev := netcfg.NewDevice("R1", netcfg.VendorCisco)
	ifc := dev.EnsureInterface("eth0")
	ifc.Address, ifc.HasAddress = netcfg.Prefix{Addr: 0x0a000001, Len: 24}, true
	dev.EnsureBGP(1)
	for i, c := range specAddressSeeds {
		t.Run(fmt.Sprintf("seed#%d", i), func(t *testing.T) {
			spec := &RouterSpec{Name: "R1", ASN: 1,
				Interfaces: []InterfaceSpec{{Name: "eth0", Address: c.addr}}}
			got := Verify(spec, dev)
			switch {
			case c.ok && len(got) != 0:
				t.Errorf("%q: findings %v, want none", c.addr, got)
			case !c.ok && (len(got) != 1 ||
				!strings.HasPrefix(got[0].Issue, "topology spec for interface eth0 is invalid: ")):
				t.Errorf("%q: findings %v, want one invalid-spec finding", c.addr, got)
			}
		})
	}
}
