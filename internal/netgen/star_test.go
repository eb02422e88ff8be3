package netgen

import (
	"strings"
	"testing"

	"repro/internal/netcfg"
	"repro/internal/topology"
)

func TestStarShape(t *testing.T) {
	topo, err := Star(7)
	if err != nil {
		t.Fatal(err)
	}
	if len(topo.Routers) != 7 {
		t.Fatalf("routers = %d", len(topo.Routers))
	}
	r1 := topo.Router("R1")
	if r1 == nil || r1.ASN != 1 {
		t.Fatalf("R1 = %+v", r1)
	}
	// Hub: one customer-facing interface plus one per spoke.
	if len(r1.Interfaces) != 7 {
		t.Errorf("R1 interfaces = %d, want 7", len(r1.Interfaces))
	}
	if len(r1.Neighbors) != 7 {
		t.Errorf("R1 neighbors = %d, want 7 (customer + 6 spokes)", len(r1.Neighbors))
	}
	if r1.Neighbors[0].PeerName != "CUSTOMER" || !r1.Neighbors[0].External {
		t.Errorf("R1 first neighbor = %+v", r1.Neighbors[0])
	}
	// Spokes mirror the paper's Table 3 literals: R7 at 7.0.0.2, AS 7.
	r7 := topo.Router("R7")
	if r7 == nil || r7.ASN != 7 || r7.RouterID != "7.0.0.2" {
		t.Fatalf("R7 = %+v", r7)
	}
	if r7.Neighbors[0].PeerIP != "7.0.0.1" || r7.Neighbors[0].PeerAS != 1 {
		t.Errorf("R7->R1 = %+v", r7.Neighbors[0])
	}
	if r7.Neighbors[1].PeerName != "ISP7" || !r7.Neighbors[1].External {
		t.Errorf("R7 ISP = %+v", r7.Neighbors[1])
	}
}

func TestStarMinimumSize(t *testing.T) {
	if _, err := Star(1); err == nil {
		t.Error("star of 1 should fail")
	}
	if _, err := Star(2); err != nil {
		t.Errorf("star of 2 should work: %v", err)
	}
}

// TestStarMaximumSize pins the star's octet bound: router i is addressed
// i.0.0.1/24, so 255 routers generate and 256 is an error naming the bound.
func TestStarMaximumSize(t *testing.T) {
	if _, err := Star(255); err != nil {
		t.Errorf("star of 255 should work: %v", err)
	}
	_, err := Star(256)
	if err == nil || !strings.Contains(err.Error(), "255") {
		t.Errorf("Star(256) = %v, want an error naming the bound of 255", err)
	}
}

func TestISPCommunityMatchesPaperScheme(t *testing.T) {
	// §4.2: "Community 100:1 is associated with routes incoming from R2,
	// 101:1 with those coming from R3 and so on."
	if ISPCommunity(2) != netcfg.MustCommunity("100:1") {
		t.Errorf("R2 tag = %s", ISPCommunity(2))
	}
	if ISPCommunity(3) != netcfg.MustCommunity("101:1") {
		t.Errorf("R3 tag = %s", ISPCommunity(3))
	}
	if ISPCommunity(6) != netcfg.MustCommunity("104:1") {
		t.Errorf("R6 tag = %s", ISPCommunity(6))
	}
}

func TestDescribeIsFormulaicAndComplete(t *testing.T) {
	topo, err := Star(3)
	if err != nil {
		t.Fatal(err)
	}
	text := Describe(topo)
	for _, want := range []string{
		"Router R1 has AS number 1 and router ID 1.0.0.1.",
		"Router R1 has interface eth0/0 with IP address 1.0.0.1/24.",
		"Router R1 is connected to external peer CUSTOMER at IP address 1.0.0.2 in AS 65500.",
		"Router R2 is connected to router R1 at IP address 2.0.0.1 in AS 1.",
		"Router R3 announces the networks: 3.0.0.0/24, 20.3.0.0/24.",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("description missing %q\n%s", want, text)
		}
	}
}

func TestStarJSONRoundTrip(t *testing.T) {
	topo, err := Star(5)
	if err != nil {
		t.Fatal(err)
	}
	data, err := topo.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := topology.Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Routers) != 5 || back.Router("R3").ASN != 3 {
		t.Fatalf("round trip = %+v", back)
	}
}

func TestSubnetsAreDisjoint(t *testing.T) {
	topo, err := Star(9)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[netcfg.Prefix]string{}
	for i := range topo.Routers {
		r := &topo.Routers[i]
		prefixes, err := r.ConnectedPrefixes()
		if err != nil {
			t.Fatal(err)
		}
		for j, p := range prefixes {
			key := r.Name + "/" + r.Interfaces[j].Name
			if prev, dup := seen[p]; dup {
				// Shared link subnets appear on exactly the two endpoints.
				if !linked(prev, key) {
					t.Errorf("subnet %s reused by %s and %s", p, prev, key)
				}
				continue
			}
			seen[p] = key
		}
	}
}

// linked reports whether two interface keys are the two ends of one link
// (R1's spoke port and the spoke's eth0/0, by the generator's scheme).
func linked(a, b string) bool {
	return (strings.HasPrefix(a, "R1/") != strings.HasPrefix(b, "R1/")) ||
		(strings.Contains(a, "eth0/0") != strings.Contains(b, "eth0/0"))
}
