package netgen

import (
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/netcfg"
	"repro/internal/topology"
)

// golden compares generator output against the checked-in JSON dictionary
// and description; regenerate with the tmp driver or update by hand —
// these are the machine-readable artifacts the Modularizer consumes, so
// drift is a behavioural change.
func golden(t *testing.T, name string, topo *topology.Topology) {
	t.Helper()
	data, err := topo.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := os.ReadFile(filepath.Join("testdata", name+".json"))
	if err != nil {
		t.Fatal(err)
	}
	if string(append(data, '\n')) != string(wantJSON) {
		t.Errorf("%s JSON drifted from golden:\n%s", name, data)
	}
	wantTxt, err := os.ReadFile(filepath.Join("testdata", name+".txt"))
	if err != nil {
		t.Fatal(err)
	}
	if Describe(topo) != string(wantTxt) {
		t.Errorf("%s description drifted from golden:\n%s", name, Describe(topo))
	}
}

func TestRingGolden(t *testing.T) {
	topo, err := Ring(5)
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "ring-5", topo)
}

func TestFullMeshGolden(t *testing.T) {
	topo, err := FullMesh(4)
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "full-mesh-4", topo)
}

func TestFatTreeGolden(t *testing.T) {
	topo, err := FatTree(2)
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "fat-tree-2", topo)
}

func TestDualHomedGolden(t *testing.T) {
	topo, err := DualHomed(4)
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "dual-homed-4", topo)
}

func TestMultiCustomerGolden(t *testing.T) {
	topo, err := MultiCustomer(5)
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "multi-customer-5", topo)
}

func TestRandomGolden(t *testing.T) {
	topo, err := Random(8)
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "random-8", topo)
}

func TestRingShape(t *testing.T) {
	topo, err := Ring(6)
	if err != nil {
		t.Fatal(err)
	}
	if len(topo.Routers) != 6 {
		t.Fatalf("routers = %d", len(topo.Routers))
	}
	for i := range topo.Routers {
		r := &topo.Routers[i]
		internal, external := 0, 0
		for _, nb := range r.Neighbors {
			if nb.External {
				external++
				if len(nb.Prefixes) == 0 {
					t.Errorf("%s external peer %s has no originated prefixes", r.Name, nb.PeerName)
				}
			} else {
				internal++
			}
		}
		if internal != 2 {
			t.Errorf("%s has %d internal neighbors, want 2 (a cycle)", r.Name, internal)
		}
		if external != 1 {
			t.Errorf("%s has %d external peers, want 1", r.Name, external)
		}
	}
	if topo.Routers[0].Neighbors[0].PeerName != "CUSTOMER" {
		t.Errorf("R1 first neighbor = %+v", topo.Routers[0].Neighbors[0])
	}
	if _, err := Ring(2); err == nil {
		t.Error("ring of 2 should fail")
	}
}

func TestFullMeshShape(t *testing.T) {
	topo, err := FullMesh(5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range topo.Routers {
		r := &topo.Routers[i]
		internal := 0
		for _, nb := range r.Neighbors {
			if !nb.External {
				internal++
			}
		}
		if internal != 4 {
			t.Errorf("%s has %d internal neighbors, want 4", r.Name, internal)
		}
	}
	if _, err := FullMesh(2); err == nil {
		t.Error("mesh of 2 should fail")
	}
}

func TestFatTreeShape(t *testing.T) {
	topo, err := FatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	// k=4: 8 edge + 8 agg + 4 core.
	if len(topo.Routers) != 20 {
		t.Fatalf("routers = %d, want 20", len(topo.Routers))
	}
	customers, isps := 0, 0
	for i := range topo.Routers {
		r := &topo.Routers[i]
		for _, nb := range r.Neighbors {
			if !nb.External {
				continue
			}
			if IsCustomerPeer(nb.PeerName) {
				customers++
			} else {
				isps++
			}
			// Only edge routers (R1..R8) face the outside.
			if idx := routerIndex(r.Name); idx > 8 {
				t.Errorf("non-edge router %s has external peer %s", r.Name, nb.PeerName)
			}
		}
	}
	if customers != 1 || isps != 7 {
		t.Errorf("external peers = %d customers + %d ISPs, want 1 + 7", customers, isps)
	}
	if _, err := FatTree(3); err == nil {
		t.Error("odd k should fail")
	}
	if _, err := FatTree(0); err == nil {
		t.Error("k=0 should fail")
	}
}

// TestDualHomedShape checks the dual-homed generator: every non-customer
// router holds exactly two ISP attachments, every attachment carries a
// distinct first-class ordinal, and subnets/ASes are keyed on the ordinal.
func TestDualHomedShape(t *testing.T) {
	topo, err := DualHomed(5)
	if err != nil {
		t.Fatal(err)
	}
	seenOrd := map[int]bool{}
	for i := range topo.Routers {
		r := &topo.Routers[i]
		isps := 0
		for _, nb := range r.Neighbors {
			if !nb.External || IsCustomerPeer(nb.PeerName) {
				continue
			}
			isps++
			if nb.Attachment <= 0 {
				t.Errorf("%s peer %s has no attachment ordinal", r.Name, nb.PeerName)
				continue
			}
			if seenOrd[nb.Attachment] {
				t.Errorf("attachment ordinal %d reused", nb.Attachment)
			}
			seenOrd[nb.Attachment] = true
			if want := uint32(ISPBaseAS + nb.Attachment); nb.PeerAS != want {
				t.Errorf("%s peer %s AS = %d, want %d", r.Name, nb.PeerName, nb.PeerAS, want)
			}
		}
		if r.Name == "R1" {
			if isps != 0 {
				t.Errorf("R1 has %d ISPs, want 0 (customer hub)", isps)
			}
		} else if isps != 2 {
			t.Errorf("%s has %d ISPs, want 2 (dual-homed)", r.Name, isps)
		}
	}
	if len(seenOrd) != 8 {
		t.Errorf("attachments = %d, want 8", len(seenOrd))
	}
	if _, err := DualHomed(2); err == nil {
		t.Error("dual-homed of 2 should fail")
	}
}

// TestMultiCustomerShape checks the multi-customer generator: max(2, n/3)
// distinct customers with distinct stub ASes and prefixes, ISPs on every
// remaining router.
func TestMultiCustomerShape(t *testing.T) {
	topo, err := MultiCustomer(7)
	if err != nil {
		t.Fatal(err)
	}
	customers := map[string]bool{}
	prefixes := map[string]bool{}
	isps := 0
	for _, ap := range topo.ExternalAttachments() {
		if IsCustomerPeer(ap.Peer.PeerName) {
			customers[ap.Peer.PeerName] = true
			for _, p := range ap.Peer.Prefixes {
				if prefixes[p] {
					t.Errorf("customer prefix %s reused", p)
				}
				prefixes[p] = true
			}
		} else {
			isps++
		}
	}
	if len(customers) != 2 || isps != 5 {
		t.Errorf("external peers = %d customers + %d ISPs, want 2 + 5", len(customers), isps)
	}
	if _, err := MultiCustomer(3); err == nil {
		t.Error("multi-customer of 3 should fail")
	}
}

// TestRandomDeterministicAndConnected checks the fuzz generator: the same
// size always yields the same graph, the graph is connected, and at least
// two ISP attachments exist with distinct ordinals.
func TestRandomDeterministicAndConnected(t *testing.T) {
	for _, n := range []int{4, 9, 17, 40} {
		a, err := Random(n)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Random(n)
		if err != nil {
			t.Fatal(err)
		}
		aj, _ := a.Marshal()
		bj, _ := b.Marshal()
		if string(aj) != string(bj) {
			t.Errorf("random-%d is not deterministic", n)
		}
		// Connectivity over internal links.
		adj := map[string][]string{}
		for i := range a.Routers {
			r := &a.Routers[i]
			for _, nb := range r.Neighbors {
				if !nb.External {
					adj[r.Name] = append(adj[r.Name], nb.PeerName)
				}
			}
		}
		seen := map[string]bool{"R1": true}
		stack := []string{"R1"}
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, nb := range adj[cur] {
				if !seen[nb] {
					seen[nb] = true
					stack = append(stack, nb)
				}
			}
		}
		if len(seen) != len(a.Routers) {
			t.Errorf("random-%d: only %d/%d routers reachable", n, len(seen), len(a.Routers))
		}
		ords := map[int]bool{}
		for _, ap := range a.ExternalAttachments() {
			if IsCustomerPeer(ap.Peer.PeerName) {
				continue
			}
			if ap.Peer.Attachment <= 0 || ords[ap.Peer.Attachment] {
				t.Errorf("random-%d: bad or duplicate ordinal %d", n, ap.Peer.Attachment)
			}
			ords[ap.Peer.Attachment] = true
		}
		if len(ords) < 2 {
			t.Errorf("random-%d: %d ISP attachments, want >= 2", n, len(ords))
		}
	}
}

// TestNoASCollisionAtScale is the regression test for the AS-numbering
// bug: with ISPBaseAS at the paper's original 100, R102 and the ISP on R2
// shared AS 102 and AS-path loop detection silently dropped the ISP's
// routes. Every external stub AS must now be distinct from every internal
// router AS (and from every other stub AS) up to the addressing bound.
func TestNoASCollisionAtScale(t *testing.T) {
	for _, gen := range []struct {
		name string
		make func() (*topology.Topology, error)
	}{
		{"ring-120", func() (*topology.Topology, error) { return Ring(120) }},
		{"star-120", func() (*topology.Topology, error) { return Star(120) }},
		{"dual-homed-60", func() (*topology.Topology, error) { return DualHomed(60) }},
		{"random-120", func() (*topology.Topology, error) { return Random(120) }},
	} {
		topo, err := gen.make()
		if err != nil {
			t.Fatalf("%s: %v", gen.name, err)
		}
		used := map[uint32]string{}
		claim := func(asn uint32, owner string) {
			if prev, dup := used[asn]; dup && prev != owner {
				t.Errorf("%s: AS %d shared by %s and %s", gen.name, asn, prev, owner)
			}
			used[asn] = owner
		}
		for i := range topo.Routers {
			claim(topo.Routers[i].ASN, topo.Routers[i].Name)
		}
		for _, ap := range topo.ExternalAttachments() {
			claim(ap.Peer.PeerAS, ap.Peer.PeerName)
		}
	}
}

// TestParseScenarioArg covers the CLI "name[:size]" shorthand.
func TestParseScenarioArg(t *testing.T) {
	if name, size, err := ParseScenarioArg("dual-homed:8"); err != nil ||
		name != "dual-homed" || size != 8 {
		t.Errorf("dual-homed:8 = (%q, %d, %v)", name, size, err)
	}
	if name, size, err := ParseScenarioArg("star"); err != nil || name != "star" || size != 0 {
		t.Errorf("star = (%q, %d, %v)", name, size, err)
	}
	for _, bad := range []string{"star:", "star:x", "star:-3", "moebius", "moebius:5"} {
		if _, _, err := ParseScenarioArg(bad); err == nil {
			t.Errorf("%q should fail", bad)
		}
	}
}

// TestGraphSubnetsAreDisjoint checks the shared addressing scheme: every
// subnet appears on at most the two endpoints of one link.
func TestGraphSubnetsAreDisjoint(t *testing.T) {
	for _, make := range []func() (*topology.Topology, error){
		func() (*topology.Topology, error) { return Ring(9) },
		func() (*topology.Topology, error) { return FullMesh(7) },
		func() (*topology.Topology, error) { return FatTree(4) },
		func() (*topology.Topology, error) { return DualHomed(6) },
		func() (*topology.Topology, error) { return MultiCustomer(6) },
		func() (*topology.Topology, error) { return Random(12) },
	} {
		topo, err := make()
		if err != nil {
			t.Fatal(err)
		}
		count := map[netcfg.Prefix]int{}
		for i := range topo.Routers {
			prefixes, err := topo.Routers[i].ConnectedPrefixes()
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range prefixes {
				count[p]++
			}
		}
		for p, c := range count {
			if c > 2 {
				t.Errorf("%s: subnet %s appears on %d routers", topo.Name, p, c)
			}
		}
	}
}

func TestIsStar(t *testing.T) {
	star, _ := Star(7)
	if !IsStar(star) {
		t.Error("Star(7) should be a star")
	}
	for _, gen := range []func() (*topology.Topology, error){
		func() (*topology.Topology, error) { return Ring(5) },
		func() (*topology.Topology, error) { return FullMesh(4) },
		func() (*topology.Topology, error) { return FatTree(2) },
		func() (*topology.Topology, error) { return DualHomed(4) },
		func() (*topology.Topology, error) { return MultiCustomer(5) },
		func() (*topology.Topology, error) { return Random(8) },
	} {
		topo, err := gen()
		if err != nil {
			t.Fatal(err)
		}
		if IsStar(topo) {
			t.Errorf("%s should not be a star", topo.Name)
		}
	}
	// A star-shaped graph with a dual-homed spoke must NOT take the
	// hub-centric scheme: its community tags are keyed per router index,
	// the exact assumption dual-homing breaks.
	dualSpoke, _ := Star(5)
	r2 := dualSpoke.Router("R2")
	r2.Neighbors = append(r2.Neighbors, topology.NeighborSpec{
		PeerName: "ISP9", PeerIP: "20.9.0.2", PeerAS: ISPBaseAS + 9, External: true,
	})
	if IsStar(dualSpoke) {
		t.Error("a dual-homed spoke should disqualify the hub-centric star scheme")
	}
}

func TestScenarioRegistry(t *testing.T) {
	names := ScenarioNames()
	want := []string{"star", "ring", "full-mesh", "fat-tree",
		"dual-homed", "multi-customer", "random"}
	if len(names) != len(want) {
		t.Fatalf("scenarios = %v", names)
	}
	for i, n := range want {
		if names[i] != n {
			t.Errorf("scenario[%d] = %q, want %q", i, names[i], n)
		}
	}
	for _, s := range Scenarios() {
		topo, err := s.Generate(s.DefaultSize)
		if err != nil {
			t.Errorf("%s default size: %v", s.Name, err)
			continue
		}
		if len(topo.Routers) < 2 {
			t.Errorf("%s generated %d routers", s.Name, len(topo.Routers))
		}
	}
	if _, err := Generate("moebius", 5); err == nil {
		t.Error("unknown scenario should error")
	}
	if topo, err := Generate("ring", 0); err != nil || topo.Name != "ring-8" {
		t.Errorf("default size: topo=%v err=%v", topo, err)
	}
}

// TestScenarioSizeBounds pins the registry's size limits: every family
// refuses one past its MaxSize through both entry points, and each bound
// admits the largest size the repository drives (random:500, fat-tree:10,
// full-mesh:16, the 120-router sweeps).
func TestScenarioSizeBounds(t *testing.T) {
	used := map[string]int{"star": 120, "ring": 120, "full-mesh": 16, "fat-tree": 10,
		"dual-homed": 60, "multi-customer": 12, "random": 500}
	for _, s := range Scenarios() {
		if s.MaxSize < used[s.Name] {
			t.Errorf("%s MaxSize %d is below the size %d the repository uses", s.Name, s.MaxSize, used[s.Name])
		}
		if _, err := Generate(s.Name, s.MaxSize+1); err == nil {
			t.Errorf("Generate(%s, %d) succeeded past MaxSize", s.Name, s.MaxSize+1)
		}
		if _, err := GenerateSeeded(s.Name, s.MaxSize+1, 3); err == nil {
			t.Errorf("GenerateSeeded(%s, %d) succeeded past MaxSize", s.Name, s.MaxSize+1)
		}
	}
}

// TestScenarioMaxSizeAddressesParse generates every family at its MaxSize
// and parses every address and prefix the dictionary carries with
// net/netip: a size the registry admits must never yield an address a
// router config cannot hold (a star past 255 routers would put router
// 256 at 256.0.0.1/24).
func TestScenarioMaxSizeAddressesParse(t *testing.T) {
	for _, s := range Scenarios() {
		topo, err := Generate(s.Name, s.MaxSize)
		if err != nil {
			t.Fatalf("Generate(%s, %d): %v", s.Name, s.MaxSize, err)
		}
		bad := 0
		check := func(router, what, text string, parse func(string) error) {
			if err := parse(text); err != nil {
				if bad++; bad <= 3 {
					t.Errorf("%s:%d %s %s %q: %v", s.Name, s.MaxSize, router, what, text, err)
				}
			}
		}
		addr := func(text string) error { _, err := netip.ParseAddr(text); return err }
		prefix := func(text string) error { _, err := netip.ParsePrefix(text); return err }
		for _, r := range topo.Routers {
			check(r.Name, "router ID", r.RouterID, addr)
			for _, ifc := range r.Interfaces {
				check(r.Name, "interface "+ifc.Name, ifc.Address, prefix)
			}
			for _, nb := range r.Neighbors {
				check(r.Name, "peer "+nb.PeerName, nb.PeerIP, addr)
				for _, p := range nb.Prefixes {
					check(r.Name, "prefix of "+nb.PeerName, p, prefix)
				}
			}
			for _, n := range r.Networks {
				check(r.Name, "network", n, prefix)
			}
		}
		if bad > 3 {
			t.Errorf("%s:%d: %d unparseable addresses in all", s.Name, s.MaxSize, bad)
		}
	}
}

func routerIndex(name string) int {
	var i int
	if _, err := fmt.Sscanf(name, "R%d", &i); err != nil {
		return 0
	}
	return i
}
