package topology

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"repro/internal/netcfg"
)

// Finding is one inconsistency between a router's generated configuration
// and its topology spec. Issue is phrased exactly like the paper's Table 3
// topology-error prompts, so the humanizer can pass it through verbatim.
type Finding struct {
	Router string
	Issue  string
}

// String implements fmt.Stringer.
func (f Finding) String() string { return f.Router + ": " + f.Issue }

// Verify checks a parsed device configuration against the router's spec.
// It reproduces the seven topology-error categories of Table 3: interface
// address mismatches, local-AS mismatch, router-ID mismatch, undeclared
// neighbors, undeclared networks, networks not directly connected, and
// neighbors that should not exist.
//
// Each spec string is parsed once per call, and every membership test, on
// the spec's side and on the device's, is a binary search of a sorted
// copy, so a router is checked in O(n log n) of its own spec and
// configuration. The first of equal keys wins, as in a scan in order.
func Verify(spec *RouterSpec, dev *netcfg.Device) []Finding {
	var out []Finding
	add := func(format string, args ...interface{}) {
		out = append(out, Finding{Router: spec.Name, Issue: fmt.Sprintf(format, args...)})
	}

	// 1. Interfaces and addresses.
	ifcs := slices.Clone(dev.Interfaces)
	slices.SortStableFunc(ifcs, func(a, b *netcfg.Interface) int { return strings.Compare(a.Name, b.Name) })
	for _, ifcSpec := range spec.Interfaces {
		want, err := netcfg.ParseHostPrefix(ifcSpec.Address)
		if err != nil {
			add("topology spec for interface %s is invalid: %v", ifcSpec.Name, err)
			continue
		}
		i, ok := slices.BinarySearchFunc(ifcs, ifcSpec.Name, func(ifc *netcfg.Interface, name string) int {
			return strings.Compare(ifc.Name, name)
		})
		if !ok || !ifcs[i].HasAddress {
			add("Interface %s with IP address %s not configured", ifcSpec.Name,
				netcfg.FormatIP(want.Addr))
			continue
		}
		if ifc := ifcs[i]; ifc.Address != want {
			add("Interface %s ip address does not match with given config. Expected %s, found %s",
				ifcSpec.Name, netcfg.FormatIP(want.Addr), netcfg.FormatIP(ifc.Address.Addr))
		}
	}

	// 2. Local AS.
	if dev.BGP == nil {
		add("No 'router bgp %d' block declared", spec.ASN)
		return out
	}
	if dev.BGP.ASN != spec.ASN {
		add("Local AS number does not match. Expected %d, found %d", spec.ASN, dev.BGP.ASN)
	}

	// 3. Router ID.
	wantID, err := netcfg.ParseIP(spec.RouterID)
	if err == nil && dev.BGP.RouterID != 0 && dev.BGP.RouterID != wantID {
		add("Router ID does not match with given config. Expected %s, found %s",
			spec.RouterID, netcfg.FormatIP(dev.BGP.RouterID))
	}

	// 4. Required neighbors declared.
	nbrs := slices.Clone(dev.BGP.Neighbors)
	slices.SortStableFunc(nbrs, func(a, b *netcfg.BGPNeighbor) int { return cmp.Compare(a.Addr, b.Addr) })
	specNbrs := make([]uint32, 0, len(spec.Neighbors))
	for _, nb := range spec.Neighbors {
		peerIP, err := netcfg.ParseIP(nb.PeerIP)
		if err != nil {
			add("topology spec for neighbor %s is invalid: %v", nb.PeerName, err)
			continue
		}
		specNbrs = append(specNbrs, peerIP)
		i, ok := slices.BinarySearchFunc(nbrs, peerIP, func(n *netcfg.BGPNeighbor, addr uint32) int {
			return cmp.Compare(n.Addr, addr)
		})
		if !ok {
			add("Neighbor with IP address %s and AS %d not declared", nb.PeerIP, nb.PeerAS)
			continue
		}
		if got := nbrs[i]; got.RemoteAS != nb.PeerAS {
			add("Neighbor with IP address %s has wrong AS. Expected %d, found %d",
				nb.PeerIP, nb.PeerAS, got.RemoteAS)
		}
	}

	// 5. Required networks declared; 6. declared networks must be directly
	// connected, or be spec networks.
	declared := slices.Clone(dev.BGP.Networks)
	slices.SortFunc(declared, comparePrefix)
	allowed := make([]netcfg.Prefix, 0, len(spec.Networks)+len(spec.Interfaces))
	for _, netStr := range spec.Networks {
		want, err := netcfg.ParsePrefix(netStr)
		if err != nil {
			add("topology spec network %q is invalid: %v", netStr, err)
			continue
		}
		allowed = append(allowed, want)
		if _, ok := slices.BinarySearchFunc(declared, want, comparePrefix); !ok {
			add("Network %s not declared", want)
		}
	}
	if connected, err := spec.ConnectedPrefixes(); err == nil {
		allowed = append(allowed, connected...)
		slices.SortFunc(allowed, comparePrefix)
		for _, got := range dev.BGP.Networks {
			if _, ok := slices.BinarySearchFunc(allowed, got, comparePrefix); !ok {
				add("Incorrect network declaration. %s is not directly connected to %s",
					got, spec.Name)
			}
		}
	}

	// 7. Extra neighbors.
	slices.Sort(specNbrs)
	for _, got := range dev.BGP.Neighbors {
		if _, ok := slices.BinarySearch(specNbrs, got.Addr); !ok {
			add("Incorrect neighbor declaration. No neighbor with IP address %s AS %d found",
				netcfg.FormatIP(got.Addr), got.RemoteAS)
		}
	}
	return out
}

func comparePrefix(a, b netcfg.Prefix) int {
	if c := cmp.Compare(a.Addr, b.Addr); c != 0 {
		return c
	}
	return cmp.Compare(a.Len, b.Len)
}

// VerifyAll verifies every router of a topology against a set of parsed
// devices keyed by router name. Missing devices yield a finding.
func VerifyAll(t *Topology, devs map[string]*netcfg.Device) []Finding {
	var out []Finding
	for i := range t.Routers {
		spec := &t.Routers[i]
		dev := devs[spec.Name]
		if dev == nil {
			out = append(out, Finding{Router: spec.Name, Issue: "no configuration generated"})
			continue
		}
		out = append(out, Verify(spec, dev)...)
	}
	return out
}
