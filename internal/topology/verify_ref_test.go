package topology

import (
	"fmt"

	"repro/internal/netcfg"
)

// RefVerify is refVerify for the external fuzz target.
var RefVerify = refVerify

// refVerify is Verify as it was before it parsed each spec string once
// per call: every declared network and neighbor re-parses the spec's
// whole list, and every lookup scans. It is the reference Verify is held
// to.
func refVerify(spec *RouterSpec, dev *netcfg.Device) []Finding {
	var out []Finding
	add := func(format string, args ...interface{}) {
		out = append(out, Finding{Router: spec.Name, Issue: fmt.Sprintf(format, args...)})
	}
	for _, ifcSpec := range spec.Interfaces {
		want, err := netcfg.ParseHostPrefix(ifcSpec.Address)
		if err != nil {
			add("topology spec for interface %s is invalid: %v", ifcSpec.Name, err)
			continue
		}
		ifc := dev.Interface(ifcSpec.Name)
		if ifc == nil || !ifc.HasAddress {
			add("Interface %s with IP address %s not configured", ifcSpec.Name,
				netcfg.FormatIP(want.Addr))
			continue
		}
		if ifc.Address.Addr != want.Addr || ifc.Address.Len != want.Len {
			add("Interface %s ip address does not match with given config. Expected %s, found %s",
				ifcSpec.Name, netcfg.FormatIP(want.Addr), netcfg.FormatIP(ifc.Address.Addr))
		}
	}
	if dev.BGP == nil {
		add("No 'router bgp %d' block declared", spec.ASN)
		return out
	}
	if dev.BGP.ASN != spec.ASN {
		add("Local AS number does not match. Expected %d, found %d", spec.ASN, dev.BGP.ASN)
	}
	wantID, err := netcfg.ParseIP(spec.RouterID)
	if err == nil && dev.BGP.RouterID != 0 && dev.BGP.RouterID != wantID {
		add("Router ID does not match with given config. Expected %s, found %s",
			spec.RouterID, netcfg.FormatIP(dev.BGP.RouterID))
	}
	for _, nb := range spec.Neighbors {
		peerIP, err := netcfg.ParseIP(nb.PeerIP)
		if err != nil {
			add("topology spec for neighbor %s is invalid: %v", nb.PeerName, err)
			continue
		}
		got := dev.BGP.Neighbor(peerIP)
		if got == nil {
			add("Neighbor with IP address %s and AS %d not declared", nb.PeerIP, nb.PeerAS)
			continue
		}
		if got.RemoteAS != nb.PeerAS {
			add("Neighbor with IP address %s has wrong AS. Expected %d, found %d",
				nb.PeerIP, nb.PeerAS, got.RemoteAS)
		}
	}
	connected, connErr := spec.ConnectedPrefixes()
	for _, netStr := range spec.Networks {
		want, err := netcfg.ParsePrefix(netStr)
		if err != nil {
			add("topology spec network %q is invalid: %v", netStr, err)
			continue
		}
		if !dev.BGP.HasNetwork(want) {
			add("Network %s not declared", want)
		}
	}
	if connErr == nil {
		for _, got := range dev.BGP.Networks {
			if !refIsSpecNetwork(spec, got) && !refIsConnected(connected, got) {
				add("Incorrect network declaration. %s is not directly connected to %s",
					got, spec.Name)
			}
		}
	}
	for _, got := range dev.BGP.Neighbors {
		if !refIsSpecNeighbor(spec, got.Addr) {
			add("Incorrect neighbor declaration. No neighbor with IP address %s AS %d found",
				netcfg.FormatIP(got.Addr), got.RemoteAS)
		}
	}
	return out
}

func refIsSpecNetwork(spec *RouterSpec, p netcfg.Prefix) bool {
	for _, n := range spec.Networks {
		if want, err := netcfg.ParsePrefix(n); err == nil && want == p {
			return true
		}
	}
	return false
}

func refIsConnected(connected []netcfg.Prefix, p netcfg.Prefix) bool {
	for _, c := range connected {
		if c == p {
			return true
		}
	}
	return false
}

func refIsSpecNeighbor(spec *RouterSpec, addr uint32) bool {
	for _, nb := range spec.Neighbors {
		if ip, err := netcfg.ParseIP(nb.PeerIP); err == nil && ip == addr {
			return true
		}
	}
	return false
}
