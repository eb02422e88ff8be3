// Package netgen is the paper's "network generator" (§4.1): given only the
// number of routers it produces (1) a textual description of the star
// topology used as an LLM prompt and (2) the JSON topology dictionary used
// by the topology verifier — the two outputs Figure 3's Modularizer
// consumes.
//
// The topology is the paper's Figure 4 star: R1 is attached to a CUSTOMER
// network, every other router R2..Rn is attached to a distinct ISP, and
// all ISP routers connect directly to R1.
package netgen

import (
	"fmt"
	"strings"

	"repro/internal/netcfg"
	"repro/internal/topology"
)

// Addressing scheme constants. Router indices, interface subnets, and
// network statements keep the literals of the paper's Table 3 examples
// (neighbor 7.0.0.2 AS 7, network 1.0.0.0/24).
const (
	// CustomerAS is the customer's AS number (ordinal-keyed customers of
	// multi-customer topologies take CustomerAS+ordinal).
	CustomerAS = 65500
	// ISPBaseAS is added to the router index (or, on attachment-keyed
	// topologies, the attachment ordinal) for ISP AS numbers: the ISP
	// attached to R2 has AS 1002. The base sits above maxGraphRouters so
	// no ISP can share an AS with an internal router — with the paper's
	// original base of 100, R102 and ISP2 both took AS 102 and AS-path
	// loop detection silently dropped the ISP's routes on graphs of 102+
	// routers.
	ISPBaseAS = 1000
)

// maxStarRouters bounds Star and the registry's star family. Router Ri's
// addresses carry i as an octet (i.0.0.1/24 on the hub, 20.i.0.1/24 toward
// its ISP), so past 255 routers the star would emit addresses that do not
// parse.
const maxStarRouters = 255

// Star generates the Figure 4 star topology with n routers
// (2 <= n <= 255): R1 plus n-1 ISP-facing routers.
func Star(n int) (*topology.Topology, error) {
	if n < 2 {
		return nil, fmt.Errorf("star topology needs at least 2 routers, got %d", n)
	}
	if n > maxStarRouters {
		return nil, fmt.Errorf("star topology supports at most %d routers (router i is addressed i.0.0.1/24), got %d",
			maxStarRouters, n)
	}
	t := &topology.Topology{Name: fmt.Sprintf("star-%d", n)}

	// R1: customer-facing hub.
	r1 := topology.RouterSpec{
		Name:     "R1",
		ASN:      1,
		RouterID: "1.0.0.1",
		Interfaces: []topology.InterfaceSpec{
			{Name: "eth0/0", Address: "1.0.0.1/24"},
		},
		Neighbors: []topology.NeighborSpec{
			{PeerName: "CUSTOMER", PeerIP: "1.0.0.2", PeerAS: CustomerAS, External: true},
		},
		Networks: []string{"1.0.0.0/24"},
	}
	for i := 2; i <= n; i++ {
		r1.Interfaces = append(r1.Interfaces, topology.InterfaceSpec{
			Name:    fmt.Sprintf("eth0/%d", i-1),
			Address: fmt.Sprintf("%d.0.0.1/24", i),
		})
		r1.Neighbors = append(r1.Neighbors, topology.NeighborSpec{
			PeerName: fmt.Sprintf("R%d", i),
			PeerIP:   fmt.Sprintf("%d.0.0.2", i),
			PeerAS:   uint32(i),
		})
		r1.Networks = append(r1.Networks, fmt.Sprintf("%d.0.0.0/24", i))
	}
	t.Routers = append(t.Routers, r1)

	for i := 2; i <= n; i++ {
		ri := topology.RouterSpec{
			Name:     fmt.Sprintf("R%d", i),
			ASN:      uint32(i),
			RouterID: fmt.Sprintf("%d.0.0.2", i),
			Interfaces: []topology.InterfaceSpec{
				{Name: "eth0/0", Address: fmt.Sprintf("%d.0.0.2/24", i)},
				{Name: "eth0/1", Address: fmt.Sprintf("20.%d.0.1/24", i)},
			},
			Neighbors: []topology.NeighborSpec{
				{PeerName: "R1", PeerIP: fmt.Sprintf("%d.0.0.1", i), PeerAS: 1},
				{PeerName: fmt.Sprintf("ISP%d", i), PeerIP: fmt.Sprintf("20.%d.0.2", i),
					PeerAS: uint32(ISPBaseAS + i), External: true},
			},
			Networks: []string{
				fmt.Sprintf("%d.0.0.0/24", i),
				fmt.Sprintf("20.%d.0.0/24", i),
			},
		}
		t.Routers = append(t.Routers, ri)
	}
	return t, nil
}

// ISPCommunity returns the community R1 attaches at ingress to routes
// learned from Ri: R2 tags 100:1, R3 tags 101:1, and so on (§4.2).
func ISPCommunity(i int) netcfg.Community {
	return netcfg.NewCommunity(uint16(98+i), 1)
}

// AttachmentCommunity returns the community tag of an attachment ordinal
// in the per-attachment allocation scheme: attachment o tags (98+o):1.
// The formula is the same as ISPCommunity's so the egress community-list
// naming convention carries over, but the key is the attachment — never
// the router — so two ISPs homed on one router get distinct tags. A
// topology uses either ordinal keying (every ISP neighbor carries an
// Attachment) or the legacy router-index keying; the two are never mixed
// within one graph, so the tag spaces cannot collide.
func AttachmentCommunity(ordinal int) netcfg.Community {
	return netcfg.NewCommunity(uint16(98+ordinal), 1)
}

// ISPPrefix returns the external prefix the ISP behind Ri originates
// (used by the BGP simulation that checks the global no-transit policy).
func ISPPrefix(i int) netcfg.Prefix {
	return netcfg.MustPrefix(fmt.Sprintf("150.%d.0.0/16", i))
}

// AttachmentPrefix returns the external prefix the ISP at an attachment
// ordinal originates in the per-attachment addressing scheme.
func AttachmentPrefix(ordinal int) netcfg.Prefix {
	return netcfg.MustPrefix(fmt.Sprintf("150.%d.0.0/16", ordinal))
}

// CustomerPrefix is the prefix the (single, legacy) customer originates.
func CustomerPrefix() netcfg.Prefix { return netcfg.MustPrefix("99.99.0.0/16") }

// CustomerPrefixAt returns the prefix customer ordinal c originates on
// multi-customer topologies: 99.<c>.0.0/16.
func CustomerPrefixAt(c int) netcfg.Prefix {
	return netcfg.MustPrefix(fmt.Sprintf("99.%d.0.0/16", c))
}

// Describe renders the formulaic natural-language description of the
// topology — the automated script output the paper uses instead of
// error-prone hand-written prose ("It is difficult to write a natural
// language description of the topology", §4.1).
func Describe(t *topology.Topology) string {
	var b strings.Builder
	fmt.Fprintf(&b, "The network %q has %d routers.\n", t.Name, len(t.Routers))
	for i := range t.Routers {
		r := &t.Routers[i]
		fmt.Fprintf(&b, "Router %s has AS number %d and router ID %s.\n", r.Name, r.ASN, r.RouterID)
		for _, ifc := range r.Interfaces {
			fmt.Fprintf(&b, "Router %s has interface %s with IP address %s.\n",
				r.Name, ifc.Name, ifc.Address)
		}
		for _, nb := range r.Neighbors {
			kind := "router"
			if nb.External {
				kind = "external peer"
			}
			fmt.Fprintf(&b, "Router %s is connected to %s %s at IP address %s in AS %d.\n",
				r.Name, kind, nb.PeerName, nb.PeerIP, nb.PeerAS)
			// Attachment-level facts, as their own sentences so the
			// neighbor sentence keeps its machine-parsed shape.
			if nb.Attachment > 0 {
				fmt.Fprintf(&b, "Peer %s is external attachment point %d of the network.\n",
					nb.PeerName, nb.Attachment)
			}
			if nb.External && len(nb.Prefixes) > 0 {
				fmt.Fprintf(&b, "Peer %s originates the prefixes: %s.\n",
					nb.PeerName, strings.Join(nb.Prefixes, ", "))
			}
		}
		fmt.Fprintf(&b, "Router %s announces the networks: %s.\n",
			r.Name, strings.Join(r.Networks, ", "))
	}
	return b.String()
}
