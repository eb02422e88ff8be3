// Package topology defines the machine-readable network description the
// Modularizer consumes (a JSON dictionary, §2) and the topology verifier
// that checks a generated configuration against it (§4.1): interface
// addresses, local AS, router ID, declared BGP neighbors, and announced
// networks.
package topology

import (
	"encoding/json"
	"fmt"

	"repro/internal/netcfg"
)

// Topology is the machine-readable description of the whole network: the
// "JSON dictionary" output of the paper's network generator.
type Topology struct {
	Name    string       `json:"name"`
	Routers []RouterSpec `json:"routers"`
}

// Router returns the named router spec, or nil.
func (t *Topology) Router(name string) *RouterSpec {
	for i := range t.Routers {
		if t.Routers[i].Name == name {
			return &t.Routers[i]
		}
	}
	return nil
}

// Marshal renders the topology as indented JSON.
func (t *Topology) Marshal() ([]byte, error) {
	return json.MarshalIndent(t, "", "  ")
}

// Unmarshal parses a topology from JSON.
func Unmarshal(data []byte) (*Topology, error) {
	var t Topology
	if err := json.Unmarshal(data, &t); err != nil {
		return nil, fmt.Errorf("parsing topology: %w", err)
	}
	return &t, nil
}

// RouterSpec describes one router: what the generated config must declare.
type RouterSpec struct {
	Name       string          `json:"name"`
	ASN        uint32          `json:"asn"`
	RouterID   string          `json:"router_id"`
	Interfaces []InterfaceSpec `json:"interfaces"`
	Neighbors  []NeighborSpec  `json:"neighbors"`
	Networks   []string        `json:"networks"`
}

// InterfaceSpec is one interface with its CIDR address.
type InterfaceSpec struct {
	Name    string `json:"name"`
	Address string `json:"address"` // host address in CIDR form, e.g. 2.0.0.1/24
}

// NeighborSpec is one required BGP peering.
type NeighborSpec struct {
	PeerName string `json:"peer_name"`
	PeerIP   string `json:"peer_ip"`
	PeerAS   uint32 `json:"peer_as"`
	External bool   `json:"external"` // true for ISP/customer peers outside the managed network
	// Prefixes lists the prefixes an external peer originates, so the
	// global BGP simulation can stub the peer from the topology dictionary
	// alone. Empty on internal peerings; when empty on an external peering
	// the simulation falls back to the star generator's conventions.
	Prefixes []string `json:"prefixes,omitempty"`
	// Attachment is the first-class attachment-point ordinal of an
	// external ISP peering: the key for the community tag, the ISP subnet,
	// and the stub AS in the attachment-keyed addressing scheme. It makes
	// the (router, neighbor) pair — not the router — the unit the local
	// no-transit specification is derived for, which is what admits
	// several ISPs on one router (dual-homing). Zero means the peering
	// predates the attachment model and keeps the legacy router-index
	// keying; the field is omitted from the JSON dictionary in that case,
	// so pre-attachment topologies serialize byte-identically.
	Attachment int `json:"attachment,omitempty"`
}

// AttachmentPoint is one external attachment of the network: the router
// holding the peering and the external neighbor spec. It is the identity
// the local specification, the community allocation, and the verification
// suite key their per-attachment obligations on.
type AttachmentPoint struct {
	Router string
	Peer   NeighborSpec
}

// ExternalAttachments lists every external attachment point (ISPs and
// customers alike) in topology order: routers in declaration order, each
// router's external neighbors in declaration order.
func (t *Topology) ExternalAttachments() []AttachmentPoint {
	var out []AttachmentPoint
	for i := range t.Routers {
		r := &t.Routers[i]
		for _, nb := range r.Neighbors {
			if nb.External {
				out = append(out, AttachmentPoint{Router: r.Name, Peer: nb})
			}
		}
	}
	return out
}

// Interface returns the named interface spec, or nil.
func (r *RouterSpec) Interface(name string) *InterfaceSpec {
	for i := range r.Interfaces {
		if r.Interfaces[i].Name == name {
			return &r.Interfaces[i]
		}
	}
	return nil
}

// ConnectedPrefixes returns the subnets the router is directly attached to.
func (r *RouterSpec) ConnectedPrefixes() ([]netcfg.Prefix, error) {
	var out []netcfg.Prefix
	for _, ifc := range r.Interfaces {
		p, err := netcfg.ParsePrefix(ifc.Address)
		if err != nil {
			return nil, fmt.Errorf("router %s interface %s: %w", r.Name, ifc.Name, err)
		}
		out = append(out, p)
	}
	return out, nil
}
