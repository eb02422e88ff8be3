package netcfg

import (
	"fmt"
	"sort"
)

// Vendor identifies the configuration dialect a Device was parsed from or
// will be printed as.
type Vendor int

// Supported vendors.
const (
	VendorUnknown Vendor = iota
	VendorCisco
	VendorJuniper
)

// String implements fmt.Stringer.
func (v Vendor) String() string {
	switch v {
	case VendorCisco:
		return "cisco"
	case VendorJuniper:
		return "juniper"
	default:
		return "unknown"
	}
}

// Device is the vendor-neutral model of a single router configuration.
type Device struct {
	Hostname string
	Vendor   Vendor

	Interfaces []*Interface
	BGP        *BGP
	OSPF       *OSPF

	PrefixLists    map[string]*PrefixList
	CommunityLists map[string]*CommunityList
	RoutePolicies  map[string]*RoutePolicy

	StaticRoutes []StaticRoute
}

// NewDevice returns a Device with all maps initialized.
func NewDevice(hostname string, vendor Vendor) *Device {
	return &Device{
		Hostname:       hostname,
		Vendor:         vendor,
		PrefixLists:    make(map[string]*PrefixList),
		CommunityLists: make(map[string]*CommunityList),
		RoutePolicies:  make(map[string]*RoutePolicy),
	}
}

// Interface returns the named interface, or nil.
func (d *Device) Interface(name string) *Interface {
	for _, ifc := range d.Interfaces {
		if ifc.Name == name {
			return ifc
		}
	}
	return nil
}

// EnsureInterface returns the named interface, creating it if absent.
func (d *Device) EnsureInterface(name string) *Interface {
	if ifc := d.Interface(name); ifc != nil {
		return ifc
	}
	ifc := &Interface{Name: name}
	d.Interfaces = append(d.Interfaces, ifc)
	return ifc
}

// EnsureBGP returns the device's BGP process, creating it if absent.
func (d *Device) EnsureBGP(asn uint32) *BGP {
	if d.BGP == nil {
		d.BGP = &BGP{ASN: asn}
	}
	return d.BGP
}

// EnsureOSPF returns the device's OSPF process, creating it if absent.
func (d *Device) EnsureOSPF(process int) *OSPF {
	if d.OSPF == nil {
		d.OSPF = &OSPF{ProcessID: process}
	}
	return d.OSPF
}

// PolicyNames returns route-policy names in sorted order (for deterministic
// printing and diffing).
func (d *Device) PolicyNames() []string {
	names := make([]string, 0, len(d.RoutePolicies))
	for n := range d.RoutePolicies {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// PrefixListNames returns prefix-list names in sorted order.
func (d *Device) PrefixListNames() []string {
	names := make([]string, 0, len(d.PrefixLists))
	for n := range d.PrefixLists {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// CommunityListNames returns community-list names in sorted order.
func (d *Device) CommunityListNames() []string {
	names := make([]string, 0, len(d.CommunityLists))
	for n := range d.CommunityLists {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Clone returns a deep copy of the device. The simulated LLM mutates clones
// so that error injection never corrupts the caller's golden model.
func (d *Device) Clone() *Device {
	c := NewDevice(d.Hostname, d.Vendor)
	for _, ifc := range d.Interfaces {
		dup := *ifc
		c.Interfaces = append(c.Interfaces, &dup)
	}
	if d.BGP != nil {
		b := *d.BGP
		b.Networks = append([]Prefix(nil), d.BGP.Networks...)
		b.Neighbors = nil
		for _, n := range d.BGP.Neighbors {
			dup := *n
			b.Neighbors = append(b.Neighbors, &dup)
		}
		b.Redistribute = append([]Redistribution(nil), d.BGP.Redistribute...)
		c.BGP = &b
	}
	if d.OSPF != nil {
		o := *d.OSPF
		o.Networks = append([]OSPFNetwork(nil), d.OSPF.Networks...)
		o.PassiveInterfaces = append([]string(nil), d.OSPF.PassiveInterfaces...)
		c.OSPF = &o
	}
	for name, pl := range d.PrefixLists {
		dup := *pl
		dup.Entries = append([]PrefixListEntry(nil), pl.Entries...)
		c.PrefixLists[name] = &dup
	}
	for name, cl := range d.CommunityLists {
		dup := *cl
		dup.Entries = append([]CommunityListEntry(nil), cl.Entries...)
		c.CommunityLists[name] = &dup
	}
	for name, rp := range d.RoutePolicies {
		c.RoutePolicies[name] = rp.Clone()
	}
	c.StaticRoutes = append([]StaticRoute(nil), d.StaticRoutes...)
	return c
}

// Interface is a router interface with its address and OSPF attributes.
type Interface struct {
	Name        string
	Description string
	Address     Prefix // host address with subnet length
	HasAddress  bool
	Shutdown    bool

	// OSPF link attributes (paper: "Different OSPF link cost",
	// "Different OSPF passive interface setting").
	OSPFCost    int // 0 = unset
	OSPFPassive bool
	OSPFArea    int64 // -1 = not enabled
}

// StaticRoute is a static route to a next hop.
type StaticRoute struct {
	Prefix  Prefix
	NextHop uint32
}

// BGP models a single BGP process.
type BGP struct {
	ASN          uint32
	RouterID     uint32 // 0 = unset
	Networks     []Prefix
	Neighbors    []*BGPNeighbor
	Redistribute []Redistribution
}

// Neighbor returns the neighbor with the given peer address, or nil.
func (b *BGP) Neighbor(addr uint32) *BGPNeighbor {
	for _, n := range b.Neighbors {
		if n.Addr == addr {
			return n
		}
	}
	return nil
}

// EnsureNeighbor returns the neighbor with the given address, creating it if
// absent.
func (b *BGP) EnsureNeighbor(addr uint32) *BGPNeighbor {
	if n := b.Neighbor(addr); n != nil {
		return n
	}
	n := &BGPNeighbor{Addr: addr}
	b.Neighbors = append(b.Neighbors, n)
	return n
}

// HasNetwork reports whether the process originates the given prefix.
func (b *BGP) HasNetwork(p Prefix) bool {
	for _, n := range b.Networks {
		if n == p {
			return true
		}
	}
	return false
}

// BGPNeighbor is one BGP peering session.
type BGPNeighbor struct {
	Addr        uint32
	RemoteAS    uint32
	LocalAS     uint32 // 0 = unset (paper: "Missing BGP local-as attribute")
	Description string

	ImportPolicy string // route-map / policy-statement applied on ingress
	ExportPolicy string // route-map / policy-statement applied on egress
}

// RedistProtocol enumerates source protocols for BGP redistribution.
type RedistProtocol int

// Redistribution source protocols.
const (
	RedistConnected RedistProtocol = iota
	RedistStatic
	RedistOSPF
	RedistBGP
)

// String implements fmt.Stringer.
func (p RedistProtocol) String() string {
	switch p {
	case RedistConnected:
		return "connected"
	case RedistStatic:
		return "static"
	case RedistOSPF:
		return "ospf"
	case RedistBGP:
		return "bgp"
	default:
		return fmt.Sprintf("redist(%d)", int(p))
	}
}

// ParseRedistProtocol parses a protocol keyword.
func ParseRedistProtocol(s string) (RedistProtocol, error) {
	switch s {
	case "connected", "direct":
		return RedistConnected, nil
	case "static":
		return RedistStatic, nil
	case "ospf":
		return RedistOSPF, nil
	case "bgp":
		return RedistBGP, nil
	default:
		return 0, fmt.Errorf("unknown redistribution protocol %q", s)
	}
}

// Redistribution is a "redistribute <proto> route-map <policy>" statement.
type Redistribution struct {
	Protocol RedistProtocol
	Policy   string // optional route map / policy name
}

// OSPF models a single OSPF process.
type OSPF struct {
	ProcessID         int
	RouterID          uint32
	Networks          []OSPFNetwork
	PassiveInterfaces []string
}

// OSPFNetwork is a "network <prefix> area <n>" statement.
type OSPFNetwork struct {
	Prefix Prefix
	Area   int64
}

// IsPassive reports whether the named interface is in the passive list.
func (o *OSPF) IsPassive(ifc string) bool {
	for _, p := range o.PassiveInterfaces {
		if p == ifc {
			return true
		}
	}
	return false
}
