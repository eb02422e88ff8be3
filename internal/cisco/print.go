package cisco

import (
	"strconv"
	"strings"

	"repro/internal/netcfg"
)

// Print renders a device in Cisco IOS syntax. The output is deterministic
// (sorted names, stable ordering) so that golden tests and round-trip
// properties hold. It is written into one builder, sized up front from
// the device's counts, through netcfg's append formatters.
func Print(d *netcfg.Device) string {
	var p printer
	p.Grow(sizeHint(d))
	if d.Hostname != "" {
		p.put("hostname ", d.Hostname, "\n!\n")
	}
	for _, ifc := range d.Interfaces {
		p.printInterface(ifc)
	}
	if d.OSPF != nil {
		p.printOSPF(d.OSPF)
	}
	if d.BGP != nil {
		p.printBGP(d.BGP)
	}
	for _, name := range d.PrefixListNames() {
		p.printPrefixList(d.PrefixLists[name])
	}
	for _, name := range d.CommunityListNames() {
		p.printCommunityList(d.CommunityLists[name])
	}
	for _, sr := range d.StaticRoutes {
		p.WriteString("ip route ")
		p.ip(sr.Prefix.Addr)
		p.WriteByte(' ')
		p.ip(netcfg.Mask(sr.Prefix.Len))
		p.WriteByte(' ')
		p.ip(sr.NextHop)
		p.WriteByte('\n')
	}
	if len(d.StaticRoutes) > 0 {
		p.WriteString("!\n")
	}
	for _, name := range d.PolicyNames() {
		p.printRouteMap(d.RoutePolicies[name])
	}
	return p.String()
}

// printer is the builder Print writes into, with scratch space for the
// numbers it formats.
type printer struct {
	strings.Builder
	scratch [24]byte
}

func (p *printer) put(parts ...string) {
	for _, s := range parts {
		p.WriteString(s)
	}
}

func (p *printer) ip(v uint32) { p.Write(netcfg.AppendIP(p.scratch[:0], v)) }

func (p *printer) int(v int64) { p.Write(strconv.AppendInt(p.scratch[:0], v, 10)) }

func (p *printer) prefix(x netcfg.Prefix) { p.Write(x.Append(p.scratch[:0])) }

func (p *printer) community(c netcfg.Community) { p.Write(c.Append(p.scratch[:0])) }

// sizeHint estimates the length of Print's text from the device's
// counts and names, taking numbers at their usual widths; the builder
// grows if the guess falls short.
func sizeHint(d *netcfg.Device) int {
	n := 16 + len(d.Hostname)
	for _, ifc := range d.Interfaces {
		n += 56 + len(ifc.Name) + len(ifc.Description)
	}
	if o := d.OSPF; o != nil {
		n += 48 + 24*len(o.PassiveInterfaces) + 48*len(o.Networks)
	}
	if b := d.BGP; b != nil {
		n += 48 + 40*len(b.Networks) + 40*len(b.Redistribute)
		for _, nb := range b.Neighbors {
			n += 40 + len(nb.Description) + len(nb.ImportPolicy) + len(nb.ExportPolicy)
			for _, s := range []string{nb.Description, nb.ImportPolicy, nb.ExportPolicy} {
				if s != "" {
					n += 32
				}
			}
		}
	}
	for name, pl := range d.PrefixLists {
		n += 2 + (56+len(name))*len(pl.Entries)
	}
	for name, cl := range d.CommunityLists {
		n += 2 + (36+len(name))*len(cl.Entries)
	}
	n += 2 + 48*len(d.StaticRoutes)
	for name, rp := range d.RoutePolicies {
		n += 2
		for _, cl := range rp.Clauses {
			n += 22 + len(name) + 24*len(cl.Matches) + 28*len(cl.Sets)
		}
	}
	return n
}

func (p *printer) printInterface(ifc *netcfg.Interface) {
	p.put("interface ", ifc.Name, "\n")
	if ifc.Description != "" {
		p.put(" description ", ifc.Description, "\n")
	}
	if ifc.HasAddress {
		p.WriteString(" ip address ")
		p.ip(ifc.Address.Addr)
		p.WriteByte(' ')
		p.ip(netcfg.Mask(ifc.Address.Len))
		p.WriteByte('\n')
	}
	if ifc.OSPFCost > 0 {
		p.WriteString(" ip ospf cost ")
		p.int(int64(ifc.OSPFCost))
		p.WriteByte('\n')
	}
	if ifc.Shutdown {
		p.WriteString(" shutdown\n")
	}
	p.WriteString("!\n")
}

func (p *printer) printOSPF(o *netcfg.OSPF) {
	p.WriteString("router ospf ")
	p.int(int64(o.ProcessID))
	p.WriteByte('\n')
	if o.RouterID != 0 {
		p.WriteString(" router-id ")
		p.ip(o.RouterID)
		p.WriteByte('\n')
	}
	for _, name := range o.PassiveInterfaces {
		p.put(" passive-interface ", name, "\n")
	}
	for _, n := range o.Networks {
		p.WriteString(" network ")
		p.ip(n.Prefix.Addr)
		p.WriteByte(' ')
		p.ip(^netcfg.Mask(n.Prefix.Len))
		p.WriteString(" area ")
		p.int(n.Area)
		p.WriteByte('\n')
	}
	p.WriteString("!\n")
}

func (p *printer) printBGP(bgp *netcfg.BGP) {
	p.WriteString("router bgp ")
	p.int(int64(bgp.ASN))
	p.WriteByte('\n')
	if bgp.RouterID != 0 {
		p.WriteString(" bgp router-id ")
		p.ip(bgp.RouterID)
		p.WriteByte('\n')
	}
	for _, n := range bgp.Networks {
		p.WriteString(" network ")
		p.ip(n.Addr)
		p.WriteString(" mask ")
		p.ip(netcfg.Mask(n.Len))
		p.WriteByte('\n')
	}
	for _, r := range bgp.Redistribute {
		p.put(" redistribute ", r.Protocol.String())
		if r.Policy != "" {
			p.put(" route-map ", r.Policy)
		}
		p.WriteByte('\n')
	}
	for _, n := range bgp.Neighbors {
		if n.RemoteAS != 0 {
			p.neighbor(n.Addr, " remote-as ")
			p.int(int64(n.RemoteAS))
			p.WriteByte('\n')
		}
		if n.LocalAS != 0 && n.LocalAS != bgp.ASN {
			p.neighbor(n.Addr, " local-as ")
			p.int(int64(n.LocalAS))
			p.WriteByte('\n')
		}
		if n.Description != "" {
			p.neighbor(n.Addr, " description ")
			p.put(n.Description, "\n")
		}
		if n.ImportPolicy != "" {
			p.neighbor(n.Addr, " route-map ")
			p.put(n.ImportPolicy, " in\n")
		}
		if n.ExportPolicy != "" {
			p.neighbor(n.Addr, " route-map ")
			p.put(n.ExportPolicy, " out\n")
		}
	}
	p.WriteString("!\n")
}

// neighbor starts a " neighbor <addr><attr>" line.
func (p *printer) neighbor(addr uint32, attr string) {
	p.WriteString(" neighbor ")
	p.ip(addr)
	p.WriteString(attr)
}

func (p *printer) printPrefixList(pl *netcfg.PrefixList) {
	for _, e := range pl.Entries {
		p.put("ip prefix-list ", pl.Name, " seq ")
		p.int(int64(e.Seq))
		p.put(" ", e.Action.String(), " ")
		p.prefix(e.Prefix)
		if e.Ge > 0 {
			p.WriteString(" ge ")
			p.int(int64(e.Ge))
		}
		if e.Le > 0 {
			p.WriteString(" le ")
			p.int(int64(e.Le))
		}
		p.WriteByte('\n')
	}
	p.WriteString("!\n")
}

// printCommunityList and printRouteMap emit nothing for an empty object:
// IOS has no syntax for one, and a bare "!" would not parse back to it. The
// parser does produce them (a community-list line whose value is invalid
// still names its list; a route-map line whose sequence number is invalid
// still names its map), so printing them would break the Print∘Parse
// fixpoint.
func (p *printer) printCommunityList(cl *netcfg.CommunityList) {
	if len(cl.Entries) == 0 {
		return
	}
	kind := "ip community-list standard "
	if _, err := strconv.Atoi(cl.Name); err == nil {
		kind = "ip community-list "
	}
	for _, e := range cl.Entries {
		p.put(kind, cl.Name, " ", e.Action.String(), " ")
		p.community(e.Community)
		p.WriteByte('\n')
	}
	p.WriteString("!\n")
}

func (p *printer) printRouteMap(rp *netcfg.RoutePolicy) {
	if len(rp.Clauses) == 0 {
		return
	}
	for _, cl := range rp.Clauses {
		p.put("route-map ", rp.Name, " ", cl.Action.String(), " ")
		p.int(int64(cl.Seq))
		p.WriteByte('\n')
		for _, m := range cl.Matches {
			switch m := m.(type) {
			case netcfg.MatchPrefixList:
				p.put(" match ip address prefix-list ", m.List, "\n")
			case netcfg.MatchCommunityList:
				p.put(" match community ", m.List, "\n")
			case netcfg.MatchCommunityLiteral:
				// Invalid on purpose: the simulated LLM emits this form and
				// the syntax checker must flag it.
				p.WriteString(" match community ")
				p.community(m.Community)
				p.WriteByte('\n')
			case netcfg.MatchProtocol:
				p.put(" match source-protocol ", m.Protocol.String(), "\n")
			case netcfg.MatchASPathRegex:
				p.put(" match as-path ", m.Regex, "\n")
			}
		}
		for _, s := range cl.Sets {
			switch s := s.(type) {
			case netcfg.SetMED:
				p.WriteString(" set metric ")
				p.int(int64(s.MED))
				p.WriteByte('\n')
			case netcfg.SetLocalPref:
				p.WriteString(" set local-preference ")
				p.int(int64(s.Pref))
				p.WriteByte('\n')
			case netcfg.SetCommunity:
				p.WriteString(" set community ")
				for i, c := range s.Communities {
					if i > 0 {
						p.WriteByte(' ')
					}
					p.community(c)
				}
				if s.Additive {
					p.WriteString(" additive")
				}
				p.WriteByte('\n')
			case netcfg.SetNextHop:
				p.WriteString(" set ip next-hop ")
				p.ip(s.Hop)
				p.WriteByte('\n')
			}
		}
	}
	p.WriteString("!\n")
}
