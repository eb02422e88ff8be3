package cisco

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/netcfg"
)

// This file keeps the text path's earlier forms as differential oracles:
// the fmt printer and the line loop that split the text with
// strings.Split and each line with strings.Fields. FuzzPrintReference and
// FuzzParseReference hold Print and Parse to them.

// refParse is Parse as it split its text: every line by strings.Split, and
// every line's words by strings.Fields, into the same handlers.
func refParse(text string) (*netcfg.Device, []netcfg.ParseWarning) {
	p := &parser{dev: netcfg.NewDevice("", netcfg.VendorCisco)}
	for i, raw := range strings.Split(text, "\n") {
		line := strings.TrimSpace(raw)
		lineNo := i + 1
		if line == "" || strings.HasPrefix(line, "!") {
			if line == "!" {
				p.mode = modeTop
				p.curIfc = nil
				p.curMap = nil
			}
			continue
		}
		p.parseLine(lineNo, line, strings.Fields(line))
	}
	p.finish()
	return p.dev, p.warnings
}

// refPrint is Print as fmt.Fprintf wrote it: the reference the
// single-buffer printer must match byte for byte.
func refPrint(d *netcfg.Device) string {
	var b strings.Builder
	if d.Hostname != "" {
		fmt.Fprintf(&b, "hostname %s\n!\n", d.Hostname)
	}
	for _, ifc := range d.Interfaces {
		refPrintInterface(&b, ifc)
	}
	if d.OSPF != nil {
		refPrintOSPF(&b, d.OSPF)
	}
	if d.BGP != nil {
		refPrintBGP(&b, d.BGP)
	}
	for _, name := range d.PrefixListNames() {
		refPrintPrefixList(&b, d.PrefixLists[name])
	}
	for _, name := range d.CommunityListNames() {
		refPrintCommunityList(&b, d.CommunityLists[name])
	}
	for _, sr := range d.StaticRoutes {
		fmt.Fprintf(&b, "ip route %s %s %s\n", netcfg.FormatIP(sr.Prefix.Addr),
			sr.Prefix.MaskString(), netcfg.FormatIP(sr.NextHop))
	}
	if len(d.StaticRoutes) > 0 {
		b.WriteString("!\n")
	}
	for _, name := range d.PolicyNames() {
		refPrintRouteMap(&b, d.RoutePolicies[name])
	}
	return b.String()
}

func refPrintInterface(b *strings.Builder, ifc *netcfg.Interface) {
	fmt.Fprintf(b, "interface %s\n", ifc.Name)
	if ifc.Description != "" {
		fmt.Fprintf(b, " description %s\n", ifc.Description)
	}
	if ifc.HasAddress {
		fmt.Fprintf(b, " ip address %s %s\n", netcfg.FormatIP(ifc.Address.Addr), ifc.Address.MaskString())
	}
	if ifc.OSPFCost > 0 {
		fmt.Fprintf(b, " ip ospf cost %d\n", ifc.OSPFCost)
	}
	if ifc.Shutdown {
		b.WriteString(" shutdown\n")
	}
	b.WriteString("!\n")
}

func refPrintOSPF(b *strings.Builder, o *netcfg.OSPF) {
	fmt.Fprintf(b, "router ospf %d\n", o.ProcessID)
	if o.RouterID != 0 {
		fmt.Fprintf(b, " router-id %s\n", netcfg.FormatIP(o.RouterID))
	}
	for _, p := range o.PassiveInterfaces {
		fmt.Fprintf(b, " passive-interface %s\n", p)
	}
	for _, n := range o.Networks {
		fmt.Fprintf(b, " network %s %s area %d\n",
			netcfg.FormatIP(n.Prefix.Addr), n.Prefix.WildcardString(), n.Area)
	}
	b.WriteString("!\n")
}

func refPrintBGP(b *strings.Builder, bgp *netcfg.BGP) {
	fmt.Fprintf(b, "router bgp %d\n", bgp.ASN)
	if bgp.RouterID != 0 {
		fmt.Fprintf(b, " bgp router-id %s\n", netcfg.FormatIP(bgp.RouterID))
	}
	for _, n := range bgp.Networks {
		fmt.Fprintf(b, " network %s mask %s\n", netcfg.FormatIP(n.Addr), n.MaskString())
	}
	for _, r := range bgp.Redistribute {
		if r.Policy != "" {
			fmt.Fprintf(b, " redistribute %s route-map %s\n", r.Protocol, r.Policy)
		} else {
			fmt.Fprintf(b, " redistribute %s\n", r.Protocol)
		}
	}
	for _, n := range bgp.Neighbors {
		addr := netcfg.FormatIP(n.Addr)
		if n.RemoteAS != 0 {
			fmt.Fprintf(b, " neighbor %s remote-as %d\n", addr, n.RemoteAS)
		}
		if n.LocalAS != 0 && n.LocalAS != bgp.ASN {
			fmt.Fprintf(b, " neighbor %s local-as %d\n", addr, n.LocalAS)
		}
		if n.Description != "" {
			fmt.Fprintf(b, " neighbor %s description %s\n", addr, n.Description)
		}
		if n.ImportPolicy != "" {
			fmt.Fprintf(b, " neighbor %s route-map %s in\n", addr, n.ImportPolicy)
		}
		if n.ExportPolicy != "" {
			fmt.Fprintf(b, " neighbor %s route-map %s out\n", addr, n.ExportPolicy)
		}
	}
	b.WriteString("!\n")
}

func refPrintPrefixList(b *strings.Builder, pl *netcfg.PrefixList) {
	for _, e := range pl.Entries {
		fmt.Fprintf(b, "ip prefix-list %s seq %d %s %s", pl.Name, e.Seq, e.Action, e.Prefix)
		if e.Ge > 0 {
			fmt.Fprintf(b, " ge %d", e.Ge)
		}
		if e.Le > 0 {
			fmt.Fprintf(b, " le %d", e.Le)
		}
		b.WriteString("\n")
	}
	b.WriteString("!\n")
}

// printCommunityList and printRouteMap emit nothing for an empty object:
// IOS has no syntax for one, and a bare "!" would not parse back to it. The
// parser does produce them (a community-list line whose value is invalid
// still names its list; a route-map line whose sequence number is invalid
// still names its map), so printing them would break the Print∘Parse
// fixpoint.
func refPrintCommunityList(b *strings.Builder, cl *netcfg.CommunityList) {
	if len(cl.Entries) == 0 {
		return
	}
	for _, e := range cl.Entries {
		if _, err := strconv.Atoi(cl.Name); err == nil {
			fmt.Fprintf(b, "ip community-list %s %s %s\n", cl.Name, e.Action, e.Community)
		} else {
			fmt.Fprintf(b, "ip community-list standard %s %s %s\n", cl.Name, e.Action, e.Community)
		}
	}
	b.WriteString("!\n")
}

func refPrintRouteMap(b *strings.Builder, rp *netcfg.RoutePolicy) {
	if len(rp.Clauses) == 0 {
		return
	}
	for _, cl := range rp.Clauses {
		fmt.Fprintf(b, "route-map %s %s %d\n", rp.Name, cl.Action, cl.Seq)
		for _, m := range cl.Matches {
			switch m := m.(type) {
			case netcfg.MatchPrefixList:
				fmt.Fprintf(b, " match ip address prefix-list %s\n", m.List)
			case netcfg.MatchCommunityList:
				fmt.Fprintf(b, " match community %s\n", m.List)
			case netcfg.MatchCommunityLiteral:
				// Invalid on purpose: the simulated LLM emits this form and
				// the syntax checker must flag it.
				fmt.Fprintf(b, " match community %s\n", m.Community)
			case netcfg.MatchProtocol:
				fmt.Fprintf(b, " match source-protocol %s\n", m.Protocol)
			case netcfg.MatchASPathRegex:
				fmt.Fprintf(b, " match as-path %s\n", m.Regex)
			}
		}
		for _, s := range cl.Sets {
			switch s := s.(type) {
			case netcfg.SetMED:
				fmt.Fprintf(b, " set metric %d\n", s.MED)
			case netcfg.SetLocalPref:
				fmt.Fprintf(b, " set local-preference %d\n", s.Pref)
			case netcfg.SetCommunity:
				parts := make([]string, len(s.Communities))
				for i, c := range s.Communities {
					parts[i] = c.String()
				}
				if s.Additive {
					fmt.Fprintf(b, " set community %s additive\n", strings.Join(parts, " "))
				} else {
					fmt.Fprintf(b, " set community %s\n", strings.Join(parts, " "))
				}
			case netcfg.SetNextHop:
				fmt.Fprintf(b, " set ip next-hop %s\n", netcfg.FormatIP(s.Hop))
			}
		}
	}
	b.WriteString("!\n")
}
