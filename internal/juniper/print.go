package juniper

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/netcfg"
)

// Print renders a device in Junos syntax. Output is deterministic.
//
// Redistribution entries (netcfg.BGP.Redistribute) are intentionally not
// printable in Junos: Juniper expresses redistribution through the same
// export policies that control BGP routes (paper §3.2, "Different
// Redistribution behavior into BGP"), so the translator must fold them into
// policy terms before printing.
func Print(d *netcfg.Device) string {
	var b strings.Builder
	if d.Hostname != "" {
		b.WriteString("system {\n")
		fmt.Fprintf(&b, "    host-name %s;\n", quoteName(d.Hostname))
		b.WriteString("}\n")
	}
	printInterfaces(&b, d)
	printRoutingOptions(&b, d)
	printProtocols(&b, d)
	printPolicyOptions(&b, d)
	return b.String()
}

// quoteName returns a name as one token of the lexer: in double quotes
// when it is empty or holds a character the lexer splits words at. No
// parsed name holds a double quote or a newline, which no token carries.
func quoteName(s string) string {
	if s == "" || strings.ContainsAny(s, " \t\r{};#") {
		return `"` + s + `"`
	}
	return s
}

// SplitIfcName splits a logical interface name ("ge-0/0/0.0") into its
// physical name and unit. Names without a dot default to unit 0.
func SplitIfcName(name string) (phys, unit string) {
	if i := strings.LastIndexByte(name, '.'); i >= 0 {
		return name[:i], name[i+1:]
	}
	return name, "0"
}

func printInterfaces(b *strings.Builder, d *netcfg.Device) {
	if len(d.Interfaces) == 0 {
		return
	}
	b.WriteString("interfaces {\n")
	// Group logical units under their physical interface, preserving the
	// device's interface order for the physical names.
	var physOrder []string
	units := map[string][]*netcfg.Interface{}
	for _, ifc := range d.Interfaces {
		phys, _ := SplitIfcName(ifc.Name)
		if _, ok := units[phys]; !ok {
			physOrder = append(physOrder, phys)
		}
		units[phys] = append(units[phys], ifc)
	}
	for _, phys := range physOrder {
		fmt.Fprintf(b, "    %s {\n", quoteName(phys))
		for _, ifc := range units[phys] {
			_, unit := SplitIfcName(ifc.Name)
			fmt.Fprintf(b, "        unit %s {\n", quoteName(unit))
			if ifc.Description != "" {
				fmt.Fprintf(b, "            description \"%s\";\n", ifc.Description)
			}
			if ifc.HasAddress {
				fmt.Fprintf(b, "            family inet {\n")
				fmt.Fprintf(b, "                address %s/%d;\n", netcfg.FormatIP(ifc.Address.Addr), ifc.Address.Len)
				fmt.Fprintf(b, "            }\n")
			}
			b.WriteString("        }\n")
		}
		b.WriteString("    }\n")
	}
	b.WriteString("}\n")
}

func printRoutingOptions(b *strings.Builder, d *netcfg.Device) {
	hasRO := len(d.StaticRoutes) > 0 || (d.BGP != nil && (d.BGP.RouterID != 0 || d.BGP.ASN != 0))
	if !hasRO {
		return
	}
	b.WriteString("routing-options {\n")
	if d.BGP != nil && d.BGP.RouterID != 0 {
		fmt.Fprintf(b, "    router-id %s;\n", netcfg.FormatIP(d.BGP.RouterID))
	}
	if d.BGP != nil && d.BGP.ASN != 0 {
		fmt.Fprintf(b, "    autonomous-system %d;\n", d.BGP.ASN)
	}
	if len(d.StaticRoutes) > 0 {
		b.WriteString("    static {\n")
		for _, r := range d.StaticRoutes {
			fmt.Fprintf(b, "        route %s next-hop %s;\n", r.Prefix, netcfg.FormatIP(r.NextHop))
		}
		b.WriteString("    }\n")
	}
	b.WriteString("}\n")
}

func printProtocols(b *strings.Builder, d *netcfg.Device) {
	hasBGP := d.BGP != nil && len(d.BGP.Neighbors) > 0
	hasOSPF := hasOSPFInterfaces(d)
	if !hasBGP && !hasOSPF {
		return
	}
	b.WriteString("protocols {\n")
	if hasBGP {
		b.WriteString("    bgp {\n")
		b.WriteString("        group ebgp {\n")
		b.WriteString("            type external;\n")
		for _, n := range d.BGP.Neighbors {
			fmt.Fprintf(b, "            neighbor %s {\n", netcfg.FormatIP(n.Addr))
			if n.Description != "" {
				fmt.Fprintf(b, "                description \"%s\";\n", n.Description)
			}
			if n.LocalAS != 0 {
				fmt.Fprintf(b, "                local-as %d;\n", n.LocalAS)
			}
			if n.RemoteAS != 0 {
				fmt.Fprintf(b, "                peer-as %d;\n", n.RemoteAS)
			}
			if n.ImportPolicy != "" {
				fmt.Fprintf(b, "                import %s;\n", quoteName(n.ImportPolicy))
			}
			if n.ExportPolicy != "" {
				fmt.Fprintf(b, "                export %s;\n", quoteName(n.ExportPolicy))
			}
			b.WriteString("            }\n")
		}
		b.WriteString("        }\n")
		b.WriteString("    }\n")
	}
	if hasOSPF {
		printOSPF(b, d)
	}
	b.WriteString("}\n")
}

func hasOSPFInterfaces(d *netcfg.Device) bool {
	for _, ifc := range d.Interfaces {
		if ifc.OSPFArea >= 0 {
			return true
		}
	}
	return false
}

func printOSPF(b *strings.Builder, d *netcfg.Device) {
	areas := map[int64][]*netcfg.Interface{}
	var areaOrder []int64
	for _, ifc := range d.Interfaces {
		if ifc.OSPFArea < 0 {
			continue
		}
		if _, ok := areas[ifc.OSPFArea]; !ok {
			areaOrder = append(areaOrder, ifc.OSPFArea)
		}
		areas[ifc.OSPFArea] = append(areas[ifc.OSPFArea], ifc)
	}
	sort.Slice(areaOrder, func(i, j int) bool { return areaOrder[i] < areaOrder[j] })
	b.WriteString("    ospf {\n")
	for _, area := range areaOrder {
		fmt.Fprintf(b, "        area %s {\n", netcfg.FormatIP(uint32(area)))
		for _, ifc := range areas[area] {
			fmt.Fprintf(b, "            interface %s {\n", quoteName(ifc.Name))
			if ifc.OSPFPassive {
				b.WriteString("                passive;\n")
			}
			if ifc.OSPFCost > 0 {
				fmt.Fprintf(b, "                metric %d;\n", ifc.OSPFCost)
			}
			b.WriteString("            }\n")
		}
		b.WriteString("        }\n")
	}
	b.WriteString("    }\n")
}

func printPolicyOptions(b *strings.Builder, d *netcfg.Device) {
	if len(d.PrefixLists) == 0 && len(d.CommunityLists) == 0 && len(d.RoutePolicies) == 0 {
		return
	}
	b.WriteString("policy-options {\n")
	for _, name := range d.PrefixListNames() {
		pl := d.PrefixLists[name]
		fmt.Fprintf(b, "    prefix-list %s {\n", quoteName(name))
		for _, e := range pl.Entries {
			fmt.Fprintf(b, "        %s;\n", e.Prefix)
		}
		b.WriteString("    }\n")
	}
	comms := newCommunityNamer(d)
	for _, name := range d.PolicyNames() {
		printPolicyStatement(b, d, d.RoutePolicies[name], comms)
	}
	for _, name := range comms.names() {
		fmt.Fprintf(b, "    community %s members %s;\n", quoteName(name), strings.Join(comms.members(name), " "))
	}
	b.WriteString("}\n")
}

// communityNamer maps sets of community values to named Junos communities,
// reusing the device's existing definitions and synthesizing names for
// literal sets that have none.
type communityNamer struct {
	dev    *netcfg.Device
	synth  map[string][]string // name -> members
	bySig  map[string]string   // signature -> name
	listed []string
}

func newCommunityNamer(d *netcfg.Device) *communityNamer {
	cn := &communityNamer{dev: d, synth: map[string][]string{}, bySig: map[string]string{}}
	for _, name := range d.CommunityListNames() {
		cl := d.CommunityLists[name]
		var members []string
		for _, e := range cl.Entries {
			if e.Action == netcfg.Permit {
				members = append(members, e.Community.String())
			}
		}
		sig := strings.Join(members, ",")
		if _, ok := cn.bySig[sig]; !ok {
			cn.bySig[sig] = name
		}
		cn.synth[name] = members
		cn.listed = append(cn.listed, name)
	}
	return cn
}

func (cn *communityNamer) nameFor(comms []netcfg.Community) string {
	members := make([]string, len(comms))
	for i, c := range comms {
		members[i] = c.String()
	}
	sig := strings.Join(members, ",")
	if name, ok := cn.bySig[sig]; ok {
		return name
	}
	name := "COMM_" + strings.ReplaceAll(strings.ReplaceAll(sig, ":", "_"), ",", "_")
	cn.bySig[sig] = name
	cn.synth[name] = members
	cn.listed = append(cn.listed, name)
	return name
}

func (cn *communityNamer) names() []string {
	out := append([]string(nil), cn.listed...)
	sort.Strings(out)
	return out
}

func (cn *communityNamer) members(name string) []string { return cn.synth[name] }

func printPolicyStatement(b *strings.Builder, d *netcfg.Device, rp *netcfg.RoutePolicy, comms *communityNamer) {
	fmt.Fprintf(b, "    policy-statement %s {\n", quoteName(rp.Name))
	for _, cl := range rp.Clauses {
		fmt.Fprintf(b, "        term %d {\n", cl.Seq)
		if len(cl.Matches) > 0 {
			b.WriteString("            from {\n")
			for _, m := range cl.Matches {
				switch m := m.(type) {
				case netcfg.MatchPrefixList:
					fmt.Fprintf(b, "                prefix-list %s;\n", quoteName(m.List))
				case netcfg.MatchCommunityList:
					fmt.Fprintf(b, "                community %s;\n", quoteName(m.List))
				case netcfg.MatchCommunityLiteral:
					fmt.Fprintf(b, "                community %s;\n", m.Community)
				case netcfg.MatchProtocol:
					fmt.Fprintf(b, "                protocol %s;\n", m.Protocol)
				case netcfg.MatchRouteFilter:
					printRouteFilter(b, m)
				case netcfg.MatchASPathRegex:
					// Quoted verbatim, as the lexer reads a quoted word: an
					// escape would be read back as part of the regex.
					fmt.Fprintf(b, "                as-path \"%s\";\n", m.Regex)
				}
			}
			b.WriteString("            }\n")
		}
		b.WriteString("            then {\n")
		for _, s := range cl.Sets {
			switch s := s.(type) {
			case netcfg.SetMED:
				fmt.Fprintf(b, "                metric %d;\n", s.MED)
			case netcfg.SetLocalPref:
				fmt.Fprintf(b, "                local-preference %d;\n", s.Pref)
			case netcfg.SetCommunity:
				verb := "set"
				if s.Additive {
					verb = "add"
				}
				fmt.Fprintf(b, "                community %s %s;\n", verb, quoteName(comms.nameFor(s.Communities)))
			case netcfg.SetNextHop:
				fmt.Fprintf(b, "                next-hop %s;\n", netcfg.FormatIP(s.Hop))
			}
		}
		if cl.Action == netcfg.Permit {
			b.WriteString("                accept;\n")
		} else {
			b.WriteString("                reject;\n")
		}
		b.WriteString("            }\n")
		b.WriteString("        }\n")
	}
	b.WriteString("    }\n")
}

func printRouteFilter(b *strings.Builder, m netcfg.MatchRouteFilter) {
	switch {
	case m.MinLen == m.Prefix.Len && m.MaxLen == m.Prefix.Len:
		fmt.Fprintf(b, "                route-filter %s exact;\n", m.Prefix)
	case m.MinLen == m.Prefix.Len && m.MaxLen == 32:
		fmt.Fprintf(b, "                route-filter %s orlonger;\n", m.Prefix)
	case m.MinLen == m.Prefix.Len:
		fmt.Fprintf(b, "                route-filter %s upto /%d;\n", m.Prefix, m.MaxLen)
	default:
		fmt.Fprintf(b, "                route-filter %s prefix-length-range /%d-/%d;\n", m.Prefix, m.MinLen, m.MaxLen)
	}
}
