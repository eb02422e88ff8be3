package juniper

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/netcfg"
)

// Parse parses Junos configuration text into the vendor-neutral IR.
// Anything unrecognized becomes a netcfg.ParseWarning; Parse never fails.
func Parse(text string) (*netcfg.Device, []netcfg.ParseWarning) {
	tree, warns := ParseTree(text)
	in := &interp{dev: netcfg.NewDevice("", netcfg.VendorJuniper), warnings: warns,
		terms: map[string]*termIndex{}}
	in.walkRoot(tree)
	for _, idx := range in.terms {
		if idx.unsorted {
			idx.rp.SortClauses()
		}
	}
	return in.dev, in.warnings
}

type interp struct {
	dev      *netcfg.Device
	warnings []netcfg.ParseWarning
	// terms indexes each policy-statement's clauses, by policy name, while
	// the text is walked.
	terms map[string]*termIndex
}

// termIndex indexes one policy-statement's clauses by sequence number, so
// a term finds its clause without a scan of the clauses before it.
type termIndex struct {
	rp    *netcfg.RoutePolicy
	bySeq map[int]*netcfg.PolicyClause
	// max is the highest sequence number so far.
	max int
	// unsorted is set once a clause arrived below max; Parse sorts such a
	// policy once, when the text ends.
	unsorted bool
}

func (in *interp) warn(n *Node, reason string) {
	in.warnings = append(in.warnings, netcfg.ParseWarning{Line: n.Line, Text: n.Text(), Reason: reason})
}

func (in *interp) walkRoot(root *Node) {
	for _, n := range root.Children {
		switch n.Key(0) {
		case "system":
			in.walkSystem(n)
		case "interfaces":
			in.walkInterfaces(n)
		case "routing-options":
			in.walkRoutingOptions(n)
		case "protocols":
			in.walkProtocols(n)
		case "policy-options":
			in.walkPolicyOptions(n)
		default:
			in.warn(n, "unknown top-level statement")
		}
	}
}

func (in *interp) walkSystem(sys *Node) {
	for _, n := range sys.Children {
		if n.Key(0) == "host-name" && len(n.Keys) == 2 {
			in.dev.Hostname = n.Key(1)
		} else {
			in.warn(n, "unsupported system statement")
		}
	}
}

func (in *interp) walkInterfaces(ifs *Node) {
	for _, phys := range ifs.Children {
		if !phys.Block {
			in.warn(phys, "expected interface block")
			continue
		}
		name := phys.Key(0)
		var desc string
		sawUnit := false
		for _, c := range phys.Children {
			switch c.Key(0) {
			case "description":
				desc = strings.Join(c.Keys[1:], " ")
			case "unit":
				sawUnit = true
				in.walkUnit(name, desc, c)
			case "disable":
				in.dev.EnsureInterface(name + ".0").Shutdown = true
			default:
				in.warn(c, "unsupported interface statement")
			}
		}
		if !sawUnit {
			ifc := in.dev.EnsureInterface(name + ".0")
			if desc != "" {
				ifc.Description = desc
			}
		}
	}
}

func (in *interp) walkUnit(phys, desc string, unit *Node) {
	unitNo := unit.Key(1)
	if unitNo == "" {
		in.warn(unit, "unit requires a number")
		unitNo = "0"
	}
	ifc := in.dev.EnsureInterface(phys + "." + unitNo)
	ifc.OSPFArea = -1
	if desc != "" {
		ifc.Description = desc
	}
	for _, c := range unit.Children {
		switch c.Key(0) {
		case "family":
			if c.Key(1) != "inet" {
				in.warn(c, "unsupported address family")
				continue
			}
			for _, f := range c.Children {
				if f.Key(0) == "address" && len(f.Keys) == 2 {
					p, err := netcfg.ParsePrefix(f.Key(1))
					if err != nil {
						in.warn(f, "invalid interface address")
						continue
					}
					// Keep the host address: Prefix stores the masked network,
					// so carry the full address via Addr and Len separately.
					addr, _ := netcfg.ParseIP(strings.SplitN(f.Key(1), "/", 2)[0])
					ifc.Address = netcfg.Prefix{Addr: addr, Len: p.Len}
					ifc.HasAddress = true
				} else {
					in.warn(f, "unsupported family inet statement")
				}
			}
		case "description":
			ifc.Description = strings.Join(c.Keys[1:], " ")
		default:
			in.warn(c, "unsupported unit statement")
		}
	}
}

func (in *interp) walkRoutingOptions(ro *Node) {
	for _, n := range ro.Children {
		switch n.Key(0) {
		case "router-id":
			id, err := netcfg.ParseIP(n.Key(1))
			if err != nil {
				in.warn(n, "invalid router-id")
				continue
			}
			if in.dev.BGP == nil {
				in.dev.BGP = &netcfg.BGP{}
			}
			in.dev.BGP.RouterID = id
		case "autonomous-system":
			asn, err := strconv.ParseUint(n.Key(1), 10, 32)
			if err != nil {
				in.warn(n, "invalid autonomous-system")
				continue
			}
			if in.dev.BGP == nil {
				in.dev.BGP = &netcfg.BGP{}
			}
			in.dev.BGP.ASN = uint32(asn)
		case "static":
			for _, r := range n.Children {
				if r.Key(0) == "route" && len(r.Keys) >= 2 {
					p, err := netcfg.ParsePrefix(r.Key(1))
					if err != nil {
						in.warn(r, "invalid static route prefix")
						continue
					}
					hopStr := ""
					if len(r.Keys) == 4 && r.Key(2) == "next-hop" {
						hopStr = r.Key(3)
					} else if nh := r.Child("next-hop"); nh != nil {
						hopStr = nh.Key(1)
					}
					hop, err := netcfg.ParseIP(hopStr)
					if err != nil {
						in.warn(r, "static route missing or invalid next-hop")
						continue
					}
					in.dev.StaticRoutes = append(in.dev.StaticRoutes, netcfg.StaticRoute{Prefix: p, NextHop: hop})
				} else {
					in.warn(r, "unsupported static statement")
				}
			}
		default:
			in.warn(n, "unsupported routing-options statement")
		}
	}
}

func (in *interp) walkProtocols(prot *Node) {
	for _, n := range prot.Children {
		switch n.Key(0) {
		case "bgp":
			in.walkBGP(n)
		case "ospf":
			in.walkOSPF(n)
		default:
			in.warn(n, "unsupported protocol")
		}
	}
}

func (in *interp) walkBGP(bgp *Node) {
	if in.dev.BGP == nil {
		in.dev.BGP = &netcfg.BGP{}
	}
	for _, g := range bgp.Children {
		if g.Key(0) != "group" {
			in.warn(g, "unsupported bgp statement (expected group)")
			continue
		}
		var defPeerAS, defLocalAS uint32
		var defImport, defExport string
		for _, c := range g.Children {
			switch c.Key(0) {
			case "type":
				// internal/external: accepted, not modelled
			case "peer-as":
				defPeerAS = in.parseASN(c)
			case "local-as":
				defLocalAS = in.parseASN(c)
			case "import":
				defImport = c.Key(1)
			case "export":
				defExport = c.Key(1)
			case "neighbor":
				in.walkNeighbor(c, defPeerAS, defLocalAS, defImport, defExport)
			default:
				in.warn(c, "unsupported bgp group statement")
			}
		}
	}
}

func (in *interp) parseASN(n *Node) uint32 {
	asn, err := strconv.ParseUint(n.Key(1), 10, 32)
	if err != nil {
		in.warn(n, "invalid AS number")
		return 0
	}
	return uint32(asn)
}

func (in *interp) walkNeighbor(nb *Node, peerAS, localAS uint32, imp, exp string) {
	addr, err := netcfg.ParseIP(nb.Key(1))
	if err != nil {
		in.warn(nb, "invalid neighbor address")
		return
	}
	n := in.dev.BGP.EnsureNeighbor(addr)
	n.RemoteAS, n.LocalAS = peerAS, localAS
	n.ImportPolicy, n.ExportPolicy = imp, exp
	for _, c := range nb.Children {
		switch c.Key(0) {
		case "peer-as":
			n.RemoteAS = in.parseASN(c)
		case "local-as":
			n.LocalAS = in.parseASN(c)
		case "import":
			n.ImportPolicy = c.Key(1)
		case "export":
			n.ExportPolicy = c.Key(1)
		case "description":
			n.Description = strings.Join(c.Keys[1:], " ")
		default:
			in.warn(c, "unsupported neighbor statement")
		}
	}
}

func (in *interp) walkOSPF(ospf *Node) {
	o := in.dev.EnsureOSPF(1)
	for _, a := range ospf.Children {
		if a.Key(0) != "area" {
			in.warn(a, "unsupported ospf statement")
			continue
		}
		area := parseArea(a.Key(1))
		for _, ifn := range a.Children {
			if ifn.Key(0) != "interface" {
				in.warn(ifn, "unsupported ospf area statement")
				continue
			}
			// A name without a unit means unit 0, as under interfaces.
			name := ifn.Key(1)
			if !strings.Contains(name, ".") {
				name += ".0"
			}
			if phys, unit := SplitIfcName(name); phys == "" || unit == "" {
				in.warn(ifn, "ospf interface requires a name and unit")
				continue
			}
			ifc := in.dev.EnsureInterface(name)
			ifc.OSPFArea = area
			for _, attr := range ifn.Children {
				switch attr.Key(0) {
				case "metric":
					cost, err := strconv.Atoi(attr.Key(1))
					if err != nil || cost < 0 {
						in.warn(attr, "invalid ospf metric")
						continue
					}
					ifc.OSPFCost = cost
				case "passive":
					ifc.OSPFPassive = true
					o.PassiveInterfaces = append(o.PassiveInterfaces, name)
				default:
					in.warn(attr, "unsupported ospf interface statement")
				}
			}
		}
	}
}

func parseArea(s string) int64 {
	if strings.Contains(s, ".") {
		if v, err := netcfg.ParseIP(s); err == nil {
			return int64(v)
		}
		return 0
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0
	}
	return v
}

func (in *interp) walkPolicyOptions(po *Node) {
	// First pass: communities and prefix-lists, so that policy-statement
	// references can resolve regardless of declaration order.
	for _, n := range po.Children {
		switch n.Key(0) {
		case "prefix-list":
			in.walkPrefixList(n)
		case "community":
			in.walkCommunity(n)
		}
	}
	for _, n := range po.Children {
		switch n.Key(0) {
		case "policy-statement":
			in.walkPolicyStatement(n)
		case "prefix-list", "community":
			// handled above
		default:
			in.warn(n, "unsupported policy-options statement")
		}
	}
}

func (in *interp) walkPrefixList(n *Node) {
	name := n.Key(1)
	if name == "" {
		in.warn(n, "prefix-list requires a name")
		return
	}
	pl := in.dev.PrefixLists[name]
	if pl == nil {
		pl = &netcfg.PrefixList{Name: name}
		in.dev.PrefixLists[name] = pl
	}
	for _, e := range n.Children {
		if len(e.Keys) != 1 {
			in.warn(e, "prefix-list entries must be bare prefixes")
			continue
		}
		p, err := netcfg.ParsePrefix(e.Key(0))
		if err != nil {
			// e.g. the invalid "1.2.3.0/24-32" form from the paper (§3.2):
			// Juniper prefix-lists cannot carry length ranges. Include the
			// list name so the prompt reads like Table 1's example
			// ("policy-options prefix-list our-networks 1.2.3.0/24-32").
			in.warnings = append(in.warnings, netcfg.ParseWarning{
				Line:   e.Line,
				Text:   "policy-options prefix-list " + name + " " + e.Key(0),
				Reason: "invalid prefix in prefix-list (length ranges are not valid here; use route-filter)",
			})
			continue
		}
		pl.Entries = append(pl.Entries, netcfg.PrefixListEntry{
			Seq: 5 * (len(pl.Entries) + 1), Action: netcfg.Permit, Prefix: p,
		})
	}
}

func (in *interp) walkCommunity(n *Node) {
	// community NAME members 100:1;
	if len(n.Keys) < 4 || n.Key(2) != "members" {
		in.warn(n, "community expects 'community <name> members <value>...'")
		return
	}
	// The community is defined by its first valid member: one without any
	// has no printable form ("members ;" does not parse).
	name := n.Key(1)
	for _, tok := range n.Keys[3:] {
		c, err := netcfg.ParseCommunity(tok)
		if err != nil {
			in.warn(n, "invalid community member")
			continue
		}
		cl := in.dev.CommunityLists[name]
		if cl == nil {
			cl = &netcfg.CommunityList{Name: name}
			in.dev.CommunityLists[name] = cl
		}
		cl.Entries = append(cl.Entries, netcfg.CommunityListEntry{Action: netcfg.Permit, Community: c})
	}
}

func (in *interp) walkPolicyStatement(n *Node) {
	name := n.Key(1)
	if name == "" {
		in.warn(n, "policy-statement requires a name")
		return
	}
	idx := in.terms[name]
	if idx == nil {
		idx = &termIndex{rp: &netcfg.RoutePolicy{Name: name}, bySeq: map[int]*netcfg.PolicyClause{}}
		in.dev.RoutePolicies[name] = idx.rp
		in.terms[name] = idx
	}
	for _, t := range n.Children {
		switch t.Key(0) {
		case "term":
			// A numeric name is the term's sequence number.
			seq, err := strconv.Atoi(t.Key(1))
			if err != nil {
				seq = idx.next()
			}
			in.walkTerm(idx.clause(seq), t)
		case "then":
			// top-level then (default action)
			in.applyThenKeys(idx.clause(idx.next()), t, t.Keys[1:])
		default:
			in.warn(t, "unsupported policy-statement construct")
		}
	}
}

// next returns the number of an unnumbered clause: 10 above every clause
// so far, so that it gets a clause of its own after all of them.
func (idx *termIndex) next() int {
	if len(idx.bySeq) == 0 {
		return 10
	}
	return idx.max + 10
}

// clause returns the policy's clause numbered seq, appending a new deny
// clause when there is none.
func (idx *termIndex) clause(seq int) *netcfg.PolicyClause {
	if cl := idx.bySeq[seq]; cl != nil {
		return cl
	}
	if len(idx.bySeq) > 0 && seq < idx.max {
		idx.unsorted = true
	} else {
		idx.max = seq
	}
	cl := &netcfg.PolicyClause{Seq: seq, Action: netcfg.Deny}
	idx.bySeq[seq] = cl
	idx.rp.Clauses = append(idx.rp.Clauses, cl)
	return cl
}

func (in *interp) walkTerm(cl *netcfg.PolicyClause, t *Node) {
	for _, c := range t.Children {
		switch c.Key(0) {
		case "from":
			in.walkFrom(cl, c)
		case "then":
			if len(c.Keys) > 1 {
				in.applyThenKeys(cl, c, c.Keys[1:])
			}
			for _, a := range c.Children {
				in.applyThenKeys(cl, a, a.Keys)
			}
		default:
			in.warn(c, "unsupported term construct")
		}
	}
}

func (in *interp) walkFrom(cl *netcfg.PolicyClause, from *Node) {
	stmts := from.Children
	if len(from.Keys) > 1 {
		stmts = append(stmts, &Node{Keys: from.Keys[1:], Line: from.Line})
	}
	for _, f := range stmts {
		switch f.Key(0) {
		case "prefix-list":
			cl.Matches = append(cl.Matches, netcfg.MatchPrefixList{List: f.Key(1)})
		case "community":
			if strings.Contains(f.Key(1), ":") {
				if c, err := netcfg.ParseCommunity(f.Key(1)); err == nil {
					cl.Matches = append(cl.Matches, netcfg.MatchCommunityLiteral{Community: c})
				}
				in.warn(f, "from community must reference a named community, not a literal")
				continue
			}
			cl.Matches = append(cl.Matches, netcfg.MatchCommunityList{List: f.Key(1)})
		case "protocol":
			proto, err := netcfg.ParseRedistProtocol(f.Key(1))
			if err != nil {
				in.warn(f, "unknown protocol in from clause")
				continue
			}
			cl.Matches = append(cl.Matches, netcfg.MatchProtocol{Protocol: proto})
		case "route-filter":
			in.walkRouteFilter(cl, f)
		case "as-path":
			cl.Matches = append(cl.Matches, netcfg.MatchASPathRegex{Regex: f.Key(1)})
		default:
			in.warn(f, "unsupported from condition")
		}
	}
}

func (in *interp) walkRouteFilter(cl *netcfg.PolicyClause, f *Node) {
	// route-filter P exact | orlonger | upto /N | prefix-length-range /a-/b
	p, err := netcfg.ParsePrefix(f.Key(1))
	if err != nil {
		in.warn(f, "invalid route-filter prefix")
		return
	}
	switch f.Key(2) {
	case "exact":
		cl.Matches = append(cl.Matches, netcfg.NewMatchRouteFilterExact(p))
	case "orlonger":
		cl.Matches = append(cl.Matches, netcfg.NewMatchRouteFilterOrLonger(p))
	case "upto":
		n, ok := parseSlashLen(f.Key(3))
		if !ok {
			in.warn(f, "route-filter upto expects /N")
			return
		}
		cl.Matches = append(cl.Matches, netcfg.MatchRouteFilter{Prefix: p, MinLen: p.Len, MaxLen: n})
	case "prefix-length-range":
		lo, hi, ok := parseLenRange(f.Key(3))
		if !ok {
			in.warn(f, "route-filter prefix-length-range expects /a-/b")
			return
		}
		cl.Matches = append(cl.Matches, netcfg.MatchRouteFilter{Prefix: p, MinLen: lo, MaxLen: hi})
	default:
		in.warn(f, "unsupported route-filter modifier")
	}
}

func parseSlashLen(s string) (int, bool) {
	if !strings.HasPrefix(s, "/") {
		return 0, false
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil || n < 0 || n > 32 {
		return 0, false
	}
	return n, true
}

func parseLenRange(s string) (lo, hi int, ok bool) {
	parts := strings.SplitN(s, "-", 2)
	if len(parts) != 2 {
		return 0, 0, false
	}
	lo, ok1 := parseSlashLen(parts[0])
	hi, ok2 := parseSlashLen(parts[1])
	if !ok1 || !ok2 || hi < lo {
		return 0, 0, false
	}
	return lo, hi, true
}

func (in *interp) applyThenKeys(cl *netcfg.PolicyClause, n *Node, keys []string) {
	if len(keys) == 0 {
		return
	}
	switch keys[0] {
	case "accept":
		cl.Action = netcfg.Permit
	case "reject":
		cl.Action = netcfg.Deny
	case "metric":
		if len(keys) != 2 {
			in.warn(n, "metric expects a value")
			return
		}
		v, err := strconv.Atoi(keys[1])
		if err != nil {
			in.warn(n, "invalid metric value")
			return
		}
		cl.Sets = append(cl.Sets, netcfg.SetMED{MED: v})
	case "local-preference":
		if len(keys) != 2 {
			in.warn(n, "local-preference expects a value")
			return
		}
		v, err := strconv.Atoi(keys[1])
		if err != nil {
			in.warn(n, "invalid local-preference value")
			return
		}
		cl.Sets = append(cl.Sets, netcfg.SetLocalPref{Pref: v})
	case "community":
		in.applyThenCommunity(cl, n, keys)
	case "next-hop":
		if len(keys) != 2 {
			in.warn(n, "next-hop expects an address")
			return
		}
		hop, err := netcfg.ParseIP(keys[1])
		if err != nil {
			in.warn(n, "invalid next-hop address")
			return
		}
		cl.Sets = append(cl.Sets, netcfg.SetNextHop{Hop: hop})
	default:
		in.warn(n, fmt.Sprintf("unsupported then action %q", keys[0]))
	}
}

func (in *interp) applyThenCommunity(cl *netcfg.PolicyClause, n *Node, keys []string) {
	// community add|set NAME
	if len(keys) != 3 {
		in.warn(n, "community action expects 'community add|set <name>'")
		return
	}
	additive := false
	switch keys[1] {
	case "add":
		additive = true
	case "set":
	default:
		in.warn(n, "unsupported community action (expected add or set)")
		return
	}
	comm := in.dev.CommunityLists[keys[2]]
	if comm == nil {
		in.warn(n, "community "+keys[2]+" is not defined")
		return
	}
	var members []netcfg.Community
	for _, e := range comm.Entries {
		members = append(members, e.Community)
	}
	cl.Sets = append(cl.Sets, netcfg.SetCommunity{Communities: members, Additive: additive})
}
