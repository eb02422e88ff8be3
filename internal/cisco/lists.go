package cisco

import (
	"math"
	"strings"

	"repro/internal/netcfg"
)

func (p *parser) parsePrefixList(lineNo int, line string, fields []string) {
	// ip prefix-list NAME [seq N] permit|deny P [ge N] [le M]
	rest := fields[2:]
	if len(rest) < 3 {
		p.warn(lineNo, line, "incomplete prefix-list entry")
		return
	}
	name := rest[0]
	rest = rest[1:]
	entry := netcfg.PrefixListEntry{Seq: 0}
	if strings.ToLower(rest[0]) == "seq" {
		if len(rest) < 2 {
			p.warn(lineNo, line, "prefix-list seq expects a number")
			return
		}
		n, ok := number(rest[1], math.MaxUint32)
		if !ok {
			p.warn(lineNo, line, "invalid prefix-list sequence number")
			return
		}
		entry.Seq = n
		rest = rest[2:]
	}
	if len(rest) < 2 {
		p.warn(lineNo, line, "prefix-list entry missing action or prefix")
		return
	}
	switch strings.ToLower(rest[0]) {
	case "permit":
		entry.Action = netcfg.Permit
	case "deny":
		entry.Action = netcfg.Deny
	default:
		p.warn(lineNo, line, "prefix-list action must be permit or deny")
		return
	}
	pfx, err := netcfg.ParsePrefix(rest[1])
	if err != nil {
		p.warn(lineNo, line, "invalid prefix in prefix-list entry")
		return
	}
	entry.Prefix = pfx
	rest = rest[2:]
	for len(rest) >= 2 {
		n, ok := number(rest[1], 32)
		if !ok {
			p.warn(lineNo, line, "invalid prefix-length bound in prefix-list entry")
			return
		}
		switch strings.ToLower(rest[0]) {
		case "ge":
			entry.Ge = n
		case "le":
			entry.Le = n
		default:
			p.warn(lineNo, line, "unexpected token in prefix-list entry")
			return
		}
		rest = rest[2:]
	}
	if len(rest) != 0 {
		p.warn(lineNo, line, "trailing tokens in prefix-list entry")
		return
	}
	pl := p.dev.PrefixLists[name]
	if pl == nil {
		pl = &netcfg.PrefixList{Name: name}
		p.dev.PrefixLists[name] = pl
	}
	if entry.Seq == 0 {
		entry.Seq = 5 * (len(pl.Entries) + 1)
	}
	pl.Entries = append(pl.Entries, entry)
}

func (p *parser) parseCommunityList(lineNo int, line string, fields []string) {
	// ip community-list [standard|expanded] NAME permit|deny COMM...
	rest := fields[2:]
	if len(rest) > 0 {
		switch strings.ToLower(rest[0]) {
		case "standard":
			rest = rest[1:]
		case "expanded":
			p.warn(lineNo, line, "expanded community-lists are not supported")
			return
		}
	}
	if len(rest) < 3 {
		p.warn(lineNo, line, "incomplete community-list entry")
		return
	}
	name := rest[0]
	var action netcfg.Action
	switch strings.ToLower(rest[1]) {
	case "permit":
		action = netcfg.Permit
	case "deny":
		action = netcfg.Deny
	default:
		p.warn(lineNo, line, "community-list action must be permit or deny")
		return
	}
	cl := p.dev.CommunityLists[name]
	if cl == nil {
		cl = &netcfg.CommunityList{Name: name}
		p.dev.CommunityLists[name] = cl
	}
	for _, tok := range rest[2:] {
		c, err := netcfg.ParseCommunity(tok)
		if err != nil {
			// The paper's Table 3 syntax example: a community-list entry with
			// a regex (".+") instead of a community value.
			p.warn(lineNo, line, "invalid community value in community-list")
			return
		}
		cl.Entries = append(cl.Entries, netcfg.CommunityListEntry{Action: action, Community: c})
	}
}

func (p *parser) parseStaticRoute(lineNo int, line string, fields []string) {
	// ip route A.B.C.D M.M.M.M NEXTHOP
	if len(fields) != 5 {
		p.warn(lineNo, line, "static route expects 'ip route <addr> <mask> <next-hop>'")
		return
	}
	addr, err1 := netcfg.ParseIP(fields[2])
	mask, err2 := netcfg.ParseIP(fields[3])
	hop, err3 := netcfg.ParseIP(fields[4])
	if err1 != nil || err2 != nil || err3 != nil {
		p.warn(lineNo, line, "invalid address in static route")
		return
	}
	p.dev.StaticRoutes = append(p.dev.StaticRoutes, netcfg.StaticRoute{
		Prefix:  netcfg.NewPrefix(addr, maskLen(mask)),
		NextHop: hop,
	})
}

// Check parses the text and returns only the warnings, plus semantic lint
// warnings for constructs that parse but are invalid: literal-community
// matches and references to undefined lists.
func Check(text string) []netcfg.ParseWarning {
	_, _, checkWarns := ParseAndCheck(text)
	return checkWarns
}

// ParseAndCheck parses the text once and returns the device together with
// both warning feeds: the parser's own warnings and the full Check output
// (parse plus lint). Callers that need the IR and the syntax verdict for
// the same configuration revision — the parse cache in particular —
// avoid the second parse a separate Check call would cost.
func ParseAndCheck(text string) (dev *netcfg.Device, parseWarns, checkWarns []netcfg.ParseWarning) {
	dev, parseWarns = Parse(text)
	lint := Lint(dev)
	checkWarns = make([]netcfg.ParseWarning, 0, len(parseWarns)+len(lint))
	checkWarns = append(append(checkWarns, parseWarns...), lint...)
	return dev, parseWarns, checkWarns
}

// Lint reports IR-level problems that are syntax errors in spirit: a
// route-map clause matching a literal community (must use a community
// list), and references to prefix/community lists that are never defined.
func Lint(d *netcfg.Device) []netcfg.ParseWarning {
	var warns []netcfg.ParseWarning
	for _, name := range d.PolicyNames() {
		rp := d.RoutePolicies[name]
		for _, cl := range rp.Clauses {
			for _, m := range cl.Matches {
				switch m := m.(type) {
				case netcfg.MatchCommunityLiteral:
					warns = append(warns, netcfg.ParseWarning{
						Text: "route-map " + name + " / match community " + m.Community.String(),
						Reason: "match community must reference a community-list declared with " +
							"'ip community-list', not a literal community",
					})
				case netcfg.MatchCommunityList:
					if d.CommunityLists[m.List] == nil {
						warns = append(warns, netcfg.ParseWarning{
							Text:   "route-map " + name + " / match community " + m.List,
							Reason: "community-list " + m.List + " is not defined",
						})
					}
				case netcfg.MatchPrefixList:
					if d.PrefixLists[m.List] == nil {
						warns = append(warns, netcfg.ParseWarning{
							Text:   "route-map " + name + " / match ip address prefix-list " + m.List,
							Reason: "prefix-list " + m.List + " is not defined",
						})
					}
				}
			}
		}
	}
	if d.BGP != nil {
		for _, n := range d.BGP.Neighbors {
			for _, pol := range []string{n.ImportPolicy, n.ExportPolicy} {
				if pol != "" && d.RoutePolicies[pol] == nil {
					warns = append(warns, netcfg.ParseWarning{
						Text:   "neighbor " + netcfg.FormatIP(n.Addr) + " route-map " + pol,
						Reason: "route-map " + pol + " is not defined",
					})
				}
			}
			if n.RemoteAS == 0 {
				warns = append(warns, netcfg.ParseWarning{
					Text:   "neighbor " + netcfg.FormatIP(n.Addr),
					Reason: "neighbor has no remote-as",
				})
			}
		}
	}
	return warns
}
