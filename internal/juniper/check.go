package juniper

import (
	"repro/internal/netcfg"
)

// Check parses the text and returns all syntax and lint warnings, the
// Batfish-style "parse warnings" feed for the VPP loop's syntax stage.
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

// Lint reports IR-level problems: undefined list references, neighbors
// with no local AS (the paper's "Missing BGP local-as attribute" parse
// warning), and literal-community matches.
func Lint(d *netcfg.Device) []netcfg.ParseWarning {
	var warns []netcfg.ParseWarning
	for _, name := range d.PolicyNames() {
		rp := d.RoutePolicies[name]
		for _, cl := range rp.Clauses {
			for _, m := range cl.Matches {
				switch m := m.(type) {
				case netcfg.MatchCommunityLiteral:
					warns = append(warns, netcfg.ParseWarning{
						Text:   "policy-statement " + name + " / from community " + m.Community.String(),
						Reason: "from community must reference a named community",
					})
				case netcfg.MatchCommunityList:
					if d.CommunityLists[m.List] == nil {
						warns = append(warns, netcfg.ParseWarning{
							Text:   "policy-statement " + name + " / from community " + m.List,
							Reason: "community " + m.List + " is not defined",
						})
					}
				case netcfg.MatchPrefixList:
					if d.PrefixLists[m.List] == nil {
						warns = append(warns, netcfg.ParseWarning{
							Text:   "policy-statement " + name + " / from prefix-list " + m.List,
							Reason: "prefix-list " + m.List + " is not defined",
						})
					}
				}
			}
		}
	}
	if d.BGP != nil {
		for _, n := range d.BGP.Neighbors {
			if n.LocalAS == 0 && d.BGP.ASN == 0 {
				warns = append(warns, netcfg.ParseWarning{
					Text: "neighbor " + netcfg.FormatIP(n.Addr),
					Reason: "BGP neighbor has no local AS: declare 'routing-options autonomous-system' " +
						"or a 'local-as' attribute",
				})
			}
			if n.RemoteAS == 0 {
				warns = append(warns, netcfg.ParseWarning{
					Text:   "neighbor " + netcfg.FormatIP(n.Addr),
					Reason: "BGP neighbor has no peer-as",
				})
			}
			for _, pol := range []string{n.ImportPolicy, n.ExportPolicy} {
				if pol != "" && d.RoutePolicies[pol] == nil {
					warns = append(warns, netcfg.ParseWarning{
						Text:   "neighbor " + netcfg.FormatIP(n.Addr) + " policy " + pol,
						Reason: "policy-statement " + pol + " is not defined",
					})
				}
			}
		}
	}
	return warns
}
