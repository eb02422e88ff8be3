// Package cisco parses and prints the Cisco IOS configuration dialect used
// throughout the paper: interfaces, OSPF, BGP, prefix lists, community
// lists, static routes, and route maps. Parsing is mode-based (like IOS
// itself): block headers such as "interface", "router bgp", and "route-map"
// switch the current mode, and sub-commands are interpreted in that mode.
//
// The parser is deliberately tolerant: anything it does not understand
// becomes a netcfg.ParseWarning rather than a fatal error, because the
// whole point of the VPP loop is to surface those warnings to the LLM as
// syntax-error prompts.
package cisco

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"
	"unicode/utf8"

	"repro/internal/netcfg"
)

// ForbiddenKeywords are the CLI/session keywords the paper's IIP database
// tells GPT-4 not to emit (§4.2 "Wrong keywords"). The parser flags them.
var ForbiddenKeywords = []string{
	"exit", "end", "configure", "conf", "write", "enable", "copy",
}

type mode int

const (
	modeTop mode = iota
	modeInterface
	modeOSPF
	modeBGP
	modeRouteMap
)

type parser struct {
	dev      *netcfg.Device
	warnings []netcfg.ParseWarning

	mode   mode
	curIfc *netcfg.Interface
	curMap *netcfg.PolicyClause

	// unsorted indexes by sequence number the clauses of each route-map
	// that received a clause below its highest sequence number; Parse
	// sorts those route-maps once, when the text ends. A route-map whose
	// clauses arrive in order stays sorted and is binary-searched.
	unsorted map[*netcfg.RoutePolicy]map[int]*netcfg.PolicyClause

	// fields holds the current line's words; no handler keeps it past
	// its line.
	fields []string
}

// Parse parses a Cisco IOS configuration into the vendor-neutral IR,
// returning the device and any parse warnings. Parse never fails outright;
// a config consisting only of garbage yields an empty device and one
// warning per line.
//
// The text is walked in place: each line is a substring of it, and its
// words go into one slice reused from line to line.
func Parse(text string) (*netcfg.Device, []netcfg.ParseWarning) {
	p := &parser{dev: netcfg.NewDevice("", netcfg.VendorCisco)}
	for lineNo, more := 1, true; more; lineNo++ {
		raw := text
		if i := strings.IndexByte(text, '\n'); i >= 0 {
			raw, text = text[:i], text[i+1:]
		} else {
			more = false
		}
		if line := strings.TrimSpace(raw); !p.separator(line) {
			p.parseLine(lineNo, line, p.split(line))
		}
	}
	p.finish()
	return p.dev, p.warnings
}

// separator reports whether a trimmed line is blank or a "!" comment, and
// leaves any mode on a bare "!".
func (p *parser) separator(line string) bool {
	if line != "" && line[0] != '!' {
		return false
	}
	if line == "!" {
		p.mode = modeTop
		p.curIfc = nil
		p.curMap = nil
	}
	return true
}

// split returns the words of a trimmed line, as strings.Fields does. An
// ASCII line is split into p.fields, reused from line to line; a line
// holding any other byte goes to strings.Fields, which splits at Unicode
// white space.
func (p *parser) split(line string) []string {
	f := p.fields[:0]
	for i := 0; i < len(line); {
		for i < len(line) && byteClass[line[i]] == spaceByte {
			i++
		}
		start := i
		for i < len(line) && byteClass[line[i]] == wordByte {
			i++
		}
		if i < len(line) && byteClass[line[i]] == nonASCIIByte {
			return strings.Fields(line)
		}
		if i > start {
			f = append(f, line[start:i])
		}
	}
	p.fields = f
	return f
}

// byteClass sorts bytes for split: ASCII white space as strings.Fields
// knows it, the other ASCII bytes, and the bytes of non-ASCII runes.
var byteClass = func() (c [256]uint8) {
	for b := utf8.RuneSelf; b < len(c); b++ {
		c[b] = nonASCIIByte
	}
	for _, b := range "\t\n\v\f\r " {
		c[b] = spaceByte
	}
	return c
}()

const (
	wordByte = iota
	spaceByte
	nonASCIIByte
)

// finish sorts the route-maps whose clauses arrived out of order, once the
// text has ended.
func (p *parser) finish() {
	for rp := range p.unsorted {
		slices.SortFunc(rp.Clauses, func(a, b *netcfg.PolicyClause) int { return cmp.Compare(a.Seq, b.Seq) })
	}
}

func (p *parser) warn(line int, text, reason string) {
	p.warnings = append(p.warnings, netcfg.ParseWarning{Line: line, Text: text, Reason: reason})
}

func (p *parser) parseLine(lineNo int, line string, fields []string) {
	head := strings.ToLower(fields[0])

	// Forbidden session keywords are always top-level errors.
	for _, kw := range ForbiddenKeywords {
		if head == kw {
			p.warn(lineNo, line, "CLI session keyword is not valid in a configuration file")
			return
		}
	}
	if head == "hostname" {
		if len(fields) != 2 {
			p.warn(lineNo, line, "hostname expects one argument")
			return
		}
		p.dev.Hostname = fields[1]
		p.mode = modeTop
		return
	}

	// Block headers switch mode regardless of the current mode.
	switch head {
	case "interface":
		p.enterInterface(lineNo, line, fields)
		return
	case "router":
		p.enterRouter(lineNo, line, fields)
		return
	case "route-map":
		p.enterRouteMap(lineNo, line, fields)
		return
	case "ip":
		if len(fields) >= 2 {
			switch strings.ToLower(fields[1]) {
			case "prefix-list":
				p.parsePrefixList(lineNo, line, fields)
				return
			case "community-list":
				p.parseCommunityList(lineNo, line, fields)
				return
			case "route":
				p.parseStaticRoute(lineNo, line, fields)
				return
			case "routing":
				p.warn(lineNo, line, "'ip routing' is a CLI command, not a configuration statement")
				return
			}
		}
	}

	switch p.mode {
	case modeInterface:
		p.parseInterfaceSub(lineNo, line, fields)
	case modeOSPF:
		p.parseOSPFSub(lineNo, line, fields)
	case modeBGP:
		p.parseBGPSub(lineNo, line, fields)
	case modeRouteMap:
		p.parseRouteMapSub(lineNo, line, fields)
	default:
		p.parseTopSub(lineNo, line, fields)
	}
}

func (p *parser) enterInterface(lineNo int, line string, fields []string) {
	if len(fields) != 2 {
		p.warn(lineNo, line, "interface expects a name")
		p.mode = modeTop
		return
	}
	p.curIfc = p.dev.EnsureInterface(fields[1])
	p.mode = modeInterface
}

func (p *parser) enterRouter(lineNo int, line string, fields []string) {
	if len(fields) < 3 {
		p.warn(lineNo, line, "router expects a protocol and process/AS number")
		p.mode = modeTop
		return
	}
	n, ok := number(fields[2], math.MaxUint32)
	if !ok || n == 0 {
		p.warn(lineNo, line, "invalid process/AS number")
		p.mode = modeTop
		return
	}
	switch strings.ToLower(fields[1]) {
	case "ospf":
		p.dev.EnsureOSPF(n)
		p.mode = modeOSPF
	case "bgp":
		p.dev.EnsureBGP(uint32(n))
		p.mode = modeBGP
	default:
		p.warn(lineNo, line, "unsupported routing protocol")
		p.mode = modeTop
	}
}

func (p *parser) enterRouteMap(lineNo int, line string, fields []string) {
	// route-map NAME [permit|deny] [seq]
	if len(fields) < 2 {
		p.warn(lineNo, line, "route-map expects a name")
		p.mode = modeTop
		return
	}
	name := fields[1]
	action := netcfg.Permit
	seq := 10
	if len(fields) >= 3 {
		switch strings.ToLower(fields[2]) {
		case "permit":
			action = netcfg.Permit
		case "deny":
			action = netcfg.Deny
		default:
			p.warn(lineNo, line, "route-map action must be permit or deny")
			p.mode = modeTop
			return
		}
	}
	rp := p.dev.RoutePolicies[name]
	if rp == nil {
		rp = &netcfg.RoutePolicy{Name: name}
		p.dev.RoutePolicies[name] = rp
	}
	if len(fields) >= 4 {
		n, ok := number(fields[3], math.MaxUint32)
		if !ok {
			p.warn(lineNo, line, "invalid route-map sequence number")
			p.mode = modeTop
			return
		}
		seq = n
	} else if len(rp.Clauses) > 0 {
		seq = rp.Clauses[len(rp.Clauses)-1].Seq + 10
	}
	cl := p.clause(rp, seq)
	if cl == nil {
		cl = &netcfg.PolicyClause{Seq: seq, Action: action}
		p.addClause(rp, cl)
	} else {
		cl.Action = action
	}
	p.curMap = cl
	p.mode = modeRouteMap
}

// clause returns a route-map's clause with the given sequence number, or
// nil.
func (p *parser) clause(rp *netcfg.RoutePolicy, seq int) *netcfg.PolicyClause {
	if idx := p.unsorted[rp]; idx != nil {
		return idx[seq]
	}
	i, found := slices.BinarySearchFunc(rp.Clauses, seq, func(cl *netcfg.PolicyClause, seq int) int {
		return cmp.Compare(cl.Seq, seq)
	})
	if !found {
		return nil
	}
	return rp.Clauses[i]
}

// addClause adds a clause with a new sequence number to its route-map. A
// clause below the highest number so far goes in just before the last
// one, so the last clause always holds the highest number, and the
// route-map is indexed until Parse sorts it.
func (p *parser) addClause(rp *netcfg.RoutePolicy, cl *netcfg.PolicyClause) {
	n := len(rp.Clauses)
	idx := p.unsorted[rp]
	if n == 0 || cl.Seq > rp.Clauses[n-1].Seq {
		rp.Clauses = append(rp.Clauses, cl)
	} else {
		if idx == nil {
			idx = make(map[int]*netcfg.PolicyClause, n+1)
			for _, c := range rp.Clauses {
				idx[c.Seq] = c
			}
			if p.unsorted == nil {
				p.unsorted = map[*netcfg.RoutePolicy]map[int]*netcfg.PolicyClause{}
			}
			p.unsorted[rp] = idx
		}
		rp.Clauses = slices.Insert(rp.Clauses, n-1, cl)
	}
	if idx != nil {
		idx[cl.Seq] = cl
	}
}

func (p *parser) parseInterfaceSub(lineNo int, line string, fields []string) {
	head := strings.ToLower(fields[0])
	switch head {
	case "description":
		p.curIfc.Description = strings.TrimSpace(strings.TrimPrefix(line, fields[0]))
	case "shutdown":
		p.curIfc.Shutdown = true
	case "no":
		if len(fields) >= 2 && strings.ToLower(fields[1]) == "shutdown" {
			p.curIfc.Shutdown = false
			return
		}
		p.warn(lineNo, line, "unsupported 'no' command in interface mode")
	case "ip":
		if len(fields) >= 4 && strings.ToLower(fields[1]) == "address" {
			addr, err1 := netcfg.ParseIP(fields[2])
			mask, err2 := netcfg.ParseIP(fields[3])
			if err1 != nil || err2 != nil {
				p.warn(lineNo, line, "invalid ip address")
				return
			}
			p.curIfc.Address = netcfg.Prefix{Addr: addr, Len: maskLen(mask)}
			p.curIfc.HasAddress = true
			return
		}
		if len(fields) >= 4 && strings.ToLower(fields[1]) == "ospf" && strings.ToLower(fields[2]) == "cost" {
			n, ok := number(fields[3], math.MaxUint32)
			if !ok {
				p.warn(lineNo, line, "invalid ospf cost")
				return
			}
			p.curIfc.OSPFCost = n
			return
		}
		p.warn(lineNo, line, "unsupported ip command in interface mode")
	default:
		p.warn(lineNo, line, "unknown command in interface mode")
	}
}

func (p *parser) parseOSPFSub(lineNo int, line string, fields []string) {
	o := p.dev.OSPF
	head := strings.ToLower(fields[0])
	switch head {
	case "router-id":
		if len(fields) != 2 {
			p.warn(lineNo, line, "router-id expects an address")
			return
		}
		id, err := netcfg.ParseIP(fields[1])
		if err != nil {
			p.warn(lineNo, line, "invalid router-id")
			return
		}
		o.RouterID = id
	case "passive-interface":
		if len(fields) != 2 {
			p.warn(lineNo, line, "passive-interface expects an interface name")
			return
		}
		o.PassiveInterfaces = append(o.PassiveInterfaces, fields[1])
	case "network":
		// network A.B.C.D W.W.W.W area N
		if len(fields) != 5 || strings.ToLower(fields[3]) != "area" {
			p.warn(lineNo, line, "network expects 'network <addr> <wildcard> area <n>'")
			return
		}
		addr, err1 := netcfg.ParseIP(fields[1])
		wild, err2 := netcfg.ParseIP(fields[2])
		area, ok := number(fields[4], math.MaxUint32)
		if err1 != nil || err2 != nil || !ok {
			p.warn(lineNo, line, "invalid network statement")
			return
		}
		o.Networks = append(o.Networks, netcfg.OSPFNetwork{
			Prefix: netcfg.NewPrefix(addr, maskLen(^wild)),
			Area:   int64(area),
		})
	default:
		p.warn(lineNo, line, "unknown command in router ospf mode")
	}
}

func (p *parser) parseBGPSub(lineNo int, line string, fields []string) {
	b := p.dev.BGP
	head := strings.ToLower(fields[0])
	switch head {
	case "bgp":
		if len(fields) == 3 && strings.ToLower(fields[1]) == "router-id" {
			id, err := netcfg.ParseIP(fields[2])
			if err != nil {
				p.warn(lineNo, line, "invalid bgp router-id")
				return
			}
			b.RouterID = id
			return
		}
		p.warn(lineNo, line, "unsupported bgp sub-command")
	case "network":
		p.parseBGPNetwork(lineNo, line, fields, b)
	case "neighbor":
		p.parseNeighbor(lineNo, line, fields, b)
	case "redistribute":
		p.parseRedistribute(lineNo, line, fields, b)
	default:
		p.warn(lineNo, line, "unknown command in router bgp mode")
	}
}

func (p *parser) parseBGPNetwork(lineNo int, line string, fields []string, b *netcfg.BGP) {
	// network A.B.C.D [mask M.M.M.M]
	if len(fields) != 2 && !(len(fields) == 4 && strings.ToLower(fields[2]) == "mask") {
		p.warn(lineNo, line, "network expects 'network <addr> [mask <mask>]'")
		return
	}
	addr, err := netcfg.ParseIP(fields[1])
	if err != nil {
		p.warn(lineNo, line, "invalid network address")
		return
	}
	length := classfulLen(addr)
	if len(fields) == 4 {
		mask, err := netcfg.ParseIP(fields[3])
		if err != nil {
			p.warn(lineNo, line, "invalid network mask")
			return
		}
		length = maskLen(mask)
	}
	b.Networks = append(b.Networks, netcfg.NewPrefix(addr, length))
}

func (p *parser) parseNeighbor(lineNo int, line string, fields []string, b *netcfg.BGP) {
	if len(fields) < 3 {
		p.warn(lineNo, line, "incomplete neighbor command")
		return
	}
	addr, err := netcfg.ParseIP(fields[1])
	if err != nil {
		p.warn(lineNo, line, "invalid neighbor address")
		return
	}
	n := b.EnsureNeighbor(addr)
	switch strings.ToLower(fields[2]) {
	case "remote-as":
		if len(fields) != 4 {
			p.warn(lineNo, line, "remote-as expects an AS number")
			return
		}
		asn, ok := number(fields[3], math.MaxUint32)
		if !ok {
			p.warn(lineNo, line, "invalid AS number")
			return
		}
		n.RemoteAS = uint32(asn)
	case "local-as":
		if len(fields) != 4 {
			p.warn(lineNo, line, "local-as expects an AS number")
			return
		}
		asn, ok := number(fields[3], math.MaxUint32)
		if !ok {
			p.warn(lineNo, line, "invalid AS number")
			return
		}
		n.LocalAS = uint32(asn)
	case "description":
		n.Description = strings.Join(fields[3:], " ")
	case "route-map":
		if len(fields) != 5 {
			p.warn(lineNo, line, "neighbor route-map expects '<name> in|out'")
			return
		}
		switch strings.ToLower(fields[4]) {
		case "in":
			n.ImportPolicy = fields[3]
		case "out":
			n.ExportPolicy = fields[3]
		default:
			p.warn(lineNo, line, "neighbor route-map direction must be 'in' or 'out'")
		}
	default:
		p.warn(lineNo, line, "unsupported neighbor attribute")
	}
}

func (p *parser) parseRedistribute(lineNo int, line string, fields []string, b *netcfg.BGP) {
	// redistribute <proto> [<process>] [route-map NAME]
	if len(fields) < 2 {
		p.warn(lineNo, line, "redistribute expects a protocol")
		return
	}
	proto, err := netcfg.ParseRedistProtocol(strings.ToLower(fields[1]))
	if err != nil {
		p.warn(lineNo, line, "unknown redistribution protocol")
		return
	}
	r := netcfg.Redistribution{Protocol: proto}
	rest := fields[2:]
	if len(rest) > 0 {
		if _, ok := number(rest[0], math.MaxUint32); ok {
			rest = rest[1:] // optional process id, e.g. "redistribute ospf 1"
		}
	}
	if len(rest) == 2 && strings.ToLower(rest[0]) == "route-map" {
		r.Policy = rest[1]
		rest = nil
	}
	if len(rest) != 0 {
		p.warn(lineNo, line, "malformed redistribute statement")
		return
	}
	b.Redistribute = append(b.Redistribute, r)
}

func (p *parser) parseRouteMapSub(lineNo int, line string, fields []string) {
	cl := p.curMap
	head := strings.ToLower(fields[0])
	switch head {
	case "match":
		p.parseRouteMapMatch(lineNo, line, fields, cl)
	case "set":
		p.parseRouteMapSet(lineNo, line, fields, cl)
	default:
		p.warn(lineNo, line, "unknown command in route-map mode")
	}
}

func (p *parser) parseRouteMapMatch(lineNo int, line string, fields []string, cl *netcfg.PolicyClause) {
	if len(fields) < 3 {
		p.warn(lineNo, line, "incomplete match statement")
		return
	}
	switch strings.ToLower(fields[1]) {
	case "ip":
		// match ip address prefix-list NAME
		if len(fields) == 5 && strings.ToLower(fields[2]) == "address" &&
			strings.ToLower(fields[3]) == "prefix-list" {
			cl.Matches = append(cl.Matches, netcfg.MatchPrefixList{List: fields[4]})
			return
		}
		p.warn(lineNo, line, "match ip expects 'match ip address prefix-list <name>'")
	case "community":
		if len(fields) != 3 {
			p.warn(lineNo, line, "match community expects one community-list reference")
			return
		}
		arg := fields[2]
		if strings.Contains(arg, ":") {
			// The paper's "Match Community" error: matching a literal
			// community instead of a community list is invalid syntax.
			if c, err := netcfg.ParseCommunity(arg); err == nil {
				cl.Matches = append(cl.Matches, netcfg.MatchCommunityLiteral{Community: c})
			}
			p.warn(lineNo, line, "match community must reference a community-list, not a literal community")
			return
		}
		cl.Matches = append(cl.Matches, netcfg.MatchCommunityList{List: arg})
	case "as-path":
		if len(fields) != 3 {
			p.warn(lineNo, line, "match as-path expects one access-list or regex")
			return
		}
		// IOS names an as-path access-list here, and no list name holds
		// a quote; the Junos printer must quote the regex, and its lexer
		// ends a quoted word at the first one.
		if strings.Contains(fields[2], `"`) {
			p.warn(lineNo, line, "match as-path names an access-list, which holds no quote")
			return
		}
		cl.Matches = append(cl.Matches, netcfg.MatchASPathRegex{Regex: fields[2]})
	case "source-protocol":
		if len(fields) != 3 {
			p.warn(lineNo, line, "match source-protocol expects a protocol")
			return
		}
		proto, err := netcfg.ParseRedistProtocol(strings.ToLower(fields[2]))
		if err != nil {
			p.warn(lineNo, line, "unknown protocol in match source-protocol")
			return
		}
		cl.Matches = append(cl.Matches, netcfg.MatchProtocol{Protocol: proto})
	default:
		p.warn(lineNo, line, "unsupported match type")
	}
}

func (p *parser) parseRouteMapSet(lineNo int, line string, fields []string, cl *netcfg.PolicyClause) {
	if len(fields) < 3 {
		p.warn(lineNo, line, "incomplete set statement")
		return
	}
	switch strings.ToLower(fields[1]) {
	case "metric":
		n, ok := number(fields[2], math.MaxUint32)
		if !ok {
			p.warn(lineNo, line, "invalid metric value")
			return
		}
		cl.Sets = append(cl.Sets, netcfg.SetMED{MED: n})
	case "local-preference":
		n, ok := number(fields[2], math.MaxUint32)
		if !ok {
			p.warn(lineNo, line, "invalid local-preference value")
			return
		}
		cl.Sets = append(cl.Sets, netcfg.SetLocalPref{Pref: n})
	case "community":
		var comms []netcfg.Community
		additive := false
		for _, f := range fields[2:] {
			if strings.ToLower(f) == "additive" {
				additive = true
				continue
			}
			c, err := netcfg.ParseCommunity(f)
			if err != nil {
				p.warn(lineNo, line, "invalid community value")
				return
			}
			comms = append(comms, c)
		}
		if len(comms) == 0 {
			p.warn(lineNo, line, "set community expects at least one community")
			return
		}
		cl.Sets = append(cl.Sets, netcfg.SetCommunity{Communities: comms, Additive: additive})
	case "ip":
		if len(fields) == 4 && strings.ToLower(fields[2]) == "next-hop" {
			hop, err := netcfg.ParseIP(fields[3])
			if err != nil {
				p.warn(lineNo, line, "invalid next-hop address")
				return
			}
			cl.Sets = append(cl.Sets, netcfg.SetNextHop{Hop: hop})
			return
		}
		p.warn(lineNo, line, "unsupported set ip command")
	default:
		p.warn(lineNo, line, "unsupported set type")
	}
}

// parseTopSub handles commands that require a block context but appear at
// top level — notably the paper's "Placing neighbor commands in the wrong
// location" error. The warning is intentionally generic: the paper reports
// Batfish catches the error but its output is "not informative enough for
// GPT-4 to be able to fix the issue".
func (p *parser) parseTopSub(lineNo int, line string, fields []string) {
	head := strings.ToLower(fields[0])
	switch head {
	case "neighbor":
		p.warn(lineNo, line, "'neighbor' is not a top-level command")
	case "network":
		p.warn(lineNo, line, "'network' is not a top-level command")
	case "match", "set":
		p.warn(lineNo, line, fmt.Sprintf("%q is not a top-level command", head))
	default:
		p.warn(lineNo, line, "unknown top-level command")
	}
}

// number reads a field that is all ASCII digits, worth at most max. IOS
// takes no sign where it takes a number, so "+16" and "-5" are refused.
func number(field string, max uint32) (int, bool) {
	n, rest, ok := netcfg.ScanDecimal(field, max)
	return int(n), ok && rest == ""
}

// maskLen converts a contiguous netmask to a prefix length; non-contiguous
// masks yield the count of leading ones.
func maskLen(mask uint32) int {
	n := 0
	for n < 32 && mask&(1<<uint(31-n)) != 0 {
		n++
	}
	return n
}

// classfulLen returns the historical classful prefix length for an address,
// used when a BGP network statement omits the mask.
func classfulLen(addr uint32) int {
	switch {
	case addr>>31 == 0:
		return 8
	case addr>>30 == 0b10:
		return 16
	default:
		return 24
	}
}
