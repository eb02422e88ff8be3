package batfish

import "repro/internal/netcfg"

// simPolicy is a route-map compiled against its device for one Sim.Run.
// It decides exactly as netcfg.EvalPolicy does, which stays the
// reference: the first clause whose matches all hold decides, and a route
// no clause matches is denied.
//
// Community-list and prefix-list names are resolved to the lists once,
// and an undefined list never matches. The leading clauses whose only
// match is one community list with only permit entries are indexed: such
// a clause matches exactly the routes carrying one of its list's
// communities, so the first of them a route matches is the lowest clause
// any of the route's own communities maps to. An egress route-map carries
// about one of these clauses per ISP attachment, and a route one or two
// communities. A list with a deny entry ends the indexed run, because its
// first matching entry decides.
type simPolicy struct {
	env     *netcfg.Device
	clauses []simClause
	// indexed is the length of the leading indexed run, and first maps
	// each community of that run to the position of the lowest clause
	// whose list holds it.
	indexed int
	first   map[netcfg.Community]int32
}

// simClause is one compiled clause.
type simClause struct {
	permit  bool
	matches []simMatch
	sets    []netcfg.SetAction
	// copiesComms is set when applying sets writes into the route's
	// community set, which a route may share with the one it was copied
	// from: the clause's first community set is additive.
	copiesComms bool
}

// simMatch is one compiled match condition.
type simMatch struct {
	kind     matchKind
	comms    *netcfg.CommunityList // matchComms; nil when undefined
	prefixes *netcfg.PrefixList    // matchPrefixes; nil when undefined
	other    netcfg.Match          // matchOther
}

type matchKind uint8

const (
	matchComms matchKind = iota
	matchPrefixes
	// matchOther covers literal communities, route filters, protocols
	// and AS-path regexes, which name no list: netcfg.EvalMatch decides
	// them.
	matchOther
)

// compileSimPolicy compiles pol against dev, the device it belongs to.
func compileSimPolicy(pol *netcfg.RoutePolicy, dev *netcfg.Device) *simPolicy {
	p := &simPolicy{env: dev, clauses: make([]simClause, len(pol.Clauses))}
	for i, cl := range pol.Clauses {
		c := &p.clauses[i]
		c.permit = cl.Action == netcfg.Permit
		c.sets = cl.Sets
		for _, s := range cl.Sets {
			if sc, ok := s.(netcfg.SetCommunity); ok {
				c.copiesComms = sc.Additive
				break
			}
		}
		c.matches = make([]simMatch, len(cl.Matches))
		for j, m := range cl.Matches {
			c.matches[j] = compileMatch(m, dev)
		}
	}
	for i := range p.clauses {
		c := &p.clauses[i]
		if !c.permitOnlyList() {
			break
		}
		if list := c.matches[0].comms; list != nil {
			if p.first == nil {
				p.first = map[netcfg.Community]int32{}
			}
			for _, e := range list.Entries {
				if _, seen := p.first[e.Community]; !seen {
					p.first[e.Community] = int32(i)
				}
			}
		}
		p.indexed = i + 1
	}
	return p
}

func compileMatch(m netcfg.Match, dev *netcfg.Device) simMatch {
	switch m := m.(type) {
	case netcfg.MatchCommunityList:
		return simMatch{kind: matchComms, comms: dev.CommunityLists[m.List]}
	case netcfg.MatchPrefixList:
		return simMatch{kind: matchPrefixes, prefixes: dev.PrefixLists[m.List]}
	}
	return simMatch{kind: matchOther, other: m}
}

// permitOnlyList reports whether the clause's only match is one community
// list with only permit entries. An undefined list counts, with no
// entries.
func (c *simClause) permitOnlyList() bool {
	if len(c.matches) != 1 || c.matches[0].kind != matchComms {
		return false
	}
	if list := c.matches[0].comms; list != nil {
		for _, e := range list.Entries {
			if e.Action != netcfg.Permit {
				return false
			}
		}
	}
	return true
}

// decide returns the clause that decides r, or nil when no clause
// matches it (the implicit deny).
func (p *simPolicy) decide(r *netcfg.Route) *simClause {
	start := 0
	if p.indexed > 0 {
		lowest := int32(p.indexed)
		for c, ok := range r.Communities {
			if i, hit := p.first[c]; ok && hit && i < lowest {
				lowest = i
			}
		}
		if int(lowest) < p.indexed {
			return &p.clauses[lowest]
		}
		start = p.indexed
	}
	for i := start; i < len(p.clauses); i++ {
		if p.clauses[i].holds(p.env, r) {
			return &p.clauses[i]
		}
	}
	return nil
}

func (c *simClause) holds(env *netcfg.Device, r *netcfg.Route) bool {
	for i := range c.matches {
		m := &c.matches[i]
		var ok bool
		switch m.kind {
		case matchComms:
			ok = m.comms != nil && m.comms.Matches(r.Communities)
		case matchPrefixes:
			ok = m.prefixes != nil && m.prefixes.Matches(r.Prefix)
		default:
			ok = netcfg.EvalMatch(m.other, env, r)
		}
		if !ok {
			return false
		}
	}
	return true
}

// apply applies the clause's sets to r in place, first giving r a
// community set of its own when a set would write into the shared one.
func (c *simClause) apply(r *netcfg.Route) {
	if c.copiesComms {
		comms := make(map[netcfg.Community]bool, len(r.Communities))
		for k, v := range r.Communities {
			if v {
				comms[k] = true
			}
		}
		r.Communities = comms
	}
	netcfg.ApplySets(c.sets, r)
}
