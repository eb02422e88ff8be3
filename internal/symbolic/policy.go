package symbolic

import (
	"maps"
	"slices"
	"sort"

	"repro/internal/netcfg"
)

// MatchSpace compiles a single match condition into the space of routes it
// matches. AS-path regex matches are over-approximated as "any route"
// (Campion treats them as opaque); the concrete evaluator remains exact.
func MatchSpace(m netcfg.Match, env netcfg.PolicyEnv) Space {
	switch m := m.(type) {
	case netcfg.MatchPrefixList:
		pl := env.LookupPrefixList(m.List)
		if pl == nil {
			return nil // undefined list matches nothing
		}
		ps := MatchedSet(pl)
		if ps.Empty() {
			return nil
		}
		return Space{{Prefixes: ps, Comms: TrueComm(), Protos: MaskAll}}
	case netcfg.MatchRouteFilter:
		a := AtomFromRouteFilter(m)
		if a.Empty() {
			return nil
		}
		return Space{{Prefixes: PrefixSet{a}, Comms: TrueComm(), Protos: MaskAll}}
	case netcfg.MatchCommunityList:
		cl := env.LookupCommunityList(m.List)
		if cl == nil {
			return nil
		}
		return communityListSpace(cl)
	case netcfg.MatchCommunityLiteral:
		return Space{{Prefixes: FullPrefixSet(), Comms: RequireComm(m.Community), Protos: MaskAll}}
	case netcfg.MatchProtocol:
		return Space{{Prefixes: FullPrefixSet(), Comms: TrueComm(), Protos: MaskOf(m.Protocol)}}
	case netcfg.MatchASPathRegex:
		return FullSpace() // over-approximation
	default:
		return nil
	}
}

// communityListSpace models first-match-wins community-list evaluation:
// a permit entry matches routes carrying its community that carry none of
// the previously denied communities.
func communityListSpace(cl *netcfg.CommunityList) Space {
	var out Space
	denied := TrueComm()
	for _, e := range cl.Entries {
		if e.Action == netcfg.Permit {
			cond, ok := RequireComm(e.Community).And(denied)
			if ok {
				out = append(out, Class{Prefixes: FullPrefixSet(), Comms: cond, Protos: MaskAll})
			}
		} else {
			cond, ok := denied.And(ForbidComm(e.Community))
			if !ok {
				break
			}
			denied = cond
		}
	}
	return out
}

// ClauseGuard computes the space matched by a clause: the intersection of
// all its match conditions (AND semantics). A clause with no matches
// matches everything. Every match space's classes are non-empty with
// in-range atoms, so the full space is Intersect's identity on them and
// the first match's space starts the conjunction as it is.
func ClauseGuard(cl *netcfg.PolicyClause, env netcfg.PolicyEnv) Space {
	if len(cl.Matches) == 0 {
		return FullSpace()
	}
	guard := MatchSpace(cl.Matches[0], env)
	for _, m := range cl.Matches[1:] {
		guard = guard.Intersect(MatchSpace(m, env))
	}
	if guard.Empty() {
		return nil
	}
	return guard
}

// Region is one guarded accept region of a policy: the set of input routes
// that reach a given permit clause, together with that clause's transforms.
type Region struct {
	Space     Space
	ClauseSeq int
	Sets      []netcfg.SetAction
}

// AcceptRegions compiles a policy into its accept regions: clause k's
// region is guard(k) minus the guards of all earlier clauses
// (first-match-wins). A nil policy accepts everything unchanged.
//
// It is the route-map compile behind batfish.SearchRoutePolicies, run once
// per route-map of a revision. Only a permit clause is intersected with
// what remains; every clause is subtracted from it. On the egress maps of
// the repair loop (one deny stanza per other ISP community, then a
// permit) what remains is one class, and subtracting a community match
// from it costs a constant number of allocations: the class's forbidden
// communities are copied once, one longer. The regions are exact, not
// simplified: witnesses are sampled from them.
func AcceptRegions(p *netcfg.RoutePolicy, env netcfg.PolicyEnv) []Region {
	if p == nil {
		return []Region{{Space: FullSpace(), ClauseSeq: -1}}
	}
	remaining := FullSpace()
	var out []Region
	for _, cl := range p.Clauses {
		guard := ClauseGuard(cl, env)
		if cl.Action == netcfg.Permit {
			if reached := remaining.Intersect(guard); !reached.Empty() {
				out = append(out, Region{Space: reached, ClauseSeq: cl.Seq, Sets: cl.Sets})
			}
		}
		remaining = remaining.Subtract(guard)
		if remaining.Empty() {
			break
		}
	}
	return out
}

// AcceptSpace returns the union of all accept regions of a policy.
func AcceptSpace(p *netcfg.RoutePolicy, env netcfg.PolicyEnv) Space {
	var out Space
	for _, r := range AcceptRegions(p, env) {
		out = append(out, r.Space...)
	}
	return out
}

// Query is a SearchRoutePolicies-style question: does the policy produce
// Action on any route within the Input space?
type Query struct {
	Input  Space
	Action netcfg.Action
}

// Search answers a query against a policy's accept space (AcceptSpace): it
// returns a concrete witness route on which the policy takes the queried
// action, or ok=false if no such route exists. This mirrors Batfish's
// searchRoutePolicies used as the paper's semantic verifier in §4. The
// accept space is an argument, not recomputed here, so a caller compiles a
// policy once and asks it any number of questions.
func Search(accept Space, q Query) (*netcfg.Route, bool) {
	var target Space
	if q.Action == netcfg.Permit {
		target = q.Input.Intersect(accept)
	} else {
		target = q.Input.Subtract(accept)
	}
	return target.Sample()
}

// Universe generates a finite set of test routes that is discriminating
// for the given devices: one route per atom boundary of every prefix list,
// route filter, and BGP network statement, crossed with the community and
// protocol combinations referenced anywhere. Concrete differential testing
// over this universe is used where symbolic comparison of attribute
// transforms would be awkward (Campion's behaviour diff on transformed
// attributes).
func Universe(devs ...*netcfg.Device) []*netcfg.Route {
	prefixes := map[netcfg.Prefix]bool{}
	comms := map[netcfg.Community]bool{}

	addAtom := func(a Atom) {
		if a.Empty() {
			return
		}
		// Boundary lengths: shortest, longest, and one past each bound.
		lens := []int{a.MinLen, a.MaxLen, a.MinLen - 1, a.MaxLen + 1}
		for _, l := range lens {
			if l < 0 || l > 32 {
				continue
			}
			prefixes[netcfg.NewPrefix(a.Pattern.Addr, l)] = true
		}
		// A prefix outside the pattern (flip the last pattern bit).
		if a.Pattern.Len > 0 {
			flip := a.Pattern.Addr ^ (1 << uint(32-a.Pattern.Len))
			prefixes[netcfg.NewPrefix(flip, maxInt(a.MinLen, a.Pattern.Len))] = true
		}
	}

	for _, d := range devs {
		if d == nil {
			continue
		}
		for _, name := range d.PrefixListNames() {
			for _, e := range d.PrefixLists[name].Entries {
				addAtom(AtomFromEntry(e))
			}
		}
		for _, name := range d.CommunityListNames() {
			for _, e := range d.CommunityLists[name].Entries {
				comms[e.Community] = true
			}
		}
		for _, name := range d.PolicyNames() {
			for _, cl := range d.RoutePolicies[name].Clauses {
				for _, m := range cl.Matches {
					switch m := m.(type) {
					case netcfg.MatchRouteFilter:
						addAtom(AtomFromRouteFilter(m))
					case netcfg.MatchCommunityLiteral:
						comms[m.Community] = true
					}
				}
				for _, s := range cl.Sets {
					if sc, ok := s.(netcfg.SetCommunity); ok {
						for _, c := range sc.Communities {
							comms[c] = true
						}
					}
				}
			}
		}
		if d.BGP != nil {
			for _, n := range d.BGP.Networks {
				addAtom(NewAtom(n, n.Len, n.Len))
			}
		}
		for _, sr := range d.StaticRoutes {
			addAtom(NewAtom(sr.Prefix, sr.Prefix.Len, sr.Prefix.Len))
		}
	}
	if len(prefixes) == 0 {
		prefixes[netcfg.MustPrefix("10.0.0.0/8")] = true
	}

	sortedPrefixes := make([]netcfg.Prefix, 0, len(prefixes))
	for p := range prefixes {
		sortedPrefixes = append(sortedPrefixes, p)
	}
	sort.Slice(sortedPrefixes, func(i, j int) bool {
		if sortedPrefixes[i].Addr != sortedPrefixes[j].Addr {
			return sortedPrefixes[i].Addr < sortedPrefixes[j].Addr
		}
		return sortedPrefixes[i].Len < sortedPrefixes[j].Len
	})
	commList := slices.Sorted(maps.Keys(comms))

	protos := []netcfg.RouteProtocol{
		netcfg.ProtoBGP, netcfg.ProtoOSPF, netcfg.ProtoConnected, netcfg.ProtoStatic,
	}
	var out []*netcfg.Route
	for _, p := range sortedPrefixes {
		for _, proto := range protos {
			// No communities.
			r := netcfg.NewRoute(p)
			r.Protocol = proto
			out = append(out, r)
			// Each single community (non-BGP routes don't carry communities).
			if proto != netcfg.ProtoBGP {
				continue
			}
			for _, c := range commList {
				rc := netcfg.NewRoute(p)
				rc.Protocol = proto
				rc.AddCommunity(c)
				out = append(out, rc)
			}
			// All communities at once (exercises AND-vs-OR semantics).
			if len(commList) > 1 {
				ra := netcfg.NewRoute(p)
				ra.Protocol = proto
				for _, c := range commList {
					ra.AddCommunity(c)
				}
				out = append(out, ra)
			}
		}
	}
	return out
}
