package batfish

import (
	"fmt"
	"slices"

	"repro/internal/netcfg"
	"repro/internal/symbolic"
)

// RouteConstraints restricts the input announcements of a SearchRoutePolicies
// query, mirroring Batfish's BgpRouteConstraints: an optional prefix space
// and communities that must or must not be present.
type RouteConstraints struct {
	// Prefix restricts inputs to announcements within this prefix
	// (any length at or above the prefix length). Empty means any prefix.
	Prefix string `json:"prefix,omitempty"`
	// HasCommunities must all be carried by the input route.
	HasCommunities []string `json:"has_communities,omitempty"`
	// LacksCommunities must all be absent from the input route.
	LacksCommunities []string `json:"lacks_communities,omitempty"`
	// Protocol restricts the input protocol ("bgp", "ospf", "connected",
	// "static"). Empty means BGP.
	Protocol string `json:"protocol,omitempty"`
}

// Space compiles the constraints into a symbolic route space.
func (rc RouteConstraints) Space() (symbolic.Space, error) {
	cls := symbolic.FullClass()
	if rc.Prefix != "" {
		p, err := netcfg.ParsePrefix(rc.Prefix)
		if err != nil {
			return nil, fmt.Errorf("constraint prefix: %w", err)
		}
		cls.Prefixes = symbolic.PrefixSet{symbolic.NewAtom(p, p.Len, 32)}
	}
	cond := symbolic.TrueComm()
	for _, cs := range rc.HasCommunities {
		c, err := netcfg.ParseCommunity(cs)
		if err != nil {
			return nil, fmt.Errorf("constraint community: %w", err)
		}
		next, ok := cond.And(symbolic.RequireComm(c))
		if !ok {
			return nil, fmt.Errorf("inconsistent community constraints")
		}
		cond = next
	}
	for _, cs := range rc.LacksCommunities {
		c, err := netcfg.ParseCommunity(cs)
		if err != nil {
			return nil, fmt.Errorf("constraint community: %w", err)
		}
		next, ok := cond.And(symbolic.ForbidComm(c))
		if !ok {
			return nil, fmt.Errorf("inconsistent community constraints")
		}
		cond = next
	}
	cls.Comms = cond
	switch rc.Protocol {
	case "", "bgp":
		cls.Protos = symbolic.MaskBGP
	case "ospf":
		cls.Protos = symbolic.MaskOSPF
	case "connected":
		cls.Protos = symbolic.MaskConnected
	case "static":
		cls.Protos = symbolic.MaskStatic
	case "any":
		cls.Protos = symbolic.MaskAll
	default:
		return nil, fmt.Errorf("unknown protocol constraint %q", rc.Protocol)
	}
	return symbolic.Space{cls}, nil
}

// SearchQuery asks whether the named policy of a device takes the given
// action on any route satisfying the constraints.
type SearchQuery struct {
	Policy      string           `json:"policy"`
	Action      string           `json:"action"` // "permit" or "deny"
	Constraints RouteConstraints `json:"constraints"`
}

// SearchResult reports a witness route if one exists.
type SearchResult struct {
	Found   bool   `json:"found"`
	Witness string `json:"witness,omitempty"` // human-readable route

	// Structured witness fields for programmatic consumers.
	WitnessPrefix      string   `json:"witness_prefix,omitempty"`
	WitnessCommunities []string `json:"witness_communities,omitempty"`
	WitnessProtocol    string   `json:"witness_protocol,omitempty"`
}

// SearchRoutePolicies answers a query against one configuration revision,
// mirroring the Batfish question of the same name the paper uses as its
// semantic verifier for local policies (§4.1). Like Batfish's one symbolic
// encoding per route-map, each policy of a revision is compiled into its
// accept space on the first query that names it, kept in the revision's
// slot (netcfg.Parsed.CompiledPolicy), and every later query on that
// revision is answered from the compiled form; FirstPermitted and
// DeniesLacking read the same slot. A bare device is searched as a fresh
// revision, &netcfg.Parsed{Device: dev}, which compiles on every call.
func SearchRoutePolicies(rev *netcfg.Parsed, q SearchQuery) (SearchResult, error) {
	accept, err := compiled(rev, q.Policy)
	if err != nil {
		return SearchResult{}, err
	}
	input, err := q.Constraints.Space()
	if err != nil {
		return SearchResult{}, err
	}
	var action netcfg.Action
	switch q.Action {
	case "permit":
		action = netcfg.Permit
	case "deny":
		action = netcfg.Deny
	default:
		return SearchResult{}, fmt.Errorf("action must be permit or deny, got %q", q.Action)
	}
	return search(accept, input, action), nil
}

// FirstPermitted is the group query of an egress drops list: it scans
// comms in order and returns the index of the first community c such that
// the named policy permits some BGP route carrying c, with the answer
// SearchRoutePolicies gives to {Action: "permit", HasCommunities: [c]},
// witness included. It returns -1 and a result that found nothing when
// the policy denies every route carrying any of comms.
//
// The scan reads the compiled accept classes directly: a community that
// no class admits, because each forbids it or admits no BGP route, is
// clean and costs a binary search per class and no allocation. The full
// search runs only for the first community a class admits.
func FirstPermitted(rev *netcfg.Parsed, policy string, comms []netcfg.Community) (int, SearchResult, error) {
	accept, err := compiled(rev, policy)
	if err != nil {
		return -1, SearchResult{}, err
	}
	for i, c := range comms {
		if !admitsAny(accept, c) {
			continue
		}
		if res := search(accept, bgpRoutes(symbolic.RequireComm(c)), netcfg.Permit); res.Found {
			return i, res, nil
		}
	}
	return -1, SearchResult{}, nil
}

// DeniesLacking answers SearchRoutePolicies' {Action: "deny",
// LacksCommunities: lacks} with the communities as values: whether the
// named policy denies some BGP route that carries none of lacks, and a
// witness if so. The input condition forbids one sorted, de-duplicated
// copy of lacks.
func DeniesLacking(rev *netcfg.Parsed, policy string, lacks []netcfg.Community) (SearchResult, error) {
	accept, err := compiled(rev, policy)
	if err != nil {
		return SearchResult{}, err
	}
	forbid := slices.Compact(slices.Sorted(slices.Values(lacks)))
	return search(accept, bgpRoutes(symbolic.CommCond{Forbid: forbid}), netcfg.Deny), nil
}

// compiled returns the revision's compiled accept space of the named
// policy, compiling it into the revision's slot on first use. It is the
// slot's one writer, so the slot holds one type.
func compiled(rev *netcfg.Parsed, name string) (symbolic.Space, error) {
	pol := rev.Device.RoutePolicies[name]
	if pol == nil {
		return nil, fmt.Errorf("policy %q is not defined on %s", name, rev.Device.Hostname)
	}
	return rev.CompiledPolicy(name, func() any {
		return symbolic.AcceptSpace(pol, rev.Device)
	}).(symbolic.Space), nil
}

// bgpRoutes is the input space of BGP routes of any prefix whose
// communities meet cond: RouteConstraints.Space's result for constraints
// that name communities only.
func bgpRoutes(cond symbolic.CommCond) symbolic.Space {
	return symbolic.Space{{Prefixes: symbolic.FullPrefixSet(), Comms: cond, Protos: symbolic.MaskBGP}}
}

// admitsAny reports whether some accept class can hold a BGP route
// carrying c: one that does not forbid c and admits BGP. Accept classes
// are non-empty, so such a class meets bgpRoutes(RequireComm(c)).
func admitsAny(accept symbolic.Space, c netcfg.Community) bool {
	for _, cls := range accept {
		if cls.Protos&symbolic.MaskBGP == 0 {
			continue
		}
		if _, forbidden := slices.BinarySearch(cls.Comms.Forbid, c); !forbidden {
			return true
		}
	}
	return false
}

// search answers one query against a compiled accept space.
func search(accept, input symbolic.Space, action netcfg.Action) SearchResult {
	witness, found := symbolic.Search(accept, symbolic.Query{Input: input, Action: action})
	if !found {
		return SearchResult{Found: false}
	}
	return SearchResult{
		Found:              true,
		Witness:            witness.String(),
		WitnessPrefix:      witness.Prefix.String(),
		WitnessCommunities: witness.CommunityStrings(),
		WitnessProtocol:    witness.Protocol.String(),
	}
}
