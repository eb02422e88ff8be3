package batfish

import (
	"fmt"

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
// revision is answered from the compiled form. A bare device is searched
// as a fresh revision, &netcfg.Parsed{Device: dev}, which compiles on
// every call.
func SearchRoutePolicies(rev *netcfg.Parsed, q SearchQuery) (SearchResult, error) {
	dev := rev.Device
	pol := dev.RoutePolicies[q.Policy]
	if pol == nil {
		return SearchResult{}, fmt.Errorf("policy %q is not defined on %s", q.Policy, dev.Hostname)
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
	accept := rev.CompiledPolicy(q.Policy, func() any {
		return symbolic.AcceptSpace(pol, dev)
	}).(symbolic.Space)
	witness, found := symbolic.Search(accept, symbolic.Query{Input: input, Action: action})
	if !found {
		return SearchResult{Found: false}, nil
	}
	return SearchResult{
		Found:              true,
		Witness:            witness.String(),
		WitnessPrefix:      witness.Prefix.String(),
		WitnessCommunities: witness.CommunityStrings(),
		WitnessProtocol:    witness.Protocol.String(),
	}, nil
}
