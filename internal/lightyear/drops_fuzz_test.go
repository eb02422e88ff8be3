package lightyear_test

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"repro/internal/batfish"
	"repro/internal/cisco"
	"repro/internal/exampledata"
	"repro/internal/fuzz"
	"repro/internal/juniper"
	"repro/internal/lightyear"
	"repro/internal/netcfg"
	"repro/internal/translate"
)

// maxDropsFuzzConfig bounds the fuzzed configuration text, as
// FuzzSearchPolicy bounds it.
const maxDropsFuzzConfig = 16 << 10

// undefinedPolicy names a route-map no seed defines.
const undefinedPolicy = "FUZZ_UNDEFINED_ROUTE_MAP"

// FuzzEgressDrops checks that one EgressDropsCommunity requirement over
// an ordered community list reports what checking each community on its
// own, in order, reports first: the same verdict, the same one-community
// requirement with the same Description, witness and explanation. For
// every route-map of the parsed device the list holds the communities
// the route-map references and two it may not, derived from salt, which
// also shuffles the order. An EgressPermitsClean requirement over the
// same list must answer as SearchRoutePolicies does with the list as
// string LacksCommunities. An undefined route-map is checked too. The
// seeds are FuzzSearchPolicy's.
func FuzzEgressDrops(f *testing.F) {
	f.Add(exampledata.CiscoExample, uint64(0))
	src, _ := cisco.Parse(exampledata.CiscoExample)
	f.Add(juniper.Print(translate.Golden(src)), uint64(1))
	seeds, err := fuzz.ParserSeeds()
	if err != nil {
		f.Fatal(err)
	}
	for i, s := range seeds {
		f.Add(s, uint64(i))
	}
	f.Fuzz(func(t *testing.T, text string, salt uint64) {
		if len(text) > maxDropsFuzzConfig {
			return
		}
		dev, _ := batfish.ParseConfig(text)
		rng := rand.New(rand.NewPCG(salt, salt>>32))
		names := append(dev.PolicyNames(), undefinedPolicy)
		for _, name := range names {
			var comms []netcfg.Community
			if pol := dev.RoutePolicies[name]; pol != nil {
				comms = referencedCommunities(dev, pol)
			}
			comms = append(comms, netcfg.Community(rng.Uint32()), netcfg.Community(rng.Uint32()))
			rng.Shuffle(len(comms), func(i, j int) { comms[i], comms[j] = comms[j], comms[i] })
			req := lightyear.Requirement{
				Kind:       lightyear.EgressDropsCommunity,
				Router:     "R1",
				Attachment: lightyear.AttachmentRef{Router: "R1", Peer: "ISP1", Direction: lightyear.DirOut},
				Policy:     name,
			}
			for i, c := range comms {
				req.Communities = append(req.Communities, c)
				req.LearnedFrom = append(req.LearnedFrom, fmt.Sprintf("ISP%d", i+2))
			}
			rev := &netcfg.Parsed{Device: dev}
			got, gotBad := lightyear.Check(rev, req)
			want, wantBad := perCommunityDrops(&netcfg.Parsed{Device: dev}, req)
			if gotBad != wantBad || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s over %v: grouped check (%v) %+v, per-community reference (%v) %+v",
					name, comms, gotBad, got, wantBad, want)
			}
			// The clean-permit requirement over the same list, its first
			// community repeated, checked on the revision the drops check
			// compiled, against a fresh revision's string-constraint search.
			clean := lightyear.Requirement{
				Kind:        lightyear.EgressPermitsClean,
				Router:      "R1",
				Attachment:  req.Attachment,
				Policy:      name,
				Communities: append(slices.Clone(comms), comms[0]),
				Description: "R1 must export to ISP1 routes that carry no ISP community (customer routes).",
			}
			got, gotBad = lightyear.Check(rev, clean)
			want, wantBad = stringClean(&netcfg.Parsed{Device: dev}, clean)
			if gotBad != wantBad || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s lacking %v: check (%v) %+v, string-constraint reference (%v) %+v",
					name, clean.Communities, gotBad, got, wantBad, want)
			}
		}
	})
}

// stringClean is the EgressPermitsClean evaluator the value query
// replaced: one SearchRoutePolicies deny query whose LacksCommunities are
// the requirement's communities formatted as strings.
func stringClean(rev *netcfg.Parsed, req lightyear.Requirement) (lightyear.Violation, bool) {
	if rev.Device.RoutePolicies[req.Policy] == nil {
		return lightyear.Violation{
			Requirement: req,
			Explanation: fmt.Sprintf("The route-map %s is not defined, so the local policy %q cannot hold.",
				req.Policy, req.Description),
		}, true
	}
	var lacks []string
	for _, c := range req.Communities {
		lacks = append(lacks, c.String())
	}
	res, err := batfish.SearchRoutePolicies(rev, batfish.SearchQuery{
		Policy:      req.Policy,
		Action:      "deny",
		Constraints: batfish.RouteConstraints{LacksCommunities: lacks},
	})
	if err != nil || !res.Found {
		return lightyear.Violation{}, false
	}
	return lightyear.Violation{
		Requirement: req,
		Witness:     witness(res),
		Explanation: fmt.Sprintf(
			"The route-map %s denies routes that carry no ISP community (for example %s). "+
				"However, customer routes should be permitted.",
			req.Policy, res.WitnessPrefix),
	}, true
}

// witness rebuilds a violation's witness route from a search result, as
// the checks do.
func witness(res batfish.SearchResult) *netcfg.Route {
	w := netcfg.NewRoute(netcfg.MustPrefix(res.WitnessPrefix))
	for _, cs := range res.WitnessCommunities {
		w.AddCommunity(netcfg.MustCommunity(cs))
	}
	return w
}

// perCommunityDrops is the per-community egress-drop evaluator the
// grouped requirement replaced: it checks each community as its own
// requirement, in list order, and returns the first violation.
func perCommunityDrops(rev *netcfg.Parsed, group lightyear.Requirement) (lightyear.Violation, bool) {
	for i, c := range group.Communities {
		one := group
		one.Communities = []netcfg.Community{c}
		one.LearnedFrom = []string{group.LearnedFrom[i]}
		one.Description = fmt.Sprintf(
			"%s must not export to %s any route carrying community %s (learned from %s).",
			group.Router, group.Attachment.Peer, c, group.LearnedFrom[i])
		if rev.Device.RoutePolicies[one.Policy] == nil {
			return lightyear.Violation{
				Requirement: one,
				Explanation: fmt.Sprintf("The route-map %s is not defined, so the local policy %q cannot hold.",
					one.Policy, one.Description),
			}, true
		}
		res, err := batfish.SearchRoutePolicies(rev, batfish.SearchQuery{
			Policy:      one.Policy,
			Action:      "permit",
			Constraints: batfish.RouteConstraints{HasCommunities: []string{c.String()}},
		})
		if err == nil && res.Found {
			return lightyear.Violation{
				Requirement: one,
				Witness:     witness(res),
				Explanation: fmt.Sprintf(
					"The route-map %s permits routes that have the community %s. However, they should be denied.",
					one.Policy, c),
			}, true
		}
	}
	return lightyear.Violation{}, false
}

// referencedCommunities returns, sorted and without duplicates, the
// communities a route-map matches on or sets.
func referencedCommunities(dev *netcfg.Device, pol *netcfg.RoutePolicy) []netcfg.Community {
	var out []netcfg.Community
	for _, cl := range pol.Clauses {
		for _, m := range cl.Matches {
			switch m := m.(type) {
			case netcfg.MatchCommunityList:
				if l := dev.CommunityLists[m.List]; l != nil {
					for _, e := range l.Entries {
						out = append(out, e.Community)
					}
				}
			case netcfg.MatchCommunityLiteral:
				out = append(out, m.Community)
			}
		}
		for _, s := range cl.Sets {
			if sc, ok := s.(netcfg.SetCommunity); ok {
				out = append(out, sc.Communities...)
			}
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}
