package batfish_test

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/batfish"
	"repro/internal/cisco"
	"repro/internal/exampledata"
	"repro/internal/fuzz"
	"repro/internal/juniper"
	"repro/internal/netcfg"
	"repro/internal/symbolic"
	"repro/internal/translate"
)

// maxSearchFuzzConfig bounds the fuzzed configuration text. The largest
// seed is under 2 KB; the bound keeps a grown input from spending the
// fuzzing budget on one universe.
const maxSearchFuzzConfig = 16 << 10

// FuzzSearchPolicy checks SearchRoutePolicies, which compiles each policy
// once per revision, against a compile per query, and both against the
// concrete evaluator. Every policy of the parsed device is
// asked the same questions on one revision, so all but the first read the
// compiled form: permit and deny, each with no constraint, with each
// community the policy references required, and with all of them absent.
//
//   - The answer must equal symbolic.Search over a fresh
//     symbolic.AcceptSpace of the policy.
//   - A witness must meet the query's constraints, and netcfg.EvalPolicy
//     on it must take the queried action.
//   - When there is no witness, no route of symbolic.Universe that meets
//     the constraints may take the action.
//
// Policies with an AS-path regex match are skipped: symbolic
// over-approximates those on purpose. The seeds are FuzzParse's: the
// translation example in both dialects and the simulated model's drafts
// and repaired configs with every synthesis error class injected.
func FuzzSearchPolicy(f *testing.F) {
	f.Add(exampledata.CiscoExample)
	src, _ := cisco.Parse(exampledata.CiscoExample)
	f.Add(juniper.Print(translate.Golden(src)))
	seeds, err := fuzz.ParserSeeds()
	if err != nil {
		f.Fatal(err)
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		if len(text) > maxSearchFuzzConfig {
			return
		}
		dev, _ := batfish.ParseConfig(text)
		rev := &netcfg.Parsed{Device: dev}
		universe := symbolic.Universe(dev)
		for _, name := range dev.PolicyNames() {
			pol := dev.RoutePolicies[name]
			if matchesASPath(pol) {
				continue
			}
			for _, q := range searchQueries(name, policyCommunities(dev, pol)) {
				got, err := batfish.SearchRoutePolicies(rev, q)
				if err != nil {
					t.Fatalf("%s %+v: %v", name, q, err)
				}
				if want := referenceSearch(t, dev, pol, q); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %+v: compiled answer %+v, per-query answer %+v", name, q, got, want)
				}
				permit := q.Action == "permit"
				if got.Found {
					w := witnessOf(t, got)
					if !meets(w, q.Constraints) {
						t.Fatalf("%s %+v: witness %v breaks the constraints", name, q, w)
					}
					if netcfg.EvalPolicy(pol, dev, w).Permitted != permit {
						t.Fatalf("%s %+v: the evaluator does not %s witness %v", name, q, q.Action, w)
					}
					continue
				}
				for _, r := range universe {
					if meets(r, q.Constraints) && netcfg.EvalPolicy(pol, dev, r).Permitted == permit {
						t.Fatalf("%s %+v: no witness found, but the evaluator does %s %v", name, q, q.Action, r)
					}
				}
			}
		}
	})
}

// searchQueries returns the fixed question set for one policy.
func searchQueries(policy string, comms []netcfg.Community) []batfish.SearchQuery {
	cons := []batfish.RouteConstraints{{}}
	var all []string
	for _, c := range comms {
		cons = append(cons, batfish.RouteConstraints{HasCommunities: []string{c.String()}})
		all = append(all, c.String())
	}
	if len(all) > 0 {
		cons = append(cons, batfish.RouteConstraints{LacksCommunities: all})
	}
	var out []batfish.SearchQuery
	for _, action := range []string{"permit", "deny"} {
		for _, rc := range cons {
			out = append(out, batfish.SearchQuery{Policy: policy, Action: action, Constraints: rc})
		}
	}
	return out
}

// referenceSearch answers a query from a fresh accept space of the policy,
// compiled for this query alone.
func referenceSearch(t *testing.T, dev *netcfg.Device, pol *netcfg.RoutePolicy, q batfish.SearchQuery) batfish.SearchResult {
	t.Helper()
	input, err := q.Constraints.Space()
	if err != nil {
		t.Fatal(err)
	}
	action := netcfg.Deny
	if q.Action == "permit" {
		action = netcfg.Permit
	}
	w, found := symbolic.Search(symbolic.AcceptSpace(pol, dev), symbolic.Query{Input: input, Action: action})
	if !found {
		return batfish.SearchResult{}
	}
	return batfish.SearchResult{
		Found:              true,
		Witness:            w.String(),
		WitnessPrefix:      w.Prefix.String(),
		WitnessCommunities: w.CommunityStrings(),
		WitnessProtocol:    w.Protocol.String(),
	}
}

// witnessOf rebuilds the witness route from a search result's structured
// fields.
func witnessOf(t *testing.T, res batfish.SearchResult) *netcfg.Route {
	t.Helper()
	p, err := netcfg.ParsePrefix(res.WitnessPrefix)
	if err != nil {
		t.Fatalf("witness prefix: %v", err)
	}
	r := netcfg.NewRoute(p)
	for _, cs := range res.WitnessCommunities {
		c, err := netcfg.ParseCommunity(cs)
		if err != nil {
			t.Fatalf("witness community: %v", err)
		}
		r.AddCommunity(c)
	}
	i := slices.IndexFunc(allProtocols, func(p netcfg.RouteProtocol) bool {
		return p.String() == res.WitnessProtocol
	})
	if i < 0 {
		t.Fatalf("witness protocol %q", res.WitnessProtocol)
	}
	r.Protocol = allProtocols[i]
	return r
}

var allProtocols = []netcfg.RouteProtocol{
	netcfg.ProtoBGP, netcfg.ProtoOSPF, netcfg.ProtoConnected, netcfg.ProtoStatic,
}

// meets reports whether a route satisfies query constraints that name only
// communities (the protocol defaults to BGP).
func meets(r *netcfg.Route, rc batfish.RouteConstraints) bool {
	if r.Protocol != netcfg.ProtoBGP {
		return false
	}
	for _, cs := range rc.HasCommunities {
		if !r.HasCommunity(netcfg.MustCommunity(cs)) {
			return false
		}
	}
	for _, cs := range rc.LacksCommunities {
		if r.HasCommunity(netcfg.MustCommunity(cs)) {
			return false
		}
	}
	return true
}

// matchesASPath reports whether any clause of the policy matches an AS-path
// regex.
func matchesASPath(pol *netcfg.RoutePolicy) bool {
	for _, cl := range pol.Clauses {
		for _, m := range cl.Matches {
			if _, ok := m.(netcfg.MatchASPathRegex); ok {
				return true
			}
		}
	}
	return false
}

// policyCommunities returns, sorted and without duplicates, the
// communities a policy references: in the community lists it matches, in
// its literal community matches, and in its set actions.
func policyCommunities(dev *netcfg.Device, pol *netcfg.RoutePolicy) []netcfg.Community {
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
