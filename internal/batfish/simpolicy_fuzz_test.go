package batfish_test

import (
	"hash/fnv"
	"maps"
	"math/rand/v2"
	"slices"
	"strconv"
	"strings"
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

// simPolicySeeds are hand-built route-maps for the cases the compiled
// evaluator treats specially: a community list with a deny entry ahead of
// a permit, clauses with several matches, undefined lists, a literal
// community, AS-path regexes, and a zero-match clause in the middle of
// what would otherwise be one indexed run.
var simPolicySeeds = []string{
	`hostname DENY-AHEAD
ip community-list standard OTHER permit 102:1
ip community-list standard TAGGED deny 100:1
ip community-list standard TAGGED permit 100:1
ip community-list standard TAGGED permit 101:1
route-map EGRESS deny 10
 match community OTHER
route-map EGRESS deny 20
 match community TAGGED
route-map EGRESS permit 30
`,
	`hostname SEVERAL
ip community-list standard A permit 100:1
ip prefix-list P seq 5 permit 10.0.0.0/8 le 24
route-map M permit 10
 match community A
 match ip address prefix-list P
 set metric 5
route-map M deny 20
 match community A
route-map M permit 30
 set local-preference 200
`,
	`hostname UNDEFINED
ip community-list standard A permit 100:1
route-map M deny 10
 match community NOPE
route-map M deny 20
 match community A
route-map M deny 30
 match ip address prefix-list NOPE
route-map M deny 40
 match community NOPE
route-map M permit 50
 set community 101:1 additive
`,
	`hostname LITERAL
ip community-list standard A permit 101:1
route-map M deny 10
 match community A
route-map M deny 20
 match community 100:1
route-map M permit 30
 set community 102:1
`,
	`hostname ASPATH
ip community-list standard A permit 100:1
route-map M permit 10
 match community A
route-map M deny 20
 match as-path ^65001_
route-map M permit 30
 match as-path _65002_
 set metric 3
route-map M permit 40
 match as-path ^$
`,
	`hostname ZERO-MATCH
ip community-list standard A permit 100:1
ip community-list standard B permit 101:1
ip community-list standard B permit 100:1
ip community-list standard C permit 102:1
route-map M deny 10
 match community A
route-map M permit 20
 match community B
 set community 103:1 additive
route-map M permit 30
 set metric 9
route-map M deny 40
 match community C
`,
}

// FuzzSimPolicy checks the simulation's compiled route-maps against the
// reference evaluator, netcfg.EvalPolicy. Every route-map of the parsed
// device is compiled against it and asked about every route of
// symbolic.Universe, plus one route built from the input, which carries
// an AS path of ASNs the device's regexes name. The compiled verdict and
// the route it permits must equal the reference's, and the route asked
// about must be left unchanged. The seeds are FuzzSearchPolicy's and the
// hand-built simPolicySeeds.
func FuzzSimPolicy(f *testing.F) {
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
	for _, s := range simPolicySeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		if len(text) > maxSearchFuzzConfig {
			return
		}
		dev, _ := batfish.ParseConfig(text)
		routes := append(symbolic.Universe(dev), inputRoute(text, dev))
		for _, name := range dev.PolicyNames() {
			pol := dev.RoutePolicies[name]
			for _, r := range routes {
				before := r.Clone()
				ok, got := batfish.EvalCompiled(pol, dev, r)
				want := netcfg.EvalPolicy(pol, dev, r)
				if ok != want.Permitted {
					t.Fatalf("%s on %v: compiled permit=%v, EvalPolicy permit=%v", name, r, ok, want.Permitted)
				}
				if ok && !sameRoute(got, want.Route) {
					t.Fatalf("%s on %v: compiled output %s, EvalPolicy output %s", name, r, describe(got), describe(want.Route))
				}
				if !sameRoute(r, before) {
					t.Fatalf("%s wrote into the route it evaluated: %s, was %s", name, describe(r), describe(before))
				}
			}
		}
	})
}

// inputRoute builds a route from the input's hash: a random prefix,
// protocol, MED and local-pref, a random subset of the communities the
// device references, and an AS path of up to three ASNs drawn from those
// its AS-path regexes name and one other.
func inputRoute(text string, dev *netcfg.Device) *netcfg.Route {
	h := fnv.New64a()
	h.Write([]byte(text))
	rng := rand.New(rand.NewPCG(h.Sum64(), 21))
	r := netcfg.NewRoute(netcfg.NewPrefix(rng.Uint32(), rng.IntN(33)))
	r.Protocol = allProtocols[rng.IntN(len(allProtocols))]
	r.MED = rng.IntN(4)
	r.LocalPref = 90 + 10*rng.IntN(4)
	comms := map[netcfg.Community]bool{}
	asns := []uint32{64512}
	for _, name := range dev.PolicyNames() {
		for _, c := range policyCommunities(dev, dev.RoutePolicies[name]) {
			comms[c] = true
		}
		for _, cl := range dev.RoutePolicies[name].Clauses {
			for _, m := range cl.Matches {
				if re, ok := m.(netcfg.MatchASPathRegex); ok {
					digits := strings.Trim(re.Regex, "^$_")
					if n, err := strconv.ParseUint(digits, 10, 32); err == nil {
						asns = append(asns, uint32(n))
					}
				}
			}
		}
	}
	for _, c := range slices.Sorted(maps.Keys(comms)) {
		if rng.IntN(2) == 0 {
			r.AddCommunity(c)
		}
	}
	for range rng.IntN(4) {
		r.ASPath = append(r.ASPath, asns[rng.IntN(len(asns))])
	}
	return r
}

// sameRoute reports whether two routes carry the same attributes, treating
// an empty AS path or community set like a missing one.
func sameRoute(a, b *netcfg.Route) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Prefix == b.Prefix && a.Protocol == b.Protocol && a.NextHop == b.NextHop &&
		a.MED == b.MED && a.LocalPref == b.LocalPref &&
		slices.Equal(a.ASPath, b.ASPath) && maps.Equal(a.Communities, b.Communities)
}
