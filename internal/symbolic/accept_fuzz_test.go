package symbolic_test

import (
	"fmt"
	"reflect"
	"slices"
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

// maxAcceptFuzzConfig bounds the fuzzed configuration text, as
// FuzzSearchPolicy bounds it.
const maxAcceptFuzzConfig = 16 << 10

// FuzzAcceptRegions checks the route-map compile against the reference
// compile kept below: for every route-map of the parsed device,
// AcceptRegions must return the reference's regions class for class and
// atom for atom, and AcceptSpace the reference's union. Witnesses are
// sampled from these classes, so an equal-but-differently-split result
// would still change what the verifier reports. The seeds are
// FuzzSearchPolicy's, a 73-clause egress map, the shape the repair loop
// gives every ISP attachment of random:75, and mixedGuards.
func FuzzAcceptRegions(f *testing.F) {
	f.Add(exampledata.CiscoExample)
	src, _ := cisco.Parse(exampledata.CiscoExample)
	f.Add(juniper.Print(translate.Golden(src)))
	f.Add(egressMapConfig(73))
	f.Add(mixedGuards)
	seeds, err := fuzz.ParserSeeds()
	if err != nil {
		f.Fatal(err)
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		if len(text) > maxAcceptFuzzConfig {
			return
		}
		dev, _ := batfish.ParseConfig(text)
		pols := []*netcfg.RoutePolicy{nil}
		for _, name := range dev.PolicyNames() {
			pols = append(pols, dev.RoutePolicies[name])
		}
		for _, pol := range pols {
			got, want := symbolic.AcceptRegions(pol, dev), refAcceptRegions(pol, dev)
			if !sameRegions(got, want) {
				t.Fatalf("%s: regions\n%v\nreference\n%v", policyName(pol), got, want)
			}
			var wantSpace symbolic.Space
			for _, r := range want {
				wantSpace = wantSpace.Union(r.Space)
			}
			if gotSpace := symbolic.AcceptSpace(pol, dev); !sameSpace(gotSpace, wantSpace) {
				t.Fatalf("%s: accept space %v, reference %v", policyName(pol), gotSpace, wantSpace)
			}
		}
	})
}

// egressMapConfig renders an IOS configuration holding one egress
// route-map of n deny clauses, each matching its own one-community list,
// and a closing permit.
func egressMapConfig(n int) string {
	var b strings.Builder
	b.WriteString("hostname R1\n!\n")
	for i := range n {
		fmt.Fprintf(&b, "ip community-list %d permit %d:1\n", i, 100+i)
	}
	b.WriteString("!\n")
	for i := range n {
		fmt.Fprintf(&b, "route-map FILTER_COMM_OUT_ISP1 deny %d\n match community %d\n", 10*(i+1), i)
	}
	fmt.Fprintf(&b, "route-map FILTER_COMM_OUT_ISP1 permit %d\n!\n", 10*(n+1))
	return b.String()
}

// mixedGuards is a route-map whose clauses reach every branch of the
// subtraction: a community the remaining routes already forbid (clause
// 20), a community-list guard with a deny entry whose community the
// remaining routes forbid too (30, 40), a protocol guard that leaves the
// other protocols (50), a prefix-list guard (60) and a two-match guard
// (70).
const mixedGuards = `hostname R1
!
ip prefix-list NETS seq 5 permit 10.0.0.0/8 le 24
ip community-list 1 permit 100:1
ip community-list 2 deny 100:1
ip community-list 2 permit 101:1
!
route-map MIXED deny 10
 match community 1
route-map MIXED deny 20
 match community 1
route-map MIXED deny 30
 match community 2
route-map MIXED deny 40
 match community 2
route-map MIXED deny 50
 match source-protocol connected
route-map MIXED permit 60
 match ip address prefix-list NETS
route-map MIXED permit 70
 match community 2
 match source-protocol static
!
`

func policyName(pol *netcfg.RoutePolicy) string {
	if pol == nil {
		return "nil policy"
	}
	return pol.Name
}

// sameRegions compares regions class for class and atom for atom; a nil
// slice equals an empty one.
func sameRegions(a, b []symbolic.Region) bool {
	return slices.EqualFunc(a, b, func(x, y symbolic.Region) bool {
		return x.ClauseSeq == y.ClauseSeq && reflect.DeepEqual(x.Sets, y.Sets) && sameSpace(x.Space, y.Space)
	})
}

func sameSpace(a, b symbolic.Space) bool {
	return slices.EqualFunc(a, b, func(x, y symbolic.Class) bool {
		return slices.Equal(x.Prefixes, y.Prefixes) && x.Protos == y.Protos &&
			slices.Equal(x.Comms.Req, y.Comms.Req) && slices.Equal(x.Comms.Forbid, y.Comms.Forbid)
	})
}

// The reference compile: AcceptRegions and the Space and Class
// operations it calls, as they were before the compile stopped building
// spaces it throws away. It intersects every clause's guard with what
// remains, deny clauses included, starts each guard from the full space,
// and subtracts through fresh copies, CommCond.Negations and
// CommCond.And, whose own reference test pins them.

func refAcceptRegions(p *netcfg.RoutePolicy, env netcfg.PolicyEnv) []symbolic.Region {
	if p == nil {
		return []symbolic.Region{{Space: symbolic.FullSpace(), ClauseSeq: -1}}
	}
	remaining := symbolic.FullSpace()
	var out []symbolic.Region
	for _, cl := range p.Clauses {
		guard := refClauseGuard(cl, env)
		reached := refSpaceIntersect(remaining, guard)
		if cl.Action == netcfg.Permit && !reached.Empty() {
			out = append(out, symbolic.Region{Space: reached, ClauseSeq: cl.Seq, Sets: cl.Sets})
		}
		remaining = refSpaceSubtract(remaining, guard)
		if remaining.Empty() {
			break
		}
	}
	return out
}

func refClauseGuard(cl *netcfg.PolicyClause, env netcfg.PolicyEnv) symbolic.Space {
	guard := symbolic.FullSpace()
	for _, m := range cl.Matches {
		guard = refSpaceIntersect(guard, symbolic.MatchSpace(m, env))
		if guard.Empty() {
			return nil
		}
	}
	return guard
}

func refSpaceIntersect(s, t symbolic.Space) symbolic.Space {
	var out symbolic.Space
	for _, a := range s {
		for _, b := range t {
			if i := refClassIntersect(a, b); !i.Empty() {
				out = append(out, i)
			}
		}
	}
	return out
}

func refSpaceSubtract(s, t symbolic.Space) symbolic.Space {
	cur := make(symbolic.Space, 0, len(s))
	for _, c := range s {
		if !c.Empty() {
			cur = append(cur, c)
		}
	}
	for _, b := range t {
		if b.Empty() {
			continue
		}
		var next symbolic.Space
		for _, a := range cur {
			next = append(next, refClassSubtract(a, b)...)
		}
		cur = next
	}
	return cur
}

func refClassIntersect(c, d symbolic.Class) symbolic.Class {
	comms, ok := c.Comms.And(d.Comms)
	if !ok {
		return symbolic.Class{}
	}
	return symbolic.Class{
		Prefixes: c.Prefixes.Intersect(d.Prefixes),
		Comms:    comms,
		Protos:   c.Protos & d.Protos,
	}
}

func refClassSubtract(c, d symbolic.Class) symbolic.Space {
	if c.Empty() {
		return nil
	}
	if d.Empty() {
		return symbolic.Space{c}
	}
	var out symbolic.Space
	if ps := c.Prefixes.Subtract(d.Prefixes); !ps.Empty() {
		out = append(out, symbolic.Class{Prefixes: ps, Comms: c.Comms, Protos: c.Protos})
	}
	inter := c.Prefixes.Intersect(d.Prefixes)
	if inter.Empty() {
		return out
	}
	for _, neg := range d.Comms.Negations() {
		if comms, ok := c.Comms.And(neg); ok {
			out = append(out, symbolic.Class{Prefixes: inter, Comms: comms, Protos: c.Protos})
		}
	}
	if both, ok := c.Comms.And(d.Comms); ok {
		if protos := c.Protos &^ d.Protos; protos != 0 {
			out = append(out, symbolic.Class{Prefixes: inter, Comms: both, Protos: protos})
		}
	}
	return out
}
