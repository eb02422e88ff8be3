package symbolic

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/netcfg"
)

// testEnv is a minimal PolicyEnv for constructing scenarios.
type testEnv struct {
	prefixLists    map[string]*netcfg.PrefixList
	communityLists map[string]*netcfg.CommunityList
}

func (e *testEnv) LookupPrefixList(name string) *netcfg.PrefixList { return e.prefixLists[name] }
func (e *testEnv) LookupCommunityList(name string) *netcfg.CommunityList {
	return e.communityLists[name]
}

func env() *testEnv {
	return &testEnv{
		prefixLists: map[string]*netcfg.PrefixList{
			"nets": {Name: "nets", Entries: []netcfg.PrefixListEntry{
				{Seq: 5, Action: netcfg.Permit, Prefix: netcfg.MustPrefix("1.2.3.0/24"), Ge: 24},
			}},
		},
		communityLists: map[string]*netcfg.CommunityList{
			"1": {Name: "1", Entries: []netcfg.CommunityListEntry{
				{Action: netcfg.Permit, Community: netcfg.MustCommunity("100:1")},
			}},
			"2": {Name: "2", Entries: []netcfg.CommunityListEntry{
				{Action: netcfg.Permit, Community: netcfg.MustCommunity("101:1")},
			}},
		},
	}
}

func TestClassSubtractMatchesConcrete(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		mk := func() Class {
			c := Class{Prefixes: PrefixSet{randomAtom(r)}, Comms: TrueComm(), Protos: MaskAll}
			switch r.Intn(3) {
			case 0:
				c.Comms = RequireComm(netcfg.NewCommunity(100, uint16(r.Intn(3))))
			case 1:
				c.Comms = ForbidComm(netcfg.NewCommunity(100, uint16(r.Intn(3))))
			}
			if r.Intn(2) == 0 {
				c.Protos = ProtoMask(1 + r.Intn(15))
			}
			return c
		}
		a, b := mk(), mk()
		diff := a.Subtract(b)
		for i := 0; i < 48; i++ {
			route := netcfg.NewRoute(randomPrefix(r, a.Prefixes[0]))
			route.Protocol = []netcfg.RouteProtocol{netcfg.ProtoBGP, netcfg.ProtoOSPF,
				netcfg.ProtoConnected, netcfg.ProtoStatic}[r.Intn(4)]
			for low := uint16(0); low < 3; low++ {
				if r.Intn(2) == 0 {
					route.AddCommunity(netcfg.NewCommunity(100, low))
				}
			}
			want := a.Contains(route) && !b.Contains(route)
			if diff.Contains(route) != want {
				t.Logf("a=%v b=%v route=%v want=%v", a, b, route, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAcceptSpaceMatchesConcreteEvaluator(t *testing.T) {
	e := env()
	pol := &netcfg.RoutePolicy{Name: "p", Clauses: []*netcfg.PolicyClause{
		{Seq: 10, Action: netcfg.Deny,
			Matches: []netcfg.Match{netcfg.MatchCommunityList{List: "1"}}},
		{Seq: 20, Action: netcfg.Permit,
			Matches: []netcfg.Match{netcfg.MatchPrefixList{List: "nets"}}},
		{Seq: 30, Action: netcfg.Permit,
			Matches: []netcfg.Match{netcfg.MatchCommunityList{List: "2"}}},
	}}
	accept := AcceptSpace(pol, e)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		route := netcfg.NewRoute(randomPrefix(r, NewAtom(netcfg.MustPrefix("1.2.3.0/24"), 24, 32)))
		if r.Intn(2) == 0 {
			route.AddCommunity(netcfg.MustCommunity("100:1"))
		}
		if r.Intn(2) == 0 {
			route.AddCommunity(netcfg.MustCommunity("101:1"))
		}
		want := netcfg.EvalPolicy(pol, e, route).Permitted
		return accept.Contains(route) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestSearchPolicyFindsPermitWitness(t *testing.T) {
	e := env()
	// Policy permits routes carrying 100:1 — the no-transit violation shape.
	pol := &netcfg.RoutePolicy{Name: "FILTER", Clauses: []*netcfg.PolicyClause{
		{Seq: 10, Action: netcfg.Permit},
	}}
	q := Query{
		Input: Space{{Prefixes: FullPrefixSet(),
			Comms: RequireComm(netcfg.MustCommunity("100:1")), Protos: MaskBGP}},
		Action: netcfg.Permit,
	}
	witness, found := Search(AcceptSpace(pol, e), q)
	if !found {
		t.Fatal("expected a witness")
	}
	if !witness.HasCommunity(netcfg.MustCommunity("100:1")) {
		t.Errorf("witness %v lacks required community", witness)
	}
	// The witness must actually be permitted by the concrete evaluator.
	if !netcfg.EvalPolicy(pol, e, witness).Permitted {
		t.Errorf("witness %v is not actually permitted", witness)
	}
}

func TestSearchPolicyNoWitnessWhenPolicyCorrect(t *testing.T) {
	e := env()
	// Correct egress filter: deny 100:1 then permit.
	pol := &netcfg.RoutePolicy{Name: "FILTER", Clauses: []*netcfg.PolicyClause{
		{Seq: 10, Action: netcfg.Deny,
			Matches: []netcfg.Match{netcfg.MatchCommunityList{List: "1"}}},
		{Seq: 20, Action: netcfg.Permit},
	}}
	q := Query{
		Input: Space{{Prefixes: FullPrefixSet(),
			Comms: RequireComm(netcfg.MustCommunity("100:1")), Protos: MaskBGP}},
		Action: netcfg.Permit,
	}
	if w, found := Search(AcceptSpace(pol, e), q); found {
		t.Fatalf("unexpected witness %v for correct filter", w)
	}
}

func TestSearchPolicyDenyQueryFindsWronglyDenied(t *testing.T) {
	e := env()
	// Deny-everything policy must yield a deny witness even for clean routes.
	pol := &netcfg.RoutePolicy{Name: "D", Clauses: []*netcfg.PolicyClause{
		{Seq: 10, Action: netcfg.Deny},
	}}
	q := Query{
		Input: Space{{Prefixes: FullPrefixSet(),
			Comms: ForbidComm(netcfg.MustCommunity("100:1")), Protos: MaskBGP}},
		Action: netcfg.Deny,
	}
	w, found := Search(AcceptSpace(pol, e), q)
	if !found {
		t.Fatal("expected deny witness")
	}
	if w.HasCommunity(netcfg.MustCommunity("100:1")) {
		t.Errorf("witness %v violates the input constraint", w)
	}
}

// TestAndOrSemanticsDistinguished is the paper's §4.2 case in symbolic
// form: a single deny stanza ANDing two community matches does NOT deny a
// route carrying only one community, while split stanzas do.
func TestAndOrSemanticsDistinguished(t *testing.T) {
	e := env()
	and := &netcfg.RoutePolicy{Name: "AND", Clauses: []*netcfg.PolicyClause{
		{Seq: 10, Action: netcfg.Deny, Matches: []netcfg.Match{
			netcfg.MatchCommunityList{List: "1"},
			netcfg.MatchCommunityList{List: "2"},
		}},
		{Seq: 20, Action: netcfg.Permit},
	}}
	or := &netcfg.RoutePolicy{Name: "OR", Clauses: []*netcfg.PolicyClause{
		{Seq: 10, Action: netcfg.Deny,
			Matches: []netcfg.Match{netcfg.MatchCommunityList{List: "1"}}},
		{Seq: 20, Action: netcfg.Deny,
			Matches: []netcfg.Match{netcfg.MatchCommunityList{List: "2"}}},
		{Seq: 30, Action: netcfg.Permit},
	}}
	q := Query{
		Input: Space{{Prefixes: FullPrefixSet(),
			Comms: RequireComm(netcfg.MustCommunity("100:1")), Protos: MaskBGP}},
		Action: netcfg.Permit,
	}
	if _, found := Search(AcceptSpace(and, e), q); !found {
		t.Error("AND policy should leak single-community routes (witness expected)")
	}
	if w, found := Search(AcceptSpace(or, e), q); found {
		t.Errorf("OR policy should filter single-community routes, got witness %v", w)
	}
}

func TestUniverseCoversListBoundaries(t *testing.T) {
	dev := netcfg.NewDevice("d", netcfg.VendorCisco)
	dev.PrefixLists["nets"] = env().prefixLists["nets"]
	dev.CommunityLists["1"] = env().communityLists["1"]
	routes := Universe(dev)
	if len(routes) == 0 {
		t.Fatal("empty universe")
	}
	sawBoundary := map[string]bool{}
	for _, r := range routes {
		sawBoundary[r.Prefix.String()] = true
	}
	for _, want := range []string{"1.2.3.0/24", "1.2.3.0/32", "1.2.2.0/24"} {
		if !sawBoundary[want] {
			t.Errorf("universe missing boundary prefix %s", want)
		}
	}
	// Universe must be deterministic.
	again := Universe(dev)
	if len(again) != len(routes) {
		t.Fatalf("universe not deterministic: %d vs %d", len(routes), len(again))
	}
	for i := range routes {
		if routes[i].String() != again[i].String() {
			t.Fatalf("universe order differs at %d: %v vs %v", i, routes[i], again[i])
		}
	}
}
