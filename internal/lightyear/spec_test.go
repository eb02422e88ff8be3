package lightyear

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/netcfg"
	"repro/internal/netgen"
)

func TestNoTransitSpecShape(t *testing.T) {
	topo, err := netgen.Star(7)
	if err != nil {
		t.Fatal(err)
	}
	reqs := NoTransitSpec(topo)
	// 6 spokes: 6 ingress + 6 egress-drop (5 communities each) + 6
	// egress-permit = 18.
	if len(reqs) != 18 {
		t.Fatalf("requirements = %d, want 18", len(reqs))
	}
	var ingress, drop, clean int
	for _, r := range reqs {
		if r.Router != "R1" {
			t.Errorf("requirement on %s; all no-transit obligations live on the hub", r.Router)
		}
		switch r.Kind {
		case IngressAddsCommunity:
			ingress++
		case EgressDropsCommunity:
			drop++
			if len(r.Communities) != 5 || len(r.LearnedFrom) != 5 || r.Description != "" {
				t.Errorf("%s drops %d communities learned from %d peers, description %q; "+
					"want 5, 5 and none", r.Policy, len(r.Communities), len(r.LearnedFrom), r.Description)
			}
		case EgressPermitsClean:
			clean++
		}
	}
	if ingress != 6 || drop != 6 || clean != 6 {
		t.Errorf("breakdown = %d/%d/%d, want 6/6/6", ingress, drop, clean)
	}
	if err := CoverageComplete(topo, reqs); err != nil {
		t.Errorf("coverage: %v", err)
	}
}

func TestCoverageDetectsMissingObligation(t *testing.T) {
	topo, err := netgen.Star(5)
	if err != nil {
		t.Fatal(err)
	}
	reqs := NoTransitSpec(topo)
	// Prune one community from one egress-drop group: the composition
	// proof must fail.
	pruned := false
	for i, r := range reqs {
		if r.Kind != EgressDropsCommunity || r.Policy != EgressPolicyName(2) {
			continue
		}
		var keep []netcfg.Community
		for _, c := range r.Communities {
			if c != netgen.ISPCommunity(3) {
				keep = append(keep, c)
			}
		}
		pruned = len(keep) < len(r.Communities)
		reqs[i].Communities = keep
	}
	if !pruned {
		t.Fatalf("no egress-drop group of %s lists %s", EgressPolicyName(2), netgen.ISPCommunity(3))
	}
	if err := CoverageComplete(topo, reqs); err == nil {
		t.Fatal("incomplete requirement set passed the coverage check")
	}
}

// hubDevice builds R1 with correct ingress tagging and an egress filter
// built by the caller.
func hubDevice(egress func(dev *netcfg.Device)) *netcfg.Device {
	dev := netcfg.NewDevice("R1", netcfg.VendorCisco)
	b := dev.EnsureBGP(1)
	_ = b
	pol := &netcfg.RoutePolicy{Name: IngressPolicyName(2), Clauses: []*netcfg.PolicyClause{
		{Seq: 10, Action: netcfg.Permit, Sets: []netcfg.SetAction{
			netcfg.SetCommunity{Communities: []netcfg.Community{netgen.ISPCommunity(2)},
				Additive: true},
		}},
	}}
	dev.RoutePolicies[pol.Name] = pol
	egress(dev)
	return dev
}

func correctEgress(dev *netcfg.Device) {
	// Correct: one deny stanza per foreign tag, then permit.
	lists := map[int]string{3: "2", 4: "3"}
	for i, name := range lists {
		dev.CommunityLists[name] = &netcfg.CommunityList{Name: name,
			Entries: []netcfg.CommunityListEntry{
				{Action: netcfg.Permit, Community: netgen.ISPCommunity(i)},
			}}
	}
	dev.RoutePolicies[EgressPolicyName(2)] = &netcfg.RoutePolicy{Name: EgressPolicyName(2),
		Clauses: []*netcfg.PolicyClause{
			{Seq: 10, Action: netcfg.Deny,
				Matches: []netcfg.Match{netcfg.MatchCommunityList{List: "2"}}},
			{Seq: 20, Action: netcfg.Deny,
				Matches: []netcfg.Match{netcfg.MatchCommunityList{List: "3"}}},
			{Seq: 30, Action: netcfg.Permit},
		}}
}

func andEgress(dev *netcfg.Device) {
	// The §4.2 AND error: both matches in one stanza.
	correctEgress(dev)
	pol := dev.RoutePolicies[EgressPolicyName(2)]
	pol.Clauses = []*netcfg.PolicyClause{
		{Seq: 10, Action: netcfg.Deny, Matches: []netcfg.Match{
			netcfg.MatchCommunityList{List: "2"},
			netcfg.MatchCommunityList{List: "3"},
		}},
		{Seq: 20, Action: netcfg.Permit},
	}
}

func TestCheckIngressAddsPasses(t *testing.T) {
	dev := hubDevice(correctEgress)
	req := Requirement{Kind: IngressAddsCommunity, Router: "R1",
		Policy: IngressPolicyName(2), Community: netgen.ISPCommunity(2)}
	if v, bad := Check(&netcfg.Parsed{Device: dev}, req); bad {
		t.Fatalf("unexpected violation: %s", v.Explanation)
	}
}

func TestCheckIngressDetectsMissingAdditive(t *testing.T) {
	dev := hubDevice(correctEgress)
	sets := dev.RoutePolicies[IngressPolicyName(2)].Clauses[0].Sets
	sc := sets[0].(netcfg.SetCommunity)
	sc.Additive = false
	sets[0] = sc
	req := Requirement{Kind: IngressAddsCommunity, Router: "R1",
		Policy: IngressPolicyName(2), Community: netgen.ISPCommunity(2)}
	v, bad := Check(&netcfg.Parsed{Device: dev}, req)
	if !bad {
		t.Fatal("non-additive set community passed the ingress check")
	}
	if !strings.Contains(v.Explanation, "additive") {
		t.Errorf("explanation should mention 'additive': %s", v.Explanation)
	}
}

func TestCheckIngressDetectsMissingTag(t *testing.T) {
	dev := hubDevice(correctEgress)
	dev.RoutePolicies[IngressPolicyName(2)].Clauses[0].Sets = nil
	req := Requirement{Kind: IngressAddsCommunity, Router: "R1",
		Policy: IngressPolicyName(2), Community: netgen.ISPCommunity(2)}
	if _, bad := Check(&netcfg.Parsed{Device: dev}, req); !bad {
		t.Fatal("untagged ingress passed")
	}
}

// hubDrops is R1's egress-drop requirement toward R2, listing the
// communities of the given spokes.
func hubDrops(spokes ...int) Requirement {
	req := Requirement{Kind: EgressDropsCommunity, Router: "R1",
		Attachment: AttachmentRef{Router: "R1", Peer: "R2", Direction: DirOut},
		Policy:     EgressPolicyName(2)}
	for _, j := range spokes {
		req.Communities = append(req.Communities, netgen.ISPCommunity(j))
		req.LearnedFrom = append(req.LearnedFrom, fmt.Sprintf("R%d", j))
	}
	return req
}

func TestCheckEgressDropsCorrectFilter(t *testing.T) {
	dev := hubDevice(correctEgress)
	if v, bad := Check(&netcfg.Parsed{Device: dev}, hubDrops(3, 4)); bad {
		t.Fatalf("correct filter flagged: %s", v.Explanation)
	}
}

func TestCheckEgressDetectsANDSemantics(t *testing.T) {
	dev := hubDevice(andEgress)
	v, bad := Check(&netcfg.Parsed{Device: dev}, hubDrops(3, 4))
	if !bad {
		t.Fatal("AND-semantics filter passed the egress check")
	}
	if !strings.Contains(v.Explanation, "permits routes that have the community") {
		t.Errorf("explanation should follow Table 3: %s", v.Explanation)
	}
	if v.Witness == nil || !v.Witness.HasCommunity(netgen.ISPCommunity(3)) {
		t.Errorf("witness should carry the leaked community: %v", v.Witness)
	}
	// The violation names the first leaked community alone, with that
	// community's rendering of the obligation.
	want := hubDrops(3)
	want.Description = "R1 must not export to R2 any route carrying community 101:1 (learned from R3)."
	if !reflect.DeepEqual(v.Requirement, want) {
		t.Errorf("violated requirement = %+v, want %+v", v.Requirement, want)
	}
}

// TestCheckEgressDropsScansInOrder: a filter that drops R3's community
// but leaks R4's is reported against R4's, the first violated one.
func TestCheckEgressDropsScansInOrder(t *testing.T) {
	dev := hubDevice(correctEgress)
	pol := dev.RoutePolicies[EgressPolicyName(2)]
	pol.Clauses = append(pol.Clauses[:1], pol.Clauses[2:]...)
	v, bad := Check(&netcfg.Parsed{Device: dev}, hubDrops(3, 4))
	if !bad {
		t.Fatal("filter leaking 102:1 passed the egress check")
	}
	if got := v.Requirement.Communities; len(got) != 1 || got[0] != netgen.ISPCommunity(4) {
		t.Errorf("violated communities = %v, want [%s]", got, netgen.ISPCommunity(4))
	}
	if !strings.Contains(v.Requirement.Description, "(learned from R4)") {
		t.Errorf("description = %q, want R4's obligation", v.Requirement.Description)
	}
}

func TestCheckEgressPermitsClean(t *testing.T) {
	dev := hubDevice(correctEgress)
	req := Requirement{Kind: EgressPermitsClean, Router: "R1",
		Policy:      EgressPolicyName(2),
		Communities: []netcfg.Community{netgen.ISPCommunity(3), netgen.ISPCommunity(4)}}
	if v, bad := Check(&netcfg.Parsed{Device: dev}, req); bad {
		t.Fatalf("clean-permitting filter flagged: %s", v.Explanation)
	}
	// Break it: deny everything.
	dev.RoutePolicies[EgressPolicyName(2)].Clauses = []*netcfg.PolicyClause{
		{Seq: 10, Action: netcfg.Deny},
	}
	if _, bad := Check(&netcfg.Parsed{Device: dev}, req); !bad {
		t.Fatal("deny-all egress passed the customer-reachability check")
	}
}

func TestCheckMissingPolicyIsViolation(t *testing.T) {
	dev := netcfg.NewDevice("R1", netcfg.VendorCisco)
	req := hubDrops(3, 4)
	req.Policy = "NOPE"
	v, bad := Check(&netcfg.Parsed{Device: dev}, req)
	if !bad || !strings.Contains(v.Explanation, "not defined") {
		t.Fatalf("missing policy: bad=%v %s", bad, v.Explanation)
	}
	// An undefined route-map violates the group's first community.
	if !strings.Contains(v.Explanation, "(learned from R3)") ||
		v.Requirement.Description == "" || len(v.Requirement.Communities) != 1 {
		t.Errorf("missing policy reported %+v: %s", v.Requirement, v.Explanation)
	}
}

func TestCheckAllAggregates(t *testing.T) {
	topo, err := netgen.Star(3)
	if err != nil {
		t.Fatal(err)
	}
	reqs := NoTransitSpec(topo)
	viols := CheckAll(reqs, map[string]*netcfg.Parsed{})
	if len(viols) != len(reqs) {
		t.Fatalf("violations = %d, want one per requirement for a missing device", len(viols))
	}
}
