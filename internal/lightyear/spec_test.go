package lightyear

import (
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
	// 6 spokes: 6 ingress + 6*5 egress-drop + 6 egress-permit = 42.
	if len(reqs) != 42 {
		t.Fatalf("requirements = %d, want 42", len(reqs))
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
		case EgressPermitsClean:
			clean++
		}
	}
	if ingress != 6 || drop != 30 || clean != 6 {
		t.Errorf("breakdown = %d/%d/%d, want 6/30/6", ingress, drop, clean)
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
	// Remove one egress-drop requirement: the composition proof must fail.
	var pruned []Requirement
	for _, r := range reqs {
		if r.Kind == EgressDropsCommunity && r.Policy == EgressPolicyName(2) &&
			r.Community == netgen.ISPCommunity(3) {
			continue
		}
		pruned = append(pruned, r)
	}
	if err := CoverageComplete(topo, pruned); err == nil {
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

func TestCheckEgressDropsCorrectFilter(t *testing.T) {
	dev := hubDevice(correctEgress)
	req := Requirement{Kind: EgressDropsCommunity, Router: "R1",
		Policy: EgressPolicyName(2), Community: netgen.ISPCommunity(3)}
	if v, bad := Check(&netcfg.Parsed{Device: dev}, req); bad {
		t.Fatalf("correct filter flagged: %s", v.Explanation)
	}
}

func TestCheckEgressDetectsANDSemantics(t *testing.T) {
	dev := hubDevice(andEgress)
	req := Requirement{Kind: EgressDropsCommunity, Router: "R1",
		Policy: EgressPolicyName(2), Community: netgen.ISPCommunity(3)}
	v, bad := Check(&netcfg.Parsed{Device: dev}, req)
	if !bad {
		t.Fatal("AND-semantics filter passed the egress check")
	}
	if !strings.Contains(v.Explanation, "permits routes that have the community") {
		t.Errorf("explanation should follow Table 3: %s", v.Explanation)
	}
	if v.Witness == nil || !v.Witness.HasCommunity(netgen.ISPCommunity(3)) {
		t.Errorf("witness should carry the leaked community: %v", v.Witness)
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
	req := Requirement{Kind: EgressDropsCommunity, Router: "R1",
		Policy: "NOPE", Community: netgen.ISPCommunity(2)}
	v, bad := Check(&netcfg.Parsed{Device: dev}, req)
	if !bad || !strings.Contains(v.Explanation, "not defined") {
		t.Fatalf("missing policy: bad=%v %s", bad, v.Explanation)
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
