package juniper

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/netcfg"
)

const sampleJunos = `system {
    host-name border1;
}
interfaces {
    ge-0/0/0 {
        unit 0 {
            description "LAN";
            family inet {
                address 1.2.3.1/24;
            }
        }
    }
    lo0 {
        unit 0 {
            family inet {
                address 1.1.1.1/32;
            }
        }
    }
}
routing-options {
    router-id 1.1.1.1;
    autonomous-system 65000;
    static {
        route 7.0.0.0/8 next-hop 2.3.4.5;
    }
}
protocols {
    bgp {
        group ebgp {
            type external;
            neighbor 2.3.4.5 {
                description "PROVIDER";
                peer-as 65001;
                import from_provider;
                export to_provider;
            }
        }
    }
    ospf {
        area 0.0.0.0 {
            interface lo0.0 {
                passive;
                metric 1;
            }
            interface ge-0/0/0.0 {
                metric 5;
            }
        }
    }
}
policy-options {
    prefix-list default-route {
        0.0.0.0/0;
    }
    policy-statement from_provider {
        term 10 {
            from {
                prefix-list default-route;
            }
            then {
                local-preference 200;
                accept;
            }
        }
        term 20 {
            from {
                community PROV;
            }
            then {
                community add MINE;
                accept;
            }
        }
        term 100 {
            then {
                reject;
            }
        }
    }
    policy-statement to_provider {
        term 10 {
            from {
                protocol bgp;
                route-filter 1.2.3.0/24 prefix-length-range /24-/32;
            }
            then {
                metric 50;
                accept;
            }
        }
        term 20 {
            then {
                reject;
            }
        }
    }
    community MINE members 65000:300;
    community PROV members 65001:100;
}
`

func TestParseSampleJunosClean(t *testing.T) {
	dev, warns := Parse(sampleJunos)
	if len(warns) != 0 {
		t.Fatalf("warnings: %v", warns)
	}
	if dev.Hostname != "border1" {
		t.Errorf("hostname = %q", dev.Hostname)
	}
	ge := dev.Interface("ge-0/0/0.0")
	if ge == nil || !ge.HasAddress || ge.Description != "LAN" {
		t.Fatalf("ge-0/0/0.0 = %+v", ge)
	}
	if ge.OSPFArea != 0 || ge.OSPFCost != 5 {
		t.Errorf("ge OSPF = area %d cost %d", ge.OSPFArea, ge.OSPFCost)
	}
	lo := dev.Interface("lo0.0")
	if lo == nil || !lo.OSPFPassive || lo.OSPFCost != 1 {
		t.Fatalf("lo0.0 = %+v", lo)
	}
	if dev.BGP == nil || dev.BGP.ASN != 65000 || netcfg.FormatIP(dev.BGP.RouterID) != "1.1.1.1" {
		t.Fatalf("BGP = %+v", dev.BGP)
	}
	nbr := dev.BGP.Neighbors[0]
	if nbr.RemoteAS != 65001 || nbr.ImportPolicy != "from_provider" || nbr.ExportPolicy != "to_provider" {
		t.Fatalf("neighbor = %+v", nbr)
	}
	if len(dev.StaticRoutes) != 1 || dev.StaticRoutes[0].Prefix.String() != "7.0.0.0/8" {
		t.Errorf("static = %+v", dev.StaticRoutes)
	}
	fp := dev.RoutePolicies["from_provider"]
	if fp == nil || len(fp.Clauses) != 3 {
		t.Fatalf("from_provider = %+v", fp)
	}
	// Term 20 must have resolved the named community both in match and set.
	var gotMatch, gotSet bool
	for _, m := range fp.Clauses[1].Matches {
		if mc, ok := m.(netcfg.MatchCommunityList); ok && mc.List == "PROV" {
			gotMatch = true
		}
	}
	for _, s := range fp.Clauses[1].Sets {
		if sc, ok := s.(netcfg.SetCommunity); ok && sc.Additive &&
			len(sc.Communities) == 1 && sc.Communities[0] == netcfg.MustCommunity("65000:300") {
			gotSet = true
		}
	}
	if !gotMatch || !gotSet {
		t.Errorf("term 20 match/set resolution: match=%v set=%v", gotMatch, gotSet)
	}
	tp := dev.RoutePolicies["to_provider"]
	var rf *netcfg.MatchRouteFilter
	var proto bool
	for _, m := range tp.Clauses[0].Matches {
		switch m := m.(type) {
		case netcfg.MatchRouteFilter:
			rf = &m
		case netcfg.MatchProtocol:
			proto = m.Protocol == netcfg.RedistBGP
		}
	}
	if rf == nil || rf.MinLen != 24 || rf.MaxLen != 32 || !proto {
		t.Fatalf("to_provider term 10 = %+v", tp.Clauses[0])
	}
}

func TestPrintParseRoundTrip(t *testing.T) {
	dev, warns := Parse(sampleJunos)
	if len(warns) != 0 {
		t.Fatal(warns)
	}
	text := Print(dev)
	dev2, warns2 := Parse(text)
	if len(warns2) != 0 {
		t.Fatalf("reparse warnings: %v\n%s", warns2, text)
	}
	if Print(dev2) != text {
		t.Error("print not idempotent")
	}
}

func TestInvalidPrefixListEntryWarns(t *testing.T) {
	// The paper's invalid output: prefix-list with a length range (§3.2).
	cfg := "policy-options {\n    prefix-list our-networks {\n        1.2.3.0/24-32;\n    }\n}\n"
	warns := Check(cfg)
	if len(warns) != 1 {
		t.Fatalf("warnings = %v", warns)
	}
	w := warns[0]
	if !strings.Contains(w.Text, "prefix-list our-networks 1.2.3.0/24-32") {
		t.Errorf("warning text %q should quote the Table 1 form", w.Text)
	}
	if !strings.Contains(w.Reason, "route-filter") {
		t.Errorf("warning should point at route-filter, got %q", w.Reason)
	}
}

func TestMissingLocalASWarns(t *testing.T) {
	cfg := `protocols {
    bgp {
        group ebgp {
            neighbor 2.3.4.5 {
                peer-as 65001;
            }
        }
    }
}
`
	warns := Check(cfg)
	found := false
	for _, w := range warns {
		if strings.Contains(w.Reason, "no local AS") {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected local-AS warning, got %v", warns)
	}
}

func TestGroupLevelAttributesInherit(t *testing.T) {
	cfg := `protocols {
    bgp {
        group ebgp {
            peer-as 7;
            local-as 1;
            export POL;
            neighbor 10.0.0.1;
            neighbor 10.0.0.2 {
                peer-as 8;
            }
        }
    }
}
policy-options {
    policy-statement POL {
        term 10 {
            then {
                accept;
            }
        }
    }
}
`
	dev, warns := Parse(cfg)
	if len(warns) != 0 {
		t.Fatal(warns)
	}
	n1 := dev.BGP.Neighbors[0]
	if n1.RemoteAS != 7 || n1.LocalAS != 1 || n1.ExportPolicy != "POL" {
		t.Errorf("n1 = %+v", n1)
	}
	n2 := dev.BGP.Neighbors[1]
	if n2.RemoteAS != 8 || n2.LocalAS != 1 {
		t.Errorf("n2 = %+v (override + inherit)", n2)
	}
}

func TestRouteFilterModifiers(t *testing.T) {
	cfg := `policy-options {
    policy-statement P {
        term 10 {
            from {
                route-filter 10.0.0.0/8 exact;
                route-filter 10.0.0.0/8 orlonger;
                route-filter 10.0.0.0/8 upto /16;
                route-filter 10.0.0.0/8 prefix-length-range /12-/20;
            }
            then {
                accept;
            }
        }
    }
}
`
	dev, warns := Parse(cfg)
	if len(warns) != 0 {
		t.Fatal(warns)
	}
	ms := dev.RoutePolicies["P"].Clauses[0].Matches
	want := [][2]int{{8, 8}, {8, 32}, {8, 16}, {12, 20}}
	if len(ms) != 4 {
		t.Fatalf("matches = %d", len(ms))
	}
	for i, m := range ms {
		rf := m.(netcfg.MatchRouteFilter)
		if rf.MinLen != want[i][0] || rf.MaxLen != want[i][1] {
			t.Errorf("filter %d = /%d-/%d, want /%d-/%d",
				i, rf.MinLen, rf.MaxLen, want[i][0], want[i][1])
		}
	}
}

func TestUnknownStatementsWarnButParseContinues(t *testing.T) {
	cfg := `system {
    host-name r1;
    time-zone UTC;
}
frobnicate {
    x;
}
`
	dev, warns := Parse(cfg)
	if dev.Hostname != "r1" {
		t.Error("parse should continue past unknown statements")
	}
	if len(warns) != 2 {
		t.Errorf("warnings = %v, want 2", warns)
	}
}

// TestPrintParseFixpoint mirrors the Cisco property: the Junos printer
// emits only what the Junos parser accepts, so one round trip is a
// fixpoint even for garbage input.
func TestPrintParseFixpoint(t *testing.T) {
	inputs := []string{
		sampleJunos,
		"",
		"garbage { nested { x; } }",
		"interfaces { ge-0/0/0 { unit 0 { family inet { address 1.2.3.4/31; } } } }",
	}
	for _, in := range inputs {
		dev1, _ := Parse(in)
		text1 := Print(dev1)
		dev2, _ := Parse(text1)
		if Print(dev2) != text1 {
			t.Errorf("not a fixpoint for input %.40q", in)
		}
	}
}

// TestPolicyTermOrder pins how terms become clauses. A numeric term name
// is the clause's sequence number; any other name, and a policy's
// top-level then, takes 10 above every number so far, so it gets a clause
// of its own after all earlier ones. A re-entered number, in the same
// policy-statement or a later one of the same name, adds to its clause,
// and every policy's clauses end in number order. The "merge" policy is
// the named term that used to be numbered from the last term entered
// (20 + 10) and merged into term 30.
func TestPolicyTermOrder(t *testing.T) {
	cfg := `policy-options {
    community C members 100:1;
    community D members 100:2;
    policy-statement inorder {
        term 10 { then accept; }
        term 20 { from community C; then reject; }
        term last { then accept; }
    }
    policy-statement outoforder {
        term 30 { then accept; }
        term 10 { then reject; }
        term 20 { then accept; }
    }
    policy-statement reentered {
        term 20 { then accept; }
        term 10 { then reject; }
        term 20 { from community C; }
    }
    policy-statement reentered {
        term 10 { from community D; then accept; }
        term last { then reject; }
    }
    policy-statement merge {
        term 30 { then accept; }
        term 50 { then reject; }
        term 20 { then reject; }
        term foo { from community C; then accept; }
    }
    policy-statement final {
        term 30 { then accept; }
        term 10 { then reject; }
        then accept;
    }
}
`
	dev, warns := Parse(cfg)
	if len(warns) != 0 {
		t.Fatal(warns)
	}
	c := netcfg.MatchCommunityList{List: "C"}
	d := netcfg.MatchCommunityList{List: "D"}
	want := map[string][]*netcfg.PolicyClause{
		"inorder": {
			{Seq: 10, Action: netcfg.Permit},
			{Seq: 20, Action: netcfg.Deny, Matches: []netcfg.Match{c}},
			{Seq: 30, Action: netcfg.Permit},
		},
		"outoforder": {
			{Seq: 10, Action: netcfg.Deny},
			{Seq: 20, Action: netcfg.Permit},
			{Seq: 30, Action: netcfg.Permit},
		},
		"reentered": {
			{Seq: 10, Action: netcfg.Permit, Matches: []netcfg.Match{d}},
			{Seq: 20, Action: netcfg.Permit, Matches: []netcfg.Match{c}},
			{Seq: 30, Action: netcfg.Deny},
		},
		"merge": {
			{Seq: 20, Action: netcfg.Deny},
			{Seq: 30, Action: netcfg.Permit},
			{Seq: 50, Action: netcfg.Deny},
			{Seq: 60, Action: netcfg.Permit, Matches: []netcfg.Match{c}},
		},
		"final": {
			{Seq: 10, Action: netcfg.Deny},
			{Seq: 30, Action: netcfg.Permit},
			{Seq: 40, Action: netcfg.Permit},
		},
	}
	if len(dev.RoutePolicies) != len(want) {
		t.Fatalf("policies %v, want %d", dev.PolicyNames(), len(want))
	}
	for name, clauses := range want {
		if got := dev.RoutePolicies[name]; got == nil || !reflect.DeepEqual(got.Clauses, clauses) {
			t.Errorf("policy %s: clauses %v, want %v", name, got, clauses)
		}
	}
}
