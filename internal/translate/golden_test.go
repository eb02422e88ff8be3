package translate

import (
	"testing"

	"repro/internal/campion"
	"repro/internal/cisco"
	"repro/internal/exampledata"
	"repro/internal/juniper"
	"repro/internal/netcfg"
)

func parseExample(t *testing.T) *netcfg.Device {
	t.Helper()
	dev, warns := cisco.Parse(exampledata.CiscoExample)
	if len(warns) != 0 {
		t.Fatalf("example config has parse warnings: %v", warns)
	}
	return dev
}

func TestGoldenIsWarningFree(t *testing.T) {
	src := parseExample(t)
	golden := Golden(src)
	text := juniper.Print(golden)
	warns := juniper.Check(text)
	if len(warns) != 0 {
		t.Fatalf("golden translation has warnings: %v\nconfig:\n%s", warns, text)
	}
}

func TestGoldenRoundTripsThroughPrinter(t *testing.T) {
	src := parseExample(t)
	golden := Golden(src)
	text := juniper.Print(golden)
	reparsed, warns := juniper.Parse(text)
	if len(warns) != 0 {
		t.Fatalf("reparse warnings: %v", warns)
	}
	if reparsed.Hostname != src.Hostname {
		t.Errorf("hostname lost: got %q want %q", reparsed.Hostname, src.Hostname)
	}
	if reparsed.BGP == nil || reparsed.BGP.ASN != 65000 {
		t.Fatalf("BGP ASN lost: %+v", reparsed.BGP)
	}
	if n := reparsed.BGP.Neighbor(netcfg.MustPrefix("2.3.4.5/32").Addr); n == nil || n.RemoteAS != 65001 {
		t.Fatalf("neighbor lost: %+v", reparsed.BGP.Neighbors)
	}
}

func TestGoldenHasNoCampionDiff(t *testing.T) {
	src := parseExample(t)
	golden := Golden(src)
	// Reparse through the printer so the diff sees what Batfish would see.
	text := juniper.Print(golden)
	reparsed, _ := juniper.Parse(text)
	findings := campion.Diff(src, reparsed)
	for _, f := range findings {
		t.Errorf("unexpected diff: %s", f)
	}
}

func TestGoldenExportPolicyGatesProtocols(t *testing.T) {
	src := parseExample(t)
	golden := Golden(src)
	pol := golden.RoutePolicies["to_provider"]
	if pol == nil {
		t.Fatal("to_provider missing from translation")
	}
	// Every non-final clause must carry a protocol gate.
	for i, cl := range pol.Clauses {
		if i == len(pol.Clauses)-1 {
			if cl.Action != netcfg.Deny {
				t.Errorf("final clause should be an explicit reject, got %s", cl)
			}
			continue
		}
		found := false
		for _, m := range cl.Matches {
			if _, ok := m.(netcfg.MatchProtocol); ok {
				found = true
			}
		}
		if !found {
			t.Errorf("clause %d lacks a protocol gate: %s", cl.Seq, cl)
		}
	}
}

func TestGoldenTranslatesGeToRouteFilter(t *testing.T) {
	src := parseExample(t)
	golden := Golden(src)
	if golden.PrefixLists["our-networks"] != nil {
		t.Error("ranged prefix-list should not survive as a Junos prefix-list")
	}
	pol := golden.RoutePolicies["to_provider"]
	var rf *netcfg.MatchRouteFilter
	for _, cl := range pol.Clauses {
		for _, m := range cl.Matches {
			if f, ok := m.(netcfg.MatchRouteFilter); ok {
				rf = &f
			}
		}
	}
	if rf == nil {
		t.Fatal("no route-filter in translated export policy")
	}
	if rf.MinLen != 24 || rf.MaxLen != 32 {
		t.Errorf("route-filter range = /%d-/%d, want /24-/32", rf.MinLen, rf.MaxLen)
	}
}

// TestQuotedASPathRoundTrip follows a Cisco match as-path holding a quote
// down the whole translation path: cisco.Parse refuses it with a warning,
// so the translation prints no as-path that the Junos lexer would cut at
// the quote. Accepted, a"b printed as as-path "a"b"; and read back as a,
// with two warnings.
func TestQuotedASPathRoundTrip(t *testing.T) {
	src, warns := cisco.Parse("router bgp 1\n neighbor 1.2.3.4 remote-as 2\n neighbor 1.2.3.4 route-map M out\n!\n" +
		"route-map M permit 10\n match as-path a\"b\n!\n")
	if len(warns) != 1 {
		t.Fatalf("cisco warnings = %v, want one on the as-path match", warns)
	}
	text := juniper.Print(Golden(src))
	dev, jwarns := juniper.Parse(text)
	if len(jwarns) != 0 {
		t.Fatalf("juniper warnings %v reading back:\n%s", jwarns, text)
	}
	if again := juniper.Print(dev); again != text {
		t.Fatalf("not a fixpoint:\nfirst print:\n%s\nsecond print:\n%s", text, again)
	}
}
