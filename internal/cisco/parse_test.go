package cisco

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/exampledata"
	"repro/internal/netcfg"
)

func TestParseExampleConfigClean(t *testing.T) {
	dev, warns := Parse(exampledata.CiscoExample)
	if len(warns) != 0 {
		t.Fatalf("warnings: %v", warns)
	}
	if dev.Hostname != "border1" {
		t.Errorf("hostname = %q", dev.Hostname)
	}
	if len(dev.Interfaces) != 3 {
		t.Errorf("interfaces = %d, want 3", len(dev.Interfaces))
	}
	lo := dev.Interface("Loopback0")
	if lo == nil || !lo.HasAddress || lo.Address.Len != 32 {
		t.Fatalf("Loopback0 = %+v", lo)
	}
	gi := dev.Interface("GigabitEthernet0/0")
	if gi == nil || gi.OSPFCost != 5 || gi.Description != "LAN" {
		t.Fatalf("GigabitEthernet0/0 = %+v", gi)
	}
	if dev.OSPF == nil || dev.OSPF.ProcessID != 1 || len(dev.OSPF.Networks) != 2 {
		t.Fatalf("OSPF = %+v", dev.OSPF)
	}
	if !dev.OSPF.IsPassive("Loopback0") {
		t.Error("Loopback0 should be passive")
	}
	if dev.BGP == nil || dev.BGP.ASN != 65000 {
		t.Fatalf("BGP = %+v", dev.BGP)
	}
	nbr := dev.BGP.Neighbor(mustIP(t, "2.3.4.5"))
	if nbr == nil || nbr.RemoteAS != 65001 {
		t.Fatalf("neighbor = %+v", nbr)
	}
	if nbr.ImportPolicy != "from_provider" || nbr.ExportPolicy != "to_provider" {
		t.Errorf("policies = %q/%q", nbr.ImportPolicy, nbr.ExportPolicy)
	}
	if len(dev.BGP.Redistribute) != 1 || dev.BGP.Redistribute[0].Policy != "ospf_to_bgp" {
		t.Errorf("redistribute = %+v", dev.BGP.Redistribute)
	}
	pl := dev.PrefixLists["our-networks"]
	if pl == nil || len(pl.Entries) != 1 || pl.Entries[0].Ge != 24 {
		t.Fatalf("our-networks = %+v", pl)
	}
	if len(dev.RoutePolicies) != 3 {
		t.Errorf("route maps = %d, want 3", len(dev.RoutePolicies))
	}
	fp := dev.RoutePolicies["from_provider"]
	if fp == nil || len(fp.Clauses) != 3 {
		t.Fatalf("from_provider = %+v", fp)
	}
	if fp.Clauses[2].Seq != 100 || fp.Clauses[2].Action != netcfg.Deny {
		t.Errorf("final clause = %+v", fp.Clauses[2])
	}
}

func mustIP(t *testing.T, s string) uint32 {
	t.Helper()
	v, err := netcfg.ParseIP(s)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestPrintParseRoundTrip(t *testing.T) {
	dev, warns := Parse(exampledata.CiscoExample)
	if len(warns) != 0 {
		t.Fatal(warns)
	}
	text := Print(dev)
	dev2, warns2 := Parse(text)
	if len(warns2) != 0 {
		t.Fatalf("reparse warnings: %v\n%s", warns2, text)
	}
	text2 := Print(dev2)
	if text != text2 {
		t.Errorf("print not idempotent:\n--- first ---\n%s\n--- second ---\n%s", text, text2)
	}
}

func TestForbiddenKeywordsWarn(t *testing.T) {
	cfg := "configure terminal\nhostname r1\nexit\nwrite\nend\n"
	warns := Check(cfg)
	if len(warns) != 4 {
		t.Fatalf("warnings = %d (%v), want 4", len(warns), warns)
	}
	for _, w := range warns {
		if !strings.Contains(w.Reason, "CLI session keyword") &&
			!strings.Contains(w.Reason, "CLI command") {
			t.Errorf("unexpected reason %q", w.Reason)
		}
	}
}

func TestNeighborOutsideRouterBGPWarns(t *testing.T) {
	// The paper's "Placing neighbor commands in the wrong location" (§4.2):
	// caught as a syntax error, with deliberately uninformative output.
	cfg := "hostname r1\n!\nrouter bgp 1\n neighbor 1.0.0.1 remote-as 2\n!\nneighbor 1.0.0.1 route-map X in\n"
	dev, warns := Parse(cfg)
	if len(warns) != 1 || !strings.Contains(warns[0].Reason, "not a top-level command") {
		t.Fatalf("warnings = %v", warns)
	}
	// The misplaced attachment must NOT take effect.
	if n := dev.BGP.Neighbor(mustIP(t, "1.0.0.1")); n.ImportPolicy != "" {
		t.Error("misplaced route-map attachment was applied")
	}
}

func TestMatchCommunityLiteralWarns(t *testing.T) {
	// §4.2 "Match Community": literal community in a route-map is invalid.
	cfg := "route-map F permit 10\n match community 100:1\n"
	warns := Check(cfg)
	found := false
	for _, w := range warns {
		if strings.Contains(w.Reason, "must reference a community-list") {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected literal-community warning, got %v", warns)
	}
}

func TestCommunityListRegexWarns(t *testing.T) {
	// Table 3's syntax example.
	cfg := "ip community-list standard COMM_LIST_R2_OUT permit .+\n"
	warns := Check(cfg)
	if len(warns) != 1 || !strings.Contains(warns[0].Reason, "invalid community value") {
		t.Fatalf("warnings = %v", warns)
	}
}

func TestUndefinedListReferencesLint(t *testing.T) {
	cfg := "route-map F permit 10\n match ip address prefix-list nope\n match community alsono\n"
	warns := Check(cfg)
	var reasons []string
	for _, w := range warns {
		reasons = append(reasons, w.Reason)
	}
	joined := strings.Join(reasons, "; ")
	if !strings.Contains(joined, "prefix-list nope is not defined") {
		t.Errorf("missing prefix-list lint: %v", reasons)
	}
	if !strings.Contains(joined, "community-list alsono is not defined") {
		t.Errorf("missing community-list lint: %v", reasons)
	}
}

func TestPrefixListParsingVariants(t *testing.T) {
	cfg := strings.Join([]string{
		"ip prefix-list a seq 5 permit 10.0.0.0/8",
		"ip prefix-list a seq 10 deny 10.1.0.0/16 ge 24 le 28",
		"ip prefix-list b permit 0.0.0.0/0",
	}, "\n")
	dev, warns := Parse(cfg)
	if len(warns) != 0 {
		t.Fatal(warns)
	}
	a := dev.PrefixLists["a"]
	if len(a.Entries) != 2 {
		t.Fatalf("a = %+v", a)
	}
	if a.Entries[1].Action != netcfg.Deny || a.Entries[1].Ge != 24 || a.Entries[1].Le != 28 {
		t.Errorf("entry = %+v", a.Entries[1])
	}
	b := dev.PrefixLists["b"]
	if len(b.Entries) != 1 || b.Entries[0].Seq != 5 {
		t.Errorf("auto-seq entry = %+v", b.Entries)
	}
}

func TestPrefixListMalformedWarns(t *testing.T) {
	for _, line := range []string{
		"ip prefix-list x allow 10.0.0.0/8",        // bad action
		"ip prefix-list x permit 10.0.0.0",         // missing /len
		"ip prefix-list x permit 10.0.0.0/8 ge",    // dangling ge
		"ip prefix-list x permit 10.0.0.0/8 ge 40", // out of range
		"ip prefix-list x permit 10.0.0.0/8 zz 12", // unknown token
		"ip prefix-list x seq q permit 10.0.0.0/8", // bad seq
	} {
		if warns := Check(line + "\n"); len(warns) == 0 {
			t.Errorf("no warning for %q", line)
		}
	}
}

func TestStaticRouteParsing(t *testing.T) {
	dev, warns := Parse("ip route 7.0.0.0 255.0.0.0 2.3.4.5\n")
	if len(warns) != 0 {
		t.Fatal(warns)
	}
	if len(dev.StaticRoutes) != 1 {
		t.Fatal("no static route")
	}
	sr := dev.StaticRoutes[0]
	if sr.Prefix.String() != "7.0.0.0/8" || netcfg.FormatIP(sr.NextHop) != "2.3.4.5" {
		t.Errorf("static route = %+v", sr)
	}
}

func TestBGPNetworkClassfulDefault(t *testing.T) {
	dev, warns := Parse("router bgp 1\n network 10.0.0.0\n network 172.16.0.0\n network 192.168.1.0\n")
	if len(warns) != 0 {
		t.Fatal(warns)
	}
	want := []string{"10.0.0.0/8", "172.16.0.0/16", "192.168.1.0/24"}
	for i, n := range dev.BGP.Networks {
		if n.String() != want[i] {
			t.Errorf("network %d = %s, want %s", i, n, want[i])
		}
	}
}

func TestRouteMapImplicitSequence(t *testing.T) {
	cfg := "route-map m permit\nroute-map m deny\n"
	dev, warns := Parse(cfg)
	if len(warns) != 0 {
		t.Fatal(warns)
	}
	m := dev.RoutePolicies["m"]
	if len(m.Clauses) != 2 || m.Clauses[0].Seq != 10 || m.Clauses[1].Seq != 20 {
		t.Fatalf("clauses = %+v", m.Clauses)
	}
}

// TestRouteMapClauseOrder checks where clauses land when they arrive out
// of sequence order: the parser appends each new clause and places it by
// sequence number, and the result must be the list that sorting the
// route-map after every clause gave. Route-map a arrives in order and
// re-enters a sequence number while sorted; route-map b arrives as 30,
// 10, 20 and re-enters 30 while unsorted; route-map d arrives in
// descending order. Each re-entry flips the clause's action and keeps its
// earlier lines, and an implicit sequence number is the highest so far
// plus 10.
func TestRouteMapClauseOrder(t *testing.T) {
	cfg := `route-map a permit 10
 match community 1
route-map a deny 20
route-map a deny 10
route-map a deny
route-map b deny 30
 match community 3
route-map b permit 10
route-map b permit 20
 set metric 5
route-map b permit 30
 set local-preference 200
route-map b deny
route-map c permit
route-map d deny 30
route-map d deny 20
route-map d permit 10
route-map d deny 20
`
	dev, warns := Parse(cfg)
	if len(warns) != 0 {
		t.Fatal(warns)
	}
	want := map[string][]*netcfg.PolicyClause{
		"a": {
			{Seq: 10, Action: netcfg.Deny, Matches: []netcfg.Match{netcfg.MatchCommunityList{List: "1"}}},
			{Seq: 20, Action: netcfg.Deny},
			{Seq: 30, Action: netcfg.Deny},
		},
		"b": {
			{Seq: 10, Action: netcfg.Permit},
			{Seq: 20, Action: netcfg.Permit, Sets: []netcfg.SetAction{netcfg.SetMED{MED: 5}}},
			{Seq: 30, Action: netcfg.Permit, Matches: []netcfg.Match{netcfg.MatchCommunityList{List: "3"}},
				Sets: []netcfg.SetAction{netcfg.SetLocalPref{Pref: 200}}},
			{Seq: 40, Action: netcfg.Deny},
		},
		"c": {{Seq: 10, Action: netcfg.Permit}},
		"d": {
			{Seq: 10, Action: netcfg.Permit},
			{Seq: 20, Action: netcfg.Deny},
			{Seq: 30, Action: netcfg.Deny},
		},
	}
	if len(dev.RoutePolicies) != len(want) {
		t.Fatalf("route-maps %v, want %d", dev.PolicyNames(), len(want))
	}
	for name, clauses := range want {
		if got := dev.RoutePolicies[name]; got == nil || !reflect.DeepEqual(got.Clauses, clauses) {
			t.Errorf("route-map %s: clauses %+v, want %+v", name, got, clauses)
		}
	}
}

func TestGarbageYieldsWarningsNotPanic(t *testing.T) {
	garbage := "zzz yyy\ninterface\nrouter bgp\nrouter ospf x\nroute-map\nset metric\nmatch x\n"
	dev, warns := Parse(garbage)
	if dev == nil {
		t.Fatal("nil device")
	}
	if len(warns) < 5 {
		t.Errorf("warnings = %d (%v), want one per bad line", len(warns), warns)
	}
}

func TestBangResetsMode(t *testing.T) {
	cfg := "interface eth0\n ip address 1.0.0.1 255.255.255.0\n!\n ip address 2.0.0.1 255.255.255.0\n"
	_, warns := Parse(cfg)
	// The second "ip address" is outside any interface: must warn, not
	// silently apply to eth0.
	if len(warns) != 1 {
		t.Fatalf("warnings = %v", warns)
	}
}

// TestParseNeverPanics feeds arbitrary text to the parser.
func TestParseNeverPanics(t *testing.T) {
	f := func(s string) bool {
		dev, _ := Parse(s)
		return dev != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// TestParsePrintParseFixpoint: for arbitrary config-shaped inputs, one
// Parse→Print round trip reaches a fixpoint (Print(Parse(Print(Parse(x))))
// == Print(Parse(x))) — the printer emits only what the parser accepts.
func TestParsePrintParseFixpoint(t *testing.T) {
	f := func(s string) bool {
		dev1, _ := Parse(s)
		text1 := Print(dev1)
		dev2, _ := Parse(text1)
		return Print(dev2) == text1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestSignedNumbersWarn: IOS refuses a sign in an address or a
// community, and so does the parser; it also refuses a number past its
// field's 32 bits rather than wrapping it.
func TestSignedNumbersWarn(t *testing.T) {
	for _, c := range []struct{ text, reason string }{
		{"interface e0\n ip address +10.0.0.1 255.255.255.0\n", "invalid ip address"},
		{"ip community-list standard X permit +100:1\n", "invalid community value in community-list"},
		{"route-map m permit 10\n set community 100:-0 additive\n", "invalid community value"},
		{"router bgp 1\n neighbor -0.1.2.3 remote-as 2\n", "invalid neighbor address"},
		{"ip prefix-list L seq 5 permit 10.0.0.0/+8 ge +16\n", "invalid prefix in prefix-list entry"},
		{"ip prefix-list L seq 5 permit 10.0.0.0/-0\n", "invalid prefix in prefix-list entry"},
		{"ip prefix-list L seq +5 permit 10.0.0.0/8\n", "invalid prefix-list sequence number"},
		{"ip prefix-list L seq 5 permit 10.0.0.0/8 ge +16\n", "invalid prefix-length bound in prefix-list entry"},
		{"ip prefix-list L seq 5 permit 10.0.0.0/8 le -0\n", "invalid prefix-length bound in prefix-list entry"},
		{"router bgp +65000\n", "invalid process/AS number"},
		{"router ospf -1\n", "invalid process/AS number"},
		{"route-map m permit +10\n", "invalid route-map sequence number"},
		{"interface e0\n ip ospf cost -0\n", "invalid ospf cost"},
		{"route-map m permit 10\n set metric -5\n", "invalid metric value"},
		{"route-map m permit 10\n set local-preference +200\n", "invalid local-preference value"},
		{"router ospf 1\n network 10.0.0.0 0.0.0.255 area -0\n", "invalid network statement"},
		{"router bgp 1\n redistribute ospf +1\n", "malformed redistribute statement"},
		{"router bgp 1\n neighbor 1.2.3.4 remote-as +2\n", "invalid AS number"},
		{"router bgp 1\n neighbor 1.2.3.4 remote-as 4294967297\n", "invalid AS number"},
		{"router bgp 1\n neighbor 1.2.3.4 local-as 4294967296\n", "invalid AS number"},
		{"router bgp 4294967297\n", "invalid process/AS number"},
		{"route-map m permit 10\n set metric 99999999999\n", "invalid metric value"},
		{"ip prefix-list L seq 4294967301 permit 10.0.0.0/8\n", "invalid prefix-list sequence number"},
	} {
		_, warns := Parse(c.text)
		if len(warns) != 1 || warns[0].Reason != c.reason {
			t.Errorf("Parse(%q) warnings = %v, want one %q", c.text, warns, c.reason)
		}
	}
}

// quotedASPathConfig applies a route-map whose match as-path holds a
// quote.
const quotedASPathConfig = "router bgp 1\n neighbor 1.2.3.4 remote-as 2\n neighbor 1.2.3.4 route-map M out\n!\n" +
	"route-map M permit 10\n match as-path a\"b\n!\n"

// TestMatchASPathQuoteWarns: an IOS match as-path names an access-list,
// which holds no quote, so a word holding one is refused with a warning
// and the clause keeps no as-path match.
func TestMatchASPathQuoteWarns(t *testing.T) {
	dev, warns := Parse(quotedASPathConfig)
	if len(warns) != 1 || !strings.Contains(warns[0].Reason, "as-path") {
		t.Fatalf("warnings = %v, want one on the as-path match", warns)
	}
	if m := dev.RoutePolicies["M"].Clauses[0].Matches; len(m) != 0 {
		t.Fatalf("matches = %v, want none", m)
	}
}
