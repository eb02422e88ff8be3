package batfish

import (
	"os"
	"strings"
	"testing"

	"repro/internal/netcfg"
)

func searchRevision() *netcfg.Parsed {
	d := netcfg.NewDevice("r", netcfg.VendorCisco)
	d.CommunityLists["1"] = &netcfg.CommunityList{Name: "1", Entries: []netcfg.CommunityListEntry{
		{Action: netcfg.Permit, Community: netcfg.MustCommunity("100:1")},
	}}
	d.PrefixLists["nets"] = &netcfg.PrefixList{Name: "nets", Entries: []netcfg.PrefixListEntry{
		{Seq: 5, Action: netcfg.Permit, Prefix: netcfg.MustPrefix("1.2.3.0/24"), Ge: 24},
	}}
	d.RoutePolicies["DROP_COMMUNITY"] = &netcfg.RoutePolicy{Name: "DROP_COMMUNITY",
		Clauses: []*netcfg.PolicyClause{
			{Seq: 10, Action: netcfg.Permit}, // wrong: permits everything
		}}
	d.RoutePolicies["GOOD"] = &netcfg.RoutePolicy{Name: "GOOD",
		Clauses: []*netcfg.PolicyClause{
			{Seq: 10, Action: netcfg.Deny,
				Matches: []netcfg.Match{netcfg.MatchCommunityList{List: "1"}}},
			{Seq: 20, Action: netcfg.Permit},
		}}
	return &netcfg.Parsed{Device: d}
}

func TestSearchFindsTable3Violation(t *testing.T) {
	// Table 3 semantic error: "The route-map DROP_COMMUNITY permits routes
	// that have the community 100:1. However, they should be denied."
	res, err := SearchRoutePolicies(searchRevision(), SearchQuery{
		Policy: "DROP_COMMUNITY",
		Action: "permit",
		Constraints: RouteConstraints{
			HasCommunities: []string{"100:1"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("expected a witness")
	}
	if len(res.WitnessCommunities) != 1 || res.WitnessCommunities[0] != "100:1" {
		t.Errorf("witness communities = %v", res.WitnessCommunities)
	}
}

func TestSearchCleanOnCorrectPolicy(t *testing.T) {
	res, err := SearchRoutePolicies(searchRevision(), SearchQuery{
		Policy: "GOOD",
		Action: "permit",
		Constraints: RouteConstraints{
			HasCommunities: []string{"100:1"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Fatalf("unexpected witness %q", res.Witness)
	}
}

func TestSearchPrefixConstraint(t *testing.T) {
	res, err := SearchRoutePolicies(searchRevision(), SearchQuery{
		Policy:      "GOOD",
		Action:      "permit",
		Constraints: RouteConstraints{Prefix: "1.2.3.0/24"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || !strings.HasPrefix(res.WitnessPrefix, "1.2.3.") {
		t.Fatalf("witness = %+v", res)
	}
}

func TestSearchValidation(t *testing.T) {
	if _, err := SearchRoutePolicies(searchRevision(), SearchQuery{Policy: "nope", Action: "permit"}); err == nil {
		t.Error("undefined policy should error")
	}
	if _, err := SearchRoutePolicies(searchRevision(), SearchQuery{Policy: "GOOD", Action: "maybe"}); err == nil {
		t.Error("bad action should error")
	}
	if _, err := SearchRoutePolicies(searchRevision(), SearchQuery{Policy: "GOOD", Action: "permit",
		Constraints: RouteConstraints{Prefix: "garbage"}}); err == nil {
		t.Error("bad prefix constraint should error")
	}
	if _, err := SearchRoutePolicies(searchRevision(), SearchQuery{Policy: "GOOD", Action: "permit",
		Constraints: RouteConstraints{HasCommunities: []string{"100:1"},
			LacksCommunities: []string{"100:1"}}}); err == nil {
		t.Error("inconsistent constraints should error")
	}
	if _, err := SearchRoutePolicies(searchRevision(), SearchQuery{Policy: "GOOD", Action: "permit",
		Constraints: RouteConstraints{Protocol: "ipx"}}); err == nil {
		t.Error("unknown protocol should error")
	}
}

func TestDetectVendor(t *testing.T) {
	if v := DetectVendor("hostname r1\nrouter bgp 1\n"); v != netcfg.VendorCisco {
		t.Errorf("cisco detected as %v", v)
	}
	if v := DetectVendor("system {\n  host-name r1;\n}\n"); v != netcfg.VendorJuniper {
		t.Errorf("junos detected as %v", v)
	}
}

func TestSnapshotAddAndNames(t *testing.T) {
	s := NewSnapshot()
	s.AddConfig("b", "hostname b\n")
	s.AddConfig("a", "system {\n  host-name a;\n}\n")
	names := s.DeviceNames()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("names = %v", names)
	}
	if s.Devices["a"].Vendor != netcfg.VendorJuniper {
		t.Error("vendor detection in snapshot failed")
	}
}

func TestLoadSnapshotFromDir(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, dir+"/r1.cfg", "hostname r1\n")
	writeFile(t, dir+"/r2.cfg", "hostname r2\nbogus line\n")
	writeFile(t, dir+"/notes.txt", "ignored")
	s, err := LoadSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Devices) != 2 {
		t.Fatalf("devices = %v", s.DeviceNames())
	}
	if len(s.Warnings["r2"]) != 1 {
		t.Errorf("r2 warnings = %v", s.Warnings["r2"])
	}
	if _, err := LoadSnapshot(dir + "/missing"); err == nil {
		t.Error("missing dir should error")
	}
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}
