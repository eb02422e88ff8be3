package rest

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/exampledata"
	"repro/internal/lightyear"
	"repro/internal/netcfg"
	"repro/internal/netgen"
	"repro/internal/suite"
)

func newTestClient(t *testing.T) *Client {
	t.Helper()
	srv := httptest.NewServer(NewHandler())
	t.Cleanup(srv.Close)
	return NewClient(srv.URL)
}

// newOneCheckClient returns a client whose server fails the test on any
// request not addressed to /v1/batch: Client.Check travels as a
// one-check batch.
func newOneCheckClient(t *testing.T) *Client {
	t.Helper()
	inner := NewHandler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != PathBatch {
			t.Errorf("a one-check call reached %s, want %s", r.URL.Path, PathBatch)
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	return NewClient(srv.URL)
}

func TestHealth(t *testing.T) {
	c := newTestClient(t)
	if err := c.Health(); err != nil {
		t.Fatal(err)
	}
}

func TestSyntaxRoundTrip(t *testing.T) {
	c := newOneCheckClient(t)
	res, err := c.Check(suite.Check{Kind: suite.KindSyntax, Config: "configure terminal\nhostname r1\n"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Warnings) != 1 {
		t.Fatalf("warnings = %v, want exactly the CLI keyword warning", res.Warnings)
	}
	res, err = c.Check(suite.Check{Kind: suite.KindSyntax, Config: exampledata.CiscoExample})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Warnings) != 0 {
		t.Fatalf("example config should be clean, got %v", res.Warnings)
	}
}

func TestDiffRoundTrip(t *testing.T) {
	c := newOneCheckClient(t)
	// Diffing the original against an empty Juniper config must produce
	// structural findings.
	res, err := c.Check(suite.Check{Kind: suite.KindDiff, Original: exampledata.CiscoExample,
		Config: "system {\n    host-name border1;\n}\n"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Diffs) == 0 {
		t.Fatal("expected structural findings against an empty translation")
	}
}

func TestTopologyRoundTrip(t *testing.T) {
	c := newOneCheckClient(t)
	topo, err := netgen.Star(3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Check(suite.Check{Kind: suite.KindTopology, Spec: topo.Router("R2"), Config: "hostname R2\n"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Findings) == 0 {
		t.Fatal("empty config should violate the topology spec")
	}
}

func TestLocalRoundTrip(t *testing.T) {
	c := newOneCheckClient(t)
	req := lightyear.Requirement{
		Kind:        lightyear.EgressDropsCommunity,
		Router:      "R1",
		Policy:      "FILTER",
		Communities: []netcfg.Community{netcfg.MustCommunity("100:1")},
		LearnedFrom: []string{"ISP1"},
	}
	cfg := "hostname R1\n" +
		"ip community-list 1 permit 100:1\n" +
		"route-map FILTER permit 10\n"
	res, err := c.Check(suite.Check{Kind: suite.KindLocal, Req: &req, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Violated {
		t.Fatal("permit-all policy must violate the drop requirement")
	}
	if w := res.Violation.Witness; w == nil || !w.HasCommunity(netcfg.MustCommunity("100:1")) {
		t.Fatalf("witness should carry 100:1, got %v", w)
	}
}
