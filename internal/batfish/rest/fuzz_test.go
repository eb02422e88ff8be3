package rest

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/exampledata"
	"repro/internal/lightyear"
	"repro/internal/netgen"
	"repro/internal/suite"
	"repro/internal/topology"
)

// FuzzNoTransitHandler feeds arbitrary bodies to POST /v1/notransit,
// served in process so a handler panic reaches the fuzzer instead of
// net/http's recover. The handler must not panic, must answer 200, 400,
// 413 or 422, and a 200 must carry a result. The seeds are one request per
// registry family at its smallest size with error-free configs, plus a
// router that declares BGP neighbors but has no interface address.
func FuzzNoTransitHandler(f *testing.F) {
	add := func(topo *topology.Topology, configs map[string]string) {
		body, err := json.Marshal(NoTransitRequest{Topology: topo, Configs: configs})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	for _, sc := range netgen.Scenarios() {
		topo := smallestScenario(f, sc)
		add(topo, scenarioConfigs(f, topo))
	}
	add(addresslessR2(f))
	f.Add([]byte(`{}`))

	h := NewHandler()
	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest(http.MethodPost, PathNoTransit, bytes.NewReader(body))
		req.Header.Set(ProtocolHeader, protocolVersion)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusOK:
			var resp NoTransitResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("200 with an undecodable body: %v", err)
			}
			if resp.Result == nil {
				t.Fatal("200 without a result")
			}
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusUnprocessableEntity:
		default:
			t.Fatalf("unexpected status %d: %s", rec.Code, rec.Body.Bytes())
		}
	})
}

// FuzzBatchHandler feeds arbitrary bodies to POST /v1/batch, served in
// process so a handler panic reaches the fuzzer. The handler must not
// panic and must answer 200, 400 or 413. A 200 must answer every check in
// order, each with the result, or the per-check error, that suite.Eval
// gives for the resolved check through a fresh core.LocalVerifier. The
// seeds are a valid star:3 batch whose checks share bodies and carry
// their specs and requirements inline, a config index past the table, a
// negative one, an original index past the table, and a check with no
// body table.
func FuzzBatchHandler(f *testing.F) {
	topo, err := netgen.Generate("star", 3)
	if err != nil {
		f.Fatal(err)
	}
	reqs := lightyear.SpecFor(topo)
	r1 := "hostname R1\nip community-list 1 permit 100:1\nroute-map FILTER permit 10\n"
	valid := newBatchRequest([]suite.Check{
		{Kind: suite.KindSyntax, Config: r1},
		{Kind: suite.KindTopology, Spec: topo.Router("R1"), Config: r1},
		{Kind: suite.KindLocal, Req: &reqs[0], Config: r1},
		{Kind: suite.KindDiff, Original: exampledata.CiscoExample, Config: r1},
	})
	add := func(edit func(r *BatchRequest)) {
		r := valid
		r.Checks = append([]BatchCheck(nil), valid.Checks...)
		edit(&r)
		body, err := json.Marshal(r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	add(func(r *BatchRequest) {})
	add(func(r *BatchRequest) { r.Checks[0].Config = len(r.Bodies) })
	add(func(r *BatchRequest) { r.Checks[2].Config = -1 })
	add(func(r *BatchRequest) {
		past := len(r.Bodies)
		r.Checks[3].Original = &past
	})
	f.Add([]byte(`{"checks":[{"kind":"syntax","config":0}]}`))

	h := NewHandler()
	f.Fuzz(func(t *testing.T, body []byte) {
		var req BatchRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		decoded := dec.Decode(&req) == nil
		hreq := httptest.NewRequest(http.MethodPost, PathBatch, bytes.NewReader(body))
		hreq.Header.Set(ProtocolHeader, protocolVersion)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, hreq)
		switch rec.Code {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
			return
		default:
			t.Fatalf("unexpected status %d: %s", rec.Code, rec.Body.Bytes())
		}
		if !decoded {
			t.Fatal("200 for a body that does not decode")
		}
		var resp struct{ Results []json.RawMessage }
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("200 with an undecodable body: %v", err)
		}
		if len(resp.Results) != len(req.Checks) {
			t.Fatalf("%d results for %d checks", len(resp.Results), len(req.Checks))
		}
		checks, err := req.resolve()
		if err != nil {
			t.Fatalf("200 for an unresolvable batch: %v", err)
		}
		for i, c := range checks {
			res, err := suite.Eval(core.LocalVerifier{}, c)
			if want := wireResult(t, res, err); string(resp.Results[i]) != want {
				t.Fatalf("check %d (%s): handler answered %s, suite.Eval %s", i, c.Kind, resp.Results[i], want)
			}
		}
	})
}

// smallestScenario generates a family at the smallest size its generator
// accepts.
func smallestScenario(t testing.TB, sc netgen.Scenario) *topology.Topology {
	t.Helper()
	for n := 1; n <= sc.MaxSize; n++ {
		if topo, err := sc.Generate(n); err == nil {
			return topo
		}
	}
	t.Fatalf("%s: no size up to %d generates", sc.Name, sc.MaxSize)
	return nil
}
