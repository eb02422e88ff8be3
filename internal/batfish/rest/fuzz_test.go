package rest

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/netgen"
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
