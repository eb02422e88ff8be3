package rest

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/suite"
)

// TestProtocolHeaderRequired pins the server half of the handshake: every
// POST endpoint answers a request without the protocol header, or with
// another version in it, with a 400 naming both sides.
func TestProtocolHeaderRequired(t *testing.T) {
	srv := httptest.NewServer(NewHandler())
	t.Cleanup(srv.Close)
	server := fmt.Sprintf("server speaks v%d", BatchProtocolVersion)
	for _, path := range []string{PathBatch, PathNoTransit, PathSearch} {
		for _, tc := range []struct{ header, client string }{
			{"", "client speaks no version"},
			{"4", "client speaks v4"},
		} {
			req, err := http.NewRequest(http.MethodPost, srv.URL+path, strings.NewReader(`{}`))
			if err != nil {
				t.Fatal(err)
			}
			if tc.header != "" {
				req.Header.Set(ProtocolHeader, tc.header)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			var e ErrorResponse
			derr := json.NewDecoder(resp.Body).Decode(&e)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || derr != nil ||
				!strings.Contains(e.Error, tc.client) || !strings.Contains(e.Error, server) {
				t.Errorf("%s with header %q: HTTP %d %q, want 400 naming %q and %q",
					path, tc.header, resp.StatusCode, e.Error, tc.client, server)
			}
		}
	}
}

// TestHealthVersionMismatch pins the client half: Health against a server
// echoing another version fails, naming both versions.
func TestHealthVersionMismatch(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, HealthResponse{Status: "ok", Version: 4})
	}))
	t.Cleanup(srv.Close)
	err := NewClient(srv.URL).Health()
	want := fmt.Sprintf("v%d", BatchProtocolVersion)
	if !errors.Is(err, errProtocolMismatch) || !strings.Contains(err.Error(), "v4") ||
		!strings.Contains(err.Error(), want) {
		t.Fatalf("Health = %v, want a protocol mismatch naming v4 and %s", err, want)
	}

	// A fleet with one such shard fails its Health probe outright.
	good := httptest.NewServer(NewHandler())
	t.Cleanup(good.Close)
	sc, err := NewShardedClient([]string{good.URL, srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.Health(); !errors.Is(err, errProtocolMismatch) {
		t.Errorf("sharded Health = %v, want a protocol mismatch", err)
	}
}

// TestShardedProtocolMismatchPropagates pins that a version mismatch is a
// served error: every shard rejects the batch identically, so the sharded
// client surfaces the rejection and fails no shard over.
func TestShardedProtocolMismatchPropagates(t *testing.T) {
	endpoints := make([]string, 2)
	for i := range endpoints {
		inner := NewHandler()
		// The shard sees the client's requests stamped by another
		// generation of the protocol.
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			r.Header.Set(ProtocolHeader, "4")
			inner.ServeHTTP(w, r)
		}))
		t.Cleanup(srv.Close)
		endpoints[i] = srv.URL
	}
	sc, err := NewShardedClient(endpoints)
	if err != nil {
		t.Fatal(err)
	}
	_, err = sc.CheckBatch(context.Background(), batchChecks(t))
	if err == nil || !strings.Contains(err.Error(), "client speaks v4") {
		t.Fatalf("batch against mismatched shards: %v, want the protocol mismatch", err)
	}
	if _, err := sc.CheckSyntax("hostname R1\n"); err == nil {
		t.Error("per-check call against mismatched shards succeeded")
	}
	for i, st := range sc.Stats() {
		if st.Dead || st.Failures != 0 {
			t.Errorf("protocol mismatch failed shard %d over: %s", i, st)
		}
	}
}

// TestOversizedScenarioRejected sends a batch whose reference names a
// family far past netgen's size bound: the server must refuse it with a
// 400 without trying to generate the topology.
func TestOversizedScenarioRejected(t *testing.T) {
	c := newTestClient(t)
	for _, scenario := range []string{"random:100000000", "fat-tree:1000"} {
		req := BatchRequest{Scenario: scenario, Bodies: []string{"hostname R1\n"}, Checks: []BatchCheck{{
			Kind: string(suite.KindTopology), Config: 0, SpecRef: strings.Repeat("0", 64)}}}
		start := time.Now()
		var resp BatchResponse
		status, err := c.post(context.Background(), PathBatch, req, &resp)
		if status != http.StatusBadRequest || err == nil || !strings.Contains(err.Error(), "maximum") {
			t.Errorf("%s: HTTP %d, %v; want 400 naming the size bound", scenario, status, err)
		}
		if d := time.Since(start); d > 2*time.Second {
			t.Errorf("%s: rejection took %v", scenario, d)
		}
	}
}
