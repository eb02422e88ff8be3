package rest

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
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

	// A client with one such endpoint among several fails its Health
	// probe, naming that endpoint.
	good := httptest.NewServer(NewHandler())
	t.Cleanup(good.Close)
	c, err := newFanout([]string{good.URL, srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Health(); !errors.Is(err, errProtocolMismatch) || !strings.Contains(err.Error(), srv.URL) {
		t.Errorf("Health over two endpoints = %v, want a protocol mismatch naming %s", err, srv.URL)
	}
}

// TestShardedProtocolMismatchPropagates pins that a version mismatch is a
// served error: every endpoint rejects the batch identically, so the
// client surfaces the rejection without retrying it.
func TestShardedProtocolMismatchPropagates(t *testing.T) {
	endpoints := make([]string, 2)
	for i := range endpoints {
		inner := NewHandler()
		// The endpoint sees the client's requests stamped by another
		// generation of the protocol.
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			r.Header.Set(ProtocolHeader, "4")
			inner.ServeHTTP(w, r)
		}))
		t.Cleanup(srv.Close)
		endpoints[i] = srv.URL
	}
	c, err := newFanout(endpoints)
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.CheckBatch(context.Background(), batchChecks(t))
	if err == nil || !strings.Contains(err.Error(), "client speaks v4") {
		t.Fatalf("batch against mismatched endpoints: %v, want the protocol mismatch", err)
	}
	if _, err := c.CheckSyntax("hostname R1\n"); err == nil {
		t.Error("per-check call against mismatched endpoints succeeded")
	}
	if n := c.Retries(); n != 0 {
		t.Errorf("protocol mismatch retried %d times", n)
	}
}

// TestOversizedScenarioRejected sends a batch whose reference names a
// family far past netgen's size bound, or one whose registry would pass
// maxRegistryBodies: the server must refuse it with a 400 naming the
// bound, without building the topology or the registry.
func TestOversizedScenarioRejected(t *testing.T) {
	c := newTestClient(t)
	registryBound := strconv.Itoa(maxRegistryBodies)
	for _, tc := range []struct{ scenario, bound string }{
		{"random:100000000", "maximum"},
		{"fat-tree:1000", "maximum"},
		{"dual-homed:1000", registryBound},
		{"random:1000", registryBound},
	} {
		req := BatchRequest{Scenario: tc.scenario, Bodies: []string{"hostname R1\n"}, Checks: []BatchCheck{{
			Kind: string(suite.KindTopology), Config: 0, SpecRef: strings.Repeat("0", 64)}}}
		start := time.Now()
		var resp BatchResponse
		status, err := c.post(context.Background(), c.eps[0], PathBatch, req, &resp)
		if status != http.StatusBadRequest || err == nil || !strings.Contains(err.Error(), tc.bound) {
			t.Errorf("%s: HTTP %d, %v; want 400 naming the bound %q", tc.scenario, status, err, tc.bound)
		}
		if d := time.Since(start); d > 2*time.Second {
			t.Errorf("%s: rejection took %v", tc.scenario, d)
		}
	}
}
