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

// TestBatchRefusesBodyReferences pins the version-8 wire form: spec and
// requirement bodies travel inline, so a /v1/batch body that names a
// scenario or carries a body reference, fields version 7 defined, fails
// with a 400 naming the unknown field.
func TestBatchRefusesBodyReferences(t *testing.T) {
	c := newTestClient(t)
	ref := strings.Repeat("0", 64)
	for _, tc := range []struct{ field, body string }{
		{"scenario", `{"scenario":"star:3","bodies":["hostname R1\n"],"checks":[{"kind":"syntax","config":0}]}`},
		{"spec_ref", `{"bodies":["hostname R2\n"],"checks":[{"kind":"topology","config":0,"spec_ref":"` + ref + `"}]}`},
		{"req_ref", `{"bodies":["hostname R1\n"],"checks":[{"kind":"local","config":0,"req_ref":"` + ref + `"}]}`},
	} {
		var resp BatchResponse
		status, _, err := c.post(context.Background(), c.eps[0], PathBatch, json.RawMessage(tc.body), &resp)
		want := fmt.Sprintf("unknown field %q", tc.field)
		if status != http.StatusBadRequest || err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: HTTP %d, %v; want 400 naming %s", tc.field, status, err, want)
		}
	}
}
