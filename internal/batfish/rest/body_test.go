package rest

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/lightyear"
	"repro/internal/topology"
)

// TestOversizedBodyRejected declares a body one byte over the limit, sends
// only its first byte, and requires a prompt 413 naming the limit: the
// server must refuse the body without waiting to read it.
func TestOversizedBodyRejected(t *testing.T) {
	srv := httptest.NewServer(NewHandler())
	t.Cleanup(srv.Close)
	conn, err := net.Dial("tcp", srv.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(conn, "POST %s HTTP/1.1\r\nHost: batfishd\r\n%s: %s\r\n"+
		"Content-Type: application/json\r\nContent-Length: %d\r\n\r\n{",
		PathBatch, ProtocolHeader, protocolVersion, maxBody+1)
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("no response to an oversized body: %v", err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusRequestEntityTooLarge ||
		!strings.Contains(string(body), strconv.FormatInt(maxBody, 10)) {
		t.Fatalf("HTTP %d %s; want 413 naming the %d-byte limit",
			resp.StatusCode, body, maxBody)
	}
}

// oversizedServer serves the real handler but presents every request as
// declaring a body over the limit, so the 413 path runs without shipping
// gigabytes.
func oversizedServer(t *testing.T) string {
	t.Helper()
	h := NewHandler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		r.ContentLength = maxBody + 1
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	return srv.URL
}

// TestOversizedBodyIsServedError pins how the client takes a 413, over
// one endpoint or several: as a served error, surfaced once, without
// retry.
func TestOversizedBodyIsServedError(t *testing.T) {
	c := NewClient(oversizedServer(t))
	_, err := c.CheckBatch(context.Background(), batchChecks(t))
	if err == nil || IsTransportError(err) || !strings.Contains(err.Error(), "limit") {
		t.Fatalf("client error = %v; want a served error naming the limit", err)
	}
	if c.Retries() != 0 {
		t.Errorf("client retried a 413 %d times", c.Retries())
	}

	fan, err := newFanout([]string{oversizedServer(t), oversizedServer(t)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fan.CheckBatch(context.Background(), batchChecks(t)); err == nil ||
		!strings.Contains(err.Error(), "limit") {
		t.Fatalf("two-endpoint error = %v; want the served 413", err)
	}
	if fan.Retries() != 0 {
		t.Errorf("two-endpoint client retried a 413 %d times", fan.Retries())
	}
}

// TestLargeResponseDecodes answers a global check with a valid
// NoTransitResponse just over 16 MiB — the size the global check of a
// large random family's first drafts reaches — and requires the client to
// decode it whole.
func TestLargeResponseDecodes(t *testing.T) {
	want := &lightyear.GlobalResult{Converged: true}
	violation := strings.Repeat("v", 1000)
	for i := 0; i < 17<<10; i++ {
		want.Violations = append(want.Violations, fmt.Sprintf("%d %s", i, violation))
	}
	body, err := json.Marshal(NoTransitResponse{Result: want})
	if err != nil {
		t.Fatal(err)
	}
	if len(body) <= 16<<20 {
		t.Fatalf("response is %d bytes, want just over 16 MiB", len(body))
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(body)
	}))
	t.Cleanup(srv.Close)
	got, err := NewClient(srv.URL).GlobalNoTransit(&topology.Topology{Name: "large"}, nil)
	if err != nil {
		t.Fatalf("decoding a %d-byte response: %v", len(body), err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("decoded %d violations, want %d", len(got.Violations), len(want.Violations))
	}
}

// TestOversizedResponseRefused answers with a response that declares a
// body over maxBody: the client must fail at once with an error naming
// the bound, without retrying or reading the body.
func TestOversizedResponseRefused(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", strconv.FormatInt(maxBody+1, 10))
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte("{"))
	}))
	t.Cleanup(srv.Close)
	c := NewClient(srv.URL)
	_, err := c.GlobalNoTransit(&topology.Topology{Name: "large"}, nil)
	if err == nil || IsTransportError(err) || !strings.Contains(err.Error(), strconv.FormatInt(maxBody, 10)) {
		t.Fatalf("error = %v; want a served error naming the %d-byte bound", err, maxBody)
	}
	if c.Retries() != 0 {
		t.Errorf("an oversized response was retried %d times", c.Retries())
	}
}
