package rest

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
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
		PathBatch, ProtocolHeader, protocolVersion, maxRequestBody+1)
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("no response to an oversized body: %v", err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusRequestEntityTooLarge ||
		!strings.Contains(string(body), strconv.FormatInt(maxRequestBody, 10)) {
		t.Fatalf("HTTP %d %s; want 413 naming the %d-byte limit",
			resp.StatusCode, body, maxRequestBody)
	}
}

// oversizedServer serves the real handler but presents every request as
// declaring a body over the limit, so the 413 path runs without shipping
// gigabytes.
func oversizedServer(t *testing.T) string {
	t.Helper()
	h := NewHandler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		r.ContentLength = maxRequestBody + 1
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	return srv.URL
}

// TestOversizedBodyIsServedError pins how the clients take a 413: as a
// served error, surfaced once — no retry, and no failover onto (or death
// of) another shard.
func TestOversizedBodyIsServedError(t *testing.T) {
	c := NewClient(oversizedServer(t))
	_, err := c.CheckBatch(context.Background(), batchChecks(t))
	if err == nil || IsTransportError(err) || !strings.Contains(err.Error(), "limit") {
		t.Fatalf("client error = %v; want a served error naming the limit", err)
	}
	if c.Retries() != 0 {
		t.Errorf("client retried a 413 %d times", c.Retries())
	}

	sc, err := NewShardedClient([]string{oversizedServer(t), oversizedServer(t)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.CheckBatch(context.Background(), batchChecks(t)); err == nil ||
		!strings.Contains(err.Error(), "limit") {
		t.Fatalf("sharded error = %v; want the served 413", err)
	}
	if sc.Retries() != 0 {
		t.Errorf("sharded client retried a 413 %d times", sc.Retries())
	}
	for i, st := range sc.Stats() {
		if st.Dead {
			t.Errorf("413 killed shard %d", i)
		}
	}
}
