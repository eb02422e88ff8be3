package rest

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/suite"
)

// withFastRetries keeps the backoff sleeps out of the test's wall clock.
func withFastRetries(c *Client) *Client {
	c.retryBase = time.Millisecond
	c.retryMax = 4 * time.Millisecond
	return c
}

// TestRetryRidesOutTransientFault starts a server whose first two
// requests die at the transport layer — a backend mid-restart — and
// expects the client to ride the fault out within its default attempt
// budget, with the retries accounted.
func TestRetryRidesOutTransientFault(t *testing.T) {
	inner := NewHandler()
	var served atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1) <= 2 {
			panic(http.ErrAbortHandler) // severs the connection
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()
	c := withFastRetries(NewClient(srv.URL))
	if _, err := c.CheckSyntax("hostname R1\n"); err != nil {
		t.Fatalf("transient fault not ridden out: %v", err)
	}
	if got := c.Retries(); got != 2 {
		t.Errorf("retries = %d, want 2", got)
	}
	if got := c.Calls(); got != 3 {
		t.Errorf("calls = %d, want 3 (two aborted + one served)", got)
	}
}

// TestRetryBudgetExhausted points the client at a server that kills
// every request: the failure must propagate as a *TransportError after
// exactly maxAttempts round-trips, one classified failure, not an
// unbounded stall.
func TestRetryBudgetExhausted(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic(http.ErrAbortHandler)
	}))
	defer srv.Close()
	c := withFastRetries(NewClient(srv.URL))
	c.maxAttempts = 3
	_, err := c.CheckSyntax("hostname R1\n")
	if !IsTransportError(err) {
		t.Fatalf("exhausted retries did not yield a transport error: %v", err)
	}
	if got := c.Calls(); got != 3 {
		t.Errorf("calls = %d, want 3 attempts", got)
	}
}

// TestCallerCancellationPropagatesImmediately cancels the caller's
// context while the server sits on the request. The cancellation must
// come back as the bare context error — not a *TransportError, which
// would read as a dead endpoint — and must not consume retry attempts:
// one round-trip, no retries.
func TestCallerCancellationPropagatesImmediately(t *testing.T) {
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-release:
		}
	}))
	defer srv.Close()
	defer close(release)
	c := withFastRetries(NewClient(srv.URL))
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	_, err := c.CheckBatch(ctx, []suite.Check{{Kind: suite.KindSyntax, Config: "hostname R1\n"}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if IsTransportError(err) {
		t.Error("caller cancellation came back wrapped as a transport error")
	}
	if got := c.Calls(); got != 1 {
		t.Errorf("calls = %d, want 1 — a cancelled request must not be retried", got)
	}
}
