package repro

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/batfish/rest"
	"repro/internal/core"
	"repro/internal/netgen"
	"repro/internal/obs"
	"repro/internal/topology"
)

// fleet spins up n in-process batfishd servers and returns one REST
// client over all of them.
func fleet(t *testing.T, n int) *rest.Client {
	t.Helper()
	endpoints := make([]string, n)
	for i := range endpoints {
		srv := httptest.NewServer(rest.NewHandler())
		t.Cleanup(srv.Close)
		endpoints[i] = srv.URL
	}
	client, err := rest.Dial(endpoints)
	if err != nil {
		t.Fatal(err)
	}
	return client
}

// requireSameRun asserts two synthesis results are byte-identical in
// every paper-visible dimension: transcript, final configurations,
// verification outcome, and leverage.
func requireSameRun(t *testing.T, label string, baseline, got *Result) {
	t.Helper()
	if !reflect.DeepEqual(baseline.Transcript, got.Transcript) {
		t.Errorf("%s: transcripts diverge:\nbaseline:\n%s\ngot:\n%s",
			label, baseline.Transcript, got.Transcript)
	}
	if !reflect.DeepEqual(baseline.Configs, got.Configs) {
		t.Errorf("%s: final configurations diverge", label)
	}
	if baseline.Verified != got.Verified || baseline.Leverage() != got.Leverage() {
		t.Errorf("%s: outcome diverges: verified %v/%v leverage %v/%v",
			label, baseline.Verified, got.Verified,
			baseline.Leverage(), got.Leverage())
	}
}

// TestShardedSynthesisByteIdentical is the acceptance gate for the REST
// client's fan-out: on every registry scenario, synthesis over one
// endpoint and over three must reproduce the in-process sequential loop's
// transcript exactly. Results are pure functions of their inputs, so
// which endpoint answers a check must not change a byte. Every check the
// scan reads must be one the iteration's prefetch already answered: the
// stages list the same checks for both, so the cache records no miss.
func TestShardedSynthesisByteIdentical(t *testing.T) {
	for _, info := range Topologies() {
		t.Run(info.Name, func(t *testing.T) {
			baseline, err := Synthesize(mustTopo(t, info.Name, info.DefaultSize), SynthesizeOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range []int{1, 3} {
				label := fmt.Sprintf("%d-endpoint", n)
				res, err := Synthesize(mustTopo(t, info.Name, info.DefaultSize),
					SynthesizeOptions{Verifier: fleet(t, n)})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				requireSameRun(t, label, baseline, res)
				requirePrefetched(t, label, res.CacheStats)
			}
		})
	}
}

// requirePrefetched asserts a batched run's prefetches answered every
// lookup its stage scans made, from the result tier.
func requirePrefetched(t *testing.T, label string, stats *core.CacheStats) {
	t.Helper()
	if stats == nil || stats.Prefetches == 0 || stats.Misses != 0 || stats.Hits == 0 {
		t.Errorf("%s: %v, want batched prefetches and only hits in the scans", label, stats)
	}
}

// TestKilledEndpointFailsTheRun kills one of three endpoints in the middle
// of a synthesis run: after its health probe and two batches it severs
// every connection, as a crashed batfishd does. The run must end, without
// hanging, in an error that names that endpoint, and produce no result.
func TestKilledEndpointFailsTheRun(t *testing.T) {
	endpoints := make([]string, 3)
	for i := range endpoints {
		inner := rest.NewHandler()
		var served atomic.Int64
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if i == 0 && served.Add(1) > 3 {
				panic(http.ErrAbortHandler)
			}
			inner.ServeHTTP(w, r)
		}))
		t.Cleanup(srv.Close)
		endpoints[i] = srv.URL
	}
	client, err := rest.Dial(endpoints)
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := Synthesize(mustTopo(t, "random", 40), SynthesizeOptions{Verifier: client})
		done <- outcome{res, err}
	}()
	select {
	case out := <-done:
		if out.err == nil || !strings.Contains(out.err.Error(), endpoints[0]) {
			t.Fatalf("run with %s killed returned %v, want an error naming it", endpoints[0], out.err)
		}
		if out.res != nil {
			t.Error("a failed run returned a result")
		}
	case <-time.After(time.Minute):
		t.Fatal("run with a killed endpoint did not end within a minute")
	}
}

// TestConfiguredBackendByteIdentical is the CI matrix hook: the workflow
// runs the suite once per backend, setting COSYNTH_TEST_BACKEND to
// "in-process" or "sharded-N", and this test re-runs the byte-identical
// gate through that backend on every registry scenario. Unset, it skips —
// the dedicated tests above already cover the backends.
func TestConfiguredBackendByteIdentical(t *testing.T) {
	backend := os.Getenv("COSYNTH_TEST_BACKEND")
	if backend == "" {
		t.Skip("COSYNTH_TEST_BACKEND not set (CI matrix hook)")
	}
	shards := 0
	if s, ok := strings.CutPrefix(backend, "sharded-"); ok {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			t.Fatalf("bad COSYNTH_TEST_BACKEND %q", backend)
		}
		shards = n
	} else if backend != "in-process" {
		t.Fatalf("unknown COSYNTH_TEST_BACKEND %q", backend)
	}
	for _, info := range Topologies() {
		info := info
		t.Run(fmt.Sprintf("%s/%s", info.Name, backend), func(t *testing.T) {
			baseline, err := Synthesize(mustTopo(t, info.Name, info.DefaultSize), SynthesizeOptions{})
			if err != nil {
				t.Fatal(err)
			}
			opts := SynthesizeOptions{}
			if shards > 0 {
				opts.Verifier = fleet(t, shards)
			}
			res, err := Synthesize(mustTopo(t, info.Name, info.DefaultSize), opts)
			if err != nil {
				t.Fatal(err)
			}
			requireSameRun(t, backend, baseline, res)
		})
	}
}

// TestVariantGraphShardedByteIdentical runs a seeded variant of the random
// family — a graph whose specs differ from the default graph's — over 2
// endpoints. No endpoint may answer any request with an error status, and
// the transcript must equal the in-process run's.
func TestVariantGraphShardedByteIdentical(t *testing.T) {
	var rejected atomic.Int64
	endpoints := make([]string, 2)
	for i := range endpoints {
		inner := rest.NewHandler()
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
			inner.ServeHTTP(sw, r)
			if sw.status != http.StatusOK {
				rejected.Add(1)
			}
		}))
		t.Cleanup(srv.Close)
		endpoints[i] = srv.URL
	}
	client, err := rest.Dial(endpoints)
	if err != nil {
		t.Fatal(err)
	}
	variant := func() *topology.Topology {
		topo, err := netgen.GenerateSeeded("random", 40, 7)
		if err != nil {
			t.Fatal(err)
		}
		return topo
	}
	baseline, err := Synthesize(variant(), SynthesizeOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Synthesize(variant(), SynthesizeOptions{Seed: 7, Verifier: client})
	if err != nil {
		t.Fatal(err)
	}
	requireSameRun(t, "variant over 2 shards", baseline, res)
	if !res.Verified {
		t.Error("variant run did not verify")
	}
	if n := rejected.Load(); n != 0 {
		t.Errorf("shards answered %d requests with a non-200 status, want 0", n)
	}
}

// statusWriter records the status a handler wrote.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

// TestAcceleratedSynthesisByteIdentical holds a fully observed run to the
// plain one: on every registry scenario, the sequential loop with a
// metrics registry scraped in a loop by a live /metrics client and a
// JSONL trace sink must produce a transcript (and configs, and leverage)
// byte-identical to the same loop without them. Telemetry reports a run;
// it must never steer one. In process there is no result tier, so the
// dispatch layer answers nothing from it and evaluates every check it
// reaches.
func TestAcceleratedSynthesisByteIdentical(t *testing.T) {
	for _, info := range Topologies() {
		info := info
		t.Run(info.Name, func(t *testing.T) {
			topo := mustTopo(t, info.Name, info.DefaultSize)
			baseline, err := Synthesize(topo, SynthesizeOptions{})
			if err != nil {
				t.Fatal(err)
			}
			reg := obs.NewRegistry()
			tracePath := filepath.Join(t.TempDir(), "trace.jsonl")
			tracer, err := obs.OpenTrace(tracePath)
			if err != nil {
				t.Fatal(err)
			}
			msrv := httptest.NewServer(obs.Handler(reg))
			t.Cleanup(msrv.Close)
			scrape := func() ([]byte, error) {
				resp, err := http.Get(msrv.URL + obs.MetricsPath)
				if err != nil {
					return nil, err
				}
				defer resp.Body.Close()
				return io.ReadAll(resp.Body)
			}
			// Every non-empty mid-run exposition must validate. A short
			// run can finish before any scrape sees its metrics
			// registered, so the non-empty exposition the leg requires
			// comes from one more scrape after Synthesize returns.
			stopScrape := make(chan struct{})
			scraped := make(chan error, 1)
			go func() {
				for {
					select {
					case <-stopScrape:
						body, err := scrape()
						if err == nil && len(body) == 0 {
							err = fmt.Errorf("empty exposition after the run")
						}
						if err == nil {
							err = obs.ValidateExposition(bytes.NewReader(body))
						}
						scraped <- err
						return
					default:
					}
					body, err := scrape()
					if err == nil && len(body) > 0 {
						err = obs.ValidateExposition(bytes.NewReader(body))
					}
					if err != nil {
						scraped <- err
						return
					}
				}
			}()
			traced, err := Synthesize(mustTopo(t, info.Name, info.DefaultSize),
				SynthesizeOptions{Metrics: reg, Trace: tracer})
			close(stopScrape)
			if err != nil {
				t.Fatal(err)
			}
			if st := traced.CacheStats; st == nil || st.Hits != 0 || st.Misses == 0 {
				t.Errorf("in process the result tier answered checks: %v", st)
			}
			if serr := <-scraped; serr != nil {
				t.Errorf("live scrape: %v", serr)
			}
			if cerr := tracer.Close(); cerr != nil {
				t.Fatal(cerr)
			}
			requireSameRun(t, "traced+scraped", baseline, traced)
			tf, err := os.Open(tracePath)
			if err != nil {
				t.Fatal(err)
			}
			summary, err := obs.Summarize(tf)
			tf.Close()
			if err != nil {
				t.Fatalf("trace file does not summarize: %v", err)
			}
			if summary.Runs != 1 {
				t.Errorf("trace records %d run spans, want 1", summary.Runs)
			}
		})
	}
}

// TestParallelRunTracesRenders pins that forked models keep the run's trace
// sink: a traced run with two repair lanes must report at least one render
// span for every router, not just for the routers the unforked model saw.
func TestParallelRunTracesRenders(t *testing.T) {
	topo := mustTopo(t, "random", 12)
	var buf bytes.Buffer
	tracer := obs.NewTracer(&buf)
	if _, err := Synthesize(topo, SynthesizeOptions{Parallelism: 2, Trace: tracer}); err != nil {
		t.Fatal(err)
	}
	if err := tracer.Flush(); err != nil {
		t.Fatal(err)
	}
	rendered := map[string]bool{}
	dec := json.NewDecoder(&buf)
	for dec.More() {
		var ev obs.Event
		if err := dec.Decode(&ev); err != nil {
			t.Fatal(err)
		}
		if ev.Stage == obs.StageRender {
			rendered[ev.Router] = true
		}
	}
	for _, r := range topo.Routers {
		if !rendered[r.Name] {
			t.Errorf("router %s: no render span in the trace", r.Name)
		}
	}
}

// TestTraceSeparatesEvaluation checks that a traced in-process run tells
// dispatch apart from evaluation: it emits one evaluate span per check the
// cache evaluated, each inside a local_check span of the same kind, router
// and attachment, and -trace-summary lists evaluate as a nested stage,
// leaving the top-level marks where they were.
func TestTraceSeparatesEvaluation(t *testing.T) {
	var buf bytes.Buffer
	tracer := obs.NewTracer(&buf)
	res, err := Synthesize(mustTopo(t, "random", 20), SynthesizeOptions{Trace: tracer})
	if err != nil {
		t.Fatal(err)
	}
	if err := tracer.Flush(); err != nil {
		t.Fatal(err)
	}
	var evals, checks []obs.Event
	dec := json.NewDecoder(bytes.NewReader(buf.Bytes()))
	for dec.More() {
		var ev obs.Event
		if err := dec.Decode(&ev); err != nil {
			t.Fatal(err)
		}
		switch ev.Stage {
		case obs.StageEvaluate:
			evals = append(evals, ev)
		case obs.StageLocalCheck:
			checks = append(checks, ev)
		}
	}
	if res.CacheStats == nil || uint64(len(evals)) != res.CacheStats.Misses || len(evals) == 0 {
		t.Fatalf("%d evaluate spans; the cache counted %+v", len(evals), res.CacheStats)
	}
	end := func(ev obs.Event) time.Time { return ev.TS.Add(time.Duration(ev.DurNS)) }
	for _, ev := range evals {
		inside := false
		for _, c := range checks {
			if c.Outcome == "check" && c.Detail == ev.Detail && c.Router == ev.Router &&
				c.Attachment == ev.Attachment && !ev.TS.Before(c.TS) && !end(ev).After(end(c)) {
				inside = true
				break
			}
		}
		if !inside {
			t.Fatalf("evaluate span %+v lies inside no local_check span of its check", ev)
		}
	}
	summary, err := obs.Summarize(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	marked := map[string]bool{}
	for _, line := range strings.Split(summary.String(), "\n") {
		if f := strings.Fields(line); len(f) > 0 && summary.Stages[f[0]] != nil {
			marked[f[0]] = strings.HasSuffix(line, "*")
		}
	}
	if m, ok := marked[obs.StageEvaluate]; !ok || m {
		t.Errorf("the summary lists evaluate %v, marked %v; want it listed unmarked:\n%s", ok, m, summary)
	}
	for _, stage := range []string{obs.StageLocalCheck, obs.StageLLMCall, obs.StageGlobalCheck} {
		if !marked[stage] {
			t.Errorf("the summary does not mark %s as a top-level stage:\n%s", stage, summary)
		}
	}
}

// TestBatchedRESTSynthesisByteIdentical runs the same gate over the REST
// wrapper: the batched, cached loop against batfishd must reproduce the
// in-process sequential loop's transcript exactly.
func TestBatchedRESTSynthesisByteIdentical(t *testing.T) {
	srv := httptest.NewServer(rest.NewHandler())
	t.Cleanup(srv.Close)
	client := rest.NewClient(srv.URL)

	baseline, err := SynthesizeNoTransit(SynthesizeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	batched, err := SynthesizeNoTransit(SynthesizeOptions{Verifier: client})
	if err != nil {
		t.Fatal(err)
	}
	requireSameRun(t, "batched", baseline, batched)
	if !batched.Verified {
		t.Error("batched REST run did not verify")
	}
	stats := batched.CacheStats
	if stats == nil || stats.Prefetches == 0 {
		t.Fatalf("batched run issued no prefetches: %v", stats)
	}
	// The batch transport's contract: at most one verification round-trip
	// per pipeline iteration (each prefetch is one round-trip), plus the
	// final global check.
	if calls := client.Calls(); calls > int64(stats.Prefetches)+1 {
		t.Errorf("REST round-trips = %d for %d iterations (+1 global), want ≤ %d",
			calls, stats.Prefetches, stats.Prefetches+1)
	}
}

// TestTranslationCacheByteIdentical runs the translation gate: the
// result tier, in process under a disk tier and over one and three REST
// endpoints, must emit the in-process loop's transcript, and a batched
// run's prefetches must answer every lookup its scans make.
func TestTranslationCacheByteIdentical(t *testing.T) {
	baseline, err := Translate(ExampleCiscoConfig(), TranslateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cached, err := Translate(ExampleCiscoConfig(), TranslateOptions{CacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	requireSameRun(t, "cached", baseline, cached)
	if cached.CacheStats == nil || cached.CacheStats.DiskWrites == 0 {
		t.Errorf("the disk tier took no results: %v", cached.CacheStats)
	}
	for _, n := range []int{1, 3} {
		label := fmt.Sprintf("%d-endpoint", n)
		res, err := Translate(ExampleCiscoConfig(), TranslateOptions{Verifier: fleet(t, n)})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		requireSameRun(t, label, baseline, res)
		requirePrefetched(t, label, res.CacheStats)
	}
}
