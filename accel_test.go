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

	"repro/internal/batfish/rest"
	"repro/internal/faultinject"
	"repro/internal/netgen"
	"repro/internal/obs"
	"repro/internal/topology"
)

// shardFleet spins up n in-process shard servers and returns a sharded
// client over them. dieAfter > 0 arranges for the first shard to crash
// mid-run: after serving that many requests it aborts every connection
// without a response — the failure mode of a killed batfishd — so the
// ring must fail its work over onto the survivors.
func shardFleet(t *testing.T, n int, dieAfter int64) *rest.ShardedClient {
	t.Helper()
	endpoints := make([]string, n)
	for i := 0; i < n; i++ {
		handler := rest.NewHandler()
		if i == 0 {
			handler = faultinject.AbortAfter(handler, dieAfter)
		}
		srv := httptest.NewServer(handler)
		t.Cleanup(srv.Close)
		endpoints[i] = srv.URL
	}
	client, err := rest.NewShardedClient(endpoints)
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

// TestShardedSynthesisByteIdentical is the acceptance gate for the
// sharded verification backend: on every registry scenario, synthesis
// through a consistent-hash shard ring — one shard, three shards, and
// three shards with one killed mid-run — must reproduce the in-process
// sequential loop's transcript exactly. Results are pure functions of
// their inputs, so re-hashing a dead shard's checks onto the survivors
// must not change a byte.
func TestShardedSynthesisByteIdentical(t *testing.T) {
	// The ring's shard assignment depends on the test servers' random
	// ports, so whether the doomed shard is ever asked a second request —
	// and therefore visibly dies — varies per scenario. Each scenario
	// requires failover when the shard did die; the aggregate requires
	// that the kill actually fired somewhere, so the failover path is
	// always exercised by this gate. The aggregate only applies when every
	// scenario ran — a -run filter selecting one subtest must not trip it.
	failoversExercised, scenariosRun := 0, 0
	for _, info := range Topologies() {
		info := info
		t.Run(info.Name, func(t *testing.T) {
			scenariosRun++
			baseline, err := Synthesize(mustTopo(t, info.Name, info.DefaultSize),
				SynthesizeOptions{DisableVerifierCache: true})
			if err != nil {
				t.Fatal(err)
			}
			for _, mode := range []struct {
				label    string
				shards   int
				dieAfter int64
			}{
				{"1-shard", 1, 0},
				{"3-shard", 3, 0},
				// The doomed shard serves its first request, then aborts
				// every later connection: a crash in the middle of the
				// repair loop's iteration sequence. The ring must re-hash
				// its checks without changing the transcript.
				{"3-shard-one-killed", 3, 1},
			} {
				client := shardFleet(t, mode.shards, mode.dieAfter)
				res, err := Synthesize(mustTopo(t, info.Name, info.DefaultSize),
					SynthesizeOptions{Verifier: client})
				if err != nil {
					t.Fatalf("%s: %v", mode.label, err)
				}
				requireSameRun(t, mode.label, baseline, res)
				if res.CacheStats == nil || res.CacheStats.Prefetches == 0 {
					t.Errorf("%s: sharded run issued no batched prefetches: %v",
						mode.label, res.CacheStats)
				}
				if mode.dieAfter > 0 {
					stats := client.Stats()
					if stats[0].Calls > mode.dieAfter && !stats[0].Dead {
						t.Errorf("%s: killed shard answered %d calls but was not failed over: %v",
							mode.label, stats[0].Calls, stats[0])
					}
					if stats[0].Dead {
						failoversExercised++
					}
					for i := 1; i < len(stats); i++ {
						if stats[i].Dead {
							t.Errorf("%s: survivor %d marked dead", mode.label, i)
						}
					}
				}
			}
		})
	}
	if scenariosRun == len(Topologies()) && failoversExercised == 0 {
		t.Error("no scenario exercised mid-run shard failover")
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
			baseline, err := Synthesize(mustTopo(t, info.Name, info.DefaultSize),
				SynthesizeOptions{DisableVerifierCache: true})
			if err != nil {
				t.Fatal(err)
			}
			opts := SynthesizeOptions{}
			if shards > 0 {
				opts.Verifier = shardFleet(t, shards, 0)
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
// family — a graph whose specs differ from the default graph's — over a
// 2-shard fleet whose references were armed for the default graph. Bodies
// the registry does not hold must travel in full, so no shard may answer
// any request with an error status, and the transcript must equal the
// in-process run's.
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
	client, err := rest.NewShardedClient(endpoints)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.WarmScenario("random:40", 0); err != nil {
		t.Fatal(err)
	}
	variant := func() *topology.Topology {
		topo, err := netgen.GenerateSeeded("random", 40, 7)
		if err != nil {
			t.Fatal(err)
		}
		return topo
	}
	baseline, err := Synthesize(variant(), SynthesizeOptions{Seed: 7, DisableVerifierCache: true})
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

// TestAcceleratedSynthesisByteIdentical is the acceptance gate for the
// verification acceleration layer: on every registry scenario, the
// incremental cache plus the concurrent suite scan must produce a
// transcript (and configs, and leverage) byte-identical to the pre-cache
// sequential loop.
func TestAcceleratedSynthesisByteIdentical(t *testing.T) {
	for _, info := range Topologies() {
		info := info
		t.Run(info.Name, func(t *testing.T) {
			topo := mustTopo(t, info.Name, info.DefaultSize)
			baseline, err := Synthesize(topo,
				SynthesizeOptions{DisableVerifierCache: true})
			if err != nil {
				t.Fatal(err)
			}
			accelerated, err := Synthesize(mustTopo(t, info.Name, info.DefaultSize),
				SynthesizeOptions{SuiteParallelism: 8})
			if err != nil {
				t.Fatal(err)
			}
			requireSameRun(t, "accelerated", baseline, accelerated)
			if accelerated.CacheStats == nil || accelerated.CacheStats.Hits == 0 {
				t.Errorf("cache saw no hits: %v", accelerated.CacheStats)
			}

			// Telemetry leg: the same accelerated run with the full
			// observability surface armed — a metrics registry scraped in a
			// loop by a live /metrics client and a JSONL trace sink — must
			// still be byte-identical. Telemetry reports a run; it must
			// never steer one.
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
				SynthesizeOptions{SuiteParallelism: 8, Metrics: reg, Trace: tracer})
			close(stopScrape)
			if err != nil {
				t.Fatal(err)
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

// TestBatchedRESTSynthesisByteIdentical runs the same gate over the REST
// wrapper: the batched, cached loop against batfishd must reproduce the
// in-process sequential loop's transcript exactly.
func TestBatchedRESTSynthesisByteIdentical(t *testing.T) {
	srv := httptest.NewServer(rest.NewHandler())
	t.Cleanup(srv.Close)
	client := rest.NewClient(srv.URL)

	baseline, err := SynthesizeNoTransit(SynthesizeOptions{DisableVerifierCache: true})
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

// TestTranslationCacheByteIdentical runs the translation gate: cached and
// uncached loops must emit the same transcript.
func TestTranslationCacheByteIdentical(t *testing.T) {
	baseline, err := Translate(ExampleCiscoConfig(), TranslateOptions{DisableVerifierCache: true})
	if err != nil {
		t.Fatal(err)
	}
	cached, err := Translate(ExampleCiscoConfig(), TranslateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(baseline.Transcript, cached.Transcript) {
		t.Error("translation transcripts diverge")
	}
	if cached.CacheStats == nil {
		t.Error("cached translation reported no stats")
	}
}
