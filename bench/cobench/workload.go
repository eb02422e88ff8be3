package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro"
	"repro/internal/batfish"
	"repro/internal/batfish/rest"
	"repro/internal/lightyear"
	"repro/internal/modularizer"
	"repro/internal/netcfg"
	"repro/internal/netgen"
	"repro/internal/obs"
	"repro/internal/topology"
)

// workload is one fixed benchmark input: a topology family and size, how
// the repair loop runs on it, and which layers it routes through.
type workload struct {
	name   string
	family string
	size   int
	// variants lets a nonzero seed pick a graph variant (see graphSeed);
	// without it every seed runs the family's default graph.
	variants bool
	// parallel is the per-router repair worker count; <= 1 runs the
	// paper's sequential loop.
	parallel int
	// shards > 0 verifies over that many in-process batfishd shards on
	// loopback, wired the way `cosynth -shards` wires them.
	shards int
	// restart runs each sample against one disk cache: a cold run into an
	// empty directory, then warmRestarts warm restarts with fresh in-memory
	// state that read the entries back. run_s is a warm restart's.
	restart bool
}

// warmRestarts is how many warm restarts an untraced restart sample times;
// one takes under a second, too little to time alone on a noisy machine.
const warmRestarts = 4

// workloads are the benchmark's inputs; BENCHMARK.json records why each
// exists, and README.md which layer each loads or bypasses. Two keep the
// default graph at every seed. The shards' scenario pre-warm registers the
// default graph's specs, so on a variant every reference-carrying batch is
// rejected and re-sent in full, and the wire workload would time that
// fallback instead of the protocol's main path. The restart workload's
// warm restart is mostly one BGP simulation, whose cost follows the
// graph's shape closely enough that variants would bury any change to the
// disk tier.
var workloads = []workload{
	{name: "synth-random-75", family: "random", size: 75, variants: true, parallel: 2},
	{name: "synth-fattree-10", family: "fat-tree", size: 10},
	{name: "wire-random-75", family: "random", size: 75, shards: 2},
	{name: "restart-random-75", family: "random", size: 75, parallel: 2, restart: true},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// scenario is the workload's topology in the CLI's name:size form.
func (w workload) scenario() string { return fmt.Sprintf("%s:%d", w.family, w.size) }

// reference is what every sample of one (workload, seed) must reproduce.
type reference struct {
	Automated  int    `json:"automated"`
	Human      int    `json:"human"`
	Transcript string `json:"transcript_sha256"`
}

// runner takes samples of one workload at one seed.
type runner struct {
	w    workload
	seed int64
	// graph is the netgen graph seed the benchmark seed resolved to.
	graph int64
	// workDir holds the restart workload's per-sample cache directories.
	workDir string
	// ref is the expected outcome; nil until the first sample sets it.
	ref *reference
	// verdicts memoizes the independent global check by a digest of the
	// final configurations: the check is a pure function of them.
	verdicts map[[sha256.Size]byte]error
}

func newRunner(w workload, seed int64, workDir string, ref *reference) (*runner, error) {
	r := &runner{w: w, seed: seed, workDir: workDir, ref: ref, verdicts: map[[sha256.Size]byte]error{}}
	if w.variants && seed != 0 {
		var err error
		if r.graph, err = graphSeed(w.family, w.size, seed); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// graphSeed resolves a nonzero benchmark seed to a netgen graph seed. It
// draws graph variants from a stream keyed by the seed and takes the first
// that matches the default graph on what sets a run's amount of work: the
// total attachment count and the attachments of R1-R6, the routers the
// simulated LLM's default error plan targets. A seed thus changes the
// graph's shape but not the prompts or the number of checks, so spreads
// across seeds stay small.
func graphSeed(family string, size int, seed int64) (int64, error) {
	def, err := netgen.GenerateSeeded(family, size, 0)
	if err != nil {
		return 0, err
	}
	want := workSignature(def)
	rng := rand.New(rand.NewSource(seed))
	for tries := 0; tries < 1<<18; tries++ {
		g := rng.Int63()
		if g == 0 {
			continue
		}
		topo, err := netgen.GenerateSeeded(family, size, g)
		if err != nil {
			return 0, err
		}
		if workSignature(topo) == want {
			return g, nil
		}
	}
	return 0, fmt.Errorf("no %s:%d variant for seed %d matches the default graph's work", family, size, seed)
}

// workSignature summarizes a topology by the properties graphSeed matches.
func workSignature(t *topology.Topology) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d", len(t.ExternalAttachments()))
	for i := 1; i <= 6; i++ {
		n := 0
		if r := t.Router(fmt.Sprintf("R%d", i)); r != nil {
			for _, nb := range r.Neighbors {
				if nb.External {
					n++
				}
			}
		}
		fmt.Fprintf(&b, ",%d", n)
	}
	return b.String()
}

// env is one sample's set-up: the topology and, per workload, the shard
// fleet or the disk-cache directory.
type env struct {
	topo     *topology.Topology
	servers  []*http.Server
	serving  sync.WaitGroup
	parses   []*netcfg.ParseCache
	client   *rest.ShardedClient
	serverNS atomic.Int64 // time the shards spent inside batch handlers
	cacheDir string
}

// setUp builds a sample's environment, returning it with the whole set-up
// time and the topology-generation part of it.
func (r *runner) setUp() (*env, time.Duration, time.Duration, error) {
	start := time.Now()
	topo, err := netgen.GenerateSeeded(r.w.family, r.w.size, r.graph)
	if err != nil {
		return nil, 0, 0, err
	}
	generate := time.Since(start)
	e := &env{topo: topo}
	fail := func(err error) (*env, time.Duration, time.Duration, error) {
		e.tearDown()
		return nil, 0, 0, err
	}
	var endpoints []string
	for i := 0; i < r.w.shards; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fail(err)
		}
		// The same handler options `cosynth -shards` gives its in-process
		// shards, behind a timer on the batch path.
		parses := batfish.NewParseCache()
		h := rest.NewHandlerOpts(rest.HandlerOptions{Parses: parses})
		srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			if req.URL.Path != rest.PathBatch {
				h.ServeHTTP(w, req)
				return
			}
			t0 := time.Now()
			h.ServeHTTP(w, req)
			e.serverNS.Add(int64(time.Since(t0)))
		})}
		e.servers = append(e.servers, srv)
		e.parses = append(e.parses, parses)
		e.serving.Add(1)
		go func() {
			defer e.serving.Done()
			_ = srv.Serve(ln) // returns http.ErrServerClosed once tearDown closes it
		}()
		endpoints = append(endpoints, "http://"+ln.Addr().String())
	}
	if len(endpoints) > 0 {
		if e.client, err = rest.NewShardedClient(endpoints); err != nil {
			return fail(err)
		}
		if err = e.client.Health(); err != nil {
			return fail(err)
		}
	}
	if r.w.restart {
		if e.cacheDir, err = os.MkdirTemp(r.workDir, "cache-"); err != nil {
			return fail(err)
		}
	}
	return e, time.Since(start), generate, nil
}

// tearDown stops the shards, waits for their servers to exit, and removes
// the cache directory.
func (e *env) tearDown() {
	for _, srv := range e.servers {
		srv.Close()
	}
	e.serving.Wait()
	if e.cacheDir != "" {
		os.RemoveAll(e.cacheDir)
	}
}

// measured is one sample's metrics by name.
type measured map[string]float64

// sample takes one sample: set-up, the timed run, and the correctness
// checks. On restart workloads the timed run is a cold run followed by
// the given number of warm restarts, whose median is reported. A traced
// sample records its runs' JSONL trace in memory and adds the per-layer
// metrics drawn from it. A returned error marks the sample failed.
func (r *runner) sample(traced bool, restarts int) (measured, error) {
	e, _, generate, err := r.setUp()
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer e.tearDown()
	m := measured{"netgen.generate_ms": ms(generate),
		// Layers a workload bypasses report zero work.
		"durable.disk_writes": 0, "durable.bytes": 0, "rest.rpcs": 0, "rest.bytes_out": 0, "rest.retries": 0}

	var runs []timedRun
	if r.w.restart {
		cold, err := r.runOnce(e, nil)
		if err != nil {
			return nil, fmt.Errorf("cold run: %w", err)
		}
		m["cold_run_s"] = cold.wall.Seconds()
		m["durable.disk_writes"] = float64(cold.res.CacheStats.DiskWrites)
		if m["durable.bytes"], err = dirBytes(e.cacheDir); err != nil {
			return nil, err
		}
		runs = append(runs, cold) // checked with the others below
	}

	var trace bytes.Buffer
	var tr *obs.Tracer
	if traced {
		tr = obs.NewTracer(&trace)
		for _, p := range e.parses {
			p.SetObs(nil, tr)
		}
	}
	if !r.w.restart {
		restarts = 1
	}
	var callsBefore, bytesBefore, retriesBefore int64
	if e.client != nil {
		callsBefore, bytesBefore, retriesBefore = e.client.Calls(), e.client.BytesSent(), e.client.Retries()
	}
	var walls, cpus, allocs []float64
	var run timedRun
	for i := 0; i < restarts; i++ {
		if run, err = r.runOnce(e, tr); err != nil {
			return nil, err
		}
		runs = append(runs, run)
		walls = append(walls, run.wall.Seconds())
		cpus = append(cpus, run.cpu)
		allocs = append(allocs, run.allocMB)
	}
	if err := tr.Close(); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	_, m["run_s"], _ = quartiles(walls)
	_, m["cpu_s"], _ = quartiles(cpus)
	_, m["alloc_mb"], _ = quartiles(allocs)
	if !r.w.restart {
		m["cold_run_s"] = m["run_s"] // without a disk tier every run starts cold
	}

	res, wall := run.res, run.wall
	automated, human, leverage := repro.Leverage(res)
	m["prompts_automated"] = float64(automated)
	m["prompts_human"] = float64(human)
	m["leverage"] = leverage

	cs := res.CacheStats
	m["core.iterations"] = float64(res.Iterations)
	m["core.verify_checks"] = float64(cs.Hits + cs.Misses)
	m["core.backend_checks"] = float64(cs.Misses + cs.BatchedChecks)
	m["core.cache_hit_ratio"] = ratio(float64(cs.Hits), float64(cs.Hits+cs.Misses))
	m["core.prefetch_rtts"] = float64(cs.Prefetches)
	m["durable.disk_hits"] = float64(cs.DiskHits)
	m["durable.fragment_disk_hits"] = float64(cs.FragmentDiskHits)
	fragHits, fragMisses := cs.FragmentHits, cs.FragmentMisses
	for _, p := range e.parses {
		h, mi, _ := p.FragmentStats()
		fragHits, fragMisses = fragHits+h, fragMisses+mi
	}
	m["netcfg.fragment_hit_ratio"] = ratio(float64(fragHits), float64(fragHits+fragMisses))

	var rpcNS int64
	if e.client != nil {
		m["rest.rpcs"] = float64(e.client.Calls() - callsBefore)
		m["rest.bytes_out"] = float64(e.client.BytesSent() - bytesBefore)
		m["rest.retries"] = float64(e.client.Retries() - retriesBefore)
		for _, st := range e.client.Stats() {
			rpcNS += int64(st.Latency)
		}
	}
	// Wire times are shares of the run's wall, so workloads that bypass
	// the wire report 0 rather than a duration of nothing.
	serverNS := e.serverNS.Load()
	m["rest.rpc_share"] = float64(rpcNS) / float64(wall)
	m["rest.server_share"] = float64(serverNS) / float64(wall)
	m["rest.wire_share"] = float64(rpcNS-serverNS) / float64(wall)
	m["rest.prewarm_share"] = float64(run.prewarm) / float64(wall)

	t0 := time.Now()
	modularizer.Tasks(e.topo)
	m["modularizer.tasks_ms"] = ms(time.Since(t0))

	if traced {
		events, err := decodeTrace(&trace)
		if err != nil {
			return nil, err
		}
		traceMetrics(m, events, run.start, run.start.Add(wall))
	}

	for _, run := range runs {
		if err := r.check(e.topo, run.res); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// timedRun is one timed run of the repair loop and what it cost.
type timedRun struct {
	res     *repro.Result
	start   time.Time
	wall    time.Duration
	prewarm time.Duration
	cpu     float64 // process CPU seconds, the in-process shards' included
	allocMB float64
}

// runOnce runs the repair loop once, with memory statistics read and the
// heap collected outside the timed region.
func (r *runner) runOnce(e *env, tr *obs.Tracer) (timedRun, error) {
	runtime.GC()
	var memBefore, memAfter runtime.MemStats
	runtime.ReadMemStats(&memBefore)
	cpuBefore, err := cpuTime()
	if err != nil {
		return timedRun{}, err
	}
	run := timedRun{start: time.Now()}
	if e.client != nil {
		// Users pay the pre-warm on every run, so it is inside the timing.
		if _, err := e.client.WarmScenario(r.w.scenario(), r.seed); err != nil {
			return timedRun{}, fmt.Errorf("scenario pre-warm: %w", err)
		}
		run.prewarm = time.Since(run.start)
	}
	run.res, err = r.synthesize(e, tr)
	run.wall = time.Since(run.start)
	cpuAfter, cerr := cpuTime()
	runtime.ReadMemStats(&memAfter)
	if err != nil {
		return timedRun{}, err
	}
	if cerr != nil {
		return timedRun{}, cerr
	}
	run.cpu = cpuAfter - cpuBefore
	run.allocMB = float64(memAfter.TotalAlloc-memBefore.TotalAlloc) / (1 << 20)
	return run, nil
}

// synthesize runs the repair loop the workload describes.
func (r *runner) synthesize(e *env, tr *obs.Tracer) (*repro.Result, error) {
	opts := repro.SynthesizeOptions{Seed: r.seed, Parallelism: r.w.parallel,
		CacheDir: e.cacheDir, Trace: tr}
	if e.client != nil {
		opts.Verifier = e.client
	}
	return repro.Synthesize(e.topo, opts)
}

// check is the per-sample correctness gate: the run verified, reproduced
// the reference prompt counts and transcript, and its final configurations
// pass an independent global no-transit check on fresh, uncached parses.
func (r *runner) check(topo *topology.Topology, res *repro.Result) error {
	if !res.Verified {
		return errors.New("run did not verify")
	}
	automated, human, _ := repro.Leverage(res)
	got := reference{Automated: automated, Human: human, Transcript: transcriptDigest(res)}
	if r.ref == nil {
		r.ref = &got
	} else if got != *r.ref {
		return fmt.Errorf("outcome %+v differs from reference %+v", got, *r.ref)
	}
	key := configsDigest(res.Configs)
	verdict, ok := r.verdicts[key]
	if !ok {
		verdict = independentGlobalCheck(topo, res.Configs)
		r.verdicts[key] = verdict
	}
	return verdict
}

func independentGlobalCheck(topo *topology.Topology, configs map[string]string) error {
	devs := make(map[string]*netcfg.Device, len(configs))
	for name, text := range configs {
		devs[name], _ = batfish.ParseConfig(text) // warnings are the suite's concern, not this oracle's
	}
	global, err := lightyear.CheckGlobalNoTransit(topo, devs)
	if err != nil {
		return fmt.Errorf("independent global check: %w", err)
	}
	if !global.OK() {
		return fmt.Errorf("independent global check: %d violations, %d missing reachability, converged %v",
			len(global.Violations), len(global.MissingReachability), global.Converged)
	}
	return nil
}

// transcriptDigest hashes every prompt of the transcript in full.
func transcriptDigest(res *repro.Result) string {
	h := sha256.New()
	var n [8]byte
	for _, rec := range res.Transcript {
		fmt.Fprintf(h, "%s\x00%s\x00%v\x00", rec.Kind, rec.Stage, rec.Changed)
		binary.LittleEndian.PutUint64(n[:], uint64(len(rec.Prompt)))
		h.Write(n[:])
		h.Write([]byte(rec.Prompt))
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func configsDigest(configs map[string]string) [sha256.Size]byte {
	names := make([]string, 0, len(configs))
	for name := range configs {
		names = append(names, name)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, name := range names {
		fmt.Fprintf(h, "%s\x00%d\x00%s", name, len(configs[name]), configs[name])
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// decodeTrace reads the JSONL events a traced sample recorded.
func decodeTrace(buf *bytes.Buffer) ([]obs.Event, error) {
	var events []obs.Event
	dec := json.NewDecoder(buf)
	for dec.More() {
		var ev obs.Event
		if err := dec.Decode(&ev); err != nil {
			return nil, fmt.Errorf("decoding trace: %w", err)
		}
		events = append(events, ev)
	}
	return events, nil
}

// traceMetrics adds the per-layer metrics a traced run's spans give.
func traceMetrics(m measured, events []obs.Event, start, end time.Time) {
	var localN, localChecks, rpcs, rpcChecks, deltaRPCs int
	var localNS, syntaxNS, topologyNS, globalNS, llmNS, renderNS, parseNS int64
	var llmCalls, parses int
	for _, ev := range events {
		switch ev.Stage {
		case obs.StageLocalCheck:
			switch ev.Detail {
			case "local":
				localN++
				localNS += ev.DurNS
				if ev.Outcome == "check" {
					localChecks++
				}
			case "syntax":
				syntaxNS += ev.DurNS
			case "topology":
				topologyNS += ev.DurNS
			}
		case obs.StageGlobalCheck:
			globalNS += ev.DurNS
		case obs.StageLLMCall:
			llmCalls++
			llmNS += ev.DurNS
		case obs.StageRender:
			renderNS += ev.DurNS
		case obs.StageParse:
			parses++
			parseNS += ev.DurNS
		case obs.StageBatchRPC:
			rpcs++
			rpcChecks += ev.Checks
			if ev.Proto == rest.BatchProtocolVersion {
				deltaRPCs++
			}
		}
	}
	m["lightyear.local_checks"] = float64(localChecks)
	m["lightyear.local_ms"] = float64(localNS) / 1e6
	m["lightyear.local_us_per_check"] = ratio(float64(localNS)/1e3, float64(localN))
	m["suite.syntax_ms"] = float64(syntaxNS) / 1e6
	m["suite.topology_ms"] = float64(topologyNS) / 1e6
	m["batfish.global_ms"] = float64(globalNS) / 1e6
	m["llm.calls"] = float64(llmCalls)
	m["llm.ms"] = float64(llmNS) / 1e6
	// Parallel runs' forked models emit no render spans, so render time is
	// a share of wall that such runs report as 0, not a duration.
	m["llm.render_share"] = float64(renderNS) / float64(end.Sub(start))
	m["netcfg.parses"] = float64(parses)
	m["netcfg.parse_ms"] = float64(parseNS) / 1e6
	m["rest.checks_per_rpc"] = ratio(float64(rpcChecks), float64(rpcs))
	m["rest.delta_rpc_share"] = ratio(float64(deltaRPCs), float64(rpcs))

	a := attribute(events, start, end)
	m["wall.llm_share"] = a.shares[laneLLM]
	m["wall.local_share"] = a.shares[laneLocal]
	m["wall.global_share"] = a.shares[laneGlobal]
	m["wall.idle_share"] = a.shares[laneIdle]
	m["wall.lanes_busy"] = a.lanesBusy
}

// cpuTime is the process's user plus system CPU seconds so far.
func cpuTime() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds(), nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (float64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return float64(total), err
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// ratio is num/den, or 0 when there is nothing to divide.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
