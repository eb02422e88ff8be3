// Command cosynth runs the Verified Prompt Programming pipeline end to
// end for either paper use case and prints the transcript, the final
// configuration(s), and the leverage.
//
//	cosynth -mode translate
//	cosynth -mode notransit -n 7
//	cosynth -mode notransit -topo ring -n 8 -parallel 4
//	cosynth -mode notransit -topo dual-homed:8        # per-attachment specs
//	cosynth -mode translate -rest http://localhost:9876       # via batfishd
//	cosynth -mode notransit -rest http://h1:9876,http://h2:9876 -rest http://h3:9876
//	cosynth -mode notransit -topo fat-tree:4 -shards 3        # in-process shard fleet
//	cosynth -mode notransit -topo random:12 -seed 5           # seeded graph variant
//	cosynth -mode notransit -errors fuzz.json                 # replay a cofuzz counterexample
//	cosynth -mode notransit -cache-dir .cache                 # durable verification cache
//	cosynth -mode notransit -topo random:40 -checkpoint ck.json -transcript run.txt
//	cosynth -mode notransit -topo random:40 -checkpoint ck.json -resume   # after a kill
//	cosynth -mode notransit -topo random:40 -trace trace.jsonl -metrics-addr :9090
//	cosynth -trace-summary trace.jsonl                        # attribute a traced run's time
//
// The -topo argument names any registered scenario (star, ring,
// full-mesh, fat-tree, dual-homed, multi-customer, random — see `netgen
// -list`) and accepts the name:size shorthand; an explicit :size wins
// over -n. The dual-homed, multi-customer, and random families exercise
// the per-attachment specification: community tags and local obligations
// are allocated per (router, ISP) attachment point, so routers may be
// homed to several ISPs and customers may attach anywhere.
//
// An explicitly-set -seed also selects the random family's graph
// variant (seed 0 and the default are the registry's legacy
// seeded-by-size stream). The -errors flag replays an attachment-keyed
// error plan — a cofuzz campaign report (its minimized counterexample is
// extracted, topology coordinates included) or a hand-written plan JSON
// — through the simulated LLM, reproducing a fuzz failure byte-
// identically in this CLI.
//
// The -rest flag is repeatable and comma-separated. The REST client
// (rest.Client) sends each check to one endpoint by a hash of the check
// and posts each iteration's per-endpoint batches concurrently; every
// endpoint must answer its health probe at startup, and a run whose
// endpoint stops answering fails with an error naming it.
//
// Verification re-checks the drafts after every prompt, as the paper's
// loop does, scanning each stage's checks in order up to the first
// finding. In process each check is evaluated on its revision's parse,
// which is made once per run, and the closing "cache:" line counts every
// check as a miss. Over -rest endpoints, or with -cache-dir, results are
// also memoized by check: the "cache:" line then counts hits, and
// -cache-dir persists the results across runs ("disk tier: N hits"). A
// check the directory holds is never sent to an endpoint, so a warm run
// over restarted batfishd daemons sends them no batch.
//
// Observability: -metrics-addr serves the run's metrics registry over
// HTTP (GET /metrics Prometheus text, GET /debug/vars JSON) for the
// run's duration; -trace streams structured JSONL trace events (one
// span per LLM call, render, parse, check, batch RPC, cache and
// checkpoint event — see internal/obs) to a file; -trace-summary folds
// such a file into a per-stage/per-shard attribution table and exits.
// Telemetry never changes results: transcripts are byte-identical with
// it on, off, or scraped mid-run. -shards N spawns N in-process shard
// servers (for tests and benchmarks) and adds them to the -rest
// endpoints.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"strings"

	"repro"
	"repro/internal/batfish"
	"repro/internal/batfish/rest"
	"repro/internal/core"
	"repro/internal/fuzz"
	"repro/internal/lightyear"
	"repro/internal/llm"
	"repro/internal/netgen"
	"repro/internal/obs"
	"repro/internal/prof"
	"repro/internal/topology"
)

// restFlag accumulates repeatable -rest values.
type restFlag []string

func (f *restFlag) String() string { return strings.Join(*f, ",") }

func (f *restFlag) Set(v string) error {
	*f = append(*f, v)
	return nil
}

func main() {
	mode := flag.String("mode", "translate", "use case: translate | notransit")
	topoName := flag.String("topo", "star", "topology scenario for -mode notransit, as name[:size] (e.g. dual-homed:8)")
	n := flag.Int("n", 0, "topology size for -mode notransit (routers, or pod arity for fat-tree); 0 = scenario default; a :size in -topo wins")
	parallel := flag.Int("parallel", 0, "per-router repair workers for -mode notransit (<=1: sequential)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	blockProfile := flag.String("blockprofile", "", "write a goroutine blocking profile to this file on exit")
	mutexProfile := flag.String("mutexprofile", "", "write a mutex contention profile to this file on exit")
	metricsAddr := flag.String("metrics-addr", "",
		"serve the run's metrics registry over HTTP at this address (GET /metrics, GET /debug/vars); "+
			`":0" picks a port and prints it`)
	tracePath := flag.String("trace", "",
		"stream structured JSONL trace events to this file (one span per pipeline stage; see -trace-summary)")
	traceSummary := flag.String("trace-summary", "",
		"fold a -trace file into a per-stage and per-shard attribution table, print it, and exit")
	seed := flag.Int64("seed", 1,
		"simulated-LLM seed; when set explicitly it also selects the random family's graph variant, so cofuzz cases replay")
	errorsPath := flag.String("errors", "",
		"replay an attachment-keyed error plan (a cofuzz report or plan JSON) in -mode notransit; "+
			"topology coordinates in the file override -topo/-seed")
	var restEndpoints restFlag
	flag.Var(&restEndpoints, "rest",
		"batfishd endpoint(s); repeatable and comma-separated — each check goes to one endpoint by a hash of the check")
	shards := flag.Int("shards", 0,
		"spawn N in-process shard servers and add them to the -rest endpoints (tests/benchmarks)")
	inputPath := flag.String("config", "", "Cisco config to translate (default: bundled example)")
	showConfigs := flag.Bool("print-configs", false, "print the final configuration(s)")
	cacheDir := flag.String("cache-dir", "",
		"durable verification-cache directory: each repair iteration's results are written as one pack, "+
			"so they persist across runs and reach concurrent cosynth/cofuzz processes at their next "+
			"iteration")
	checkpointPath := flag.String("checkpoint", "",
		"crash-checkpoint file: the repair loop snapshots progress here every iteration "+
			"(parallel runs: after every completed router)")
	resume := flag.Bool("resume", false,
		"resume the run recorded at -checkpoint; the final transcript is byte-identical to an uninterrupted run")
	transcriptPath := flag.String("transcript", "",
		"also write the transcript, punted findings, and summary to this file — the deterministic "+
			"run record, for diffing a resumed run against an uninterrupted one")
	flag.Parse()
	seedSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "seed" {
			seedSet = true
		}
	})

	if *traceSummary != "" {
		f, serr := os.Open(*traceSummary)
		if serr != nil {
			log.Fatalf("cosynth: -trace-summary: %v", serr)
		}
		summary, serr := obs.Summarize(f)
		f.Close()
		if serr != nil {
			log.Fatalf("cosynth: -trace-summary: %v", serr)
		}
		fmt.Print(summary)
		return
	}
	stopProfiles, err := prof.StartOpts(prof.Options{
		CPUPath: *cpuProfile, MemPath: *memProfile,
		BlockPath: *blockProfile, MutexPath: *mutexProfile,
	})
	if err != nil {
		log.Fatalf("cosynth: %v", err)
	}
	var reg *obs.Registry
	if *metricsAddr != "" || *tracePath != "" {
		reg = obs.NewRegistry()
	}
	if *metricsAddr != "" {
		bound, stopMetrics, merr := obs.Serve(*metricsAddr, reg)
		if merr != nil {
			log.Fatalf("cosynth: -metrics-addr: %v", merr)
		}
		defer stopMetrics()
		fmt.Printf("metrics on http://%s%s\n", bound, obs.MetricsPath)
	}
	var tracer *obs.Tracer
	if *tracePath != "" {
		tracer, err = obs.OpenTrace(*tracePath)
		if err != nil {
			log.Fatalf("cosynth: -trace: %v", err)
		}
		defer func() {
			if cerr := tracer.Close(); cerr != nil {
				log.Printf("cosynth: -trace: %v", cerr)
			}
		}()
	}

	endpoints, err := rest.SplitEndpoints(restEndpoints)
	if err != nil {
		log.Fatalf("cosynth: -rest: %v", err)
	}
	for i := 0; i < *shards; i++ {
		// Each in-process shard gets a shared parse cache (cross-request
		// reuse), as batfishd does.
		ln, lerr := net.Listen("tcp", "127.0.0.1:0")
		if lerr != nil {
			log.Fatalf("cosynth: -shards: %v", lerr)
		}
		srv := &http.Server{Handler: rest.NewHandlerOpts(rest.HandlerOptions{
			Parses: batfish.NewParseCache(), Metrics: reg})}
		go func() { _ = srv.Serve(ln) }()
		defer srv.Close()
		endpoints = append(endpoints, "http://"+ln.Addr().String())
	}
	var verifier core.Verifier
	var client *rest.Client
	if len(endpoints) > 0 {
		if client, err = rest.Dial(endpoints); err != nil {
			log.Fatalf("cosynth: %v", err)
		}
		verifier = client
	}

	var res *repro.Result
	switch *mode {
	case "translate":
		cfg := repro.ExampleCiscoConfig()
		if *inputPath != "" {
			data, rerr := os.ReadFile(*inputPath)
			if rerr != nil {
				log.Fatalf("cosynth: %v", rerr)
			}
			cfg = string(data)
		}
		res, err = repro.Translate(cfg, repro.TranslateOptions{
			Seed: *seed, Verifier: verifier, CacheDir: *cacheDir,
			CheckpointPath: *checkpointPath, Resume: *resume,
			Metrics: reg, Trace: tracer})
	case "notransit":
		name, size, perr := netgen.ParseScenarioArg(*topoName)
		if perr != nil {
			log.Fatalf("cosynth: %v", perr)
		}
		if size == 0 {
			size = *n
		}
		// A fuzz replay file carries the full case: the topology
		// coordinates (family, size, seed, edge cap) and the error plan.
		// Missing coordinates fall back to the -topo/-seed flags, so a
		// bare hand-written plan file still works.
		var plan []llm.SiteErrors
		replay := fuzz.Case{Family: name, Size: size, Seed: 0, ExtraEdges: -1}
		if seedSet {
			replay.Seed = *seed
		}
		if *errorsPath != "" {
			cs, lerr := fuzz.LoadReplayCase(*errorsPath)
			if lerr != nil {
				log.Fatalf("cosynth: -errors: %v", lerr)
			}
			if cs.Family != "" {
				replay.Family = cs.Family
			}
			if cs.Size != 0 {
				replay.Size = cs.Size
			}
			if cs.Seed != 0 || cs.Family != "" {
				replay.Seed = cs.Seed
			}
			replay.ExtraEdges = cs.ExtraEdges
			replay.Plan = cs.Plan
			plan, lerr = cs.Plan.SiteErrors()
			if lerr != nil {
				log.Fatalf("cosynth: -errors: %v", lerr)
			}
			fmt.Printf("replaying fuzz case %s\n", replay)
		}
		var topo *topology.Topology
		topo, err = replay.Topology()
		if err != nil {
			log.Fatalf("cosynth: %v", err)
		}
		res, err = repro.Synthesize(topo, repro.SynthesizeOptions{
			Seed: *seed, Verifier: verifier, Parallelism: *parallel,
			ErrorPlan: plan, CacheDir: *cacheDir,
			CheckpointPath: *checkpointPath, Resume: *resume,
			Metrics: reg, Trace: tracer})
	default:
		log.Fatalf("cosynth: unknown mode %q", *mode)
	}
	stopProfiles()
	if err != nil {
		log.Fatalf("cosynth: %v", err)
	}

	fmt.Println("=== Transcript ===")
	fmt.Print(res.Transcript.String())
	if len(res.PuntedFindings) > 0 {
		fmt.Println("=== Punted to human ===")
		for _, p := range res.PuntedFindings {
			fmt.Println(" -", p)
		}
	}
	if *showConfigs {
		for name, cfg := range res.Configs {
			fmt.Printf("=== %s ===\n%s\n", name, cfg)
		}
	}
	fmt.Println(repro.Summary(*mode, res))
	if g := res.Global; g != nil && !g.OK() {
		fmt.Println(globalFinding(g))
	}
	if res.CacheStats != nil {
		fmt.Println(res.CacheStats)
	}
	if client != nil {
		fmt.Println("=== Shards ===")
		for _, st := range client.Stats() {
			fmt.Println(" -", st)
		}
	}
	if *transcriptPath != "" {
		// The file holds only the run's deterministic record — transcript,
		// punted findings, summary — never cache or timing stats, so a
		// resumed run's file diffs clean against an uninterrupted run's.
		var b strings.Builder
		b.WriteString(res.Transcript.String())
		if len(res.PuntedFindings) > 0 {
			b.WriteString("=== Punted to human ===\n")
			for _, p := range res.PuntedFindings {
				b.WriteString(" - " + p + "\n")
			}
		}
		b.WriteString(repro.Summary(*mode, res) + "\n")
		if werr := os.WriteFile(*transcriptPath, []byte(b.String()), 0o644); werr != nil {
			log.Fatalf("cosynth: -transcript: %v", werr)
		}
	}
	if !res.Verified {
		os.Exit(1)
	}
}

// globalFinding explains a failed global check by its first finding:
// non-convergence, else the first transit violation, else the first
// missing reachability.
func globalFinding(g *lightyear.GlobalResult) string {
	var first string
	switch {
	case !g.Converged:
		first = "the BGP simulation did not converge"
	case len(g.Violations) > 0:
		first = g.Violations[0]
	default:
		first = g.MissingReachability[0]
	}
	return fmt.Sprintf("global check failed: %s (%d transit violations, %d missing reachabilities)",
		first, len(g.Violations), len(g.MissingReachability))
}
