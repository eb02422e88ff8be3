// Command cofuzz runs property-based fuzz campaigns over the erroneous-
// LLM-output space (internal/fuzz) and replays minimized counterexamples.
//
//	cofuzz -family random -sizes 6..24 -seeds 32 -budget 60s -report fuzz.json
//	cofuzz -family dual-homed -sizes 4,6,8 -seeds 8 -workers 8
//	cofuzz -classes default,egress-deny-all -sizes 6..10   # seed a violation
//	cofuzz -replay fuzz.json                               # re-run the minimized case
//	cofuzz -family random -rest http://h1:9876,http://h2:9876
//	cofuzz -family random -checkpoint camp.json            # kill-safe campaign
//	cofuzz -family random -checkpoint camp.json -resume    # pick up after a kill
//	cofuzz -family random -cache-dir /var/cache/cosynth    # durable verification cache
//	cofuzz -family random -shards 3 -kill-shard 40         # chaos: sever shard 0 mid-run
//
// A campaign sweeps (family × size × seed × derived error plan) cases on
// a bounded worker pool, asserts the pipeline's end-to-end properties on
// each, and — on the first failure — shrinks it along the topology and
// plan-cardinality axes to a minimal counterexample recorded in the JSON
// report. The same report file replays through this command (-replay,
// re-running the recorded oracle) and through the main CLI
// (`cosynth -mode notransit -errors fuzz.json`, reproducing the failing
// run byte-identically). Exit status: 0 when every case passed or the
// replay reproduced, 1 otherwise.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"

	"repro/internal/batfish"
	"repro/internal/batfish/rest"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/faultinject"
	"repro/internal/fuzz"
	"repro/internal/llm"
	"repro/internal/obs"
	"repro/internal/prof"
)

// parseSizes reads the -sizes syntax: "lo..hi" (inclusive range) or a
// comma-separated list.
func parseSizes(arg string) ([]int, error) {
	if arg == "" {
		return nil, nil
	}
	if lo, hi, ok := strings.Cut(arg, ".."); ok {
		l, err1 := strconv.Atoi(lo)
		h, err2 := strconv.Atoi(hi)
		if err1 != nil || err2 != nil || l <= 0 || h < l {
			return nil, fmt.Errorf("-sizes %q: want lo..hi with 0 < lo <= hi", arg)
		}
		var out []int
		for n := l; n <= h; n++ {
			out = append(out, n)
		}
		return out, nil
	}
	var out []int
	for _, s := range strings.Split(arg, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("-sizes %q: %q is not a positive size", arg, s)
		}
		out = append(out, n)
	}
	return out, nil
}

// parseClasses reads the -classes list: class names as printed by the
// report, with "default" expanding to the repairable alphabet and "all"
// to every class including the unrepairable ones.
func parseClasses(arg string) ([]llm.SynthError, error) {
	if arg == "" || arg == "default" {
		return nil, nil // campaign default
	}
	var out []llm.SynthError
	for _, s := range strings.Split(arg, ",") {
		switch name := strings.TrimSpace(s); name {
		case "default":
			out = append(out, fuzz.DefaultAlphabet()...)
		case "all":
			out = append(out, llm.AllSynthErrors()...)
		default:
			e, err := llm.ParseSynthError(name)
			if err != nil {
				return nil, err
			}
			out = append(out, e)
		}
	}
	return out, nil
}

// buildVerifier resolves -rest endpoints like cosynth does: none for the
// in-process suite, one plain client, several a consistent-hash ring.
func buildVerifier(endpoints []string) (core.Verifier, error) {
	switch len(endpoints) {
	case 0:
		return nil, nil
	case 1:
		client := rest.NewClient(endpoints[0])
		if err := client.Health(); err != nil {
			return nil, fmt.Errorf("verifier %s unreachable: %w", endpoints[0], err)
		}
		return client, nil
	default:
		sharded, err := rest.NewShardedClient(endpoints)
		if err != nil {
			return nil, err
		}
		if err := sharded.Health(); err != nil {
			return nil, err
		}
		return sharded, nil
	}
}

func main() {
	family := flag.String("family", "random", "netgen scenario family to fuzz")
	sizesArg := flag.String("sizes", "", "topology sizes: lo..hi or a comma list (default: the family's registry default)")
	seeds := flag.Int("seeds", 8, "seeds per size")
	workers := flag.Int("workers", 4, "concurrent cases")
	budget := flag.Duration("budget", 0, "wall-clock budget; cases not started in time are skipped (0 = sweep everything)")
	classesArg := flag.String("classes", "default", "plan alphabet: comma list of class names, 'default' (repairable set) or 'all' (includes unrepairable classes — seeds violations)")
	maxIterations := flag.Int("max-iterations", 0, "per-case pipeline iteration cap (0 = engine default)")
	falsify := flag.Bool("falsify", false, "additionally falsify the composed global check per case")
	reportPath := flag.String("report", "", "write the campaign report JSON here")
	replayPath := flag.String("replay", "", "replay the minimized counterexample of an existing report instead of running a campaign")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	blockProfile := flag.String("blockprofile", "", "write a goroutine blocking profile to this file on exit")
	mutexProfile := flag.String("mutexprofile", "", "write a mutex contention profile to this file on exit")
	metricsAddr := flag.String("metrics-addr", "",
		"serve the campaign's metrics registry over HTTP at this address (GET /metrics, GET /debug/vars)")
	tracePath := flag.String("trace", "",
		"stream structured JSONL trace events — per-case pipeline spans plus one fuzz_case verdict "+
			"event per case — to this file (fold with cosynth -trace-summary)")
	checkpointPath := flag.String("checkpoint", "",
		"snapshot completed case results to this file (atomically, after every case) so a killed campaign can resume")
	resume := flag.Bool("resume", false,
		"resume the campaign recorded at -checkpoint, reusing its completed case results and running only the remainder")
	cacheDir := flag.String("cache-dir", "",
		"durable verification-cache directory, written one pack per repair iteration and shared across "+
			"campaign restarts and with cosynth/batfishd runs")
	shards := flag.Int("shards", 0, "spawn N in-process shard servers and fan each case's checks over them")
	killShard := flag.Int64("kill-shard", 0,
		"with -shards: sever the first in-process shard after it serves N requests — the mid-run shard-kill "+
			"chaos harness; the ring re-hashes its work onto the survivors and results must not change")
	var restEndpoints string
	flag.StringVar(&restEndpoints, "rest", "", "batfishd endpoint(s), comma-separated; several form a consistent-hash shard ring")
	flag.Parse()

	stopProfiles, err := prof.StartOpts(prof.Options{
		CPUPath: *cpuProfile, MemPath: *memProfile,
		BlockPath: *blockProfile, MutexPath: *mutexProfile,
	})
	if err != nil {
		log.Fatalf("cofuzz: %v", err)
	}
	defer stopProfiles()
	var reg *obs.Registry
	if *metricsAddr != "" || *tracePath != "" {
		reg = obs.NewRegistry()
	}
	if *metricsAddr != "" {
		bound, stopMetrics, merr := obs.Serve(*metricsAddr, reg)
		if merr != nil {
			log.Fatalf("cofuzz: -metrics-addr: %v", merr)
		}
		defer stopMetrics()
		fmt.Printf("metrics on http://%s%s\n", bound, obs.MetricsPath)
	}
	var tracer *obs.Tracer
	if *tracePath != "" {
		tracer, err = obs.OpenTrace(*tracePath)
		if err != nil {
			log.Fatalf("cofuzz: -trace: %v", err)
		}
		defer func() {
			if cerr := tracer.Close(); cerr != nil {
				log.Printf("cofuzz: -trace: %v", cerr)
			}
		}()
	}

	if *replayPath != "" {
		replay(*replayPath)
		return
	}

	sizes, err := parseSizes(*sizesArg)
	if err != nil {
		log.Fatalf("cofuzz: %v", err)
	}
	alphabet, err := parseClasses(*classesArg)
	if err != nil {
		log.Fatalf("cofuzz: -classes: %v", err)
	}
	var endpoints []string
	if restEndpoints != "" {
		endpoints, err = rest.SplitEndpoints([]string{restEndpoints})
		if err != nil {
			log.Fatalf("cofuzz: -rest: %v", err)
		}
	}
	var dcache *durable.Cache
	if *cacheDir != "" {
		dcache, err = durable.Open(*cacheDir, durable.Options{})
		if err != nil {
			log.Fatalf("cofuzz: -cache-dir: %v", err)
		}
	}
	for i := 0; i < *shards; i++ {
		// In-process shards mirror cosynth's: a shared parse cache, and no
		// durable tier. The campaign's engine mounts -cache-dir and answers
		// every disk-resident check before a request reaches a shard, so a
		// shard tier on the same cache would write each result a second
		// time, into another pack. The first shard optionally carries the
		// kill switch — after serving -kill-shard requests it severs every
		// connection mid-flight, exercising retry, failover, and re-hash
		// under a live campaign.
		ln, lerr := net.Listen("tcp", "127.0.0.1:0")
		if lerr != nil {
			log.Fatalf("cofuzz: -shards: %v", lerr)
		}
		handler := http.Handler(rest.NewHandlerOpts(rest.HandlerOptions{Parses: batfish.NewParseCache()}))
		if i == 0 && *killShard > 0 {
			handler = faultinject.AbortAfter(handler, *killShard)
		}
		srv := &http.Server{Handler: handler}
		go func() { _ = srv.Serve(ln) }()
		defer srv.Close()
		endpoints = append(endpoints, "http://"+ln.Addr().String())
	}
	verifier, err := buildVerifier(endpoints)
	if err != nil {
		log.Fatalf("cofuzz: %v", err)
	}

	campaign := fuzz.Campaign{
		Family:        *family,
		Sizes:         sizes,
		Seeds:         *seeds,
		Workers:       *workers,
		Budget:        *budget,
		Verifier:      verifier,
		Alphabet:      alphabet,
		MaxIterations: *maxIterations,
		Falsify:       *falsify,
		Checkpoint:    *checkpointPath,
		Resume:        *resume,
		DurableCache:  dcache,
		Metrics:       reg,
		Tracer:        tracer,
	}
	rep, err := campaign.Run(context.Background())
	stopProfiles()
	if err != nil {
		log.Fatalf("cofuzz: %v", err)
	}
	if *reportPath != "" {
		if err := rep.WriteFile(*reportPath); err != nil {
			log.Fatalf("cofuzz: writing report: %v", err)
		}
	}

	fmt.Printf("campaign %s sizes=%v seeds=%d: %d cases (%d skipped), %d failures, "+
		"%d planned errors, %d iterations, %.1f cases/s in %dms\n",
		rep.Family, rep.Sizes, rep.Seeds, rep.Cases, rep.Skipped, rep.Failures,
		rep.PlannedErrors, rep.TotalIterations, rep.CasesPerSecond, rep.ElapsedMS)
	if cx := rep.Counterexample; cx != nil {
		fmt.Printf("FAIL %s\n", cx.Failure.Property)
		fmt.Printf("  detail:    %s\n", cx.Failure.Detail)
		fmt.Printf("  original:  %s\n", cx.Original)
		fmt.Printf("  minimized: %s  (%d shrink steps, %d oracle runs)\n",
			cx.Case, cx.ShrinkSteps, cx.OracleRuns)
		if *reportPath != "" {
			fmt.Printf("  replay:    cofuzz -replay %[1]s   # or: cosynth -mode notransit -errors %[1]s\n",
				*reportPath)
		}
		os.Exit(1)
	}
}

// replay re-runs a report's minimized counterexample through the oracle
// it was found under.
func replay(path string) {
	rep, err := fuzz.LoadReport(path)
	if err != nil {
		log.Fatalf("cofuzz: %v", err)
	}
	if rep.Counterexample == nil {
		log.Fatalf("cofuzz: %s records no counterexample (the campaign passed)", path)
	}
	res, reproduced, err := rep.Replay()
	if err != nil {
		log.Fatalf("cofuzz: %v", err)
	}
	fmt.Printf("replaying %s\n", rep.Counterexample.Case)
	if reproduced {
		fmt.Printf("reproduced %s: %s\n", res.Failure.Property, res.Failure.Detail)
		return
	}
	if res.Failure != nil {
		fmt.Printf("MISMATCH: recorded %s, got %s (%s)\n",
			rep.Counterexample.Failure.Property, res.Failure.Property, res.Failure.Detail)
	} else {
		fmt.Printf("MISMATCH: recorded %s, but the case now passes\n",
			rep.Counterexample.Failure.Property)
	}
	os.Exit(1)
}
