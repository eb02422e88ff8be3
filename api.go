package repro

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/exampledata"
	"repro/internal/llm"
	"repro/internal/netgen"
	"repro/internal/obs"
	"repro/internal/topology"
)

// Result re-exports the engine result type.
type Result = core.Result

// Verifier re-exports the verification-suite interface, so callers can
// plug the REST client (internal/batfish/rest.Client) or a custom suite.
type Verifier = core.Verifier

// TranslateOptions configures Translate.
type TranslateOptions struct {
	// Seed drives the simulated LLM's stochastic choices (default 1).
	Seed int64
	// Verifier overrides the in-process suite (e.g. a REST client).
	Verifier Verifier
	// ErrorClasses restricts the injected translation errors; nil injects
	// the paper's full Table 2 scenario.
	ErrorClasses []llm.TranslateError
	// DisableVerifierCache turns off the incremental verification cache,
	// restoring the seed behaviour of re-parsing and re-verifying the
	// translation on every iteration.
	DisableVerifierCache bool
	// CacheDir mounts a durable disk tier under the verification cache:
	// each repair iteration's new results are written as one pack, so they
	// persist across process restarts, shared by every run — translation
	// or synthesis — pointed at the same directory. An unusable directory
	// is an error; ignored under DisableVerifierCache.
	CacheDir string
	// CheckpointPath turns on crash checkpoints: the repair loop snapshots
	// its progress to this file (atomically) every iteration. With Resume,
	// a run killed mid-loop restarts from the snapshot and produces a
	// byte-identical final transcript.
	CheckpointPath string
	// Resume continues the run CheckpointPath describes; a missing file
	// starts fresh, a checkpoint from different run coordinates (seed,
	// error classes, input) is an error.
	Resume bool
	// Metrics, when set, is the registry the run's instruments — cache
	// hit/miss counters, transport counters, dispatch histograms — register
	// into, for scraping via obs.Handler/obs.Serve. Observability only:
	// transcripts and results are byte-identical with or without it.
	Metrics *obs.Registry
	// Trace, when set, receives the run's structured trace events as JSONL
	// spans (see internal/obs: llm_call, local_check, global_check,
	// batch_rpc, cache and checkpoint events). Observability only.
	Trace *obs.Tracer
}

// Translate runs the paper's first use case (§3): translate a Cisco
// configuration to Juniper under Verified Prompt Programming and return
// the verified result with its transcript and leverage.
func Translate(ciscoConfig string, opts TranslateOptions) (*Result, error) {
	cfg := llm.DefaultTranslateConfig()
	if opts.Seed != 0 {
		cfg.Seed = opts.Seed
	}
	if opts.ErrorClasses != nil {
		cfg.Inject = map[llm.TranslateError]bool{}
		for _, e := range opts.ErrorClasses {
			cfg.Inject[e] = true
		}
	}
	copts := core.TranslateOptions{
		Model:        llm.NewTranslator(cfg),
		Verifier:     opts.Verifier,
		DisableCache: opts.DisableVerifierCache,
		Metrics:      opts.Metrics,
		Trace:        opts.Trace,
	}
	if opts.CacheDir != "" && !opts.DisableVerifierCache {
		d, err := durable.Open(opts.CacheDir, durable.Options{})
		if err != nil {
			return nil, err
		}
		copts.DurableCache = d
	}
	if opts.CheckpointPath != "" {
		copts.Checkpoint = &core.CheckpointOptions{
			Path:   opts.CheckpointPath,
			Resume: opts.Resume,
			RunKey: runKey("translate", cfg.Seed, opts.ErrorClasses, ciscoConfig),
		}
	}
	return core.Translate(ciscoConfig, copts)
}

// runKey derives a stable identity for a run's coordinates, recorded in
// its checkpoint so a resume into different coordinates is refused instead
// of silently forking the run.
func runKey(parts ...interface{}) string {
	data, _ := json.Marshal(parts)
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// ExampleCiscoConfig returns the bundled Cisco configuration used by the
// paper-scale translation experiments.
func ExampleCiscoConfig() string { return exampledata.CiscoExample }

// SynthesizeOptions configures Synthesize and SynthesizeNoTransit.
type SynthesizeOptions struct {
	// Routers is the star size n for SynthesizeNoTransit (default 7, the
	// paper's network); ignored by Synthesize, which takes a topology.
	Routers int
	// Seed drives the simulated LLM (default 1).
	Seed int64
	// Verifier overrides the in-process suite.
	Verifier Verifier
	// DisableIIP ablates the initial instruction prompt database (§4.2).
	DisableIIP bool
	// Parallelism bounds the per-router repair worker pool; values <= 1
	// run the paper's sequential loop. Per-router transcripts merge
	// deterministically in topology order, so the accounting is
	// reproducible either way and matches the sequential loop on runs
	// that converge (iteration caps and human give-ups are scoped per
	// router in parallel, per run sequentially).
	Parallelism int
	// SuiteParallelism bounds the worker pool for the independent checks
	// inside one pipeline iteration (per-router syntax/topology scans and
	// per-requirement policy checks). The lowest topology-order finding
	// wins deterministically, so transcripts are byte-identical to the
	// sequential scan; values <= 1 scan sequentially. This is the lever
	// that speeds up the star hub, where all repair concentrates on one
	// router.
	SuiteParallelism int
	// DisableVerifierCache turns off the incremental verification cache,
	// restoring the paper's behaviour of re-verifying every router on
	// every iteration.
	DisableVerifierCache bool
	// ErrorPlan replaces the simulated LLM's default error scenario with
	// an attachment-keyed injection plan (see internal/fuzz): which error
	// classes fire at which (router, external-neighbor, direction) site.
	// Nil keeps the paper's default per-router scenario; a non-nil empty
	// plan injects nothing. This is the seam cofuzz counterexamples
	// replay through (`cosynth -errors plan.json`).
	ErrorPlan []llm.SiteErrors
	// CacheDir mounts a durable disk tier under the verification cache:
	// each repair iteration's new results are written as one pack, so they
	// persist across process restarts, shared by every run pointed at the
	// same directory (including concurrent cosynth/cofuzz processes and
	// batfishd shards mounting it with -cache-dir, which see them at their
	// own next write). An unusable directory is an error; ignored under
	// DisableVerifierCache.
	CacheDir string
	// CheckpointPath turns on crash checkpoints: sequential runs snapshot
	// the repair loop every iteration, parallel runs snapshot after every
	// completed router. With Resume, a run killed mid-loop restarts from
	// the snapshot and produces a byte-identical final transcript.
	CheckpointPath string
	// Resume continues the run CheckpointPath describes; a missing file
	// starts fresh, a checkpoint from different run coordinates (topology,
	// seed, error plan, parallelism) is an error.
	Resume bool
	// Metrics, when set, is the registry the run's instruments — cache
	// hit/miss counters, transport counters, dispatch histograms — register
	// into, for scraping via obs.Handler/obs.Serve. Observability only:
	// transcripts and results are byte-identical with or without it.
	Metrics *obs.Registry
	// Trace, when set, receives the run's structured trace events as JSONL
	// spans (see internal/obs: llm_call, local_check, global_check,
	// batch_rpc, cache and checkpoint events). Observability only.
	Trace *obs.Tracer
}

// Synthesize runs the VPP synthesis pipeline on an arbitrary topology —
// any scenario from the registry (see Topologies) or a hand-built
// dictionary — implementing the no-transit policy via local per-router
// specifications: hub-centric on stars, attachment-point on other graphs.
func Synthesize(topo *topology.Topology, opts SynthesizeOptions) (*Result, error) {
	cfg := llm.DefaultSynthConfig()
	if opts.Seed != 0 {
		cfg.Seed = opts.Seed
	}
	cfg.Plan = opts.ErrorPlan
	copts := core.SynthOptions{
		Model:            llm.NewSynthesizer(cfg),
		Verifier:         opts.Verifier,
		NoIIP:            opts.DisableIIP,
		Parallelism:      opts.Parallelism,
		SuiteParallelism: opts.SuiteParallelism,
		DisableCache:     opts.DisableVerifierCache,
		Metrics:          opts.Metrics,
		Trace:            opts.Trace,
	}
	if opts.CacheDir != "" && !opts.DisableVerifierCache {
		d, err := durable.Open(opts.CacheDir, durable.Options{})
		if err != nil {
			return nil, err
		}
		copts.DurableCache = d
	}
	if opts.CheckpointPath != "" {
		copts.Checkpoint = &core.CheckpointOptions{
			Path:   opts.CheckpointPath,
			Resume: opts.Resume,
			RunKey: runKey("synthesize", topo.Name, len(topo.Routers), cfg.Seed, cfg.Plan,
				opts.DisableIIP, opts.Parallelism > 1),
		}
	}
	return core.Synthesize(topo, copts)
}

// SynthesizeNoTransit runs the paper's second use case (§4): synthesize
// Cisco configurations for an n-router star network implementing the
// no-transit policy via local per-router specifications. It is a thin
// wrapper over Synthesize with the Figure 4 star topology.
func SynthesizeNoTransit(opts SynthesizeOptions) (*Result, error) {
	n := opts.Routers
	if n == 0 {
		n = 7
	}
	topo, err := netgen.Star(n)
	if err != nil {
		return nil, err
	}
	return Synthesize(topo, opts)
}

// StarTopology generates the Figure 4 star network description: the JSON
// dictionary and its machine-generated natural-language description.
// Unlike GenerateTopology, the size is not defaulted: n < 2 is an error.
func StarTopology(n int) (*topology.Topology, string, error) {
	topo, err := netgen.Star(n)
	if err != nil {
		return nil, "", err
	}
	return topo, netgen.Describe(topo), nil
}

// TopologyInfo describes one registered topology scenario.
type TopologyInfo struct {
	// Name identifies the scenario for GenerateTopology.
	Name string
	// Summary is a one-line description.
	Summary string
	// SizeHint documents the generator's size parameter.
	SizeHint string
	// DefaultSize is the paper-scale default for the parameter.
	DefaultSize int
}

// Topologies lists the registered topology scenarios the synthesis
// engine can target: star, ring, full-mesh, and fat-tree.
func Topologies() []TopologyInfo {
	var out []TopologyInfo
	for _, s := range netgen.Scenarios() {
		out = append(out, TopologyInfo{Name: s.Name, Summary: s.Summary,
			SizeHint: s.SizeHint, DefaultSize: s.DefaultSize})
	}
	return out
}

// GenerateTopology builds a registered scenario's topology: the JSON
// dictionary and its machine-generated natural-language description.
// size <= 0 uses the scenario's default.
func GenerateTopology(name string, size int) (*topology.Topology, string, error) {
	topo, err := netgen.Generate(name, size)
	if err != nil {
		return nil, "", err
	}
	return topo, netgen.Describe(topo), nil
}

// Leverage summarizes a run in the paper's terms.
func Leverage(r *Result) (automated, human int, leverage float64) {
	automated, human = r.Transcript.Counts()
	return automated, human, r.Leverage()
}

// Summary renders the one-line result the paper reports per use case.
func Summary(name string, r *Result) string {
	a, h, l := Leverage(r)
	status := "verified"
	if !r.Verified {
		status = "NOT verified"
	}
	return fmt.Sprintf("%s: %d automated prompts, %d human prompts, leverage %.1fX, %s",
		name, a, h, l, status)
}
