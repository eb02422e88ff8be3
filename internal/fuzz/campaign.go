package fuzz

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/batfish"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/lightyear"
	"repro/internal/llm"
	"repro/internal/netcfg"
	"repro/internal/netgen"
	"repro/internal/obs"
	"repro/internal/topology"
)

// Oracle property names — the end-to-end pipeline properties every case
// must satisfy (see the package comment).
const (
	PropCoverage   = "coverage-complete"
	PropVerified   = "verified-synthesis"
	PropGlobal     = "local-specs-imply-global"
	PropFalsify    = "falsifiable-global"
	PropIterations = "iteration-budget"
	PropError      = "pipeline-error"
)

// Failure records which oracle property a case violated.
type Failure struct {
	Property string `json:"property"`
	Detail   string `json:"detail"`
}

// CaseResult is one case's oracle outcome plus its run stats.
type CaseResult struct {
	Case       Case     `json:"case"`
	Failure    *Failure `json:"failure,omitempty"`
	Iterations int      `json:"iterations"`
	Automated  int      `json:"automated"`
	Human      int      `json:"human"`
	ElapsedMS  int64    `json:"elapsedMs"`
}

// Campaign sweeps the fuzzed input space: for every (size, seed) pair of
// the family it derives a seeded error plan, runs the full synthesis
// pipeline under it, and asserts the oracle properties. Cases run on a
// bounded worker pool until the sweep completes or the wall-clock budget
// expires; the first failing case (in enumeration order) is shrunk to a
// minimal counterexample. The zero value plus a Family is runnable.
type Campaign struct {
	// Family is the netgen scenario family (default "random").
	Family string
	// Sizes lists the topology sizes to sweep (default: the family's
	// registry default size).
	Sizes []int
	// Seeds is the number of seeds swept per size (1..Seeds; default 1).
	Seeds int
	// Workers bounds the concurrent cases (default 1). Cases are
	// independent full pipeline runs; results are deterministic per case
	// regardless of scheduling.
	Workers int
	// Budget bounds the campaign's wall clock; 0 sweeps everything.
	// Cases not started before the budget expires are skipped (counted
	// in the report), so a campaign is always bounded without making any
	// individual case's outcome timing-dependent.
	Budget time.Duration
	// Verifier is the verification backend each case dispatches through
	// — nil for the in-process suite; rest.Client, over one endpoint or
	// several (the suite.Backend seam), plugs in unchanged. Must be safe
	// for concurrent use when Workers > 1 (the built-ins are).
	Verifier core.Verifier
	// Alphabet is the error-class pool plans draw from (nil =
	// DefaultAlphabet). Adding llm.SErrEgressDenyAll deliberately seeds
	// oracle violations.
	Alphabet []llm.SynthError
	// MaxIterations caps each case's pipeline cycles (0 = core default).
	MaxIterations int
	// IterationBound overrides the iteration-budget property's bound for
	// a case; nil uses a generous default linear in router count and
	// plan cardinality.
	IterationBound func(cs Case, t *topology.Topology) int
	// Falsify additionally checks non-vacuousness of the composed global
	// check: breaking one attachment's egress filter must surface a
	// transit violation. Skipped on star topologies, whose egress
	// filters live on the hub under the legacy naming scheme.
	Falsify bool
	// ShrinkBudget caps the oracle runs the shrinker may spend
	// (default 500).
	ShrinkBudget int
	// Checkpoint names a file the sweep snapshots into: after every
	// completed case the accumulated results are atomically rewritten, so
	// a campaign killed mid-sweep loses at most its in-flight cases. The
	// shrink phase is not checkpointed — it is deterministic in the first
	// failure, which the checkpointed sweep pins.
	Checkpoint string
	// Resume loads Checkpoint and reuses its recorded case results: only
	// the remainder of the sweep runs, and reused cases cost nothing
	// (their recorded stats, ElapsedMS included, enter the report
	// verbatim). A missing file starts fresh; a checkpoint from different
	// campaign knobs, or one recording another case under a sweep case's
	// key, is an error.
	Resume bool
	// AbortAfterCases, when > 0, aborts Run with ErrCampaignAborted after
	// that many fresh case results were checkpointed — the in-process
	// crash-injection seam, mirroring core.CheckpointOptions.
	AbortAfterCases int
	// DurableCache mounts a disk-backed verification-cache tier into every
	// case's pipeline run (see core.SynthOptions.DurableCache): verifier
	// results persist across campaign restarts and are shared with any
	// concurrent run pointed at the same directory. Results are pure
	// functions of their inputs, so the tier changes cost, never outcomes
	// — it stays out of the campaign key.
	DurableCache *durable.Cache
	// Metrics, when set, is the registry every case's pipeline run
	// registers its instruments into — one shared surface for the whole
	// sweep. Like DurableCache it shapes observability, never outcomes,
	// and stays out of the campaign key.
	Metrics *obs.Registry
	// Tracer, when set, receives every case's pipeline trace events plus
	// one fuzz_case verdict event per completed case (stage "fuzz_case",
	// run label "fuzz:<case>", outcome "ok" or the failed property).
	// Observability only; out of the campaign key.
	Tracer *obs.Tracer

	// filled latches fill so the concurrent workers' RunCase calls read
	// the defaults applied before they were spawned instead of rewriting
	// them.
	filled bool

	// topos memoizes generated topologies by case coordinates: Cases()
	// already generates every swept topology to derive its error plan, so
	// RunCase reuses that graph instead of regenerating it. Topologies
	// are read-only throughout the pipeline, so sharing one across
	// concurrent workers is safe. Shrunk variants miss and regenerate.
	topos sync.Map
}

// topoKey is the memoization key of one case's topology coordinates.
type topoKey struct {
	family     string
	size       int
	seed       int64
	extraEdges int
}

// cachedTopology returns the case's (read-only) topology, generating and
// memoizing it on first sight of the coordinates.
func (c *Campaign) cachedTopology(cs Case) (*topology.Topology, error) {
	key := topoKey{family: cs.Family, size: cs.Size, seed: cs.Seed, extraEdges: cs.ExtraEdges}
	if t, ok := c.topos.Load(key); ok {
		return t.(*topology.Topology), nil
	}
	topo, err := cs.Topology()
	if err != nil {
		return nil, err
	}
	c.topos.Store(key, topo)
	return topo, nil
}

// fill applies defaults, returning an error for an unknown family.
func (c *Campaign) fill() error {
	if c.filled {
		return nil
	}
	if c.Family == "" {
		c.Family = "random"
	}
	sc, ok := netgen.Lookup(c.Family)
	if !ok {
		return fmt.Errorf("fuzz: unknown scenario family %q (have %v)",
			c.Family, netgen.ScenarioNames())
	}
	if len(c.Sizes) == 0 {
		c.Sizes = []int{sc.DefaultSize}
	}
	if c.Seeds <= 0 {
		c.Seeds = 1
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.Alphabet == nil {
		c.Alphabet = DefaultAlphabet()
	}
	if c.ShrinkBudget <= 0 {
		c.ShrinkBudget = 500
	}
	c.filled = true
	return nil
}

// Cases enumerates the campaign's sweep deterministically: size-major,
// seed-minor, each case's plan derived from its coordinates.
func (c *Campaign) Cases() ([]Case, error) {
	if err := c.fill(); err != nil {
		return nil, err
	}
	var cases []Case
	for _, size := range c.Sizes {
		for s := 1; s <= c.Seeds; s++ {
			cs := Case{Family: c.Family, Size: size, Seed: int64(s), ExtraEdges: -1}
			topo, err := c.cachedTopology(cs)
			if err != nil {
				return nil, fmt.Errorf("fuzz: %s:%d: %w", c.Family, size, err)
			}
			cs.Plan = PlanFor(topo, cs.Seed, c.Alphabet)
			cases = append(cases, cs)
		}
	}
	return cases, nil
}

// Run executes the campaign: the full sweep on the worker pool, then —
// if any case failed — deterministic shrinking of the first failure to
// a minimal counterexample. The returned report is self-contained: it
// carries the campaign's knobs, so Replay reproduces the exact oracle.
func (c *Campaign) Run(ctx context.Context) (*Report, error) {
	start := time.Now()
	cases, err := c.Cases()
	if err != nil {
		return nil, err
	}
	var deadline time.Time
	if c.Budget > 0 {
		deadline = start.Add(c.Budget)
	}
	expired := func() bool {
		if ctx.Err() != nil {
			return true
		}
		return !deadline.IsZero() && time.Now().After(deadline)
	}

	var saver *campaignSaver
	done := map[string]CaseResult{}
	if c.Checkpoint != "" {
		key := c.campaignKey()
		if c.Resume {
			done, err = loadCampaignCheckpoint(c.Checkpoint, key, cases)
			if err != nil {
				return nil, err
			}
		}
		saver = newCampaignSaver(c.Checkpoint, key, c.AbortAfterCases, done)
	}

	results := make([]*CaseResult, len(cases))
	jobs := make(chan int)
	var wg sync.WaitGroup
	workers := c.Workers
	if workers > len(cases) {
		workers = len(cases)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				// A resumed case costs nothing: its recorded result enters
				// the report verbatim, budget or no budget.
				if prev, ok := done[caseKey(cases[i])]; ok {
					res := prev
					results[i] = &res
					continue
				}
				if expired() || saver.isAborted() {
					continue // skipped: budget ran out (or the crash seam fired)
				}
				res := c.RunCase(cases[i])
				results[i] = &res
				if saver != nil {
					// The abort (crash seam) is observed via isAborted by
					// every worker; in-flight cases still land in the
					// checkpoint first, like work a real kill raced with.
					_ = saver.record(res)
				}
			}
		}()
	}
	for i := range cases {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	if saver.isAborted() {
		return nil, ErrCampaignAborted
	}

	rep := c.newReport()
	var firstFailure *CaseResult
	for _, res := range results {
		if res == nil {
			rep.Skipped++
			continue
		}
		rep.Cases++
		rep.PlannedErrors += res.Case.Plan.Cardinality()
		rep.TotalIterations += res.Iterations
		rep.Results = append(rep.Results, *res)
		if res.Failure != nil {
			rep.Failures++
			if firstFailure == nil {
				firstFailure = res
			}
		}
	}
	if firstFailure != nil {
		min, steps, runs := c.Shrink(firstFailure.Case, *firstFailure.Failure)
		final := c.RunCase(min)
		cx := &Counterexample{
			Case:        min,
			Original:    firstFailure.Case,
			Failure:     *firstFailure.Failure,
			ShrinkSteps: len(steps),
			OracleRuns:  runs,
			Replay:      "cofuzz -replay <report.json>; cosynth -mode notransit -errors <report.json>",
		}
		if final.Failure != nil {
			cx.Failure = *final.Failure
		}
		rep.Counterexample = cx
	}
	elapsed := time.Since(start)
	rep.ElapsedMS = elapsed.Milliseconds()
	if secs := elapsed.Seconds(); secs > 0 {
		rep.CasesPerSecond = float64(rep.Cases) / secs
	}
	return rep, nil
}

// RunCase runs the oracle on one case: regenerate the topology, assert
// spec coverage, run the synthesis pipeline under the case's error plan,
// and assert the end-to-end properties on the outcome. It is
// deterministic in the case alone (given the campaign's knobs), which
// replay and the shrinker both rely on.
func (c *Campaign) RunCase(cs Case) CaseResult {
	if err := c.fill(); err != nil {
		return CaseResult{Case: cs, Failure: &Failure{Property: PropError, Detail: err.Error()}}
	}
	start := time.Now()
	out := CaseResult{Case: cs}
	verdict := func(r CaseResult) CaseResult {
		if c.Tracer != nil {
			outcome := "ok"
			if r.Failure != nil {
				outcome = r.Failure.Property
			}
			c.Tracer.Span(start, obs.Event{
				Stage:   obs.StageFuzzCase,
				Run:     "fuzz:" + cs.String(),
				Iter:    r.Iterations,
				Outcome: outcome,
			})
		}
		return r
	}
	fail := func(prop, detail string) CaseResult {
		out.Failure = &Failure{Property: prop, Detail: detail}
		out.ElapsedMS = time.Since(start).Milliseconds()
		return verdict(out)
	}

	topo, err := c.cachedTopology(cs)
	if err != nil {
		return fail(PropError, err.Error())
	}
	reqs := lightyear.SpecFor(topo)
	if err := lightyear.CoverageComplete(topo, reqs); err != nil {
		return fail(PropCoverage, err.Error())
	}
	for _, r := range reqs {
		if r.Attachment == (lightyear.AttachmentRef{}) && !netgen.IsStar(topo) {
			return fail(PropCoverage,
				fmt.Sprintf("%s requirement on %s policy %s lacks an attachment identity",
					r.Kind, r.Router, r.Policy))
		}
	}

	sites, err := cs.Plan.SiteErrors()
	if err != nil {
		return fail(PropError, err.Error())
	}
	// The pipeline skips its own global check: the oracle's independent
	// simulation below is the case's global check, so running one inside
	// the pipeline as well would do the same work twice.
	res, err := core.Synthesize(topo, core.SynthOptions{
		Model:           llm.NewSynthesizer(llm.SynthConfig{Seed: 1, RespectIIP: true, Plan: sites}),
		Verifier:        c.Verifier,
		MaxIterations:   c.MaxIterations,
		SkipGlobalCheck: true,
		DurableCache:    c.DurableCache,
		Metrics:         c.Metrics,
		Trace:           c.Tracer,
		RunLabel:        "fuzz:" + cs.String(),
	})
	if err != nil {
		return fail(PropError, err.Error())
	}
	out.Iterations = res.Iterations
	out.Automated, out.Human = res.Transcript.Counts()
	if !res.Verified {
		detail := "pipeline did not verify"
		if len(res.PuntedFindings) > 0 {
			detail += "; punted: " + strings.Join(res.PuntedFindings, ", ")
		}
		return fail(PropVerified, detail)
	}
	bound := 8 + 2*len(topo.Routers) + 6*cs.Plan.Cardinality()
	if c.IterationBound != nil {
		bound = c.IterationBound(cs, topo)
	}
	if res.Iterations > bound {
		return fail(PropIterations,
			fmt.Sprintf("%d iterations exceed the bound %d for %d routers and %d planned errors",
				res.Iterations, bound, len(topo.Routers), cs.Plan.Cardinality()))
	}

	// Independent composition check: re-parse the final configurations
	// and re-run the whole-network simulation outside the pipeline.
	devs := map[string]*netcfg.Device{}
	for name, text := range res.Configs {
		dev, _ := batfish.ParseConfig(text)
		devs[name] = dev
	}
	global, err := lightyear.CheckGlobalNoTransit(topo, devs)
	if err != nil {
		return fail(PropError, err.Error())
	}
	if !global.OK() {
		// The pipeline skipped its own global check, so this is the only
		// place a reachability loss surfaces: report it with the leaks.
		return fail(PropGlobal, fmt.Sprintf(
			"verified configs fail the global check: violations %v, missing reachability %v, converged %v",
			global.Violations, global.MissingReachability, global.Converged))
	}
	if c.Falsify && !netgen.IsStar(topo) {
		if f := falsify(topo, devs); f != nil {
			out.Failure = f
		}
	}
	out.ElapsedMS = time.Since(start).Milliseconds()
	return verdict(out)
}

// falsify proves the composed global check non-vacuous on this graph:
// detaching the first ISP attachment's egress filter must surface a
// transit violation. The devices are mutated, so callers pass a map they
// are done with.
func falsify(topo *topology.Topology, devs map[string]*netcfg.Device) *Failure {
	atts := lightyear.ISPAttachments(topo)
	if len(atts) < 2 {
		return &Failure{Property: PropFalsify,
			Detail: fmt.Sprintf("%d ISP attachments, want >= 2", len(atts))}
	}
	victim := atts[0]
	for _, nb := range devs[victim.Router].BGP.Neighbors {
		if nb.ExportPolicy == victim.EgressPolicy() {
			nb.ExportPolicy = ""
		}
	}
	broken, err := lightyear.CheckGlobalNoTransit(topo, devs)
	if err != nil {
		return &Failure{Property: PropError, Detail: err.Error()}
	}
	if broken.OK() || len(broken.Violations) == 0 {
		return &Failure{Property: PropFalsify,
			Detail: fmt.Sprintf("removing %s's egress filter toward %s was not caught",
				victim.Router, victim.Peer.PeerName)}
	}
	return nil
}
