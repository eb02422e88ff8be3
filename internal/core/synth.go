package core

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/durable"
	"repro/internal/humanizer"
	"repro/internal/lightyear"
	"repro/internal/llm"
	"repro/internal/modularizer"
	"repro/internal/obs"
	"repro/internal/topology"
)

// SynthOptions configures the local-synthesis pipeline (§4).
type SynthOptions struct {
	Model llm.Model
	// Verifier is the verification suite; nil runs it in process. A
	// verifier that also implements the suite.Backend seam (rest.Client,
	// over one endpoint or several) gets each iteration's outstanding
	// checks prefetched in bulk — one batched round-trip per endpoint.
	Verifier Verifier
	Human    HumanOracle
	// IIP is the initial instruction prompt database (§4.2); nil means
	// the paper's default database. Use NoIIP to ablate.
	IIP []llm.IIP
	// NoIIP disables the IIP database entirely (ablation E8).
	NoIIP bool
	// MaxAttemptsPerFinding bounds automated prompts per finding before
	// punting (default 3, matching the paper's §4 experience where the
	// counterexample prompt was retried before the human stepped in).
	MaxAttemptsPerFinding int
	// MaxIterations bounds total verify/correct cycles (default 128).
	MaxIterations int
	// SkipGlobalCheck skips the final whole-network BGP simulation.
	SkipGlobalCheck bool
	// Parallelism bounds the worker pool for per-router synthesis. Values
	// <= 1 run the paper's sequential loop. Each router's inner repair
	// loop is independent of the others (per-router prompts, per-router
	// verifiers), so with Parallelism > 1 the routers are repaired
	// concurrently and the per-router transcripts are merged
	// deterministically in topology order: repeated parallel runs are
	// reproducible, and runs that converge produce the same accounting as
	// the sequential loop. The budgets differ on non-converging runs:
	// sequentially MaxIterations caps total cycles across all routers and
	// a human give-up aborts the whole loop, while in parallel each
	// router's loop has its own MaxIterations cap and a give-up only
	// stops that router's repair. The Model is serialized internally, but
	// Verifier and Human are called concurrently from the workers, so
	// custom implementations must be safe for concurrent use (the
	// built-ins — LocalVerifier, rest.Client, PaperHuman — are stateless).
	Parallelism int
	// DurableCache mounts a disk-backed result tier under the run's
	// verifier (see CachedVerifier.SetDurable): results persist across
	// process restarts and are shared with any concurrent run or resumed
	// run pointed at the same directory.
	DurableCache *durable.Cache
	// Checkpoint periodically snapshots repair-loop progress to an
	// atomically-written file so a killed run can resume (see
	// CheckpointOptions). Nil disables checkpointing.
	Checkpoint *CheckpointOptions
	// Metrics is an optional observability registry: the run's cache,
	// parse, durable-tier, and transport instruments register themselves
	// into it so a live /metrics endpoint (or /debug/vars) can watch the
	// run. Nil keeps the instruments private. Telemetry never changes a
	// result — transcripts are byte-identical with it on, off, or
	// scraped mid-run.
	Metrics *obs.Registry
	// Trace is an optional JSONL trace sink (see internal/obs): every
	// pipeline stage emits spans keyed by run/iteration/router so a
	// trace file reconstructs where the run's time and round-trips went.
	// Nil disables tracing.
	Trace *obs.Tracer
	// RunLabel names this run's trace spans; "synth" when empty.
	RunLabel string
}

func (o *SynthOptions) fill() {
	if o.Verifier == nil {
		o.Verifier = LocalVerifier{}
	}
	if o.Human == nil {
		o.Human = PaperHuman{}
	}
	if o.MaxAttemptsPerFinding == 0 {
		o.MaxAttemptsPerFinding = 3
	}
	if o.MaxIterations == 0 {
		o.MaxIterations = 128
	}
	if o.IIP == nil && !o.NoIIP {
		o.IIP = llm.DefaultIIPDatabase()
	}
	if o.NoIIP {
		o.IIP = nil
	}
}

// synthPipeline declares the per-router repair loop: the three local
// verifier stages in the paper's masking order — syntax (Batfish),
// topology verifier, local policies (Batfish SearchRoutePolicies per
// Lightyear) — over the given task set, with synthesis budgets and the
// "For router X:" manual-prompt wrap.
func synthPipeline(v Verifier, topo *topology.Topology, tasks []modularizer.Task,
	opts SynthOptions) Pipeline {
	// The local-policy checks scan in attachment order: tasks follow
	// topology order and each task's LocalSpec preserves the derivation's
	// attachment-major order, so the flattened sequence enumerates every
	// attachment's obligations in topology order of attachments — the
	// deterministic order the finding selection (firstFinding) and the
	// batched prefetch both key on. Dual-homed routers therefore
	// contribute one contiguous block per attachment, not one per router.
	routers := make([]string, len(tasks))
	var specs []*topology.RouterSpec
	var locals []localCheck
	for i, task := range tasks {
		routers[i] = task.Router
		if spec := topo.Router(task.Router); spec != nil {
			specs = append(specs, spec)
		}
		for _, req := range task.LocalSpec {
			locals = append(locals, localCheck{router: task.Router, req: req})
		}
	}
	return Pipeline{
		Stages: []PipelineStage{
			synthSyntaxStage{routers: routers},
			synthTopologyStage{specs: specs},
			synthLocalPolicyStage{checks: locals},
		},
		Verifier:              v,
		Human:                 opts.Human,
		MaxAttemptsPerFinding: opts.MaxAttemptsPerFinding,
		MaxIterations:         opts.MaxIterations,
		WrapManual: func(f *Finding, manual string) string {
			return fmt.Sprintf("For router %s: %s", f.Target, manual)
		},
	}
}

// Synthesize runs the full VPP synthesis pipeline on a topology: the human
// task kickoff, the Modularizer's per-router prompts (automated), then the
// shared RunPipeline repair driver over the three local stages, finishing
// with the whole-network BGP simulation as the global check (§4.1). With
// Parallelism > 1 the per-router repair loops run concurrently on a
// bounded worker pool.
func Synthesize(topo *topology.Topology, opts SynthOptions) (*Result, error) {
	opts.fill()
	if opts.Model == nil {
		return nil, fmt.Errorf("synthesize: options require a model")
	}
	if opts.RunLabel == "" {
		opts.RunLabel = "synth"
	}
	runStart := time.Now()
	ck, err := newCheckpointer(opts.Checkpoint)
	if err != nil {
		return nil, err
	}
	if ck != nil {
		ck.tracer, ck.runLabel = opts.Trace, opts.RunLabel
	}
	resumed, err := ck.load()
	if err != nil {
		return nil, err
	}
	// One dispatch layer for the whole run: it is shared by the parallel
	// per-router workers and by the final global check, so a
	// configuration revision is parsed once no matter how many stages and
	// iterations inspect it.
	cache := NewCachedVerifier(opts.Verifier)
	cache.SetDurable(opts.DurableCache)
	cache.SetObs(opts.Metrics, opts.Trace, opts.RunLabel)
	opts.Verifier = cache
	sess := newSession(opts.Model, opts.IIP)
	sess.tracer, sess.runLabel = opts.Trace, opts.RunLabel
	if opts.Trace != nil {
		// A model that can report where its render time went (the simulated
		// synthesizer's config prints) adopts the run's sink; outputs are
		// byte-identical either way.
		if m, ok := opts.Model.(interface {
			SetObs(*obs.Registry, *obs.Tracer)
		}); ok {
			m.SetObs(opts.Metrics, opts.Trace)
		}
	}

	tasks := modularizer.Tasks(topo)
	var configs map[string]string
	var ps *pipelineState
	if opts.Parallelism <= 1 && resumed != nil {
		// Sequential resume: the checkpointed conversation — kickoff,
		// modularizer prompts, every repair exchange up to the snapshot —
		// is restored verbatim and replayed through the model, so the loop
		// re-enters exactly where the killed process stood.
		sessState, pstate, cfgs, cursor, rerr := resumeSequential(resumed, phaseSynthSequential)
		if rerr != nil {
			return nil, rerr
		}
		if err := restoreSession(sess, sessState); err != nil {
			return nil, err
		}
		if err := checkCursor(sess.model, cursor); err != nil {
			return nil, err
		}
		configs = cfgs
		ps = pstate
	} else {
		// The paper "begin[s] by specifying the task to GPT in an initial
		// prompt using a couple of sentences" (§4.1) — a human prompt. A
		// parallel resume re-sends it: the main session is rebuilt fresh
		// (worker sessions are private), and the kickoff is deterministic.
		kickoff := "We are going to configure a network of routers. The goal is a no-transit " +
			"policy: no two ISPs should be able to reach each other through this network, but " +
			"all ISPs and the CUSTOMER should be able to reach each other. I will describe " +
			"each router in turn; generate its Cisco IOS configuration file."
		if _, _, err := sess.send(Human, StageTask, "kickoff", kickoff); err != nil {
			return nil, err
		}
	}

	var verified bool
	if opts.Parallelism > 1 {
		if resumed != nil && resumed.Phase != phaseSynthParallel {
			return nil, fmt.Errorf("resume: checkpoint is a %s snapshot, this run is %s",
				resumed.Phase, phaseSynthParallel)
		}
		configs, verified, err = synthesizeParallel(sess, topo, tasks, opts, ck, resumed)
	} else {
		configs, verified, err = synthesizeSequential(sess, topo, tasks, opts, ck, configs, ps)
	}
	if err != nil {
		return nil, err
	}

	var global *lightyear.GlobalResult
	if verified && !opts.SkipGlobalCheck {
		global, err = opts.Verifier.GlobalNoTransit(topo, configs)
		if err != nil {
			return nil, err
		}
		verified = global.OK()
	}
	res := &Result{
		Verified:       verified,
		Transcript:     sess.transcript,
		Configs:        configs,
		PuntedFindings: sess.punted,
		Iterations:     sess.iterations,
		Global:         global,
	}
	cache.Flush()
	stats := cache.Stats()
	res.CacheStats = &stats
	opts.Trace.Span(runStart, obs.Event{Stage: obs.StageRun, Run: opts.RunLabel,
		Iter: res.Iterations, Checks: len(res.Configs)})
	return res, nil
}

// synthesizeSequential is the paper's loop: modularizer prompts for every
// router first, then one repair pipeline scanning all routers per stage.
// A resume arrives with the checkpointed configurations (resumedConfigs)
// and loop position (ps) already unpacked — the modularizer prompts are
// part of the restored conversation and are not re-sent.
func synthesizeSequential(sess *session, topo *topology.Topology,
	tasks []modularizer.Task, opts SynthOptions, ck *checkpointer,
	resumedConfigs map[string]string, ps *pipelineState) (map[string]string, bool, error) {
	configs := resumedConfigs
	if configs == nil {
		// Modularizer prompts: one automated prompt per router (§2).
		configs = map[string]string{}
		for _, task := range tasks {
			resp, _, err := sess.send(Automated, StageTask, task.Router, task.Prompt)
			if err != nil {
				return nil, false, err
			}
			configs[task.Router] = resp
		}
	}
	p := synthPipeline(opts.Verifier, topo, tasks, opts)
	p.saver = ck.sequentialSaver(phaseSynthSequential, sess, configs)
	p.resume = ps
	verified, err := RunPipeline(sess, configs, p)
	return configs, verified, err
}

// routerOutcome is one worker's result: the router's final configuration
// and the transcript of its private repair loop.
type routerOutcome struct {
	config     string
	transcript Transcript
	punted     []string
	iterations int
	verified   bool
	err        error
}

// synthesizeParallel repairs each router concurrently: every worker runs
// the same per-router pipeline against its own conversation session. A
// model that can fork (llm.Forker — the simulated LLM's state is per
// router) gives every router an independent session, so workers never
// contend on a model lock; a stateful model that cannot fork (a scripted
// replay, whose responses are ordered across conversations) falls back to
// one mutex-guarded shared model. The per-router transcripts are merged
// into the main session in topology order, so the merged transcript — and
// therefore the leverage accounting — is deterministic regardless of how
// the workers interleave. Unlike the sequential loop, MaxIterations and a
// human-oracle give-up are scoped per router here (see SynthOptions).
func synthesizeParallel(sess *session, topo *topology.Topology,
	tasks []modularizer.Task, opts SynthOptions, ck *checkpointer,
	resumed *checkpointFile) (map[string]string, bool, error) {
	forker, _ := sess.model.(llm.Forker)
	var shared llm.Model
	if forker == nil {
		if ck != nil {
			// A shared stateful model's responses depend on cross-router
			// order; skipping checkpointed routers would silently shift the
			// remaining conversations. Refuse rather than checkpoint
			// something that cannot be resumed faithfully.
			return nil, false, fmt.Errorf("checkpoint: parallel synthesis requires a forkable model")
		}
		shared = &lockedModel{model: sess.model}
	}
	// Routers already completed by the killed run: their outcomes are
	// reused verbatim, only the remainder is repaired. Each worker session
	// is private to its router, so per-router granularity is the natural
	// checkpoint unit here.
	done := map[string]routerSnapshot{}
	if resumed != nil && resumed.Routers != nil {
		done = resumed.Routers
	}
	completed := struct {
		sync.Mutex
		m map[string]routerSnapshot
	}{m: map[string]routerSnapshot{}}
	for k, v := range done {
		completed.m[k] = v
	}
	// record snapshots the accumulated outcomes after one more router
	// completed. The copy under the lock keeps the serialized map stable
	// while other workers keep finishing.
	record := func(router string, out routerOutcome) error {
		if ck == nil || out.err != nil {
			return nil
		}
		completed.Lock()
		completed.m[router] = routerSnapshot{
			Config:     out.config,
			Transcript: out.transcript,
			Punted:     out.punted,
			Iterations: out.iterations,
			Verified:   out.verified,
		}
		snap := make(map[string]routerSnapshot, len(completed.m))
		for k, v := range completed.m {
			snap[k] = v
		}
		completed.Unlock()
		return ck.save(&checkpointFile{Phase: phaseSynthParallel, Routers: snap, RNGCursor: -1})
	}
	outcomes := make([]routerOutcome, len(tasks))
	jobs := make(chan int)
	var wg sync.WaitGroup
	workers := opts.Parallelism
	if workers > len(tasks) {
		workers = len(tasks)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if snap, ok := done[tasks[i].Router]; ok {
					outcomes[i] = routerOutcome{
						config:     snap.Config,
						transcript: snap.Transcript,
						punted:     snap.Punted,
						iterations: snap.Iterations,
						verified:   snap.Verified,
					}
					continue
				}
				model := shared
				if forker != nil {
					model = forker.Fork()
				}
				out := repairRouter(model, topo, tasks[i], opts)
				if err := record(tasks[i].Router, out); err != nil {
					out.err = err
				}
				outcomes[i] = out
			}
		}()
	}
	for i := range tasks {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	configs := map[string]string{}
	verified := true
	for i, task := range tasks {
		out := outcomes[i]
		if out.err != nil {
			return nil, false, fmt.Errorf("router %s: %w", task.Router, out.err)
		}
		configs[task.Router] = out.config
		sess.transcript = append(sess.transcript, out.transcript...)
		sess.punted = append(sess.punted, out.punted...)
		sess.iterations += out.iterations
		if !out.verified {
			verified = false
		}
	}
	return configs, verified, nil
}

// repairRouter runs one router's private loop: the modularizer prompt,
// then the repair pipeline restricted to that router's stages.
func repairRouter(model llm.Model, topo *topology.Topology,
	task modularizer.Task, opts SynthOptions) routerOutcome {
	wsess := newSession(model, opts.IIP)
	wsess.tracer, wsess.runLabel = opts.Trace, opts.RunLabel
	resp, _, err := wsess.send(Automated, StageTask, task.Router, task.Prompt)
	if err != nil {
		return routerOutcome{err: err}
	}
	configs := map[string]string{task.Router: resp}
	verified, err := RunPipeline(wsess, configs,
		synthPipeline(opts.Verifier, topo, []modularizer.Task{task}, opts))
	if err != nil {
		return routerOutcome{err: err}
	}
	return routerOutcome{
		config:     configs[task.Router],
		transcript: wsess.transcript,
		punted:     wsess.punted,
		iterations: wsess.iterations,
		verified:   verified,
	}
}

// lockedModel serializes Complete calls so one stateful simulated LLM can
// serve many concurrent router sessions. Each call carries its own
// conversation, so the model's per-router behaviour is independent of the
// interleaving.
type lockedModel struct {
	mu    sync.Mutex
	model llm.Model
}

// Complete implements llm.Model.
func (l *lockedModel) Complete(messages []llm.Message) (string, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.model.Complete(messages)
}

// synthSyntaxStage checks every router's configuration with the Batfish
// syntax verifier, in topology order.
type synthSyntaxStage struct{ routers []string }

// Checks implements PipelineStage.
func (s synthSyntaxStage) Checks(configs map[string]string) []SuiteCheck {
	out := make([]SuiteCheck, len(s.routers))
	for i, router := range s.routers {
		out[i] = SuiteCheck{Kind: SuiteSyntax, Config: configs[router]}
	}
	return out
}

// Finding implements PipelineStage.
func (s synthSyntaxStage) Finding(i int, res SuiteResult) *Finding {
	if len(res.Warnings) == 0 {
		return nil
	}
	router, w := s.routers[i], res.Warnings[0]
	return &Finding{
		Key:    "syntax:" + router + ":" + w.Reason + ":" + w.Text,
		Target: router,
		Stage:  StageSyntax,
		Humanized: fmt.Sprintf("In the configuration of router %s: %s",
			router, humanizer.Syntax(w)),
		Raw: w.String(),
	}
}

// synthTopologyStage checks every router's configuration against its
// topology spec; the specs are resolved once, when the pipeline is built.
type synthTopologyStage struct{ specs []*topology.RouterSpec }

// Checks implements PipelineStage.
func (s synthTopologyStage) Checks(configs map[string]string) []SuiteCheck {
	out := make([]SuiteCheck, len(s.specs))
	for i, spec := range s.specs {
		out[i] = SuiteCheck{Kind: SuiteTopology, Spec: spec, Config: configs[spec.Name]}
	}
	return out
}

// Finding implements PipelineStage.
func (s synthTopologyStage) Finding(i int, res SuiteResult) *Finding {
	if len(res.Findings) == 0 {
		return nil
	}
	router, f := s.specs[i].Name, res.Findings[0]
	return &Finding{
		Key:       "topology:" + router + ":" + f.Issue,
		Target:    router,
		Stage:     StageTopology,
		Humanized: humanizer.Topology(f),
		Raw:       f.String(),
	}
}

// localCheck is one (router, requirement) pair of the local-policy stage,
// flattened so the per-requirement checks — several of which pile onto
// the star hub or onto one dual-homed attachment router — fan out across
// endpoints individually. A requirement is one route-map's obligation at
// one attachment (an egress route-map's community drops are one
// requirement), so each check is one attachment-scoped unit of
// independent work for the fan-out and cache layers.
type localCheck struct {
	router string
	req    lightyear.Requirement
}

// synthLocalPolicyStage checks every router's Lightyear local-policy
// requirements.
type synthLocalPolicyStage struct{ checks []localCheck }

// Checks implements PipelineStage.
func (s synthLocalPolicyStage) Checks(configs map[string]string) []SuiteCheck {
	out := make([]SuiteCheck, len(s.checks))
	for i := range s.checks {
		lc := &s.checks[i]
		out[i] = SuiteCheck{Kind: SuiteLocal, Req: &lc.req, Config: configs[lc.router]}
	}
	return out
}

// Finding implements PipelineStage.
func (s synthLocalPolicyStage) Finding(i int, res SuiteResult) *Finding {
	if !res.Violated {
		return nil
	}
	router := s.checks[i].router
	// The violation's requirement is the obligation that failed: for an
	// egress route-map's drops, the one community it names.
	req := &res.Violation.Requirement
	return &Finding{
		// The attempt budget tracks findings per attachment: the
		// identity segment keeps two same-shaped obligations on one
		// router (a dual-homed pair) from sharing a budget.
		Key: "semantic:" + router + ":" + req.Attachment.String() +
			":" + req.Policy + ":" + req.Description,
		Target:    router,
		Stage:     StageSemantic,
		Humanized: humanizer.Semantic(*res.Violation),
		Raw:       res.Violation.String(),
	}
}
