package core

import (
	"fmt"
	"time"

	"repro/internal/campion"
	"repro/internal/durable"
	"repro/internal/humanizer"
	"repro/internal/llm"
	"repro/internal/obs"
)

// TranslateOptions configures the translation pipeline (§3).
type TranslateOptions struct {
	Model    llm.Model
	Verifier Verifier
	Human    HumanOracle
	// MaxAttemptsPerFinding bounds automated prompts per distinct finding
	// before punting to the human (default 2).
	MaxAttemptsPerFinding int
	// MaxIterations bounds total verify/correct cycles (default 64).
	MaxIterations int
	// IIP entries prepended to the conversation (translation used none in
	// the paper; kept configurable for ablations).
	IIP []llm.IIP
	// RawFeedback ablates the humanizer: correction prompts carry the raw
	// verifier output instead of the Table 1 formulas. The paper's claim
	// is that actionable, humanized feedback is what makes the inner loop
	// work (§1); this option measures the difference.
	RawFeedback bool
	// DurableCache mounts a disk-backed result tier under the run's
	// verifier (see CachedVerifier.SetDurable).
	DurableCache *durable.Cache
	// Checkpoint periodically snapshots repair-loop progress to an
	// atomically-written file so a killed run can resume (see
	// CheckpointOptions). Nil disables checkpointing.
	Checkpoint *CheckpointOptions
	// Metrics and Trace mirror SynthOptions: an optional registry the
	// run's instruments register into and an optional JSONL trace sink.
	// Telemetry never changes a result.
	Metrics *obs.Registry
	Trace   *obs.Tracer
	// RunLabel names this run's trace spans; "translate" when empty.
	RunLabel string
}

func (o *TranslateOptions) fill() {
	if o.Verifier == nil {
		o.Verifier = LocalVerifier{}
	}
	if o.Human == nil {
		o.Human = PaperHuman{}
	}
	if o.MaxAttemptsPerFinding == 0 {
		o.MaxAttemptsPerFinding = 2
	}
	if o.MaxIterations == 0 {
		o.MaxIterations = 64
	}
}

// translationTarget is the single configuration key the translation
// pipeline repairs.
const translationTarget = "translation"

// Translate runs the full VPP translation pipeline on a Cisco
// configuration: task prompt (human), then the fast inner loop — syntax
// verification with Batfish first, Campion semantic diffing second,
// returning to syntax whenever a semantic fix breaks the parse (§3.1) —
// punting to the human oracle when a finding survives the attempt budget.
// The loop itself is the shared RunPipeline driver composed from two
// declarative stages.
func Translate(ciscoConfig string, opts TranslateOptions) (*Result, error) {
	opts.fill()
	if opts.Model == nil {
		return nil, fmt.Errorf("translate: options require a model")
	}
	if opts.RunLabel == "" {
		opts.RunLabel = "translate"
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
	cache := NewCachedVerifier(opts.Verifier)
	cache.SetDurable(opts.DurableCache)
	cache.SetObs(opts.Metrics, opts.Trace, opts.RunLabel)
	opts.Verifier = cache
	sess := newSession(opts.Model, opts.IIP)
	sess.tracer, sess.runLabel = opts.Trace, opts.RunLabel

	var configs map[string]string
	var ps *pipelineState
	if resumed != nil {
		sessState, pstate, cfgs, cursor, rerr := resumeSequential(resumed, phaseTranslate)
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
		taskPrompt := "Translate the following Cisco configuration into an equivalent " +
			"Juniper configuration.\n\n" + ciscoConfig
		current, _, serr := sess.send(Human, StageTask, translationTarget, taskPrompt)
		if serr != nil {
			return nil, serr
		}
		configs = map[string]string{translationTarget: current}
	}
	p := Pipeline{
		Stages: []PipelineStage{
			translationSyntaxStage{},
			translationDiffStage{original: ciscoConfig},
		},
		Verifier:              opts.Verifier,
		Human:                 opts.Human,
		MaxAttemptsPerFinding: opts.MaxAttemptsPerFinding,
		MaxIterations:         opts.MaxIterations,
		RawFeedback:           opts.RawFeedback,
		PrintAfterFix:         true,
	}
	p.saver = ck.sequentialSaver(phaseTranslate, sess, configs)
	p.resume = ps
	verified, err := RunPipeline(sess, configs, p)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Verified:       verified,
		Transcript:     sess.transcript,
		Configs:        configs,
		PuntedFindings: sess.punted,
		Iterations:     sess.iterations,
	}
	cache.Flush()
	stats := cache.Stats()
	res.CacheStats = &stats
	opts.Trace.Span(runStart, obs.Event{Stage: obs.StageRun, Run: opts.RunLabel,
		Iter: res.Iterations})
	return res, nil
}

// translationSyntaxStage checks the translation with the Batfish syntax
// verifier. It runs first: "syntax errors and structural mismatches have
// to be handled earlier since they can mask attribute differences and
// policy behavior differences" (§3.1).
type translationSyntaxStage struct{}

// Checks implements PipelineStage.
func (translationSyntaxStage) Checks(configs map[string]string) []SuiteCheck {
	return []SuiteCheck{{Kind: SuiteSyntax, Config: configs[translationTarget]}}
}

// Finding implements PipelineStage.
func (translationSyntaxStage) Finding(_ int, res SuiteResult) *Finding {
	if len(res.Warnings) == 0 {
		return nil
	}
	w := res.Warnings[0]
	return &Finding{
		Key:       "syntax:" + w.Text + ":" + w.Reason,
		Target:    translationTarget,
		Stage:     StageSyntax,
		Humanized: humanizer.Syntax(w),
		Raw:       w.String(),
	}
}

// translationDiffStage compares the translation against the original with
// the Campion differ; structural and attribute findings carry the
// structure label, policy-behavior findings the semantic label.
type translationDiffStage struct{ original string }

// Checks implements PipelineStage.
func (s translationDiffStage) Checks(configs map[string]string) []SuiteCheck {
	return []SuiteCheck{{Kind: SuiteDiff, Original: s.original, Config: configs[translationTarget]}}
}

// Finding implements PipelineStage.
func (translationDiffStage) Finding(_ int, res SuiteResult) *Finding {
	if len(res.Diffs) == 0 {
		return nil
	}
	f := res.Diffs[0]
	stage := StageStructure
	if f.Kind == campion.PolicyBehaviorDifference {
		stage = StageSemantic
	}
	return &Finding{
		Key:       "campion:" + findingKey(f),
		Target:    translationTarget,
		Stage:     stage,
		Humanized: humanizer.Campion(f),
		Raw:       f.String(),
	}
}

// findingKey builds a stable identity for a finding so the attempt budget
// tracks "the same error" across iterations. Policy findings include the
// witness prefix: two different behaviour errors on the same attachment
// (e.g. the §3.2 redistribution and prefix-length errors, both on the
// to_provider export) must not share a budget.
func findingKey(f campion.Finding) string {
	switch f.Kind {
	case campion.PolicyBehaviorDifference:
		return fmt.Sprintf("%s:%s:%s:%s", f.Kind, f.Direction, f.Neighbor, f.Witness.Prefix)
	case campion.AttributeDifference:
		return fmt.Sprintf("%s:%s:%s", f.Kind, f.Component, f.Attribute)
	default:
		return fmt.Sprintf("%s:%s", f.Kind, f.Component)
	}
}
