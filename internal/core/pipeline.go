package core

import "repro/internal/llm"

// Finding is one outstanding verifier finding surfaced by a pipeline
// stage: a stable identity (for the attempt budget), the configuration it
// concerns, the stage label, and the two renderings of the feedback — the
// humanized rectification prompt and the raw verifier output.
type Finding struct {
	// Key is a stable identity so the attempt budget tracks "the same
	// error" across iterations.
	Key string
	// Target names the configuration the finding concerns: "translation"
	// for the translation use case, a router name for synthesis.
	Target string
	// Stage labels the verifier that produced the finding.
	Stage Stage
	// Humanized is the Table 1 / Table 3 rectification prompt.
	Humanized string
	// Raw is the raw verifier output (used by the humanizer ablation);
	// empty means the humanized form is the only rendering.
	Raw string
}

// PipelineStage is one verifier pass of the repair loop (Figure 3): it
// inspects the current configurations and reports the first outstanding
// finding, or nil when the stage is clean. Stages run in declaration
// order, which encodes the paper's masking order — "syntax errors and
// structural mismatches have to be handled earlier since they can mask
// attribute differences and policy behavior differences" (§3.1). The
// transcript label comes from each Finding's Stage field, since one pass
// may surface findings of several kinds (the Campion differ emits both
// structural and semantic findings).
type PipelineStage interface {
	// Check returns the first outstanding finding against the current
	// configurations (keyed by target), or nil when clean.
	Check(configs map[string]string) (*Finding, error)
}

// suiteEnumerator is the optional stage seam for batched verification: a
// stage that can list its independent checks against the current
// configurations, in scan order, so the driver can prefetch them all
// against the verification backend (suite.Backend) before the stage scan
// reads them back from the cache. Against a single REST endpoint the
// prefetch is one round-trip; against a sharded backend it is one
// round-trip per shard, issued in parallel.
type suiteEnumerator interface {
	SuiteChecks(configs map[string]string) []SuiteCheck
}

// Pipeline declares a VPP repair loop: an ordered stage list plus the
// loop's budgets and the knobs that differ between the two use cases.
type Pipeline struct {
	Stages []PipelineStage
	Human  HumanOracle
	// Cache, when set, is the verification cache the stages check through.
	// Each iteration the driver collects every enumerable stage's
	// outstanding checks and prefetches them against the cache's backend
	// seam — one batched round-trip per shard for REST backends, a no-op
	// for unbatched ones; the stage scan then reads the results from the
	// cache instead of issuing one call per check. After the scan
	// RunPipeline flushes the iteration's new results to the cache's
	// durable tier as one pack.
	Cache *CachedVerifier
	// MaxAttemptsPerFinding bounds automated prompts per distinct finding
	// before punting to the human.
	MaxAttemptsPerFinding int
	// MaxIterations bounds total verify/correct cycles.
	MaxIterations int
	// RawFeedback ablates the humanizer: correction prompts carry the raw
	// verifier output instead of the Table 1 formulas.
	RawFeedback bool
	// PrintAfterFix re-prompts for the full configuration after an
	// automated fix changed something (§3.1's print half-cycle, used by
	// translation).
	PrintAfterFix bool
	// WrapManual adapts a manual correction before it is sent (synthesis
	// prefixes "For router X:"); nil sends it verbatim.
	WrapManual func(f *Finding, manual string) string
	// saver, when set, snapshots the loop's progress at the top of every
	// iteration — before the iteration counter ticks — so a crash anywhere
	// inside the iteration resumes by redoing that whole iteration (the
	// verify/prompt cycle is deterministic, so the redo reproduces the
	// killed run byte for byte). An error from the saver aborts the loop;
	// the crash-injection seam (CheckpointOptions.AbortAfterSaves) uses
	// exactly that path to simulate a kill.
	saver func(iter int, attempts map[string]int) error
	// resume re-enters the loop mid-run: the iteration to continue from
	// and the attempt budgets consumed before the snapshot. The session
	// must have been restored to the matching snapshot separately.
	resume *pipelineState
}

// RunPipeline drives the generic verify → humanize → reprompt repair loop
// of Figure 3 over a set of configurations: find the first outstanding
// finding across the stages, convert it to a prompt, bill it against the
// finding's attempt budget, punt to the human oracle when the budget is
// exhausted, and stop when every stage is clean (verified=true), the
// human gives up, or the iteration budget runs out (verified=false).
// Both Translate and Synthesize compose their loops from this driver.
func RunPipeline(sess *session, configs map[string]string, p Pipeline) (verified bool, err error) {
	attempts := map[string]int{}
	start := 0
	if p.resume != nil {
		start = p.resume.Iteration
		if p.resume.Attempts != nil {
			attempts = p.resume.Attempts
		}
	}
	for iter := start; iter < p.MaxIterations; iter++ {
		if p.saver != nil {
			if err := p.saver(iter, attempts); err != nil {
				return false, err
			}
		}
		sess.iterations++
		if err := p.prefetch(configs); err != nil {
			return false, err
		}
		finding, err := firstFinding(p.Stages, configs)
		if p.Cache != nil {
			p.Cache.Flush()
		}
		if err != nil {
			return false, err
		}
		if finding == nil {
			return true, nil
		}
		prompt := finding.Humanized
		if p.RawFeedback && finding.Raw != "" {
			prompt = finding.Raw
		}
		attempts[finding.Key]++
		kind := Automated
		if attempts[finding.Key] > p.MaxAttemptsPerFinding {
			// Punt: the slow manual loop takes over for this finding. The
			// oracle always reads the humanized description — a human can
			// interpret the verifier either way.
			manual, ok := p.Human.Correct(finding.Stage, finding.Humanized)
			if !ok {
				return false, nil
			}
			sess.punted = append(sess.punted, finding.Key)
			if p.WrapManual != nil {
				manual = p.WrapManual(finding, manual)
			}
			prompt = manual
			kind = Human
		}
		resp, changed, err := sess.send(kind, finding.Stage, finding.Target, prompt)
		if err != nil {
			return false, err
		}
		configs[finding.Target] = resp
		// The paper's cycle: after a fix attempt, ask the model to print
		// the whole configuration before re-verifying (§3.1). Count it as
		// an automated prompt when the automated fix changed something;
		// human prompts ask for the printout inline.
		if p.PrintAfterFix && changed && kind == Automated {
			resp, _, err = sess.send(Automated, StagePrint, finding.Target, llm.PrintRequest)
			if err != nil {
				return false, err
			}
			configs[finding.Target] = resp
		}
	}
	return false, nil
}

// prefetch warms the pipeline's verification cache with every enumerable
// stage's outstanding checks — dispatched through the backend seam as one
// batched call per iteration (one round-trip per shard) when the backend
// is batched, nothing otherwise.
func (p *Pipeline) prefetch(configs map[string]string) error {
	if p.Cache == nil || !p.Cache.Batched() {
		return nil
	}
	var checks []SuiteCheck
	for _, st := range p.Stages {
		if e, ok := st.(suiteEnumerator); ok {
			checks = append(checks, e.SuiteChecks(configs)...)
		}
	}
	return p.Cache.Prefetch(checks)
}

// firstFinding scans the stages in masking order and returns the first
// outstanding finding, or nil when every stage is clean.
func firstFinding(stages []PipelineStage, configs map[string]string) (*Finding, error) {
	for _, st := range stages {
		f, err := st.Check(configs)
		if err != nil {
			return nil, err
		}
		if f != nil {
			return f, nil
		}
	}
	return nil, nil
}
