package core

import (
	"context"
	"fmt"

	"repro/internal/llm"
	"repro/internal/suite"
)

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
// lists its independent checks against the current configurations, and
// turns a check's result into the stage's finding. The driver evaluates
// the list in order and reports the first finding, or moves on when the
// stage is clean. Stages run in declaration order, which encodes the
// paper's masking order — "syntax errors and structural mismatches have
// to be handled earlier since they can mask attribute differences and
// policy behavior differences" (§3.1). The transcript label comes from
// each Finding's Stage field, since one pass may surface findings of
// several kinds (the Campion differ emits both structural and semantic
// findings).
type PipelineStage interface {
	// Checks lists the stage's checks against the current configurations
	// (keyed by target), in scan order.
	Checks(configs map[string]string) []SuiteCheck
	// Finding returns the finding the result of check i reports, or nil
	// when that check is clean.
	Finding(i int, res SuiteResult) *Finding
}

// Pipeline declares a VPP repair loop: an ordered stage list plus the
// loop's budgets and the knobs that differ between the two use cases.
type Pipeline struct {
	Stages []PipelineStage
	Human  HumanOracle
	// Verifier evaluates the stages' checks. When it is a CachedVerifier
	// over a batched backend (the REST client), every stage lists its
	// checks at the top of each iteration and the driver prefetches them
	// all in one batched call — one round-trip per endpoint — before the
	// scan reads the same lists back as cache hits. Otherwise a stage
	// lists its checks only when the scan reaches it, so a finding in an
	// earlier stage skips the later ones; an uncached batched backend
	// then evaluates each stage's list in one batched call. After the
	// scan a CachedVerifier flushes the iteration's new results to its
	// durable tier as one pack.
	Verifier Verifier
	// Workers bounds the pool that evaluates one stage's checks; values
	// <= 1 scan them in order. The lowest-index finding wins either way,
	// so the transcript does not depend on it (see scanFirst).
	Workers int
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
		finding, err := p.firstFinding(configs)
		if cache, ok := p.Verifier.(*CachedVerifier); ok {
			cache.Flush()
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

// firstFinding scans the stages in masking order and returns the first
// outstanding finding, or nil when every stage is clean. Against a
// batched cache every stage lists its checks up front, the whole
// iteration is prefetched, and the scan reads those same lists; in
// process each stage lists its checks when the scan reaches it. A
// batched backend without the cache (DisableCache over REST) is asked
// for each reached stage's whole list in one call, whose results are
// then scanned in order.
func (p *Pipeline) firstFinding(configs map[string]string) (*Finding, error) {
	if b, ok := p.Verifier.(suite.Backend); ok {
		for _, st := range p.Stages {
			results, err := checkBatch(b, st.Checks(configs))
			if err != nil {
				return nil, err
			}
			for j, res := range results {
				if f := st.Finding(j, res); f != nil {
					return f, nil
				}
			}
		}
		return nil, nil
	}
	var lists [][]SuiteCheck
	if cache, ok := p.Verifier.(*CachedVerifier); ok && cache.Batched() {
		lists = make([][]SuiteCheck, len(p.Stages))
		var all []SuiteCheck
		for i, st := range p.Stages {
			lists[i] = st.Checks(configs)
			all = append(all, lists[i]...)
		}
		if err := cache.Prefetch(all); err != nil {
			return nil, err
		}
	}
	for i, st := range p.Stages {
		var checks []SuiteCheck
		if lists != nil {
			checks = lists[i]
		} else {
			checks = st.Checks(configs)
		}
		f, err := scanFirst(len(checks), p.Workers, func(j int) (*Finding, error) {
			res, err := p.Verifier.Check(checks[j])
			if err != nil {
				return nil, err
			}
			return st.Finding(j, res), nil
		})
		if f != nil || err != nil {
			return f, err
		}
	}
	return nil, nil
}

// checkBatch evaluates checks in one call on a batched backend and
// refuses a reply that does not carry one result per check.
func checkBatch(b suite.Backend, checks []SuiteCheck) ([]SuiteResult, error) {
	if len(checks) == 0 {
		return nil, nil
	}
	results, err := b.CheckBatch(context.Background(), checks)
	if err != nil {
		return nil, err
	}
	if len(results) != len(checks) {
		return nil, fmt.Errorf("batched backend returned %d results for %d checks",
			len(results), len(checks))
	}
	return results, nil
}
