// Package core implements COSYNTH (Figure 3): the Verified Prompt
// Programming engine that drives the LLM / verifier-suite / humanizer loop
// for both use cases — Cisco→Juniper translation (§3) and no-transit
// synthesis via local policies (§4) — and accounts for leverage, the
// paper's central metric (automated prompts / human prompts, §1).
package core

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/lightyear"
	"repro/internal/llm"
	"repro/internal/obs"
)

// PromptKind distinguishes the two loops of Figure 2: the fast automated
// inner loop (verifier → humanizer → LLM) and the slow manual loop.
type PromptKind int

// Prompt kinds.
const (
	Automated PromptKind = iota
	Human
)

// String implements fmt.Stringer.
func (k PromptKind) String() string {
	if k == Human {
		return "human"
	}
	return "automated"
}

// Stage names the verifier that produced a correction prompt.
type Stage string

// Pipeline stages.
const (
	StageTask      Stage = "task"
	StageSyntax    Stage = "syntax"
	StageStructure Stage = "structure" // Campion structural / attribute
	StageTopology  Stage = "topology"
	StageSemantic  Stage = "semantic"
	StagePrint     Stage = "print"
)

// PromptRecord is one transcript entry.
type PromptRecord struct {
	Kind    PromptKind
	Stage   Stage
	Prompt  string
	Changed bool // whether the model's response differed from its previous output
}

// Transcript is the full prompt/response history of a run.
type Transcript []PromptRecord

// Counts tallies the transcript by kind.
func (t Transcript) Counts() (automated, human int) {
	for _, r := range t {
		if r.Kind == Human {
			human++
		} else {
			automated++
		}
	}
	return automated, human
}

// String renders a readable transcript summary.
func (t Transcript) String() string {
	var b strings.Builder
	for i, r := range t {
		fmt.Fprintf(&b, "%2d. [%s/%s] %s\n", i+1, r.Kind, r.Stage, firstLine(r.Prompt))
	}
	return b.String()
}

// Result is the outcome of one VPP run.
type Result struct {
	Verified   bool
	Transcript Transcript
	// Configs holds the final output: for translation, key "translation";
	// for synthesis, one entry per router.
	Configs map[string]string
	// PuntedFindings lists findings the automated loop gave up on
	// (each consumed a human prompt).
	PuntedFindings []string
	// Iterations counts the verify/correct cycles the run consumed —
	// every pass of RunPipeline's loop, including the final clean scan
	// that declares a pipeline verified. Parallel per-router repair sums
	// the workers' private loops. The fuzz campaign's oracle asserts this
	// stays bounded in the injected-error count.
	Iterations int
	// CacheStats reports the incremental verification cache's counters for
	// the run; nil when the cache was disabled.
	CacheStats *CacheStats
	// Global is the final whole-network BGP simulation's result. nil when
	// the run never reached the global check (local repair failed,
	// SkipGlobalCheck, or translation mode).
	Global *lightyear.GlobalResult
}

// AutomatedPrompts counts automated prompts.
func (r *Result) AutomatedPrompts() int { a, _ := r.Transcript.Counts(); return a }

// HumanPrompts counts human prompts.
func (r *Result) HumanPrompts() int { _, h := r.Transcript.Counts(); return h }

// Leverage is the paper's metric: automated prompts per human prompt.
// The edge cases are pinned so the metric stays monotone in automation
// and a fully-punted run cannot be mistaken for a fully-automatic one:
//
//   - a == 0 && h == 0: 0 — an empty run has no leverage to report;
//   - a > 0 && h == 0: float64(a) — the loop was fully automatic, and the
//     automated count is the conventional lower bound ("at least a
//     automated prompts per human prompt");
//   - a == 0 && h > 0: 0 — every prompt was human (the loop punted
//     everything), the metric's minimum. This is distinguishable from the
//     fully-automatic case, which is never 0 when any prompt was sent.
func (r *Result) Leverage() float64 {
	a, h := r.Transcript.Counts()
	if h == 0 {
		return float64(a)
	}
	return float64(a) / float64(h)
}

// FullyAutomated reports whether the run sent at least one prompt and
// none of them were human — the regime where Leverage() returns the
// automated count as a lower bound rather than a true ratio.
func (r *Result) FullyAutomated() bool {
	a, h := r.Transcript.Counts()
	return a > 0 && h == 0
}

// session drives one conversation with the model, recording the
// transcript and tracking the latest response per target.
type session struct {
	model      llm.Model
	messages   []llm.Message
	transcript Transcript
	punted     []string
	// lastResponse tracks the model's previous output per target key, to
	// detect whether a correction changed anything.
	lastResponse map[string]string
	// iterations counts RunPipeline cycles driven over this session (the
	// Result.Iterations stat).
	iterations int
	// tracer is the optional trace sink (nil = off): every send() emits
	// one llm_call span. runLabel names the run in its events.
	tracer   *obs.Tracer
	runLabel string
}

func newSession(model llm.Model, iip []llm.IIP) *session {
	s := &session{model: model, lastResponse: map[string]string{}}
	s.messages = append(s.messages, llm.IIPMessages(iip)...)
	return s
}

// send issues a prompt and returns the model's response, recording
// whether the response for the target changed.
func (s *session) send(kind PromptKind, stage Stage, target, prompt string) (string, bool, error) {
	role := llm.RoleAutomated
	if kind == Human {
		role = llm.RoleHuman
	}
	s.messages = append(s.messages, llm.Message{Role: role, Content: prompt})
	var start time.Time
	if s.tracer != nil {
		start = time.Now()
	}
	resp, err := s.model.Complete(s.messages)
	if s.tracer != nil {
		s.tracer.Span(start, obs.Event{Stage: obs.StageLLMCall, Run: s.runLabel,
			Iter: s.iterations, Router: target, Detail: string(stage),
			Bytes: int64(len(resp))})
	}
	if err != nil {
		return "", false, fmt.Errorf("model error on %s prompt: %w", stage, err)
	}
	s.messages = append(s.messages, llm.Message{Role: llm.RoleModel, Content: resp})
	changed := s.lastResponse[target] != resp
	s.lastResponse[target] = resp
	s.transcript = append(s.transcript, PromptRecord{Kind: kind, Stage: stage,
		Prompt: prompt, Changed: changed})
	return resp, changed, nil
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
