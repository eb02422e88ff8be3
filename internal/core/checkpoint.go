package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/durable"
	"repro/internal/llm"
	"repro/internal/obs"
)

// CheckpointVersion is the checkpoint file's format version. A file
// declaring a newer version is refused at resume — an old binary must not
// continue a run it cannot faithfully reconstruct — and older versions are
// migrated or refused explicitly as the format evolves.
const CheckpointVersion = 1

// CheckpointOptions turns on periodic crash checkpoints for a repair run:
// the engine snapshots its progress — the conversation, the transcript,
// the per-finding attempt budgets, the current configurations, and the
// simulated LLM's RNG cursor — to an atomically-written file at the top of
// every pipeline iteration (sequential modes) or after every completed
// router (parallel synthesis). A killed process restarted with Resume
// picks the run up at the last snapshot and produces a byte-identical
// final transcript: all engine state is restored verbatim, and the model
// is reconstructed by deterministically replaying the recorded
// conversation against a fresh instance, with every replayed response
// checked against the recording.
type CheckpointOptions struct {
	// Path is the checkpoint file. Required.
	Path string
	// Resume loads Path and continues the run it describes. A missing file
	// starts a fresh (checkpointed) run; a file for a different run
	// (RunKey mismatch) or a newer format version is an error.
	Resume bool
	// RunKey identifies the run's coordinates (topology, mode, seed,
	// options) so a checkpoint is never resumed into a different run.
	// Comparison is skipped when either side is empty.
	RunKey string
	// AbortAfterSaves, when > 0, aborts the run with ErrCheckpointAborted
	// after that many checkpoint writes — the in-process crash-injection
	// seam: tests kill the coordinator at a deterministic point mid-run,
	// then resume and assert byte-identical convergence. 0 never aborts.
	AbortAfterSaves int
}

// ErrCheckpointAborted is returned by a run whose CheckpointOptions
// crash-injection seam (AbortAfterSaves) fired; the checkpoint file on
// disk describes the run's state at the abort.
var ErrCheckpointAborted = errors.New("run aborted by checkpoint crash-injection seam")

// Checkpoint phases: which loop the snapshot was taken in. Resume refuses
// a phase mismatch (e.g. resuming a parallel run sequentially) — the
// snapshot shapes differ.
const (
	phaseSynthSequential = "synth-sequential"
	phaseSynthParallel   = "synth-parallel"
	phaseTranslate       = "translate"
)

// sessionState is the serialized form of a session: everything send()
// accumulates, restored verbatim on resume so the transcript's prefix is
// byte-identical to the killed run's.
type sessionState struct {
	Messages     []llm.Message     `json:"messages"`
	Transcript   Transcript        `json:"transcript"`
	Punted       []string          `json:"punted,omitempty"`
	LastResponse map[string]string `json:"last_response,omitempty"`
	Iterations   int               `json:"iterations"`
}

// snapshotSession captures a session's state.
func snapshotSession(s *session) *sessionState {
	return &sessionState{
		Messages:     s.messages,
		Transcript:   s.transcript,
		Punted:       s.punted,
		LastResponse: s.lastResponse,
		Iterations:   s.iterations,
	}
}

// restoreSession loads a snapshot back into a session and reconstructs the
// model's internal state by replaying the recorded conversation: the
// simulated LLMs are deterministic state machines over their message
// history, so feeding each recorded prompt prefix back through Complete
// rebuilds exactly the state the killed process had — and comparing each
// replayed response against the recording proves it. A divergence means
// the checkpoint belongs to a different model configuration (wrong seed,
// wrong error plan) and resuming would silently fork the run.
func restoreSession(s *session, st *sessionState) error {
	for i, m := range st.Messages {
		if m.Role != llm.RoleModel {
			continue
		}
		resp, err := s.model.Complete(st.Messages[:i])
		if err != nil {
			return fmt.Errorf("resume: replaying conversation turn %d: %w", i, err)
		}
		if resp != m.Content {
			return fmt.Errorf("resume: model diverged from checkpoint at turn %d: "+
				"the checkpoint was taken under a different model configuration", i)
		}
	}
	s.messages = st.Messages
	s.transcript = st.Transcript
	s.punted = st.Punted
	s.iterations = st.Iterations
	s.lastResponse = st.LastResponse
	if s.lastResponse == nil {
		s.lastResponse = map[string]string{}
	}
	return nil
}

// pipelineState is RunPipeline's loop position: the iteration to re-enter
// at and the per-finding attempt budgets consumed so far.
type pipelineState struct {
	Iteration int            `json:"iteration"`
	Attempts  map[string]int `json:"attempts,omitempty"`
}

// routerSnapshot is one completed router's outcome in a parallel-synthesis
// checkpoint — the serialized form of routerOutcome (error outcomes are
// never checkpointed; a failed router reruns on resume).
type routerSnapshot struct {
	Config     string     `json:"config"`
	Transcript Transcript `json:"transcript"`
	Punted     []string   `json:"punted,omitempty"`
	Iterations int        `json:"iterations"`
	Verified   bool       `json:"verified"`
}

// checkpointFile is the on-disk snapshot. Sequential phases carry the
// session, pipeline position, and configurations; the parallel phase
// carries the completed routers' outcomes instead (each worker session is
// private and dies with its router's completion).
type checkpointFile struct {
	Version   int                       `json:"version"`
	RunKey    string                    `json:"run_key,omitempty"`
	Phase     string                    `json:"phase"`
	Session   *sessionState             `json:"session,omitempty"`
	Pipeline  *pipelineState            `json:"pipeline,omitempty"`
	Configs   map[string]string         `json:"configs,omitempty"`
	RNGCursor int64                     `json:"rng_cursor"` // -1: model exposes no cursor
	Routers   map[string]routerSnapshot `json:"routers,omitempty"`
}

// rngCursored is implemented by models that expose how many random draws
// they have made (llm.Synthesizer, llm.Translator). The cursor is recorded
// at snapshot time and checked after the resume replay: a replayed model
// must land on the same cursor, or its stochastic choices have diverged
// from the run being resumed.
type rngCursored interface {
	RNGCursor() int64
}

// modelCursor reads a model's RNG cursor; -1 when the model has none.
func modelCursor(m llm.Model) int64 {
	if c, ok := m.(rngCursored); ok {
		return c.RNGCursor()
	}
	return -1
}

// checkpointer serializes checkpoint writes for one run. The file write
// itself is atomic (durable.WriteFileAtomic), so a crash mid-save leaves
// the previous snapshot intact; the mutex orders concurrent savers (the
// parallel workers) so snapshots never interleave.
type checkpointer struct {
	opts CheckpointOptions

	// tracer is the optional trace sink: one checkpoint_save span per
	// snapshot write, one checkpoint_restore span per resumed load.
	tracer   *obs.Tracer
	runLabel string

	mu    sync.Mutex
	saves int
}

// newCheckpointer validates the options; nil opts disables checkpointing.
func newCheckpointer(opts *CheckpointOptions) (*checkpointer, error) {
	if opts == nil {
		return nil, nil
	}
	if opts.Path == "" {
		return nil, fmt.Errorf("checkpoint: options require a path")
	}
	return &checkpointer{opts: *opts}, nil
}

// load reads the checkpoint for resume. A missing file means a fresh
// start (nil, nil); a torn file cannot occur (writes are atomic), so any
// unreadable content, version skew, run-key mismatch, or a phase that is
// missing or unknown is an error the caller surfaces rather than silently
// restarting. The caller refuses a known phase of another loop.
func (c *checkpointer) load() (*checkpointFile, error) {
	if c == nil || !c.opts.Resume {
		return nil, nil
	}
	data, err := os.ReadFile(c.opts.Path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("resume: %w", err)
	}
	var start time.Time
	if c.tracer != nil {
		start = time.Now()
	}
	var ck checkpointFile
	if err := json.Unmarshal(data, &ck); err != nil {
		return nil, fmt.Errorf("resume: checkpoint %s is unreadable: %w", c.opts.Path, err)
	}
	if ck.Version > CheckpointVersion {
		return nil, fmt.Errorf("resume: checkpoint %s is format version %d, this binary speaks %d",
			c.opts.Path, ck.Version, CheckpointVersion)
	}
	if ck.RunKey != "" && c.opts.RunKey != "" && ck.RunKey != c.opts.RunKey {
		return nil, fmt.Errorf("resume: checkpoint %s belongs to a different run (key %s, want %s)",
			c.opts.Path, ck.RunKey, c.opts.RunKey)
	}
	switch ck.Phase {
	case phaseSynthSequential, phaseSynthParallel, phaseTranslate:
	case "":
		return nil, fmt.Errorf("resume: checkpoint %s names no phase", c.opts.Path)
	default:
		return nil, fmt.Errorf("resume: checkpoint %s names the unknown phase %q", c.opts.Path, ck.Phase)
	}
	if c.tracer != nil {
		c.tracer.Span(start, obs.Event{Stage: obs.StageCheckpointRestore,
			Run: c.runLabel, Bytes: int64(len(data)), Outcome: ck.Phase})
	}
	return &ck, nil
}

// save atomically writes one snapshot, firing the crash-injection seam
// when configured. ErrCheckpointAborted is returned after the write, so
// the on-disk state an aborted run leaves behind is exactly a kill
// immediately after a completed snapshot — the resumable state the seam
// exists to exercise.
func (c *checkpointer) save(ck *checkpointFile) error {
	ck.Version = CheckpointVersion
	ck.RunKey = c.opts.RunKey
	data, err := json.Marshal(ck)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var start time.Time
	if c.tracer != nil {
		start = time.Now()
	}
	if err := durable.WriteFileAtomic(c.opts.Path, data, 0o644); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if c.tracer != nil {
		c.tracer.Span(start, obs.Event{Stage: obs.StageCheckpointSave,
			Run: c.runLabel, Bytes: int64(len(data)), Outcome: ck.Phase})
	}
	c.saves++
	if c.opts.AbortAfterSaves > 0 && c.saves >= c.opts.AbortAfterSaves {
		return ErrCheckpointAborted
	}
	return nil
}

// sequentialSaver builds RunPipeline's per-iteration snapshot hook for the
// sequential phases: it captures the live session and configuration map
// and serializes their state as of each iteration's top.
func (c *checkpointer) sequentialSaver(phase string, sess *session,
	configs map[string]string) func(iter int, attempts map[string]int) error {
	if c == nil {
		return nil
	}
	return func(iter int, attempts map[string]int) error {
		return c.save(&checkpointFile{
			Phase:     phase,
			Session:   snapshotSession(sess),
			Pipeline:  &pipelineState{Iteration: iter, Attempts: attempts},
			Configs:   configs,
			RNGCursor: modelCursor(sess.model),
		})
	}
}

// resumeSequential validates a loaded checkpoint against the sequential
// phase being started and unpacks it. A nil checkpoint (fresh start)
// returns all zero values.
func resumeSequential(ck *checkpointFile, phase string) (*sessionState,
	*pipelineState, map[string]string, int64, error) {
	if ck == nil {
		return nil, nil, nil, -1, nil
	}
	if ck.Phase != phase {
		return nil, nil, nil, -1, fmt.Errorf("resume: checkpoint is a %s snapshot, this run is %s",
			ck.Phase, phase)
	}
	if ck.Session == nil || ck.Pipeline == nil {
		return nil, nil, nil, -1, fmt.Errorf("resume: %s checkpoint carries no session state", phase)
	}
	return ck.Session, ck.Pipeline, ck.Configs, ck.RNGCursor, nil
}

// checkCursor compares the model's post-replay RNG cursor against the
// recorded one; both must be known for the check to apply.
func checkCursor(m llm.Model, recorded int64) error {
	if recorded < 0 {
		return nil
	}
	if got := modelCursor(m); got >= 0 && got != recorded {
		return fmt.Errorf("resume: model RNG cursor %d does not match checkpoint cursor %d "+
			"(different seed or injection configuration)", got, recorded)
	}
	return nil
}
