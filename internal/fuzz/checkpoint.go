package fuzz

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"

	"repro/internal/durable"
	"repro/internal/llm"
)

// CheckpointVersion is the campaign checkpoint's format version; a file
// declaring a newer version is refused at resume.
const CheckpointVersion = 1

// ErrCampaignAborted is returned by a Run whose crash-injection seam
// (AbortAfterCases) fired; the checkpoint on disk holds every case
// result recorded up to the abort.
var ErrCampaignAborted = errors.New("campaign aborted by checkpoint crash-injection seam")

// campaignCheckpoint is the on-disk snapshot: every completed case's
// result, keyed by case coordinates, plus the campaign key the results
// were produced under.
type campaignCheckpoint struct {
	Version int                   `json:"version"`
	Key     string                `json:"key"`
	Results map[string]CaseResult `json:"results"`
}

// caseKey is one sweep case's coordinate identity. Sweep cases are fully
// determined by (family, size, seed) — the plan is derived from them —
// so shrunk variants (which carry explicit plans) never collide with
// sweep entries.
func caseKey(cs Case) string {
	return fmt.Sprintf("%s:%d:%d", cs.Family, cs.Size, cs.Seed)
}

// campaignKey hashes every knob that determines a case's outcome, so a
// checkpoint is never resumed into a campaign that would have produced
// different results for the same coordinates. Workers and Budget shape
// scheduling, not outcomes, and stay out of the key; a custom
// IterationBound cannot be hashed, so its presence is keyed instead —
// resuming across two differently-bounded campaigns is refused only when
// one of them has no custom bound at all.
func (c *Campaign) campaignKey() string {
	data, _ := json.Marshal(struct {
		Family        string           `json:"family"`
		Sizes         []int            `json:"sizes"`
		Seeds         int              `json:"seeds"`
		Alphabet      []llm.SynthError `json:"alphabet"`
		MaxIterations int              `json:"max_iterations"`
		Falsify       bool             `json:"falsify"`
		CustomBound   bool             `json:"custom_bound"`
	}{c.Family, c.Sizes, c.Seeds, c.Alphabet, c.MaxIterations, c.Falsify,
		c.IterationBound != nil})
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// loadCampaignCheckpoint reads the results a killed campaign left
// behind. A missing file is a fresh start; an unreadable file, a newer
// format version, a key from different campaign knobs, or a result
// recorded under a sweep case's key for another case is an error the
// caller surfaces rather than silently restarting. Cases compare by their
// JSON encodings, the form the checkpoint stores them in.
func loadCampaignCheckpoint(path, key string, sweep []Case) (map[string]CaseResult, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("resume: %w", err)
	}
	var ck campaignCheckpoint
	if err := json.Unmarshal(data, &ck); err != nil {
		return nil, fmt.Errorf("resume: checkpoint %s is unreadable: %w", path, err)
	}
	if ck.Version > CheckpointVersion {
		return nil, fmt.Errorf("resume: checkpoint %s is format version %d, this binary speaks %d",
			path, ck.Version, CheckpointVersion)
	}
	if ck.Key != "" && key != "" && ck.Key != key {
		return nil, fmt.Errorf("resume: checkpoint %s belongs to a campaign with different knobs", path)
	}
	for _, cs := range sweep {
		prev, ok := ck.Results[caseKey(cs)]
		if !ok {
			continue
		}
		// A Case is plain data, so encoding it cannot fail.
		got, _ := json.Marshal(prev.Case)
		want, _ := json.Marshal(cs)
		if !bytes.Equal(got, want) {
			return nil, fmt.Errorf("resume: checkpoint %s records case %s under the key %s of the sweep's case %s",
				path, prev.Case, caseKey(cs), cs)
		}
	}
	return ck.Results, nil
}

// campaignSaver checkpoints the sweep: after every fresh case result it
// atomically rewrites the accumulated result map, so a kill at any
// moment leaves a loadable snapshot of exactly the completed cases. The
// mutex orders the concurrent workers' writes.
type campaignSaver struct {
	path       string
	key        string
	abortAfter int

	mu      sync.Mutex
	results map[string]CaseResult
	saves   int
	aborted bool
}

// newCampaignSaver seeds the saver with the resumed results so a second
// kill preserves the first run's work too.
func newCampaignSaver(path, key string, abortAfter int,
	seed map[string]CaseResult) *campaignSaver {
	results := make(map[string]CaseResult, len(seed))
	for k, v := range seed {
		results[k] = v
	}
	return &campaignSaver{path: path, key: key, abortAfter: abortAfter, results: results}
}

// record adds one completed case and rewrites the checkpoint, firing the
// crash-injection seam after the write (matching a kill immediately
// after a completed snapshot).
func (s *campaignSaver) record(res CaseResult) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.results[caseKey(res.Case)] = res
	data, err := json.Marshal(campaignCheckpoint{
		Version: CheckpointVersion, Key: s.key, Results: s.results})
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := durable.WriteFileAtomic(s.path, data, 0o644); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	s.saves++
	if s.abortAfter > 0 && s.saves >= s.abortAfter {
		s.aborted = true
		return ErrCampaignAborted
	}
	return nil
}

// isAborted reports whether the seam fired; workers stop starting new
// cases once it has, like a process that is no longer there.
func (s *campaignSaver) isAborted() bool {
	if s == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.aborted
}
