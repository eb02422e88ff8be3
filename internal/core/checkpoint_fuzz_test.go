package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/llm"
	"repro/internal/netgen"
)

// FuzzResumeCheckpoint resumes a star:3 synthesis from arbitrary
// checkpoint files. The input's first byte picks the loop, the sequential
// one for an even byte and 2 repair lanes for an odd one, and the rest is
// the checkpoint file, resumed under a fixed run key with at most 32
// iterations. Synthesize must return a result or an error, and never
// panic. The seeds are the real snapshots a star:3 run leaves after 1, 2
// and 3 saves in each loop, an empty object, a truncated snapshot, and a
// snapshot resumed into the other loop. The model injects the default
// error scenario whether or not the IIP database covers a class, so the
// sequential loop repairs over four iterations, saving at each, instead
// of verifying at its first.
func FuzzResumeCheckpoint(f *testing.F) {
	topo, err := netgen.Star(3)
	if err != nil {
		f.Fatal(err)
	}
	synthesize := func(path string, lanes byte, abortAfter int, resume bool) (*Result, error) {
		return Synthesize(topo, SynthOptions{
			Model:         llm.NewSynthesizer(llm.SynthConfig{Seed: 1}),
			Parallelism:   1 + int(lanes%2),
			MaxIterations: 32,
			Checkpoint: &CheckpointOptions{Path: path, Resume: resume,
				RunKey: "fuzz-resume:star:3", AbortAfterSaves: abortAfter},
		})
	}
	dir := f.TempDir()
	for _, lanes := range []byte{0, 1} {
		for saves := 1; saves <= 3; saves++ {
			path := filepath.Join(dir, fmt.Sprintf("lanes%d-saves%d.json", lanes, saves))
			if _, err := synthesize(path, lanes, saves, false); !errors.Is(err, ErrCheckpointAborted) {
				f.Fatalf("lanes byte %d, %d saves: the crash seam did not fire: %v", lanes, saves, err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(append([]byte{lanes}, data...))
			if saves == 2 {
				f.Add(append([]byte{lanes}, data[:len(data)/2]...))
				f.Add(append([]byte{1 - lanes}, data...))
			}
		}
	}
	f.Add([]byte("\x00{}"))
	f.Add([]byte("\x01{}"))

	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		path := filepath.Join(t.TempDir(), "checkpoint.json")
		if err := os.WriteFile(path, in[1:], 0o644); err != nil {
			t.Fatal(err)
		}
		if res, err := synthesize(path, in[0], 0, true); res == nil && err == nil {
			t.Fatal("Synthesize returned neither a result nor an error")
		}
	})
}
