package repro

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/llm"
	"repro/internal/netgen"
	"repro/internal/obs"
	"repro/internal/topology"
)

// The checkpoint/resume acceptance gate: a run killed mid-loop and
// restarted with Resume must produce a byte-identical final transcript —
// same prompts, same configurations, same leverage — as a run that was
// never interrupted. The kill is injected through the deterministic
// in-process crash seam (CheckpointOptions.AbortAfterSaves), which leaves
// exactly the on-disk state a SIGKILL immediately after a completed
// snapshot would; the CI smoke job repeats the experiment with a real
// SIGKILL on a separate process.

// synthCheckpointed runs core.Synthesize with the default simulated LLM —
// the same model repro.Synthesize builds — plus a checkpoint config.
func synthCheckpointed(t *testing.T, name string, size int, path string,
	abortAfter int, resume bool, parallelism int) (*Result, error) {
	t.Helper()
	return core.Synthesize(mustTopo(t, name, size), core.SynthOptions{
		Model:       llm.NewSynthesizer(llm.DefaultSynthConfig()),
		Parallelism: parallelism,
		Checkpoint: &core.CheckpointOptions{
			Path:            path,
			Resume:          resume,
			RunKey:          "resume-test:" + name,
			AbortAfterSaves: abortAfter,
		},
	})
}

// TestSequentialResumeByteIdenticalOnScenarios kills a sequential
// synthesis run at the second checkpoint write — mid-repair, after the
// first iteration's exchanges — then resumes it, on every registry
// scenario. The resumed run's transcript must match an uninterrupted
// baseline byte for byte.
func TestSequentialResumeByteIdenticalOnScenarios(t *testing.T) {
	for _, info := range Topologies() {
		info := info
		t.Run(info.Name, func(t *testing.T) {
			baseline, err := Synthesize(mustTopo(t, info.Name, info.DefaultSize),
				SynthesizeOptions{})
			if err != nil {
				t.Fatal(err)
			}
			ckPath := filepath.Join(t.TempDir(), "checkpoint.json")
			_, err = synthCheckpointed(t, info.Name, info.DefaultSize, ckPath, 2, false, 0)
			if !errors.Is(err, core.ErrCheckpointAborted) {
				t.Fatalf("crash seam did not fire: err = %v", err)
			}
			resumed, err := synthCheckpointed(t, info.Name, info.DefaultSize, ckPath, 0, true, 0)
			if err != nil {
				t.Fatal(err)
			}
			requireSameRun(t, info.Name+" resumed", baseline, resumed)
		})
	}
}

// TestRepeatedCrashResumeConverges kills the same star-7 run over and
// over — every restart dies two snapshots after the previous one — until
// it finally completes. However many times the coordinator crashes, the
// final transcript must be the uninterrupted run's.
func TestRepeatedCrashResumeConverges(t *testing.T) {
	baseline, err := SynthesizeNoTransit(SynthesizeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ckPath := filepath.Join(t.TempDir(), "checkpoint.json")
	var final *Result
	crashes := 0
	for attempt := 0; attempt < 200; attempt++ {
		res, err := synthCheckpointed(t, "star", 7, ckPath, 2, attempt > 0, 0)
		if err == nil {
			final = res
			break
		}
		if !errors.Is(err, core.ErrCheckpointAborted) {
			t.Fatal(err)
		}
		crashes++
	}
	if final == nil {
		t.Fatal("run never completed despite 200 resume attempts")
	}
	if crashes == 0 {
		t.Fatal("crash seam never fired")
	}
	t.Logf("converged after %d crashes", crashes)
	requireSameRun(t, "repeatedly crashed star-7", baseline, final)
}

// TestParallelResumeByteIdentical kills a parallel synthesis run after
// two routers' snapshots landed, then resumes it: the completed routers'
// outcomes are reused verbatim, the rest are repaired fresh, and the
// topology-order merge must reproduce the uninterrupted parallel
// transcript exactly.
func TestParallelResumeByteIdentical(t *testing.T) {
	baseline, err := core.Synthesize(mustTopo(t, "ring", 6), core.SynthOptions{
		Model:       llm.NewSynthesizer(llm.DefaultSynthConfig()),
		Parallelism: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	ckPath := filepath.Join(t.TempDir(), "checkpoint.json")
	_, err = synthCheckpointed(t, "ring", 6, ckPath, 2, false, 3)
	if !errors.Is(err, core.ErrCheckpointAborted) {
		t.Fatalf("crash seam did not fire: err = %v", err)
	}
	resumed, err := synthCheckpointed(t, "ring", 6, ckPath, 0, true, 3)
	if err != nil {
		t.Fatal(err)
	}
	requireSameRun(t, "parallel ring-6 resumed", baseline, resumed)
}

// TestTranslateResumeByteIdentical is the same experiment on the
// translation pipeline: kill the repair loop mid-run, resume, compare
// against an uninterrupted baseline.
func TestTranslateResumeByteIdentical(t *testing.T) {
	cisco := ExampleCiscoConfig()
	baseline, err := Translate(cisco, TranslateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ckPath := filepath.Join(t.TempDir(), "checkpoint.json")
	run := func(abortAfter int, resume bool) (*Result, error) {
		return core.Translate(cisco, core.TranslateOptions{
			Model: llm.NewTranslator(llm.DefaultTranslateConfig()),
			Checkpoint: &core.CheckpointOptions{
				Path:            ckPath,
				Resume:          resume,
				RunKey:          "resume-test:translate",
				AbortAfterSaves: 2,
			},
		})
	}
	if _, err := run(2, false); !errors.Is(err, core.ErrCheckpointAborted) {
		t.Fatalf("crash seam did not fire: err = %v", err)
	}
	resumed, err := core.Translate(cisco, core.TranslateOptions{
		Model: llm.NewTranslator(llm.DefaultTranslateConfig()),
		Checkpoint: &core.CheckpointOptions{
			Path:   ckPath,
			Resume: true,
			RunKey: "resume-test:translate",
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	requireSameRun(t, "translate resumed", baseline, resumed)
}

// TestResumeRefusesDifferentRun starts a checkpointed run under one set
// of coordinates and tries to resume it under another (different seed):
// the run-key check must refuse rather than silently fork the run.
func TestResumeRefusesDifferentRun(t *testing.T) {
	ckPath := filepath.Join(t.TempDir(), "checkpoint.json")
	if _, err := Translate(ExampleCiscoConfig(), TranslateOptions{
		CheckpointPath: ckPath,
	}); err != nil {
		t.Fatal(err)
	}
	_, err := Translate(ExampleCiscoConfig(), TranslateOptions{
		Seed:           2,
		CheckpointPath: ckPath,
		Resume:         true,
	})
	if err == nil || !strings.Contains(err.Error(), "different run") {
		t.Fatalf("resume into different coordinates not refused: err = %v", err)
	}
}

// TestResumeRefusesDifferentGraph checkpoints a finished run on one
// random:20 graph and resumes it on another: every random graph of one
// size shares its name and router count, so only the topology itself in
// the run key tells them apart, and the resume must be refused.
func TestResumeRefusesDifferentGraph(t *testing.T) {
	graph := func(seed int64) *topology.Topology {
		topo, err := netgen.GenerateSeeded("random", 20, seed)
		if err != nil {
			t.Fatal(err)
		}
		return topo
	}
	first, second := graph(11), graph(12)
	if first.Name != second.Name || len(first.Routers) != len(second.Routers) ||
		reflect.DeepEqual(first, second) {
		t.Fatalf("want two different graphs of one name and size, got %s/%d and %s/%d",
			first.Name, len(first.Routers), second.Name, len(second.Routers))
	}
	ckPath := filepath.Join(t.TempDir(), "checkpoint.json")
	if _, err := Synthesize(first, SynthesizeOptions{CheckpointPath: ckPath}); err != nil {
		t.Fatal(err)
	}
	_, err := Synthesize(second, SynthesizeOptions{CheckpointPath: ckPath, Resume: true})
	if err == nil || !strings.Contains(err.Error(), "different run") {
		t.Fatalf("resume onto another graph of the same name and size not refused: err = %v", err)
	}
}

// TestResumeRefusesPhaselessCheckpoint resumes a checkpoint file that
// names no phase, and one that names an unknown phase, in each of the
// three loops: the sequential and 2-lane synthesis loops and translation.
// Each resume must fail with an error that names the file and says what
// is wrong with its phase.
func TestResumeRefusesPhaselessCheckpoint(t *testing.T) {
	loops := map[string]func(path string) error{
		"synth-sequential": func(path string) error {
			_, err := Synthesize(mustTopo(t, "star", 3), SynthesizeOptions{CheckpointPath: path, Resume: true})
			return err
		},
		"synth-parallel": func(path string) error {
			_, err := Synthesize(mustTopo(t, "star", 3),
				SynthesizeOptions{Parallelism: 2, CheckpointPath: path, Resume: true})
			return err
		},
		"translate": func(path string) error {
			_, err := Translate(ExampleCiscoConfig(), TranslateOptions{CheckpointPath: path, Resume: true})
			return err
		},
	}
	for loop, resume := range loops {
		for file, want := range map[string]string{
			`{}`:                "names no phase",
			`{"phase":"bogus"}`: `unknown phase "bogus"`,
		} {
			path := filepath.Join(t.TempDir(), "checkpoint.json")
			if err := os.WriteFile(path, []byte(file), 0o644); err != nil {
				t.Fatal(err)
			}
			err := resume(path)
			if err == nil || !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), path) {
				t.Errorf("%s resuming %s: err = %v, want one naming %s and saying %q", loop, file, err, path, want)
			}
		}
	}
}

// TestResumeCompletedRunReplays resumes a checkpoint left behind by a run
// that finished: the restored loop immediately re-verifies clean and the
// result matches the original — a stale checkpoint file is harmless.
func TestResumeCompletedRunReplays(t *testing.T) {
	ckPath := filepath.Join(t.TempDir(), "checkpoint.json")
	topo := mustTopo(t, "dual-homed", 0)
	first, err := Synthesize(topo, SynthesizeOptions{CheckpointPath: ckPath})
	if err != nil {
		t.Fatal(err)
	}
	again, err := Synthesize(mustTopo(t, "dual-homed", 0),
		SynthesizeOptions{CheckpointPath: ckPath, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	requireSameRun(t, "stale-checkpoint resume", first, again)
}

// TestDurableCacheWarmRestart points two fresh processes' worth of runs
// at one cache directory: the second run must answer part of its
// verification load from disk (DiskHits > 0) while producing the same
// transcript — the durable tier changes cost, never results. The cold
// run's cache_flush spans must account for every result it persisted,
// one pack file each.
func TestDurableCacheWarmRestart(t *testing.T) {
	dir := t.TempDir()
	var trace bytes.Buffer
	tr := obs.NewTracer(&trace)
	cold, err := SynthesizeNoTransit(SynthesizeOptions{CacheDir: dir, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if cold.CacheStats == nil || cold.CacheStats.DiskWrites == 0 {
		t.Fatalf("cold run persisted nothing: %+v", cold.CacheStats)
	}
	flushes, flushed := 0, 0
	for sc := bufio.NewScanner(&trace); sc.Scan(); {
		var ev obs.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Stage == obs.StageCacheFlush {
			flushes++
			flushed += ev.Checks
		}
	}
	packs, _ := filepath.Glob(filepath.Join(dir, "packs", "*.pack"))
	if uint64(flushed) != cold.CacheStats.DiskWrites || flushes != len(packs) {
		t.Fatalf("%d cache_flush spans carried %d results; want one per pack (%d) and %d results",
			flushes, flushed, len(packs), cold.CacheStats.DiskWrites)
	}
	warm, err := SynthesizeNoTransit(SynthesizeOptions{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if warm.CacheStats == nil || warm.CacheStats.DiskHits == 0 {
		t.Fatalf("warm run never hit the disk tier: %+v", warm.CacheStats)
	}
	requireSameRun(t, "warm restart", cold, warm)
}

// TestDurableCacheParallelLanes runs the warm-restart experiment with
// four repair lanes sharing one verification cache, so the lanes queue
// results and flush packs concurrently (run it under -race).
func TestDurableCacheParallelLanes(t *testing.T) {
	dir := t.TempDir()
	opts := SynthesizeOptions{CacheDir: dir, Parallelism: 4}
	cold, err := SynthesizeNoTransit(opts)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := SynthesizeNoTransit(opts)
	if err != nil {
		t.Fatal(err)
	}
	if cold.CacheStats.DiskWrites == 0 || warm.CacheStats.DiskHits != cold.CacheStats.DiskWrites {
		t.Fatalf("cold run wrote %d results, warm run read %d back",
			cold.CacheStats.DiskWrites, warm.CacheStats.DiskHits)
	}
	requireSameRun(t, "parallel warm restart", cold, warm)
}
