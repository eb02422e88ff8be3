// Command cobench is the repository's end-to-end benchmark. It drives
// whole synthesis runs through the public API over fixed workloads in one
// process, checks every run's output, and reports end-to-end metrics plus
// a per-layer breakdown taken from a separate traced sample's own trace.
//
// Run it from the bench module (see README.md):
//
//	go run ./cobench                                  # every workload, round-robin
//	go run ./cobench -out set.json                    # ... and save the samples
//	go run ./cobench -compare parent.json change.json # judge a change by BENCHMARK.json's bounds
//	go run ./cobench --workload synth-random-75 --seed 3 --seconds 20 --trace 0
//
// Without --workload every workload is sampled round-robin: one discarded
// warm-up round, timedRounds timed rounds, and one traced round. With
// --workload one workload is sampled for --seconds after a warm-up, and
// the last line of output is a JSON object with the end-to-end metrics
// (--trace 0) or the per-layer ones (--trace 1).
package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"time"
)

const (
	// timedRounds is the number of timed samples per workload in a
	// round-robin set.
	timedRounds = 7
	// setupReps is how many set-ups each kept sample times for setup_s.
	setupReps = 25
	// minSamples is the fewest timed samples a --workload run takes,
	// however short --seconds is.
	minSamples = 3
	// calibBytes is the size of the buffer the calibration hashes.
	calibBytes = 64 << 20
)

// expectedJSON records, per workload, the prompt counts and transcript
// digest every default-seed sample must reproduce.
//
//go:embed expected.json
var expectedJSON []byte

// metricSpec is one metric of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is the part of BENCHMARK.json the program reads: the metrics
// it must report, with their units and bounds.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// series is one metric's samples.
type series struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
}

// workloadResult is every sample one workload gave.
type workloadResult struct {
	Name      string `json:"name"`
	Seed      int64  `json:"seed"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// Reference is the outcome every sample reproduced.
	Reference *reference        `json:"reference"`
	EndToEnd  map[string]series `json:"end_to_end"`
	PerLayer  map[string]series `json:"per_layer"`
}

func (w *workloadResult) failedFrac() float64 { return ratio(float64(w.Failed), float64(w.Attempted)) }

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Started   string           `json:"started"`
	Workloads []workloadResult `json:"workloads"`
}

func (f *resultFile) workload(name string) *workloadResult {
	for i := range f.Workloads {
		if f.Workloads[i].Name == name {
			return &f.Workloads[i]
		}
	}
	return nil
}

func main() {
	workloadName := flag.String("workload", "", "sample only this workload for -seconds (default: every workload, round-robin)")
	seed := flag.Int64("seed", 0, "input seed: the simulated LLM's seed, and synth-random-75's graph variant; 0 is the default graph")
	seconds := flag.Int("seconds", 20, "with -workload: how long to keep taking timed samples")
	trace := flag.Int("trace", 0, "with -workload: 1 reports the per-layer metrics from traced samples instead of the end-to-end ones")
	out := flag.String("out", "", "write every sample as JSON to this file")
	compareMode := flag.Bool("compare", false, "compare two -out files given as arguments: parent.json change.json")
	flag.Parse()

	root, err := findRoot()
	if err != nil {
		fatal(err)
	}
	spec, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		fatal(err)
	}
	if *compareMode {
		if flag.NArg() != 2 {
			fatal(errors.New("-compare takes two result files: parent.json change.json"))
		}
		parent, err := loadResults(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		change, err := loadResults(flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if compare(os.Stdout, spec, parent, change) {
			os.Exit(1)
		}
		return
	}

	var expected map[string]*reference
	if err := json.Unmarshal(expectedJSON, &expected); err != nil {
		fatal(fmt.Errorf("expected.json: %w", err))
	}
	refFor := func(w workload) *reference {
		if *seed != 0 {
			return nil // other seeds: every sample must agree with the first
		}
		return expected[w.name]
	}
	workDir := filepath.Join(root, ".bench_build", "work")
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fatal(err)
	}
	lines, err := nonTestGoLines(root)
	if err != nil {
		fatal(err)
	}
	file := resultFile{Started: time.Now().UTC().Format(time.RFC3339)}

	if *workloadName != "" {
		w, ok := lookupWorkload(*workloadName)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *workloadName))
		}
		if *trace != 0 && *trace != 1 {
			fatal(fmt.Errorf("-trace must be 0 or 1, got %d", *trace))
		}
		c, err := newCollector(w, *seed, workDir, refFor(w))
		if err != nil {
			fatal(err)
		}
		c.measure(time.Duration(*seconds)*time.Second, *trace == 1)
		res := c.result(spec, lines)
		file.Workloads = append(file.Workloads, res)
		printWorkload(os.Stdout, spec, &res)
		writeOut(*out, &file)
		if *trace == 1 {
			printContractLine(os.Stdout, &res, spec.PerLayer, res.PerLayer)
		} else {
			printContractLine(os.Stdout, &res, spec.EndToEnd, res.EndToEnd)
		}
		return
	}

	var cs []*collector
	for _, w := range workloads {
		c, err := newCollector(w, *seed, workDir, refFor(w))
		if err != nil {
			fatal(err)
		}
		cs = append(cs, c)
	}
	roundRobin(cs)
	for _, c := range cs {
		res := c.result(spec, lines)
		file.Workloads = append(file.Workloads, res)
		printWorkload(os.Stdout, spec, &res)
	}
	writeOut(*out, &file)
}

// collector takes and keeps one workload's samples.
type collector struct {
	r         *runner
	attempted int
	failed    int
	untraced  []measured
	traced    []measured
	setups    []float64
	calib     []float64
}

func newCollector(w workload, seed int64, workDir string, ref *reference) (*collector, error) {
	r, err := newRunner(w, seed, workDir, ref)
	if err != nil {
		return nil, err
	}
	return &collector{r: r}, nil
}

// timeSetups times setupReps set-ups and adds their median to setup_s.
// It first returns the last sample's heap to the OS, so neither the
// collector's nor the scavenger's clean-up lands in the timings, and the
// sample that follows starts from an empty heap as a fresh process would.
// Sub-millisecond timings drift with the machine's speed, so every kept
// sample adds one median rather than one burst standing for the whole
// run. A set-up that fails here fails the sample's set-up too, so it is
// not counted.
func (c *collector) timeSetups() {
	debug.FreeOSMemory()
	var setups []float64
	for i := 0; i < setupReps; i++ {
		e, setup, _, err := c.r.setUp()
		if err != nil {
			return
		}
		e.tearDown()
		setups = append(setups, setup.Seconds())
	}
	_, med, _ := quartiles(setups)
	c.setups = append(c.setups, med)
}

// take takes one sample and keeps it unless it is the warm-up. Every
// sample, the warm-up included, is checked and counts as attempted. Only
// kept untraced samples time several warm restarts.
func (c *collector) take(traced, keep bool) {
	c.attempted++
	restarts := 1
	if keep {
		c.timeSetups()
		if !traced {
			restarts = warmRestarts
		}
	}
	m, err := c.r.sample(traced, restarts)
	if err != nil {
		c.failed++
		fmt.Fprintf(os.Stderr, "cobench: %s: sample failed: %v\n", c.r.w.name, err)
		return
	}
	switch {
	case !keep:
	case traced:
		c.traced = append(c.traced, m)
	default:
		c.untraced = append(c.untraced, m)
	}
}

// measure is a --workload run: a warm-up, then timed samples for d,
// starting a sample only while the last one's duration still fits. Traced
// runs alternate untraced and traced samples, so the trace's overhead is
// measured against untraced samples of the same run.
func (c *collector) measure(d time.Duration, traced bool) {
	c.take(false, false)
	start := time.Now()
	var last time.Duration
	for i := 0; i < minSamples || time.Since(start)+last <= d; i++ {
		t0 := time.Now()
		if traced {
			c.calib = append(c.calib, calibrate())
		}
		c.take(traced && i%2 == 1, true)
		last = time.Since(t0)
	}
}

// roundRobin samples every workload in turn, so drift in the machine's
// speed hits each alike: a warm-up round, timedRounds timed rounds, then
// one traced round. Each round starts with a calibration.
func roundRobin(cs []*collector) {
	for round := 0; round < timedRounds+2; round++ {
		calib := calibrate()
		for _, c := range cs {
			c.calib = append(c.calib, calib)
			fmt.Fprintf(os.Stderr, "cobench: round %d/%d: %s\n", round+1, timedRounds+2, c.r.w.name)
			c.take(round == timedRounds+1, round > 0)
		}
	}
}

// result folds the kept samples into per-metric series.
func (c *collector) result(spec *benchSpec, goLines int) workloadResult {
	res := workloadResult{Name: c.r.w.name, Seed: c.r.seed, Attempted: c.attempted, Failed: c.failed,
		Reference: c.r.ref, EndToEnd: map[string]series{}, PerLayer: map[string]series{}}
	for _, ms := range spec.EndToEnd {
		s := series{Unit: ms.Unit}
		if ms.Name == "setup_s" {
			s.Values = c.setups
		} else {
			for _, m := range c.untraced {
				if v, ok := m[ms.Name]; ok {
					s.Values = append(s.Values, v)
				}
			}
		}
		res.EndToEnd[ms.Name] = s
	}
	var untracedRun []float64
	for _, m := range c.untraced {
		untracedRun = append(untracedRun, m["run_s"])
	}
	_, baseRun, _ := quartiles(untracedRun)
	for _, ms := range spec.PerLayer {
		s := series{Unit: ms.Unit}
		switch ms.Name {
		case "env.calib_ms":
			s.Values = c.calib
		case "repo.nontest_go_lines":
			s.Values = []float64{float64(goLines)}
		case "obs.trace_overhead_pct":
			for _, m := range c.traced {
				if len(untracedRun) > 0 { // else baseRun is NaN
					s.Values = append(s.Values, 100*(m["run_s"]/baseRun-1))
				}
			}
		default:
			for _, m := range c.traced {
				if v, ok := m[ms.Name]; ok {
					s.Values = append(s.Values, v)
				}
			}
		}
		res.PerLayer[ms.Name] = s
	}
	return res
}

// printWorkload prints every metric of one workload with its unit: the
// median, quartiles and sample count of each series.
func printWorkload(w io.Writer, spec *benchSpec, res *workloadResult) {
	fmt.Fprintf(w, "== %s (seed %d): %d samples attempted, %d failed, failed_frac %.4g\n",
		res.Name, res.Seed, res.Attempted, res.Failed, res.failedFrac())
	if ref := res.Reference; ref != nil {
		fmt.Fprintf(w, "  reference: %d automated and %d human prompts, transcript sha256 %s\n",
			ref.Automated, ref.Human, ref.Transcript)
	}
	for _, group := range []struct {
		title   string
		metrics []metricSpec
		values  map[string]series
	}{{"end-to-end", spec.EndToEnd, res.EndToEnd}, {"per-layer", spec.PerLayer, res.PerLayer}} {
		fmt.Fprintf(w, "  %-30s %12s %12s %12s %3s\n", group.title, "median", "q1", "q3", "n")
		for _, ms := range group.metrics {
			s := group.values[ms.Name]
			if len(s.Values) == 0 {
				continue
			}
			q1, med, q3 := quartiles(s.Values)
			fmt.Fprintf(w, "  %-30s %12.6g %12.6g %12.6g %3d %s\n", ms.Name, med, q1, q3, len(s.Values), ms.Unit)
		}
	}
}

// printContractLine prints the one-line JSON result of a --workload run:
// the median of each requested metric.
func printContractLine(w io.Writer, res *workloadResult, metrics []metricSpec, values map[string]series) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]value{}}
	for _, ms := range metrics {
		if s := values[ms.Name]; len(s.Values) > 0 {
			_, med, _ := quartiles(s.Values)
			line.Metrics[ms.Name] = value{Value: med, Unit: ms.Unit}
		}
	}
	data, err := json.Marshal(line)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintln(w, string(data))
}

// calibrate times SHA-256 over calibBytes, a fixed CPU-bound job whose
// time tracks the machine's speed, so drift between sets is visible.
func calibrate() float64 {
	buf := make([]byte, calibBytes)
	start := time.Now()
	sha256.Sum256(buf)
	return ms(time.Since(start))
}

// findRoot walks up from the working directory to the repro module root.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && bytes.HasPrefix(data, []byte("module repro\n")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside the repro module: run from the repository or its bench module")
		}
		dir = parent
	}
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(spec.EndToEnd) == 0 || len(spec.PerLayer) == 0 {
		return nil, fmt.Errorf("%s: no metrics", path)
	}
	return &spec, nil
}

func loadResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

func writeOut(path string, f *resultFile) {
	if path == "" {
		return
	}
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}
}

// nonTestGoLines counts the lines of the module's non-test Go files,
// skipping hidden directories and nested modules such as this benchmark.
func nonTestGoLines(root string) (int, error) {
	lines := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == root {
				return nil
			}
			if strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		lines += bytes.Count(data, []byte("\n"))
		return nil
	})
	return lines, err
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "cobench: %v\n", err)
	os.Exit(2)
}
