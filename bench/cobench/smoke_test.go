package main

import (
	"math"
	"path/filepath"
	"testing"
)

// TestWorkloadsEmitEveryMetric samples every workload at a small size and
// checks that it reports every metric BENCHMARK.json names, with the same
// unit, and that no sample failed.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the harness %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if i < len(spec.Workloads) && spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the harness", i, spec.Workloads[i].Name, w.name)
		}
		w.size = 8
		if w.family == "fat-tree" {
			w.size = 4
		}
		c, err := newCollector(w, 0, t.TempDir(), nil)
		if err != nil {
			t.Fatal(err)
		}
		c.measure(0, true)
		res := c.result(spec, 1)
		if res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: %d of %d samples failed", w.name, res.Failed, res.Attempted)
		}
		for _, group := range []struct {
			metrics []metricSpec
			values  map[string]series
		}{{spec.EndToEnd, res.EndToEnd}, {spec.PerLayer, res.PerLayer}} {
			for _, ms := range group.metrics {
				if s := group.values[ms.Name]; len(s.Values) == 0 || s.Unit != ms.Unit {
					t.Errorf("%s: metric %s has %d values in unit %q, want some in %q",
						w.name, ms.Name, len(s.Values), s.Unit, ms.Unit)
				}
			}
		}
		for _, m := range c.traced {
			sum := m["wall.llm_share"] + m["wall.local_share"] + m["wall.global_share"] + m["wall.idle_share"]
			if math.Abs(sum-1) > 0.01 {
				t.Errorf("%s: wall shares sum to %v", w.name, sum)
			}
			if lanes := m["wall.lanes_busy"]; lanes > math.Max(1, float64(w.parallel)) {
				t.Errorf("%s: %v lanes busy with parallelism %d", w.name, lanes, w.parallel)
			}
		}
	}
}
