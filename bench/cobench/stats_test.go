package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		// statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
		{[]float64{2, 1}, 0.75, 1.5, 2.25},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, med, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || med != tc.med || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, med, q3, tc.q1, tc.med, tc.q3)
		}
	}
}

func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "run_s", Better: "lower", Bound: 0.1}
	higher := metricSpec{Name: "leverage", Better: "higher", Bound: 0.1}
	steady := []float64{10, 10, 10, 10, 10}
	for _, tc := range []struct {
		name           string
		spec           metricSpec
		parent, change []float64
		want           verdict
	}{
		{"identical", lower, steady, steady, same},
		{"within bound", lower, steady, []float64{10.8, 10.8, 10.8, 10.8, 10.8}, same},
		{"slower past bound", lower, steady, []float64{11.5, 11.5, 11.5, 11.5, 11.5}, worse},
		{"faster past bound", lower, steady, []float64{8, 8, 8, 8, 8}, better},
		{"higher is better", higher, steady, []float64{8, 8, 8, 8, 8}, worse},
		{"noisy parent", lower, []float64{7, 9, 10, 11, 13}, steady, unresolved},
		{"noisy change", lower, steady, []float64{7, 9, 11, 13, 15}, unresolved},
		{"noisy but every change sample faster", lower, []float64{10, 11, 12, 14, 15}, []float64{6, 7, 8, 9, 9.5}, better},
		{"noisy and every change sample slower", lower, []float64{6, 7, 8, 9, 9.5}, []float64{10, 11, 12, 14, 15}, unresolved},
		{"no samples", lower, nil, steady, unresolved},
	} {
		if got := judge(tc.spec, tc.parent, tc.change); got != tc.want {
			t.Errorf("%s: judge = %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareFailuresAlwaysWorse(t *testing.T) {
	spec := &benchSpec{EndToEnd: []metricSpec{{Name: "run_s", Unit: "s", Better: "lower", Bound: 0.1}}}
	file := func(failed int) *resultFile {
		return &resultFile{Workloads: []workloadResult{{Name: "w", Attempted: 8, Failed: failed,
			EndToEnd: map[string]series{"run_s": {Unit: "s", Values: []float64{1, 1, 1}}}}}}
	}
	var out bytes.Buffer
	if !compare(&out, spec, file(0), file(1)) {
		t.Errorf("a rise in failed samples was not reported as worse:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "failed_frac") {
		t.Errorf("compare output has no failed_frac row:\n%s", out.String())
	}
	out.Reset()
	if compare(&out, spec, file(1), file(0)) {
		t.Errorf("fewer failed samples reported as worse:\n%s", out.String())
	}
}
