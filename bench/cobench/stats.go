package main

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// quartiles returns the first quartile, median and third quartile of xs
// the way Python's statistics.quantiles(xs, n=4) and statistics.median
// compute them, so spreads here match the ones the bounds were set from.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	if n%2 == 1 {
		med = s[n/2]
	} else {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	// The "exclusive" method: position i*(n+1)/4, clamped to the data.
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), med, q(3)
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	q1, med, q3 := quartiles(xs)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}

// verdict is -compare's judgement of one metric on one workload.
type verdict string

const (
	better     verdict = "better"
	same       verdict = "same"
	worse      verdict = "worse"
	unresolved verdict = "unresolved"
)

// judge compares a change's samples of one metric against the parent's
// under the metric's bound. A spread wider than the bound on either side
// leaves the metric unresolved, unless every change sample beats every
// parent sample.
func judge(spec metricSpec, parent, change []float64) verdict {
	if len(parent) == 0 || len(change) == 0 {
		return unresolved
	}
	// Orient both sides so that larger is worse.
	sign := 1.0
	if spec.Better == "higher" {
		sign = -1
	}
	if spread(parent) > spec.Bound || spread(change) > spec.Bound {
		worstChange, bestParent := math.Inf(-1), math.Inf(1)
		for _, x := range change {
			worstChange = math.Max(worstChange, sign*x)
		}
		for _, x := range parent {
			bestParent = math.Min(bestParent, sign*x)
		}
		if worstChange < bestParent {
			return better
		}
		return unresolved
	}
	_, pm, _ := quartiles(parent)
	_, cm, _ := quartiles(change)
	// A zero parent median makes any change infinitely better or worse,
	// and no change at all NaN, which falls through to same.
	rel := sign * (cm - pm) / math.Abs(pm)
	switch {
	case rel > spec.Bound:
		return worse
	case rel < -spec.Bound:
		return better
	default:
		return same
	}
}

// judgeFailures compares failed-sample fractions: any rise is worse.
func judgeFailures(parent, change float64) verdict {
	switch {
	case change > parent:
		return worse
	case change < parent:
		return better
	default:
		return same
	}
}

// compare prints, for each workload of the change and each end-to-end
// metric, the change's verdict against the parent, and reports whether
// any verdict was worse.
func compare(w io.Writer, spec *benchSpec, parent, change *resultFile) bool {
	anyWorse := false
	fmt.Fprintf(w, "%-20s %-18s %12s %12s %8s  %s\n", "workload", "metric", "parent", "change", "bound", "verdict")
	for _, cw := range change.Workloads {
		pw := parent.workload(cw.Name)
		if pw == nil {
			fmt.Fprintf(w, "%-20s %-18s %12s %12s %8s  %s\n", cw.Name, "-", "missing", "", "", unresolved)
			continue
		}
		for _, ms := range spec.EndToEnd {
			pv, cv := pw.EndToEnd[ms.Name].Values, cw.EndToEnd[ms.Name].Values
			v := judge(ms, pv, cv)
			anyWorse = anyWorse || v == worse
			_, pm, _ := quartiles(pv)
			_, cm, _ := quartiles(cv)
			fmt.Fprintf(w, "%-20s %-18s %12.5g %12.5g %7.1f%%  %s\n", cw.Name, ms.Name, pm, cm, 100*ms.Bound, v)
		}
		v := judgeFailures(pw.failedFrac(), cw.failedFrac())
		anyWorse = anyWorse || v == worse
		fmt.Fprintf(w, "%-20s %-18s %12.5g %12.5g %8s  %s\n", cw.Name, "failed_frac",
			pw.failedFrac(), cw.failedFrac(), "0", v)
	}
	return anyWorse
}
