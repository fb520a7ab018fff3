package main

import (
	"fmt"
	"io"
	"math"
	"slices"
)

// quartileSpread is the distance between the first and third quartile as a
// share of the median, quartiles as Python's statistics.quantiles(v, n=4)
// gives them. Fewer than two samples have no spread.
func quartileSpread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return ratio(q(3)-q(1), math.Abs(median(s)))
}

// medianSpread estimates the run-to-run spread of a reported value, which
// is a median over n repetitions, from the spread of the repetitions
// themselves: a median of n scatters about 1.25/sqrt(n) as widely as one
// sample does.
func medianSpread(samples []float64) float64 {
	if len(samples) < 2 {
		return 0
	}
	return quartileSpread(samples) * 1.2533 / math.Sqrt(float64(len(samples)))
}

// verdict compares one metric of a candidate run b against a baseline run
// a, by the metric's direction and bound.
func verdict(d metricDef, a, b metricValue) (string, float64) {
	sign := 1.0
	if d.Better == "higher" {
		sign = -1
	}
	worseBy := sign * ratio(b.Value-a.Value, math.Abs(a.Value)) // > 0: b is worse
	if spread := max(medianSpread(a.Samples), medianSpread(b.Samples)); spread > d.Bound {
		// Too noisy to call, unless every repetition of one side beats
		// every repetition of the other.
		allLower := slices.Max(b.Samples) < slices.Min(a.Samples)
		allHigher := slices.Min(b.Samples) > slices.Max(a.Samples)
		if d.Better == "higher" {
			allLower, allHigher = allHigher, allLower
		}
		switch {
		case allLower:
			return "better", worseBy
		case allHigher && worseBy > d.Bound:
			return "worse", worseBy
		}
		return "unresolved", worseBy
	}
	switch {
	case worseBy > d.Bound:
		return "worse", worseBy
	case worseBy < -d.Bound:
		return "better", worseBy
	}
	return "within-bound", worseBy
}

// compareFiles prints one row per end-to-end metric and workload and
// reports whether any of them got worse.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readResultSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResultSet(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "a: %s (commit %s, seed %d)\nb: %s (commit %s, seed %d)\n", pathA, a.Env.Commit, a.Env.Seed, pathB, b.Env.Commit, b.Env.Seed)
	fmt.Fprintf(w, "%-16s %-20s %14s %14s %9s %7s  %s\n", "workload", "metric", "a", "b", "change", "bound", "verdict")
	counts := map[string]int{}
	for _, sp := range specs {
		ra, rb := a.Workloads[sp.name], b.Workloads[sp.name]
		if ra == nil || rb == nil || ra.EndToEnd == nil || rb.EndToEnd == nil {
			return false, fmt.Errorf("workload %s is missing from one of the files", sp.name)
		}
		for _, d := range endToEnd {
			va, okA := ra.EndToEnd.Metrics[d.Name]
			vb, okB := rb.EndToEnd.Metrics[d.Name]
			if !okA || !okB {
				return false, fmt.Errorf("%s: metric %s is missing from one of the files", sp.name, d.Name)
			}
			v, worseBy := verdict(d, va, vb)
			counts[v]++
			change := worseBy
			if d.Better == "higher" {
				change = -worseBy
			}
			fmt.Fprintf(w, "%-16s %-20s %14.4f %14.4f %+8.2f%% %6.1f%%  %s\n", sp.name, d.Name, va.Value, vb.Value, change*100, d.Bound*100, v)
		}
	}
	fmt.Fprintf(w, "better %d, within-bound %d, unresolved %d, worse %d\n", counts["better"], counts["within-bound"], counts["unresolved"], counts["worse"])
	return counts["worse"] > 0, nil
}
