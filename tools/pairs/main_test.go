package main

import (
	"math"
	"testing"
)

func TestQuartiles(t *testing.T) {
	q1, med, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 3.25 || med != 5.5 || q3 != 7.75 {
		t.Fatalf("quartiles of 1..10: %v %v %v, want 3.25 5.5 7.75", q1, med, q3)
	}
	if q1, med, q3 := quartiles([]float64{4}); q1 != 4 || med != 4 || q3 != 4 {
		t.Fatalf("quartiles of one run: %v %v %v", q1, med, q3)
	}
}

func TestSignificant(t *testing.T) {
	got := significant([]float64{1192.18493, 2.7564569, 0.409209543, 234.7929, 0})
	want := []float64{1192.2, 2.7565, 0.40921, 234.79, 0}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("significant: %v, want %v", got, want)
		}
	}
}

func TestVerdicts(t *testing.T) {
	ops := metric{Name: "ops_per_ref_s", Unit: "1/s", Better: "higher", Bound: 0.25}
	allocs := metric{Name: "allocs_per_op", Unit: "count", Better: "lower", Bound: 0.06}
	ten := func(base, step float64) []float64 {
		out := make([]float64, 10)
		for i := range out {
			out[i] = base + step*float64(i%5)
		}
		return out
	}
	cases := []struct {
		name string
		m    metric
		a, b []float64
		want string
	}{
		{"ten of ten past the spread", ops, ten(100, 1), ten(110, 1), "B better"},
		{"ten of ten inside the spread", ops, ten(100, 4), ten(101, 4), "not claimed"},
		{"eight of ten", ops, ten(100, 1), append(ten(110, 1)[:8], 90, 90), "not claimed"},
		{"worse in every pair", ops, ten(100, 1), ten(90, 1), "B worse"},
		{"past the bound", ops, ten(100, 1), ten(130, 1), "B better beyond the bound"},
		{"five of five", ops, ten(100, 1)[:5], ten(110, 1)[:5], "not claimed: 5 pairs, a time needs 10"},
		{"five past the bound", ops, ten(100, 1)[:5], ten(130, 1)[:5], "B better beyond the bound"},
		{"count repeats", allocs, ten(3, 0), ten(2.5, 0), "B better in every run"},
		{"count apart", allocs, ten(3, 0.01), ten(2.5, 0.01), "B better in every run"},
		{"count worse", allocs, ten(2.5, 0.01), ten(3, 0.01), "B worse in every run"},
		{"count equal", allocs, ten(3, 0), ten(3, 0), "equal"},
		{"count overlaps", allocs, ten(3, 0), ten(2.99, 0.01), "overlaps: not claimed"},
		{"count equal to five digits", allocs, ten(2.75646, 0.000002), ten(2.75649, 0.000002), "equal"},
	}
	for _, c := range cases {
		if got := summarize(c.m, c.a, c.b).verdict; got != c.want {
			t.Errorf("%s: %q, want %q", c.name, got, c.want)
		}
	}
}
