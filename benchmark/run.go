package main

import (
	"fmt"
	"path/filepath"
	"sort"
	"time"
)

// minReps is the fewest repetitions a run makes, however short: one gives
// nothing to take a median of and nothing to check agreement against.
const minReps = 2

// setupSamples is how many set-ups a run times: each repetition's, then as
// many more as it takes.
const setupSamples = 9

// metricValue is one reported metric: the median over the repetitions that
// measured it, and those repetitions' own values.
type metricValue struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Samples []float64 `json:"samples,omitempty"`
}

// runResult is one run of one workload: repetitions until the on-clock time
// reaches the requested seconds.
type runResult struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Traced    bool                   `json:"traced"`
	Reps      int                    `json:"reps"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Outcomes  outcomes               `json:"outcomes"`
	Digest    string                 `json:"read_digest"`
	Problems  []string               `json:"problems,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runWorkload measures sp for about the given on-clock seconds. Untraced,
// every repetition feeds the end-to-end metrics. Traced, repetitions
// alternate untraced and traced: the traced ones feed the per-layer
// metrics, and the gap between the two kinds is the tracing overhead. The
// last traced repetition's spans go to traceDir when it is set.
func runWorkload(sp spec, seed int64, seconds float64, traced bool, traceDir string) (*runResult, error) {
	res := &runResult{Workload: sp.name, Seed: seed, Traced: traced, Correct: true, Metrics: map[string]metricValue{}}
	var (
		plain, withSpans []*repResult
		first            *repResult
		onClock          int64
	)
	for rep := 0; rep < minReps || float64(onClock) < seconds*1e9; rep++ {
		r, err := runRep(sp, seed, traced && rep%2 == 1)
		if err != nil {
			return nil, fmt.Errorf("%s repetition %d: %w", sp.name, rep, err)
		}
		onClock += r.wallNs
		res.Attempted += r.out.ops()
		res.Failed += r.out.failed()
		if r.out.Wrong+r.out.OpenErrors > 0 || (r.priv != nil && (r.priv.revokedOpens > 0 || r.priv.denied != r.priv.probes)) {
			res.Correct = false
			res.Problems = append(res.Problems, fmt.Sprintf("repetition %d: %d served-but-wrong, %d unopenable, revoked-reader probe failed", rep, r.out.Wrong, r.out.OpenErrors))
		}
		if first == nil {
			first = r
		} else if sp.clients == 1 && r.fingerprint() != first.fingerprint() {
			// One client, fixed seeds, serial replica contact: nothing may
			// differ between repetitions, traced or not.
			res.Correct = false
			res.Problems = append(res.Problems, fmt.Sprintf("repetition %d disagrees with repetition 0: %+v vs %+v", rep, r.fingerprint(), first.fingerprint()))
		}
		if r.traced {
			if n := len(withSpans); n > 0 {
				withSpans[n-1].recs = nil // only the last trace is written
			}
			withSpans = append(withSpans, r)
		} else {
			plain = append(plain, r)
		}
	}
	res.Reps = len(plain) + len(withSpans)
	res.Outcomes = first.out
	res.Digest = fmt.Sprintf("%016x", first.digest)

	if !traced {
		collect(res, endToEnd, plain, e2eOf)
		setup := res.Metrics["setup_s"]
		// (A run of zero seconds is the smoke run: it skips them.)
		for seconds > 0 && len(setup.Samples) < setupSamples {
			s, err := setupSample(sp, seed)
			if err != nil {
				return nil, err
			}
			setup.Samples = append(setup.Samples, s)
		}
		setup.Value = median(setup.Samples)
		res.Metrics["setup_s"] = setup
		return res, nil
	}
	collect(res, perLayer, withSpans, layersOf)
	refWall := func(r *repResult) float64 { return float64(r.wallNs) * r.hostSpeed() }
	plainWall, tracedWall := median(each(plain, refWall)), median(each(withSpans, refWall))
	set := func(name string, v float64) {
		mv := res.Metrics[name]
		mv.Value, mv.Samples = v, nil
		res.Metrics[name] = mv
	}
	set("harness.trace_overhead_share", (tracedWall-plainWall)/plainWall)
	set("harness.timer_ns", timerCost())
	c1, err := probeSimnet(seed, 1)
	if err != nil {
		return nil, err
	}
	c2, err := probeSimnet(seed, 2)
	if err != nil {
		return nil, err
	}
	set("simnet.rpc_ns_c1", c1)
	set("simnet.rpc_ns_c2", c2)
	set("simnet.contention_ratio", c2/c1)
	// An RPC is two messages; the estimate prices every message the ring
	// sent at the uncontended probe cost (raw times on both sides).
	rawWall := median(each(plain, func(r *repResult) float64 { return float64(r.wallNs) }))
	perOpNs := rawWall * float64(sp.clients) / float64(first.out.ops())
	set("simnet.est_share", c1/2*res.Metrics["dht.msgs_per_op"].Value/perOpNs)

	// The spans must account for the time they claim to explain.
	if cov := res.Metrics["harness.span_coverage"].Value; cov < 0.9 || cov > 1.1 {
		res.Problems = append(res.Problems, fmt.Sprintf("layer self times sum to %.2f of on-clock client time, want within 10 %%", cov))
	}
	if traceDir != "" {
		last := withSpans[len(withSpans)-1]
		if err := writeSpans(filepath.Join(traceDir, "trace-"+sp.name+".jsonl"), last.recs); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func each(reps []*repResult, f func(*repResult) float64) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = f(r)
	}
	return out
}

// collect reports, for each metric in defs, the median over reps.
func collect(res *runResult, defs []metricDef, reps []*repResult, of func(*repResult) map[string]float64) {
	per := make([]map[string]float64, len(reps))
	for i, r := range reps {
		per[i] = of(r)
	}
	for _, d := range defs {
		samples := make([]float64, len(per))
		for i, m := range per {
			samples[i] = m[d.Name]
		}
		res.Metrics[d.Name] = metricValue{Value: median(samples), Unit: d.Unit, Samples: samples}
	}
}

// printRun prints every metric of a run by name, with its unit.
func printRun(res *runResult, took time.Duration) {
	fmt.Printf("== %s seed=%d traced=%v reps=%d attempted=%d failed=%d correct=%v digest=%s (%.1fs)\n",
		res.Workload, res.Seed, res.Traced, res.Reps, res.Attempted, res.Failed, res.Correct, res.Digest, took.Seconds())
	fmt.Printf("  outcomes per repetition: %+v\n", res.Outcomes)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		mv := res.Metrics[name]
		fmt.Printf("  %-36s %16.4f %-6s", name, mv.Value, mv.Unit)
		if !res.Traced && len(mv.Samples) > 0 {
			fmt.Printf(" repetitions: %.4g", mv.Samples)
		}
		fmt.Println()
	}
	for _, p := range res.Problems {
		fmt.Printf("  PROBLEM: %s\n", p)
	}
}
