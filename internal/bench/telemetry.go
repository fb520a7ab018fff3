package bench

import (
	"fmt"
	"time"

	"godosn/internal/overlay/dht"
	"godosn/internal/overlay/simnet"
	"godosn/internal/resilience"
	"godosn/internal/resilience/scrub"
	"godosn/internal/stack"
	"godosn/internal/telemetry"
)

// e20Phases maps span names onto the three reported phases: where an
// operation's simulated time went. Lookup covers routing, replica fetches,
// hedging, and retry backoff; verify covers integrity work (digest
// exchanges, drill-down value comparison, read-path verification); repair
// covers every push of a known-good copy (heal and scrub repair).
var e20Phases = map[string]string{
	"route":   "lookup",
	"resolve": "lookup",
	"fetch":   "lookup",
	"hedge":   "lookup",
	"attempt": "lookup",
	"backoff": "lookup",
	"store":   "lookup",
	"digest":  "verify",
	"verify":  "verify",
	"repair":  "repair",
}

// e20Arm is one soak's per-phase accounting.
type e20Arm struct {
	name    string
	ops     int
	latency map[string]time.Duration // phase -> simulated latency
	spans   map[string]int           // phase -> span count
}

// addTree folds one span tree's exclusive latencies into the arm.
func (a *e20Arm) addTree(sp *telemetry.Span) {
	lat, cnt := sp.PhaseTotals()
	for name, d := range lat {
		phase, ok := e20Phases[name]
		if !ok {
			continue // roots and grouping spans carry no exclusive latency
		}
		a.latency[phase] += d
		a.spans[phase] += cnt[name]
	}
}

// E20PhaseBreakdown instruments the E17 and E19 fault scenarios with the
// telemetry layer: every lookup, heal, and scrub pass runs traced, and the
// span trees are folded into a per-phase latency breakdown — how much of
// the recovery bill is spent looking up, verifying, and repairing. The
// telemetry registry snapshot (counters, histograms, events) rides along in
// the -json report's telemetry section.
//
// Telemetry is observation-only: E17 and E19 themselves run untraced and
// their headline numbers are unaffected; this experiment re-runs their
// conditions with the probes on.
func E20PhaseBreakdown(quick bool) (*Table, error) {
	peers, keys, ops, scrubEvery, rotEvery := 60, 80, 300, 25, 10
	if quick {
		peers, keys, ops, scrubEvery, rotEvery = 40, 30, 100, 20, 8
	}

	reg := telemetry.NewRegistry()
	e17, err := runE20Arm("loss+churn (E17)", false, reg, peers, keys, ops, scrubEvery, rotEvery)
	if err != nil {
		return nil, err
	}
	e19, err := runE20Arm("loss+churn+byzantine (E19)", true, reg, peers, keys, ops, scrubEvery, rotEvery)
	if err != nil {
		return nil, err
	}
	// The breakdown only means something if the probes saw the work: the
	// Byzantine arm must spend observable time in all three phases.
	for _, phase := range []string{"lookup", "verify", "repair"} {
		if e19.spans[phase] == 0 {
			return nil, fmt.Errorf("bench: e20 invariant violated: byzantine arm recorded no %s spans", phase)
		}
	}

	t := &Table{
		ID:     "E20",
		Title:  "telemetry: per-phase latency breakdown of traced operations (DHT, k=3)",
		Header: []string{"arm", "phase", "sim ms", "ms/op", "share%", "spans"},
	}
	for _, arm := range []*e20Arm{e17, e19} {
		var total time.Duration
		for _, d := range arm.latency {
			total += d
		}
		for _, phase := range []string{"lookup", "verify", "repair"} {
			d := arm.latency[phase]
			share := 0.0
			if total > 0 {
				share = float64(d) / float64(total) * 100
			}
			t.AddRow(
				arm.name,
				phase,
				fmt.Sprintf("%.0f", float64(d)/float64(time.Millisecond)),
				fmt.Sprintf("%.2f", float64(d)/float64(arm.ops)/float64(time.Millisecond)),
				fmt.Sprintf("%.1f", share),
				fmt.Sprintf("%d", arm.spans[phase]),
			)
		}
	}
	t.AddNote("lookup = routing + replica fetches + hedges + retry backoff; verify = digest exchanges + drill-down comparison + read verification; repair = heal and scrub pushes")
	t.AddNote("every lookup, heal, and scrub pass runs with a span tree attached; phases sum exclusive span latencies in simulated time (deterministic under the seeded simnet)")
	t.AddNote("the registry snapshot for both arms (counters, latency histograms, breaker/scrub events) is exported in the -json report's telemetry section")
	for _, arm := range []struct {
		key string
		a   *e20Arm
	}{{"e17", e17}, {"e19", e19}} {
		for _, phase := range []string{"lookup", "verify", "repair"} {
			t.AddMetric(fmt.Sprintf("e20_%s_%s_ms", arm.key, phase), "ms",
				float64(arm.a.latency[phase])/float64(time.Millisecond))
		}
	}
	snap := reg.Snapshot()
	t.Telemetry = &snap
	return t, nil
}

// runE20Arm soaks one fault scenario with tracing on. The byz arm layers
// E19's Byzantine responders, stored bit rot, read verification and the
// periodic scrub pass on top of E17's loss + churn; repair = heal and scrub
// pushes.
func runE20Arm(name string, byz bool, reg *telemetry.Registry, peers, keys, ops, scrubEvery, rotEvery int) (*e20Arm, error) {
	const seed = int64(2020)
	arm := &e20Arm{name: name, ops: ops, latency: make(map[string]time.Duration), spans: make(map[string]int)}
	rcfg := resilience.DefaultConfig(seed)
	spec := stack.Spec{
		Names:      benchNames(peers),
		Net:        simnet.DefaultConfig(seed),
		DHT:        dht.Config{ReplicationFactor: 3},
		Resilience: &rcfg,
		Registry:   reg,
	}
	run := soak{
		name: "e20", seed: seed, keys: keys, ops: ops, loss: 0.10, uptime: 0.7,
		onSpan: arm.addTree,
	}
	if byz {
		rcfg.Verify = scrub.Check
		scfg := scrub.DefaultConfig("")
		spec.Scrub = &scfg
		run.byz = e19Byzantine
		run.rotEvery, run.rotSalt, run.scrubEvery = rotEvery, 0x7e1e, scrubEvery
	}
	st, err := stack.Build(spec)
	if err != nil {
		return nil, err
	}
	if _, err := run.run(st); err != nil {
		return nil, err
	}
	return arm, nil
}
