// Package bench is the experiment harness: it regenerates, as printed
// tables, every experiment in DESIGN.md's per-experiment index (E1–E25).
//
// The paper is a survey with one classification table and no measurements;
// each experiment here quantifies one slice of that classification or one
// qualitative claim from the text (see EXPERIMENTS.md for the paper-claim vs
// measured-result record). All experiments are deterministic given their
// seeds.
package bench

import (
	"fmt"
	"io"
	"strings"

	"godosn/internal/telemetry"
)

// Table is one experiment's output.
type Table struct {
	// ID is the experiment identifier (e.g. "E1").
	ID string
	// Title describes the experiment.
	Title string
	// Header names the columns.
	Header []string
	// Rows are the data rows.
	Rows [][]string
	// Notes carry caveats and claim checks.
	Notes []string
	// Metrics are machine-readable named values for the -json report, so
	// the perf trajectory can be tracked across revisions.
	Metrics []Metric
	// Telemetry, when an experiment ran instrumented, is the registry
	// snapshot (counters, histograms, event counts) exported in the -json
	// report's telemetry section.
	Telemetry *telemetry.Snapshot
}

// Metric is one machine-readable measurement of an experiment.
type Metric struct {
	// Name identifies the measurement (e.g. "revoke_speedup").
	Name string `json:"name"`
	// Unit is the measurement unit (e.g. "ns/op", "msg", "bytes", "x").
	Unit string `json:"unit"`
	// Value is the measured value.
	Value float64 `json:"value"`
}

// AddRow appends a data row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// AddNote appends a note line.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// AddMetric records a machine-readable measurement for the -json report.
func (t *Table) AddMetric(name, unit string, value float64) {
	t.Metrics = append(t.Metrics, Metric{Name: name, Unit: unit, Value: value})
}

// Render writes the table in aligned plain text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "\n%s — %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = padCell(c, widths[i])
		}
		fmt.Fprintf(w, "  %s\n", strings.Join(parts, "  "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

func padCell(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Experiment is a runnable harness entry.
type Experiment struct {
	// ID is the experiment identifier, lowercase (e.g. "e1").
	ID string
	// Description summarizes it for the CLI.
	Description string
	// Run executes the experiment. Quick mode shrinks parameters for CI.
	Run func(quick bool) (*Table, error)
}

// All returns the experiment registry in order.
func All() []Experiment {
	return []Experiment{
		{ID: "e1", Description: "privacy schemes: encrypt/decrypt cost", Run: E1PrivacyCost},
		{ID: "e2", Description: "privacy schemes: join/leave/revocation cost", Run: E2MembershipCost},
		{ID: "e3", Description: "privacy schemes: ciphertext size vs group size", Run: E3CiphertextSize},
		{ID: "e4", Description: "integrity mechanisms: operation cost", Run: E4IntegrityCost},
		{ID: "e5", Description: "fork detection latency vs gossip rate", Run: E5ForkDetection},
		{ID: "e6", Description: "overlay architectures: lookup hops/messages", Run: E6OverlayLookup},
		{ID: "e7", Description: "availability vs replication factor and uptime", Run: E7Availability},
		{ID: "e8", Description: "secure search schemes: cost and leakage", Run: E8SearchSchemes},
		{ID: "e9", Description: "trust-chain ranking quality", Run: E9TrustRanking},
		{ID: "e10", Description: "Hummingbird blind-sub and OPRF dissemination cost", Run: E10Hummingbird},
		{ID: "e11", Description: "provider knowledge: centralized vs mitigations vs DOSN", Run: E11ProviderKnowledge},
		{ID: "e12", Description: "Cuckoo hybrid control overlay ablation (popular vs rare items)", Run: E12CuckooAblation},
		{ID: "e13", Description: "Sybil resistance of trust-chain vs popularity ranking", Run: E13SybilResistance},
		{ID: "e14", Description: "PAD ACL logarithmic access vs linear list scan", Run: E14ACLAccess},
		{ID: "e15", Description: "Vis-a-vis location tree region-query scalability", Run: E15LocationTree},
		{ID: "e16", Description: "replica placement policy ablation (random/friends/proxies)", Run: E16PlacementAblation},
		{ID: "e17", Description: "resilience layer: availability and cost under loss + churn", Run: E17Resilience},
		{ID: "e18", Description: "parallel execution: serial vs worker-pool revocation", Run: E18Parallelism},
		{ID: "e19", Description: "integrity scrubber: corruption containment under loss + churn + Byzantine replies", Run: E19ChaosScrub},
		{ID: "e20", Description: "telemetry: per-phase latency breakdown (lookup/verify/repair) under E17/E19 conditions", Run: E20PhaseBreakdown},
		{ID: "e21", Description: "hot-path read caches: cold vs warm Zipf workload, coherence under writes/faults/revocation", Run: E21CacheAcceleration},
		{ID: "e22", Description: "overload: flash crowd on one replica — bare stack vs health-ranked replica selection", Run: E22FlashCrowd},
		{ID: "e23", Description: "scale: streaming 10k→1M-user workload — sequential vs route-grouped batched transport, flat-memory check", Run: E23ScaleSweep},
		{ID: "e24", Description: "chaos scenarios: record/replay library sweep with invariants, delta-debugging minimizer convergence", Run: E24ScenarioLibrary},
		{ID: "e25", Description: "windowed telemetry: guilty-window localization of an injected mid-run byzantine fault, byte-identical report", Run: E25GuiltyWindow},
		{ID: "e26", Description: "batched anti-entropy: scrub+heal message cost per key, per-key vs batched maintenance RPCs under 10% bit rot", Run: E26BatchedAntiEntropy},
	}
}

// Find returns the experiment with the given id.
func Find(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
