package scenario

import (
	"fmt"
	"sort"

	"godosn/internal/resilience/scrub"
	"godosn/internal/telemetry"
)

// fnv-64a fold for the outcome digest.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fold(h uint64, b []byte) uint64 {
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	return h
}

func foldStr(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// snapBase captures the current counters as the next window's baseline.
func (st *runState) snapBase() {
	r := st.res
	st.winBase = windowBase{
		writes: r.Writes, writeFailures: r.WriteFailures,
		reads: r.Reads, ok: r.OK, notFound: r.NotFound,
		falseNF: r.FalseNotFound, failed: r.Failed,
		surfaced:    r.SurfacedCorruption,
		memberOpens: r.MemberOpens, memberFails: r.MemberOpenFailures,
		revokedAttempts: r.RevokedAttempts, revokedOpens: r.RevokedOpens,
		latLen: len(r.ReadLatencyMS),
		sheds:  st.d.NodeShedTotal(),
	}
}

// closeWindow appends the WindowStat for ticks [winFrom, toTick) by
// diffing the live counters against the window-start baseline, then
// re-baselines for the next window.
func (st *runState) closeWindow(toTick int) {
	r, b := st.res, st.winBase
	w := WindowStat{
		Index:              len(r.WindowStats),
		FromTick:           st.winFrom,
		ToTick:             toTick,
		Writes:             r.Writes - b.writes,
		WriteFailures:      r.WriteFailures - b.writeFailures,
		Reads:              r.Reads - b.reads,
		OK:                 r.OK - b.ok,
		NotFound:           r.NotFound - b.notFound,
		FalseNotFound:      r.FalseNotFound - b.falseNF,
		Failed:             r.Failed - b.failed,
		SurfacedCorruption: r.SurfacedCorruption - b.surfaced,
		MemberOpens:        r.MemberOpens - b.memberOpens,
		MemberOpenFailures: r.MemberOpenFailures - b.memberFails,
		RevokedAttempts:    r.RevokedAttempts - b.revokedAttempts,
		RevokedOpens:       r.RevokedOpens - b.revokedOpens,
		ReadP99MS:          pctl(r.ReadLatencyMS[b.latLen:], 0.99),
		CumServedRate:      r.ServedRate(),
		CumP99MS:           pctl(r.ReadLatencyMS, 0.99),
		ServerShedsDelta:   st.d.NodeShedTotal() - b.sheds,
		Events:             activeIn(st.eventsSorted, st.winFrom, toTick),
	}
	r.WindowStats = append(r.WindowStats, w)
	st.winFrom = toTick
	st.snapBase()
}

// auditFinal counts, after the last tick, stored copies of written keys
// that fail the integrity check (the detect-or-repair witness) and written
// keys that some holder of their replica plan does not hold (the
// replication witness). Network-free: it inspects node-local state
// directly.
func (st *runState) auditFinal() {
	for _, key := range st.writtenOrder {
		for _, id := range st.names {
			if v, ok := st.d.StoredCopy(string(id), key); ok && scrub.Check(key, v) != nil {
				st.res.FinalCorruptCopies++
			}
		}
		for _, name := range st.d.PlanReplicas(key) {
			if !st.d.Holds(name, key) {
				st.res.FinalUnderReplicated++
				break
			}
		}
	}
}

// finish folds the layers' final counters into the Result, closes the
// time-series, runs the end-of-run audit, and flushes the trace sink. The
// audit runs after the registry snapshot: its replica plans hash keys, and
// that is the runtime's work, not the stack's.
func (st *runState) finish(rc RunConfig, reg *telemetry.Registry) *Result {
	kv, d, res := st.kv, st.d, st.res
	res.DetectedCorruption = kv.Metrics().CorruptReads
	res.ServerShedsByNode = d.NodeSheds()
	res.ServerSheds = d.NodeShedTotal()
	st.win.CloseFinal()
	res.Windows = st.win.Snapshot()
	res.Telemetry = reg.Snapshot()
	st.auditFinal()
	if rc.Trace != nil {
		rc.Trace.Windows(res.Windows)
		rc.Trace.Snapshot(res.Telemetry)
		rc.Trace.Note("scenario.end",
			telemetry.A("digest", fmt.Sprintf("%016x", res.Digest)),
			telemetry.A("reads", fmt.Sprintf("%d", res.Reads)),
			telemetry.A("writes", fmt.Sprintf("%d", res.Writes)))
		reg.Events().SetSink(nil)
	}
	return res
}

// Violation is one failed replay check.
type Violation struct {
	// Kind is the invariant kind, or "expect" / "determinism" for the
	// other check families.
	Kind string
	// Detail states measured-vs-required.
	Detail string
}

func (v Violation) String() string { return fmt.Sprintf("%s: %s", v.Kind, v.Detail) }

// pctl is the q-quantile (nearest-rank) of values.
func pctl(values []float64, q float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// ServedRate is (OK + honest not-found) / reads — the availability measure
// the success-floor invariant checks. A miss answered by a live replica is
// served; only availability failures count against the floor.
func (r *Result) ServedRate() float64 {
	if r.Reads == 0 {
		return 1
	}
	return float64(r.OK+r.NotFound) / float64(r.Reads)
}

// P99MS is the 99th-percentile simulated read latency in milliseconds.
func (r *Result) P99MS() float64 { return pctl(r.ReadLatencyMS, 0.99) }

// Evaluate checks the scenario's invariants against a run result.
func Evaluate(sc *Scenario, res *Result) []Violation {
	var out []Violation
	add := func(kind InvariantKind, format string, args ...any) {
		out = append(out, Violation{Kind: string(kind), Detail: fmt.Sprintf(format, args...)})
	}
	for _, inv := range sc.Invariants {
		switch inv.Kind {
		case InvLookupSuccessMin:
			if rate := res.ServedRate(); rate < inv.Value {
				add(inv.Kind, "served %.4f < floor %g (%d ok + %d miss of %d reads; %d false not-found, %d failed)",
					rate, inv.Value, res.OK, res.NotFound, res.Reads, res.FalseNotFound, res.Failed)
			}
		case InvP99MaxMS:
			if p99 := res.P99MS(); p99 > inv.Value {
				add(inv.Kind, "p99 %.1fms > ceiling %gms", p99, inv.Value)
			}
		case InvMaxSurfacedCorruption:
			if res.SurfacedCorruption > int(inv.Value) {
				add(inv.Kind, "surfaced %d corrupt reads > cap %d", res.SurfacedCorruption, int(inv.Value))
			}
		case InvServerShedsMin:
			if res.ServerSheds < int64(inv.Value) {
				add(inv.Kind, "server sheds %d < floor %d", res.ServerSheds, int64(inv.Value))
			}
		case InvNoRevokedOpens:
			if res.RevokedOpens > 0 {
				add(inv.Kind, "%d post-revocation opens by revoked members", res.RevokedOpens)
			}
		case InvNoMemberOpenFailures:
			if res.MemberOpenFailures > 0 {
				add(inv.Kind, "%d current-member decrypt failures", res.MemberOpenFailures)
			}
		case InvScrubRepairedMin:
			if res.SweepRepaired < int(inv.Value) {
				add(inv.Kind, "sweep repaired %d copies < floor %d (%d divergent detected)",
					res.SweepRepaired, int(inv.Value), res.SweepDivergent)
			}
		case InvFinalCorruptMax:
			if res.FinalCorruptCopies > int(inv.Value) {
				add(inv.Kind, "final audit found %d corrupt stored copies > cap %d (%d rot injected)",
					res.FinalCorruptCopies, int(inv.Value), res.RotInjected)
			}
		case InvSweepBudgetMsgsMax:
			if res.SweepMaxTickMsgs > int(inv.Value) {
				add(inv.Kind, "worst sweep tick spent %d msgs > budget %d",
					res.SweepMaxTickMsgs, int(inv.Value))
			}
		case InvFinalUnderReplicatedMax:
			if res.FinalUnderReplicated > int(inv.Value) {
				add(inv.Kind, "final audit found %d written keys missing from a holder of their replica plan > cap %d",
					res.FinalUnderReplicated, int(inv.Value))
			}
		}
	}
	return out
}

// CheckExpect compares a run against the pinned capture counters.
func (s *Scenario) CheckExpect(res *Result) []Violation {
	if s.Expect == nil {
		return nil
	}
	e, got := s.Expect, res.expect()
	var out []Violation
	if got.Digest != e.Digest {
		out = append(out, Violation{Kind: "expect", Detail: fmt.Sprintf("digest %016x != recorded %016x", got.Digest, e.Digest)})
	}
	for _, c := range []struct {
		name      string
		got, want int
	}{
		{"writes", got.Writes, e.Writes},
		{"reads", got.Reads, e.Reads},
		{"not-found", got.NotFound, e.NotFound},
		{"failed", got.Failed, e.Failed},
		{"detected", got.Detected, e.Detected},
		{"repaired", got.Repaired, e.Repaired},
	} {
		if c.got != c.want {
			out = append(out, Violation{Kind: "expect", Detail: fmt.Sprintf("%s %d != recorded %d", c.name, c.got, c.want)})
		}
	}
	return out
}

// expect pins the run's counters as a scenario's expect line.
func (r *Result) expect() *Expect {
	return &Expect{
		Digest:   r.Digest,
		Writes:   r.Writes,
		Reads:    r.Reads,
		NotFound: r.NotFound,
		Failed:   r.Failed,
		Detected: r.DetectedCorruption,
		Repaired: r.HealRepaired + r.SweepRepaired,
	}
}
