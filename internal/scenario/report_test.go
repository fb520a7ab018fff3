package scenario

import (
	"bytes"
	"net"
	"reflect"
	"testing"

	"godosn/internal/telemetry"
)

func TestWindowStatsPartitionTheRun(t *testing.T) {
	sc := chaosScenario()
	res, err := Run(sc, RunConfig{Workers: 1, WindowTicks: 4})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	// 30 ticks at width 4: seven full windows plus a [28,30) partial.
	if len(res.WindowStats) != 8 {
		t.Fatalf("windows = %d, want 8", len(res.WindowStats))
	}
	prevEnd := 0
	var reads, ok, writes, surfaced, revokedAttempts int
	var sheds int64
	for i, w := range res.WindowStats {
		if w.Index != i {
			t.Fatalf("window %d has index %d", i, w.Index)
		}
		if w.FromTick != prevEnd {
			t.Fatalf("window %d starts at %d, want %d (contiguous cover)", i, w.FromTick, prevEnd)
		}
		prevEnd = w.ToTick
		reads += w.Reads
		ok += w.OK
		writes += w.Writes
		surfaced += w.SurfacedCorruption
		revokedAttempts += w.RevokedAttempts
		sheds += w.ServerShedsDelta
	}
	if prevEnd != sc.Ticks {
		t.Fatalf("windows cover [0,%d), want [0,%d)", prevEnd, sc.Ticks)
	}
	// Per-window deltas must sum exactly to the whole-run counters.
	if reads != res.Reads || ok != res.OK || writes != res.Writes {
		t.Fatalf("window sums reads/ok/writes = %d/%d/%d, run = %d/%d/%d",
			reads, ok, writes, res.Reads, res.OK, res.Writes)
	}
	if surfaced != res.SurfacedCorruption || revokedAttempts != res.RevokedAttempts {
		t.Fatalf("window sums corruption/revoked = %d/%d, run = %d/%d",
			surfaced, revokedAttempts, res.SurfacedCorruption, res.RevokedAttempts)
	}
	if sheds != res.ServerSheds {
		t.Fatalf("window shed deltas sum %d, run %d", sheds, res.ServerSheds)
	}
	// The registry time-series rides the same clock with the same width.
	if res.Windows.Width != 4 || len(res.Windows.Windows) != 8 {
		t.Fatalf("telemetry windows width=%d count=%d, want 4/8",
			res.Windows.Width, len(res.Windows.Windows))
	}
}

func TestWindowStatsAnnotateActiveEvents(t *testing.T) {
	sc := chaosScenario()
	res, err := Run(sc, RunConfig{Workers: 1, WindowTicks: 4})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	// The byzantine window [13,18) must be annotated onto windows [12,16)
	// and [16,20), and nowhere else.
	hasByz := func(w WindowStat) bool {
		for _, e := range w.Events {
			if e.Kind == KindByzantine {
				return true
			}
		}
		return false
	}
	for _, w := range res.WindowStats {
		want := w.FromTick < 18 && w.ToTick > 13
		if hasByz(w) != want {
			t.Fatalf("window [%d,%d) byzantine annotation = %v, want %v (events %v)",
				w.FromTick, w.ToTick, hasByz(w), want, w.Events)
		}
	}
	// The instant revoke at tick 16 occupies [16,17).
	found := false
	for _, w := range res.WindowStats {
		for _, e := range w.Events {
			if e.Kind == KindRevoke {
				found = true
				if w.FromTick > 16 || w.ToTick <= 16 {
					t.Fatalf("revoke annotated on window [%d,%d), want the one containing tick 16",
						w.FromTick, w.ToTick)
				}
			}
		}
	}
	if !found {
		t.Fatal("instant revoke event not annotated on any window")
	}
}

func TestWindowedSeriesDeterministicAcrossRunsAndWorkers(t *testing.T) {
	run := func(workers int) *Result {
		res, err := Run(chaosScenario(), RunConfig{Workers: workers})
		if err != nil {
			t.Fatalf("run workers=%d: %v", workers, err)
		}
		return res
	}
	a, b, eight := run(1), run(1), run(8)
	if !reflect.DeepEqual(a.WindowStats, b.WindowStats) || !reflect.DeepEqual(a.Windows, b.Windows) {
		t.Fatal("run-twice window series diverged")
	}
	if !reflect.DeepEqual(a.WindowStats, eight.WindowStats) || !reflect.DeepEqual(a.Windows, eight.Windows) {
		t.Fatal("workers 1 vs 8 window series diverged")
	}
	// Rendered forms are byte-identical too.
	renderA, renderB := &bytes.Buffer{}, &bytes.Buffer{}
	a.Windows.WriteText(renderA)
	eight.Windows.WriteText(renderB)
	WriteWindowBreakdown(renderA, a)
	WriteWindowBreakdown(renderB, eight)
	if renderA.String() != renderB.String() {
		t.Fatalf("rendered window reports differ:\n%s\nvs\n%s", renderA, renderB)
	}
	if len(a.Windows.Windows) == 0 {
		t.Fatal("no telemetry windows captured")
	}
}

func TestLocalizePicksFirstCrossingWindow(t *testing.T) {
	ev := ActiveEvent{Kind: KindPartition, Tick: 8, End: 16}
	windows := []WindowStat{
		{Index: 0, FromTick: 0, ToTick: 4, Reads: 40, OK: 40, ReadP99MS: 30,
			CumServedRate: 1.0, CumP99MS: 30},
		{Index: 1, FromTick: 4, ToTick: 8, Reads: 40, OK: 39, NotFound: 1, ReadP99MS: 35,
			CumServedRate: 1.0, CumP99MS: 35},
		{Index: 2, FromTick: 8, ToTick: 12, Reads: 40, OK: 20, Failed: 20, ReadP99MS: 220,
			CumServedRate: 100.0 / 120, CumP99MS: 150,
			SurfacedCorruption: 3, Events: []ActiveEvent{ev}},
		{Index: 3, FromTick: 12, ToTick: 16, Reads: 40, OK: 18, Failed: 22, ReadP99MS: 240,
			CumServedRate: 118.0 / 160, CumP99MS: 200,
			SurfacedCorruption: 3, Events: []ActiveEvent{ev}},
	}
	sc := &Scenario{Invariants: []Invariant{
		{Kind: InvLookupSuccessMin, Value: 0.9},
		{Kind: InvP99MaxMS, Value: 100},
		{Kind: InvMaxSurfacedCorruption, Value: 4},
	}}
	res := &Result{WindowStats: windows}
	violations := []Violation{
		{Kind: string(InvLookupSuccessMin)},
		{Kind: string(InvP99MaxMS)},
		{Kind: string(InvMaxSurfacedCorruption)},
		{Kind: "expect"}, // no windowed backing metric: skipped
	}
	guilty := Localize(sc, res, violations)
	if len(guilty) != 3 {
		t.Fatalf("localized %d findings, want 3: %v", len(guilty), guilty)
	}
	// The cumulative served rate and cumulative p99 cross their thresholds
	// in window 2 and never recover; cumulative corruption (3+3 > 4) first
	// exceeds the cap in window 3.
	if guilty[0].Index != 2 || !guilty[0].Exact || guilty[0].Invariant != InvLookupSuccessMin {
		t.Fatalf("success-floor guilty = %+v, want exact window 2", guilty[0])
	}
	if guilty[1].Index != 2 || !guilty[1].Exact {
		t.Fatalf("p99 guilty = %+v, want exact window 2", guilty[1])
	}
	if guilty[2].Index != 3 || !guilty[2].Exact {
		t.Fatalf("corruption guilty = %+v, want exact window 3", guilty[2])
	}
	if len(guilty[0].Events) != 1 || guilty[0].Events[0].Kind != KindPartition {
		t.Fatalf("guilty window events = %v, want the partition", guilty[0].Events)
	}
}

func TestLocalizeAggregateViolationNamesWorstWindow(t *testing.T) {
	// The cumulative series never dips below the floor at any window close
	// (the violation only materialized in the whole-run aggregate): the
	// worst single window is reported, marked inexact.
	windows := []WindowStat{
		{Index: 0, FromTick: 0, ToTick: 4, Reads: 40, OK: 38, Failed: 2,
			CumServedRate: 38.0 / 40},
		{Index: 1, FromTick: 4, ToTick: 8, Reads: 40, OK: 36, Failed: 4,
			CumServedRate: 74.0 / 80},
		{Index: 2, FromTick: 8, ToTick: 12, Reads: 40, OK: 38, Failed: 2,
			CumServedRate: 112.0 / 120},
	}
	sc := &Scenario{Invariants: []Invariant{{Kind: InvLookupSuccessMin, Value: 0.9}}}
	guilty := Localize(sc, &Result{WindowStats: windows}, []Violation{{Kind: string(InvLookupSuccessMin)}})
	if len(guilty) != 1 {
		t.Fatalf("localized %d findings, want 1", len(guilty))
	}
	if guilty[0].Exact || guilty[0].Index != 1 {
		t.Fatalf("aggregate guilty = %+v, want inexact worst window 1", guilty[0])
	}
}

func TestReplayLocalizesSeededFailure(t *testing.T) {
	replay := func() *ReplayReport {
		rep, err := Replay(SeededFailure())
		if err != nil {
			t.Fatalf("replay: %v", err)
		}
		return rep
	}
	a := replay()
	if !a.Failed() {
		t.Fatal("seeded failure passed")
	}
	if len(a.Guilty) == 0 {
		t.Fatal("failing replay produced no guilty windows")
	}
	g := a.Guilty[0]
	if g.Invariant != InvLookupSuccessMin {
		t.Fatalf("guilty invariant = %s, want %s", g.Invariant, InvLookupSuccessMin)
	}
	// The fatal partition runs [22,42); the guilty window must overlap it
	// and carry the partition among its suspects.
	if g.ToTick <= 22 || g.FromTick >= 42 {
		t.Fatalf("guilty window [%d,%d) does not overlap the partition [22,42)", g.FromTick, g.ToTick)
	}
	foundPartition := false
	for _, e := range g.Events {
		if e.Kind == KindPartition {
			foundPartition = true
		}
	}
	if !foundPartition {
		t.Fatalf("guilty window events %v do not name the partition", g.Events)
	}
	// Localization is deterministic: a second replay reports the identical
	// findings.
	b := replay()
	if !reflect.DeepEqual(a.Guilty, b.Guilty) {
		t.Fatalf("guilty findings diverged across replays:\n%v\nvs\n%v", a.Guilty, b.Guilty)
	}
}

func TestTraceSinkBackpressureDoesNotPerturbRun(t *testing.T) {
	// Reference run: no trace.
	plain, err := Run(chaosScenario(), RunConfig{Workers: 1})
	if err != nil {
		t.Fatalf("plain run: %v", err)
	}
	// Traced run against a stalled reader: a 1-deep queue with nothing
	// draining it, so nearly every record drops.
	client, server := net.Pipe()
	sink := telemetry.NewConnSink(client, 1)
	traced, err := Run(chaosScenario(), RunConfig{Workers: 1, Trace: sink})
	server.Close() // unblock the writer goroutine
	_ = sink.Close()
	if err != nil {
		t.Fatalf("traced run: %v", err)
	}
	if sink.Dropped() == 0 {
		t.Fatal("stalled reader produced no drops — backpressure path untested")
	}
	// Every Result field — digest, latencies, telemetry snapshot, window
	// series — is identical: the sink never blocks and never feeds back.
	if !reflect.DeepEqual(plain, traced) {
		t.Fatalf("trace sink perturbed the run:\n%+v\nvs\n%+v", plain, traced)
	}
}
