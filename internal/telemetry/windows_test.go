package telemetry

import (
	"bytes"
	"testing"
)

func TestWindowsCapturesPerWindowDeltas(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("ops_total")
	g := reg.Gauge("depth")
	h := reg.Histogram("lat_ms", "ms", []float64{10, 100})
	w := NewWindows(reg, WindowsConfig{Width: 2})

	// Window 0: ticks 0 and 1.
	c.Add(3)
	g.Set(7)
	h.Observe(5)
	w.Tick()
	c.Add(2)
	h.Observe(500) // overflow bucket
	reg.Events().Emit("breaker.open")
	w.Tick()

	// Window 1: quiet except one counter bump.
	c.Inc()
	w.Tick()
	w.Tick()

	snap := w.Snapshot()
	if len(snap.Windows) != 2 {
		t.Fatalf("windows = %d, want 2", len(snap.Windows))
	}
	w0 := snap.Windows[0]
	if w0.FromTick != 0 || w0.ToTick != 2 {
		t.Fatalf("window 0 range [%d,%d), want [0,2)", w0.FromTick, w0.ToTick)
	}
	if len(w0.Counters) != 1 || w0.Counters[0].Name != "ops_total" || w0.Counters[0].Value != 5 {
		t.Fatalf("window 0 counters = %+v, want ops_total +5", w0.Counters)
	}
	if len(w0.Gauges) != 1 || w0.Gauges[0].Value != 7 {
		t.Fatalf("window 0 gauges = %+v, want depth 7", w0.Gauges)
	}
	if len(w0.Histograms) != 1 {
		t.Fatalf("window 0 histograms = %+v, want 1", w0.Histograms)
	}
	hw := w0.Histograms[0]
	if hw.Count != 2 || hw.Sum != 505 || hw.Overflow != 1 {
		t.Fatalf("window 0 hist = %+v, want count 2 sum 505 overflow 1", hw)
	}
	if len(hw.Buckets) != 2 || hw.Buckets[0].Count != 1 || hw.Buckets[1].Count != 0 {
		t.Fatalf("window 0 hist buckets = %+v, want [1 0]", hw.Buckets)
	}
	if len(w0.Events) != 1 || w0.Events[0].Name != "breaker.open" || w0.Events[0].Count != 1 {
		t.Fatalf("window 0 events = %+v, want breaker.open +1", w0.Events)
	}

	w1 := snap.Windows[1]
	if w1.FromTick != 2 || w1.ToTick != 4 {
		t.Fatalf("window 1 range [%d,%d), want [2,4)", w1.FromTick, w1.ToTick)
	}
	// Zero deltas are omitted: only the bumped counter appears, the gauge
	// (unchanged) and histogram (no observations) do not.
	if len(w1.Counters) != 1 || w1.Counters[0].Value != 1 {
		t.Fatalf("window 1 counters = %+v, want ops_total +1", w1.Counters)
	}
	if len(w1.Gauges) != 0 || len(w1.Histograms) != 0 || len(w1.Events) != 0 {
		t.Fatalf("window 1 should carry only the counter delta, got %+v", w1)
	}
}

func TestWindowsCloseFinalAndPartialWindow(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("n")
	w := NewWindows(reg, WindowsConfig{Width: 4})
	for i := 0; i < 6; i++ {
		c.Inc()
		w.Tick()
	}
	w.CloseFinal()
	snap := w.Snapshot()
	if len(snap.Windows) != 2 {
		t.Fatalf("windows = %d, want 2 (one full, one partial)", len(snap.Windows))
	}
	if snap.Windows[1].FromTick != 4 || snap.Windows[1].ToTick != 6 {
		t.Fatalf("partial window range [%d,%d), want [4,6)", snap.Windows[1].FromTick, snap.Windows[1].ToTick)
	}
	if snap.Windows[1].Counters[0].Value != 2 {
		t.Fatalf("partial window delta = %d, want 2", snap.Windows[1].Counters[0].Value)
	}
	// CloseFinal on an exact boundary is a no-op.
	w.CloseFinal()
	if got := len(w.Snapshot().Windows); got != 2 {
		t.Fatalf("second CloseFinal grew windows to %d", got)
	}
}

func TestWindowsRingEviction(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("n")
	w := NewWindows(reg, WindowsConfig{Width: 1, Retain: 3})
	for i := 0; i < 10; i++ {
		c.Inc()
		w.Tick()
	}
	snap := w.Snapshot()
	if len(snap.Windows) != 3 {
		t.Fatalf("retained %d windows, want 3", len(snap.Windows))
	}
	if snap.Evicted != 7 {
		t.Fatalf("evicted = %d, want 7", snap.Evicted)
	}
	// Indices stay stable across eviction.
	if snap.Windows[0].Index != 7 || snap.Windows[2].Index != 9 {
		t.Fatalf("retained indices %d..%d, want 7..9", snap.Windows[0].Index, snap.Windows[2].Index)
	}
}

func TestWindowsSnapshotRange(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("n")
	w := NewWindows(reg, WindowsConfig{Width: 2})
	for i := 0; i < 8; i++ {
		c.Inc()
		w.Tick()
	}
	got := w.SnapshotRange(3, 6) // overlaps windows [2,4) and [4,6)
	if len(got.Windows) != 2 {
		t.Fatalf("range [3,6) returned %d windows, want 2", len(got.Windows))
	}
	if got.Windows[0].FromTick != 2 || got.Windows[1].FromTick != 4 {
		t.Fatalf("range windows start at %d and %d, want 2 and 4",
			got.Windows[0].FromTick, got.Windows[1].FromTick)
	}
	// toTick <= 0 means "through the latest tick".
	all := w.SnapshotRange(0, 0)
	if len(all.Windows) != 4 {
		t.Fatalf("open range returned %d windows, want 4", len(all.Windows))
	}
}

func TestWindowsWriteTextDeterministic(t *testing.T) {
	render := func() string {
		reg := NewRegistry()
		c := reg.Counter("b_total")
		d := reg.Counter("a_total")
		h := reg.Histogram("lat_ms", "ms", []float64{1, 10})
		w := NewWindows(reg, WindowsConfig{Width: 1})
		c.Add(2)
		d.Add(9)
		h.Observe(3)
		reg.Events().Emit("x")
		reg.Events().Emit("x")
		w.Tick()
		var buf bytes.Buffer
		w.Snapshot().WriteText(&buf)
		return buf.String()
	}
	a, b := render(), render()
	if a != b {
		t.Fatalf("WriteText not byte-identical:\n%s\nvs\n%s", a, b)
	}
	want := "window 0 ticks [0,1)\n" +
		"  counter a_total +9\n" +
		"  counter b_total +2\n" +
		"  hist lat_ms count=+1 sum=+3.000 overflow=+0 buckets=[0 1]\n" +
		"  event x +2\n"
	if a != want {
		t.Fatalf("WriteText:\n%q\nwant\n%q", a, want)
	}
}

func TestWindowsNilSafe(t *testing.T) {
	var w *Windows
	w.Tick()
	w.CloseFinal()
	if w.Ticks() != 0 || w.Width() != 0 {
		t.Fatal("nil collector should report zero ticks/width")
	}
	if _, ok := w.Latest(); ok {
		t.Fatal("nil collector should have no latest window")
	}
	if got := w.Snapshot(); len(got.Windows) != 0 {
		t.Fatal("nil collector snapshot should be empty")
	}
}
