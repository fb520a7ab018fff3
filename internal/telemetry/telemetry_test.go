package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops_total")
	c.Inc()
	c.Add(4)
	c.Add(-7) // ignored: counters only go up
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("ops_total") != c {
		t.Fatalf("Counter is not get-or-create")
	}
	g := r.Gauge("quarantined")
	g.Set(3)
	g.Set(2)
	if got := g.Value(); got != 2 {
		t.Fatalf("gauge = %g, want 2", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_ms", "ms", []float64{1, 10, 100})
	h.Observe(0.5)                           // bucket le=1
	h.Observe(1)                             // bucket le=1 (inclusive)
	h.Observe(7)                             // bucket le=10
	h.Observe(1000)                          // overflow
	h.ObserveDuration(50 * time.Millisecond) // bucket le=100
	if got := h.Count(); got != 5 {
		t.Fatalf("count = %d, want 5", got)
	}
	snap := r.Snapshot()
	if len(snap.Histograms) != 1 {
		t.Fatalf("histograms = %d, want 1", len(snap.Histograms))
	}
	hv := snap.Histograms[0]
	wantCounts := []int64{2, 1, 1}
	for i, b := range hv.Buckets {
		if b.Count != wantCounts[i] {
			t.Fatalf("bucket %d (le %g) = %d, want %d", i, b.LE, b.Count, wantCounts[i])
		}
	}
	if hv.Overflow != 1 {
		t.Fatalf("overflow = %d, want 1", hv.Overflow)
	}
	if hv.Max != 1000 {
		t.Fatalf("max = %g, want 1000", hv.Max)
	}
}

func TestSnapshotSortedAndJSONRoundTrips(t *testing.T) {
	r := NewRegistry()
	r.Counter("zz").Inc()
	r.Counter("aa").Add(2)
	r.Gauge("mid").Set(1.5)
	r.Histogram("h", "ms", LatencyBuckets()).Observe(3)
	r.Events().Emit("breaker.open", A("node", "n1"))
	snap := r.Snapshot()
	if snap.Counters[0].Name != "aa" || snap.Counters[1].Name != "zz" {
		t.Fatalf("counters not sorted: %+v", snap.Counters)
	}
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if len(back.Counters) != 2 || back.Events[0].Name != "breaker.open" {
		t.Fatalf("round trip lost data: %+v", back)
	}
}

func TestWriteTextDeterministic(t *testing.T) {
	build := func() string {
		r := NewRegistry()
		r.Counter("b_total").Add(2)
		r.Counter("a_total").Inc()
		r.Histogram("lat_ms", "ms", []float64{1, 10}).Observe(5)
		r.Events().Emit("scrub.repair", A("node", "n2"))
		var buf bytes.Buffer
		r.WriteText(&buf)
		return buf.String()
	}
	if a, b := build(), build(); a != b {
		t.Fatalf("WriteText not deterministic:\n%s\nvs\n%s", a, b)
	}
}

func TestSpanTree(t *testing.T) {
	root := NewSpan("lookup")
	root.Tag("key", "k7")
	a := root.Child("attempt")
	a.Tag("n", "1")
	a.AddLatency(10 * time.Millisecond)
	h := a.Child("hedge")
	h.AddLatency(20 * time.Millisecond)
	h.End("ok")
	v := a.Child("verify")
	v.End("ok")
	a.End("ok")
	root.End("ok")

	if got := root.Total(); got != 30*time.Millisecond {
		t.Fatalf("total = %v, want 30ms", got)
	}
	lat, count := root.PhaseTotals()
	if lat["attempt"] != 10*time.Millisecond || lat["hedge"] != 20*time.Millisecond {
		t.Fatalf("phase totals wrong: %v", lat)
	}
	if count["verify"] != 1 {
		t.Fatalf("verify count = %d, want 1", count["verify"])
	}
	var buf bytes.Buffer
	root.Render(&buf)
	out := buf.String()
	for _, want := range []string{"lookup key=k7 [ok] 30ms", "attempt n=1", "hedge [ok] 20ms", "verify [ok]"} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestNilSpanIsSafe(t *testing.T) {
	var s *Span
	c := s.Child("x")
	if c != nil {
		t.Fatalf("nil span Child = %v, want nil", c)
	}
	s.Tag("k", "v")
	s.AddLatency(time.Second)
	s.End("ok")
	s.Adopt(NewSpan("y"))
	if s.Total() != 0 {
		t.Fatalf("nil span Total != 0")
	}
	s.Walk(func(int, *Span) { t.Fatalf("nil span walked a node") })
}

func TestSpanAdoptOrders(t *testing.T) {
	root := NewSpan("pass")
	first, second := NewSpan("group"), NewSpan("group")
	first.Tag("i", "0")
	second.Tag("i", "1")
	root.Adopt(first)
	root.Adopt(second)
	if root.Children[0] != first || root.Children[1] != second {
		t.Fatalf("Adopt did not preserve order")
	}
}

func TestEventLogRingAndCounts(t *testing.T) {
	l := NewLog()
	for i := 0; i < 5; i++ {
		l.Emit("e", A("i", fmt.Sprint(i)))
	}
	l.Emit("other")
	counts := l.Counts()
	if len(counts) != 2 || counts[0].Name != "e" || counts[0].Count != 5 {
		t.Fatalf("counts wrong: %+v", counts)
	}
}

func TestEventSink(t *testing.T) {
	l := NewLog()
	var seen []Event
	l.SetSink(func(e Event) { seen = append(seen, Event{Seq: e.Seq, Name: e.Name, Attrs: slices.Clone(e.Attrs)}) })
	l.Emit("a", A("k", "1"))
	l.Emit("b")
	want := []Event{{Seq: 1, Name: "a", Attrs: []Attr{A("k", "1")}}, {Seq: 2, Name: "b", Attrs: []Attr{}}}
	if !reflect.DeepEqual(seen, want) {
		t.Fatalf("sink saw %+v, want %+v", seen, want)
	}

	// Emitting allocates nothing, with or without a sink: the attributes
	// are copied into the log's own array, so the argument list stays on
	// the caller's stack.
	var n int
	l.SetSink(func(Event) { n++ })
	key, to := "k", "n1"
	emit := func() { l.Emit("scrub.repair", A("key", key), A("to", to), A("ok", "true")) }
	if avg := testing.AllocsPerRun(100, emit); avg != 0 || n == 0 {
		t.Fatalf("Emit with a sink allocates %.1f objects (sink ran %d times), want 0", avg, n)
	}
	l.SetSink(nil)
	if avg := testing.AllocsPerRun(100, emit); avg != 0 {
		t.Fatalf("Emit without a sink allocates %.1f objects, want 0", avg)
	}
}

func TestNilLogEmitIsSafe(t *testing.T) {
	var l *Log
	l.Emit("nothing") // must not panic
}

// TestRegistryRaceHammer drives every registry surface from many
// goroutines at once; run under -race this is the registry's thread-safety
// proof (make ci runs the race detector).
func TestRegistryRaceHammer(t *testing.T) {
	r := NewRegistry()
	const workers, iters = 8, 500
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				r.Counter("shared_total").Inc()
				r.Counter(fmt.Sprintf("own_%d_total", w)).Add(2)
				r.Gauge("g").Set(float64(i))
				r.Histogram("lat_ms", "ms", LatencyBuckets()).Observe(float64(i % 50))
				r.Events().Emit("hammer", A("w", fmt.Sprint(w)))
				if i%100 == 0 {
					_ = r.Snapshot()
					var buf bytes.Buffer
					r.WriteText(&buf)
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("shared_total").Value(); got != workers*iters {
		t.Fatalf("shared counter = %d, want %d", got, workers*iters)
	}
	if got := r.Histogram("lat_ms", "ms", nil).Count(); got != workers*iters {
		t.Fatalf("histogram count = %d, want %d", got, workers*iters)
	}
	if got := r.Events().Counts(); len(got) != 1 || got[0] != (EventCount{Name: "hammer", Count: workers * iters}) {
		t.Fatalf("event counts = %+v, want hammer=%d", got, workers*iters)
	}
}
