package telemetry

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
	"unsafe"
)

// feed sends the same observations to a registry either straight onto its
// instruments or spread round-robin over shards of them.
func feed(r *Registry, shards int) {
	c := r.Counter("msgs_total")
	h := r.Histogram("delay_ms", "ms", LatencyBuckets())
	cs, hs := []*Counter{c}, []*Histogram{h}
	if shards > 0 {
		cs, hs = nil, nil
		for i := 0; i < shards; i++ {
			cs = append(cs, c.Shard())
			hs = append(hs, h.Shard())
		}
	}
	for i := 0; i < 5000; i++ {
		cs[i%len(cs)].Add(int64(1 + i%7))
		// Quarter-millisecond steps up past the last bound: sums stay
		// exact in float64, so fold order cannot show in the last bit.
		hs[i%len(hs)].Observe(float64(i*37%12000) * 0.25)
	}
}

func render(t *testing.T, r *Registry) (string, string) {
	t.Helper()
	snap := r.Snapshot()
	js, err := json.Marshal(snap)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	var text bytes.Buffer
	snap.WriteText(&text)
	return string(js), text.String()
}

func TestShardsRenderLikeOneInstrument(t *testing.T) {
	plain, sharded := NewRegistry(), NewRegistry()
	feed(plain, 0)
	feed(sharded, 7)
	wantJSON, wantText := render(t, plain)
	gotJSON, gotText := render(t, sharded)
	if gotJSON != wantJSON {
		t.Fatalf("sharded Snapshot JSON differs:\n got %s\nwant %s", gotJSON, wantJSON)
	}
	if gotText != wantText {
		t.Fatalf("sharded WriteText differs:\n got %s\nwant %s", gotText, wantText)
	}
	h := sharded.Histogram("delay_ms", "ms", nil)
	if h.Count() != 5000 || sharded.Counter("msgs_total").Value() == 0 {
		t.Fatalf("parent accessors do not fold shards: count=%d", h.Count())
	}

	sharded.Reset()
	empty := NewRegistry()
	empty.Counter("msgs_total")
	empty.Histogram("delay_ms", "ms", LatencyBuckets())
	wantJSON, _ = render(t, empty)
	if gotJSON, _ = render(t, sharded); gotJSON != wantJSON {
		t.Fatalf("Registry.Reset left shard state behind: %s", gotJSON)
	}
}

func TestShardsSitOnTheirOwnCacheLines(t *testing.T) {
	c := new(Counter)
	h := NewRegistry().Histogram("h", "ms", LatencyBuckets())
	for i := 0; i < 8; i++ {
		if p := uintptr(unsafe.Pointer(c.Shard())); p%cacheLine != 0 {
			t.Fatalf("counter shard at %#x is not cache-line aligned", p)
		}
		hs := h.Shard()
		if p := uintptr(unsafe.Pointer(hs)); p%cacheLine != 0 {
			t.Fatalf("histogram shard at %#x is not cache-line aligned", p)
		}
		if p := uintptr(unsafe.Pointer(&hs.counts[0])); p%cacheLine != 0 || cap(hs.counts)*8%cacheLine != 0 {
			t.Fatalf("histogram shard buckets at %#x (cap %d) share a cache line", p, cap(hs.counts))
		}
	}
}

func TestShardWritesAllocateNothing(t *testing.T) {
	c := new(Counter).Shard()
	h := NewRegistry().Histogram("h", "ms", LatencyBuckets()).Shard()
	if avg := testing.AllocsPerRun(1000, func() {
		c.Inc()
		h.Observe(12.5)
	}); avg != 0 {
		t.Fatalf("shard writes allocate %.1f objects, want 0", avg)
	}
}

func TestGaugeSetMaxKeepsTheHighWaterMark(t *testing.T) {
	g := new(Gauge)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				g.SetMax(float64(w*1000 + i))
			}
		}(w)
	}
	wg.Wait()
	if got := g.Value(); got != 7999 {
		t.Fatalf("gauge = %g, want 7999", got)
	}
	g.SetMax(3)
	if got := g.Value(); got != 7999 {
		t.Fatalf("SetMax lowered the gauge to %g", got)
	}
}
