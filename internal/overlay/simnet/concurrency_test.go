package simnet

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"godosn/internal/telemetry"
)

// echoRing registers size echo nodes named node-<i>.
func echoRing(tb testing.TB, n *Network, size int) []NodeID {
	tb.Helper()
	nodes := make([]NodeID, size)
	for i := range nodes {
		nodes[i] = NodeID(fmt.Sprintf("node-%d", i))
		if err := n.Register(nodes[i], echoHandler()); err != nil {
			tb.Fatalf("Register: %v", err)
		}
	}
	return nodes
}

// checkLedgers asserts the three views of the same traffic agree: what the
// callers' traces saw, the network's own totals, and the registry.
func checkLedgers(t *testing.T, n *Network, reg *telemetry.Registry, traces []*Trace) {
	t.Helper()
	var want Trace
	for _, tr := range traces {
		want.Add(tr)
	}
	if got := n.Totals(); got != want {
		t.Fatalf("Totals = %+v, callers' traces sum to %+v", got, want)
	}
	for name, v := range map[string]int{
		"simnet_messages_total": want.Messages,
		"simnet_bytes_total":    want.Bytes,
		"simnet_rpcs_total":     want.Hops,
	} {
		if got := reg.Counter(name).Value(); got != int64(v) {
			t.Fatalf("%s = %d, want %d", name, got, v)
		}
	}
	if got := reg.Histogram("simnet_delay_ms", "ms", telemetry.LatencyBuckets()).Count(); got != int64(want.Messages) {
		t.Fatalf("simnet_delay_ms count = %d, want %d", got, want.Messages)
	}
}

// TestHammerKeepsLedgersExact drives the message path from ten goroutines
// (eight origins of their own, two sharing one) while every fault injector
// and Register run beside them, then repeats on a quiet network where every
// number is known in advance. Meant for -race.
func TestHammerKeepsLedgersExact(t *testing.T) {
	perCaller := 50_000
	if testing.Short() {
		perCaller = 5_000
	}
	const ring, callers = 48, 10
	n := New(Config{Seed: 3, BaseLatency: 10 * time.Millisecond})
	reg := telemetry.NewRegistry()
	n.SetTelemetry(reg)
	nodes := echoRing(t, n, ring)
	origin := func(c int) NodeID {
		if c >= 8 {
			return nodes[8] // the last two callers share an origin
		}
		return nodes[c]
	}
	hammer := func(rpcs int) []*Trace {
		traces := make([]*Trace, callers)
		var wg sync.WaitGroup
		for c := 0; c < callers; c++ {
			traces[c] = &Trace{}
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				msg := Message{Kind: "echo", Size: 64}
				for i := 0; i < rpcs; i++ {
					_, _ = n.RPC(traces[c], origin(c), nodes[1+(c+i)%(ring-1)], msg)
				}
			}(c)
		}
		wg.Wait()
		return traces
	}

	stop := make(chan struct{})
	churned := make(chan struct{})
	go func() {
		defer close(churned)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			victim := nodes[20+i%(ring-20)]
			switch i % 7 {
			case 0:
				_ = n.SetOnline(victim, i%2 == 0)
			case 1:
				_ = n.SetPartition(victim, i%3)
			case 2:
				n.SetLossRate(float64(i%2) * 0.05)
			case 3:
				_ = n.SetByzantine(victim, ByzantineConfig{Mode: ByzMode(i % 5), Rate: 0.5, Seed: int64(i)})
			case 4:
				_ = n.SetCapacity(victim, CapacityConfig{PerTick: (i % 3) * 4, QueueDepth: 2})
			case 5:
				n.TickCapacity()
			case 6:
				if i < 7*64 {
					_ = n.Register(NodeID(fmt.Sprintf("late-%d", i)), echoHandler())
				}
			}
		}
	}()
	traces := hammer(perCaller)
	close(stop)
	<-churned
	checkLedgers(t, n, reg, traces)

	// Quiet network: every fault cleared, every call must succeed.
	n.SetLossRate(0)
	for _, id := range nodes {
		_ = n.SetOnline(id, true)
		_ = n.SetPartition(id, 0)
		_ = n.SetByzantine(id, ByzantineConfig{})
		_ = n.SetCapacity(id, CapacityConfig{})
	}
	n.ResetTotals()
	reg = telemetry.NewRegistry()
	n.SetTelemetry(reg)
	const quiet = 2_000
	traces = hammer(quiet)
	checkLedgers(t, n, reg, traces)
	want := Trace{Hops: callers * quiet, Messages: 2 * callers * quiet, Bytes: 2 * 64 * callers * quiet,
		Latency: 2 * callers * quiet * 10 * time.Millisecond}
	if got := n.Totals(); got != want {
		t.Fatalf("quiet Totals = %+v, want %+v", got, want)
	}
	if n.CorruptedReplies() != 0 || n.Overload() != (OverloadStats{}) {
		t.Fatalf("quiet network reported faults: corrupted=%d overload=%+v", n.CorruptedReplies(), n.Overload())
	}
}

// linkOutcome is what one call on the observed link experienced.
type linkOutcome struct {
	dropped, replyLost bool
	latency            time.Duration
}

// observeLink records 2 000 calls a→b on a lossy, jittery network. With
// noise, other links (one sharing the peer, one sharing nothing) carry
// traffic the whole time, from other goroutines and in between the calls.
func observeLink(t *testing.T, procs int, noise bool) []linkOutcome {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	n := New(Config{Seed: 9, BaseLatency: time.Millisecond, JitterLatency: 5 * time.Millisecond})
	n.SetLossRate(0.2)
	for _, id := range []NodeID{"a", "b", "c", "d"} {
		if err := n.Register(id, echoHandler()); err != nil {
			t.Fatalf("Register: %v", err)
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	if noise {
		for _, l := range [][2]NodeID{{"c", "d"}, {"d", "b"}} {
			wg.Add(1)
			go func(from, to NodeID) {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
						_, _ = n.RPC(nil, from, to, Message{Size: 1})
					}
				}
			}(l[0], l[1])
		}
	}
	out := make([]linkOutcome, 2000)
	for i := range out {
		tr := &Trace{}
		_, err := n.RPC(tr, "a", "b", Message{Size: 1})
		out[i] = linkOutcome{
			dropped:   errors.Is(err, ErrDropped) && !errors.Is(err, ErrReplyLost),
			replyLost: errors.Is(err, ErrReplyLost),
			latency:   tr.Latency,
		}
		if noise {
			_, _ = n.RPC(nil, "c", "a", Message{Size: 1})
		}
	}
	close(stop)
	wg.Wait()
	return out
}

// TestLinkDrawsIgnoreOtherLinks pins the determinism contract one shared
// random stream could never give: what a link drops and how it jitters
// depends on that link's own traffic only.
func TestLinkDrawsIgnoreOtherLinks(t *testing.T) {
	want := observeLink(t, 1, false)
	drops := 0
	for _, o := range want {
		if o.dropped || o.replyLost {
			drops++
		}
	}
	if drops < 500 || drops > 950 { // 1-(0.8)^2 = 36 % of 2 000
		t.Fatalf("%d of %d calls failed at 20%% loss per leg", drops, len(want))
	}
	for _, procs := range []int{1, 8} {
		for _, noise := range []bool{false, true} {
			got := observeLink(t, procs, noise)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("GOMAXPROCS=%d noise=%v: call %d saw %+v, alone it saw %+v", procs, noise, i, got[i], want[i])
				}
			}
		}
	}
}

func TestDrawQuality(t *testing.T) {
	const draws = 200_000
	const jitter = 5 * time.Millisecond
	run := func() (drops int, jittered time.Duration) {
		n := New(Config{Seed: 21, JitterLatency: jitter})
		n.SetLossRate(0.1)
		echoRing(t, n, 2)
		for i := 0; i < draws; i++ {
			tr := &Trace{}
			if err := n.Cast(tr, "node-0", "node-1", Message{}); err != nil {
				drops++
			}
			jittered += tr.Latency
		}
		return drops, jittered
	}
	drops, jittered := run()
	if rate := float64(drops) / draws; rate < 0.095 || rate > 0.105 {
		t.Fatalf("loss 0.1 dropped %.4f of %d casts", rate, draws)
	}
	mean := float64(jittered) / float64(draws-drops)
	if half := float64(jitter) / 2; mean < 0.98*half || mean > 1.02*half {
		t.Fatalf("mean jitter %v, want within 2%% of %v", time.Duration(mean), jitter/2)
	}
	if d2, j2 := run(); d2 != drops || j2 != jittered {
		t.Fatalf("second run differs: %d/%v vs %d/%v", d2, j2, drops, jittered)
	}

	// No two links of a 48-node ring, and no two legs of one link, open
	// with the same draws.
	n := New(Config{Seed: 21})
	echoRing(t, n, 48)
	nodes := n.table()
	first := make(map[uint64]string)
	runs := make(map[[64]uint64]string)
	for from, src := range nodes {
		for to, dst := range nodes {
			if src == dst {
				continue
			}
			for leg := range []int{legRequest, legReply} {
				var seq [64]uint64
				for i := range seq {
					seq[i] = src.acct.draw(uint64(n.cfg.Seed), dst, leg)
				}
				link := fmt.Sprintf("%s->%s leg %d", from, to, leg)
				if other, dup := first[seq[0]]; dup {
					t.Fatalf("%s and %s open with the same draw", link, other)
				}
				if other, dup := runs[seq]; dup {
					t.Fatalf("%s and %s share their first 64 draws", link, other)
				}
				first[seq[0]], runs[seq] = link, link
			}
		}
	}
}

// TestQuietRPCAllocatesNothing pins the harness path: on a lossless,
// jitter-free network no link state is ever created and an RPC with
// telemetry attached allocates nothing.
func TestQuietRPCAllocatesNothing(t *testing.T) {
	n := New(Config{Seed: 1, BaseLatency: 10 * time.Millisecond})
	n.SetTelemetry(telemetry.NewRegistry())
	echoRing(t, n, 2)
	tr := &Trace{}
	msg := Message{Kind: "echo", Size: 64}
	if avg := testing.AllocsPerRun(1000, func() {
		if _, err := n.RPC(tr, "node-0", "node-1", msg); err != nil {
			t.Fatalf("RPC: %v", err)
		}
	}); avg != 0 {
		t.Fatalf("echo RPC allocates %.1f objects, want 0", avg)
	}
	if links := n.table()["node-0"].acct.links; links != nil {
		t.Fatalf("quiet network created link draw state: %d links", len(links))
	}
}

// TestOfflineRPCAllocatesNothing: a down node's two errors are built when
// it registers, with the text the per-message Errorf used to produce, so
// refusing a message costs no allocation either.
func TestOfflineRPCAllocatesNothing(t *testing.T) {
	n := New(Config{Seed: 1, BaseLatency: 10 * time.Millisecond})
	n.SetTelemetry(telemetry.NewRegistry())
	echoRing(t, n, 2)
	if err := n.SetOnline("node-1", false); err != nil {
		t.Fatal(err)
	}
	_, toDown := n.RPC(nil, "node-0", "node-1", Message{Kind: "echo"})
	_, fromDown := n.RPC(nil, "node-1", "node-0", Message{Kind: "echo"})
	for _, c := range []struct {
		err  error
		want string
	}{
		{toDown, fmt.Sprintf("%s: %s", ErrNodeOffline, NodeID("node-1"))},
		{fromDown, fmt.Sprintf("%s: %s (sender)", ErrNodeOffline, NodeID("node-1"))},
	} {
		if c.err == nil || c.err.Error() != c.want || !errors.Is(c.err, ErrNodeOffline) {
			t.Fatalf("error %q, want %q wrapping ErrNodeOffline", c.err, c.want)
		}
	}
	tr := &Trace{}
	msg := Message{Kind: "echo", Size: 64}
	if avg := testing.AllocsPerRun(1000, func() {
		if _, err := n.RPC(tr, "node-0", "node-1", msg); err == nil {
			t.Fatal("RPC to an offline node succeeded")
		}
	}); avg != 0 {
		t.Fatalf("RPC to an offline node allocates %.1f objects, want 0", avg)
	}
}

// TestOverloadMergesAcrossNodes: counts and delay sum over the capped
// nodes, the peak is the deepest any one of them saw.
func TestOverloadMergesAcrossNodes(t *testing.T) {
	n := New(Config{Seed: 1, BaseLatency: 10 * time.Millisecond})
	reg := telemetry.NewRegistry()
	n.SetTelemetry(reg)
	echoRing(t, n, 3)
	_ = n.SetCapacity("node-1", CapacityConfig{PerTick: 1, QueueDepth: 3})
	_ = n.SetCapacity("node-2", CapacityConfig{PerTick: 1, QueueDepth: 1})
	for i := 0; i < 5; i++ { // node-1: 1 fast, 3 queued, 1 shed
		_, _ = n.RPC(nil, "node-0", "node-1", Message{})
	}
	for i := 0; i < 3; i++ { // node-2: 1 fast, 1 queued, 1 shed — after node-1's deeper peak
		_, _ = n.RPC(nil, "node-0", "node-2", Message{})
	}
	want := OverloadStats{Queued: 4, Sheds: 2, PeakQueueDepth: 3, QueueDelay: (1 + 2 + 3 + 1) * 10 * time.Millisecond}
	if got := n.Overload(); got != want {
		t.Fatalf("Overload = %+v, want %+v", got, want)
	}
	if got := reg.Gauge("simnet_overload_queue_depth_peak").Value(); got != 3 {
		t.Fatalf("peak gauge = %v, want 3 (a later, shallower queue must not lower it)", got)
	}
}

// BenchmarkSimnetRPC is the harness probe's number (benchmark/probe.go): the
// wall time of one echo RPC as one caller sees it on a 48-node ring, with
// one caller and with two at distinct origins. A registry is attached, as
// on the benchmark's stack. ns/op at callers=2 over ns/op at callers=1 is
// the contention ratio.
func BenchmarkSimnetRPC(b *testing.B) {
	for _, callers := range []int{1, 2} {
		b.Run(fmt.Sprintf("callers=%d", callers), func(b *testing.B) {
			const ring = 48
			n := New(Config{Seed: 11, BaseLatency: 10 * time.Millisecond})
			n.SetTelemetry(telemetry.NewRegistry())
			nodes := echoRing(b, n, ring)
			b.ResetTimer()
			var wg sync.WaitGroup
			for c := 0; c < callers; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					tr := &Trace{}
					msg := Message{Kind: "echo", Size: 64}
					for i := 0; i < b.N; i++ {
						if _, err := n.RPC(tr, nodes[c], nodes[1+(c+i)%(ring-1)], msg); err != nil {
							b.Error(err)
							return
						}
					}
				}(c)
			}
			wg.Wait()
		})
	}
}
