package main

import (
	"bytes"
	"math"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"godosn/internal/overlay"
	"godosn/internal/workload"
)

// The timing decorator must satisfy every overlay capability the bare DHT
// does, or resilience.Wrap and scrub.New would silently take a fallback
// path in the traced run only.
var (
	_ overlay.BatchKV             = (*tracedDHT)(nil)
	_ overlay.ReplicaKV           = (*tracedDHT)(nil)
	_ overlay.RepairKV            = (*tracedDHT)(nil)
	_ overlay.DigestKV            = (*tracedDHT)(nil)
	_ overlay.BatchRepairKV       = (*tracedDHT)(nil)
	_ overlay.BatchDigestKV       = (*tracedDHT)(nil)
	_ overlay.Healer              = (*tracedDHT)(nil)
	_ overlay.PlacementFilterable = (*tracedDHT)(nil)
	_ overlay.ReplicaRankable     = (*tracedDHT)(nil)
	_ overlay.SpanKV              = (*tracedDHT)(nil)
	_ overlay.SpanHealer          = (*tracedDHT)(nil)
	_ overlay.RouteCached         = (*tracedDHT)(nil)
	_ overlay.Ticker              = (*tracedDHT)(nil)
)

// The traced repetition must measure the same program: same outcomes, read
// digest, simulated costs, resilience counters and network totals as the
// untraced one.
func TestTracedRunMatchesUntraced(t *testing.T) {
	for _, sp := range specs {
		if sp.clients > 1 {
			continue // two clients interleave; nothing repeats exactly
		}
		sp = sp.scaled(100)
		plain, err := runRep(sp, 5, false)
		if err != nil {
			t.Fatal(err)
		}
		traced, err := runRep(sp, 5, true)
		if err != nil {
			t.Fatal(err)
		}
		if plain.fingerprint() != traced.fingerprint() {
			t.Errorf("%s: traced %+v, untraced %+v", sp.name, traced.fingerprint(), plain.fingerprint())
		}
		if plain.res != traced.res {
			t.Errorf("%s: resilience.Metrics differ: traced %+v, untraced %+v", sp.name, traced.res, plain.res)
		}
		if plain.net.Messages != traced.net.Messages || plain.net.Hops != traced.net.Hops {
			t.Errorf("%s: network totals differ: traced %+v, untraced %+v", sp.name, traced.net, plain.net)
		}
		if traced.nspans == 0 || plain.nspans != 0 {
			t.Errorf("%s: %d spans traced, %d untraced", sp.name, traced.nspans, plain.nspans)
		}
	}
}

// The smoke set runs all four workloads at 1/100 size, traced path and span
// files included, and checks the predictions the metrics are built on.
func TestSmokeSet(t *testing.T) {
	t0 := time.Now()
	set, err := runSet(11, 0, 100, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// About 3.5 s on the reference host; the limit leaves room for a slow
	// phase of a shared one and for -race.
	if took := time.Since(t0); took > 30*time.Second {
		t.Errorf("smoke set took %v", took)
	}
	for _, sp := range specs {
		sr := set.Workloads[sp.name]
		if sr == nil || sr.EndToEnd == nil || sr.PerLayer == nil {
			t.Fatalf("%s: missing from the set", sp.name)
		}
		if sr.EndToEnd.Failed != 0 || sr.PerLayer.Failed != 0 {
			t.Errorf("%s: %d and %d operations failed", sp.name, sr.EndToEnd.Failed, sr.PerLayer.Failed)
		}
		for _, d := range endToEnd {
			if v := sr.EndToEnd.Metrics[d.Name].Value; !(v > 0) {
				t.Errorf("%s: %s = %v, want > 0", sp.name, d.Name, v)
			}
		}
		for _, d := range perLayer {
			if _, ok := sr.PerLayer.Metrics[d.Name]; !ok {
				t.Errorf("%s: per-layer metric %s not reported", sp.name, d.Name)
			}
		}
		if cov := sr.PerLayer.Metrics["harness.span_coverage"].Value; cov < 0.8 || cov > 1.1 {
			t.Errorf("%s: spans cover %.2f of on-clock client time", sp.name, cov)
		}
	}
	layer := func(w, name string) float64 { return set.Workloads[w].PerLayer.Metrics[name].Value }
	if got := set.Workloads["stream-perkey"].EndToEnd.Metrics["sim_msgs_per_op"].Value; got < 8 {
		t.Errorf("stream-perkey sim_msgs_per_op = %.2f, want >= 8", got)
	}
	if got := set.Workloads["stream-batched"].EndToEnd.Metrics["sim_msgs_per_op"].Value; got > 1.5 {
		t.Errorf("stream-batched sim_msgs_per_op = %.2f, want <= 1.5", got)
	}
	if p, d := layer("feed-private", "privacy.self_share"), layer("feed-private", "dht.self_share"); p <= d {
		t.Errorf("feed-private: privacy share %.2f not above dht share %.2f", p, d)
	}
	if p, d := layer("stream-perkey", "privacy.self_share"), layer("stream-perkey", "dht.self_share"); p >= d {
		t.Errorf("stream-perkey: privacy share %.2f not below dht share %.2f", p, d)
	}
	if got, want := layer("feed-private", "privacy.denied_opens"), float64(specs[3].scaled(100).actions/specs[3].scaled(100).revokeEvery); got < want-1 {
		t.Errorf("feed-private: %v revoked-reader opens denied, want about %v", got, want)
	}
	if layer("stream-faulted", "scrub.repaired") == 0 || layer("stream-faulted", "resilience.corrupt_reads") == 0 {
		t.Errorf("stream-faulted: no rot repaired or no corrupt read rejected")
	}
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{5, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {5000, 0.99}, {1_000_000, 0.99},
	} {
		if got := tailPercentile(tc.n, 0.99); got != tc.want {
			t.Errorf("tailPercentile(%d, 0.99) = %v, want %v", tc.n, got, tc.want)
		}
	}
	if got := tailPercentile(1_000_000, 0.9999); got != 0.9999 {
		t.Errorf("tailPercentile(1e6, 0.9999) = %v", got)
	}
	sorted := make([]int32, 1000)
	for i := range sorted {
		sorted[i] = int32(i + 1)
	}
	if p50, p99 := percentile(sorted, 0.5), percentile(sorted, 0.99); p50 != 500 || p99 != 990 {
		t.Errorf("percentiles of 1..1000: p50 %d, p99 %d", p50, p99)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v", got)
	}
}

func TestSelfTimes(t *testing.T) {
	// op [0,100] -> seal [10,30], call [30,90] -> store [40,60], store [60,85]
	spans := []span{
		{name: spOp, parent: -1, start: 0, end: 100},
		{name: spPrivacySeal, parent: 0, start: 10, end: 30},
		{name: spResilienceCall, parent: 0, start: 30, end: 90},
		{name: spDHTStore, parent: 2, start: 40, end: 60},
		{name: spDHTStore, parent: 2, start: 60, end: 85},
	}
	got := selfTimes(spans)
	if got.self[spOp] != 20 || got.self[spPrivacySeal] != 20 || got.self[spResilienceCall] != 15 || got.self[spDHTStore] != 45 {
		t.Errorf("self times: %+v", got.self)
	}
	if got.total[spDHTStore] != 45 || got.count[spDHTStore] != 2 {
		t.Errorf("dht.store: total %d count %d", got.total[spDHTStore], got.count[spDHTStore])
	}
	layers := got.layerSelf()
	var sum int64
	for _, ns := range layers {
		sum += ns
	}
	if sum != 100 || layers["dht"] != 45 || layers["harness"] != 20 {
		t.Errorf("layer self times %v sum to %d, want the root's 100", layers, sum)
	}
}

func TestRecorderNesting(t *testing.T) {
	var off *recorder
	off.begin(spOp) // a nil recorder is the untraced run
	off.end()
	r := newRecorder(time.Now(), 4)
	r.nextOp()
	r.begin(spOp)
	r.begin(spResilienceCall)
	r.begin(spDHTLookup)
	r.end()
	r.end()
	r.begin(spRecordOpen)
	r.end()
	r.end()
	wantParents := []int32{-1, 0, 1, 0}
	for i, s := range r.spans {
		if s.parent != wantParents[i] || s.op != 1 || s.end < s.start {
			t.Errorf("span %d: %+v", i, s)
		}
	}
}

func TestChunkedGenerationMatchesStraightStream(t *testing.T) {
	sp := spec{users: 5000, actions: 3000, clients: 2}
	gen, err := newGenerator(sp, 9)
	if err != nil {
		t.Fatal(err)
	}
	byClient := make([][]workload.Action, sp.clients)
	for {
		parts := gen.next(257)
		if parts == nil {
			break
		}
		for c, part := range parts {
			byClient[c] = append(byClient[c], part...)
		}
	}
	straight, err := workload.NewStream(workload.StreamConfig{Users: sp.users, Ops: sp.actions, Seed: 9, Weighting: workload.WeightGraph, PostBytes: 200})
	if err != nil {
		t.Fatal(err)
	}
	next := make([]int, sp.clients)
	for n := 0; ; n++ {
		a, ok := straight.Next()
		if !ok {
			if n != sp.actions {
				t.Fatalf("straight stream emitted %d actions", n)
			}
			break
		}
		c := a.Actor % sp.clients
		if next[c] >= len(byClient[c]) {
			t.Fatalf("client %d ran out of chunked actions at %d", c, n)
		}
		got := byClient[c][next[c]]
		next[c]++
		if got.Seq != a.Seq || got.Key != a.Key || got.Kind != a.Kind || !bytes.Equal(got.Value, a.Value) {
			t.Fatalf("action %d: chunked %+v, straight %+v", n, got, a)
		}
	}
	for c := range byClient {
		if next[c] != len(byClient[c]) {
			t.Errorf("client %d: %d chunked actions left over", c, len(byClient[c])-next[c])
		}
	}
}

func TestQuartileSpread(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	v := []float64{3, 1, 2, 10, 9, 8, 4, 5, 7, 6}
	if got, want := quartileSpread(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if got, want := quartileSpread([]float64{4, 1, 2}), 1.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
	if got := quartileSpread([]float64{7}); got != 0 {
		t.Errorf("one sample has spread %v", got)
	}
}

func TestResultsRoundTripAndCompare(t *testing.T) {
	mk := func(opsPerS, allocs []float64) *resultSet {
		set := &resultSet{Env: environment{NumCPU: 2, GoVersion: "go1.24", Commit: "abc", Seed: 11, Seconds: 10}, Workloads: map[string]*setResult{}}
		for _, sp := range specs {
			res := &runResult{Workload: sp.name, Seed: 11, Reps: len(opsPerS), Correct: true, Attempted: 100, Digest: "00", Metrics: map[string]metricValue{}}
			for _, d := range endToEnd {
				res.Metrics[d.Name] = metricValue{Value: 1, Unit: d.Unit, Samples: []float64{1, 1, 1}}
			}
			res.Metrics["ops_per_ref_s"] = metricValue{Value: median(opsPerS), Unit: "1/s", Samples: opsPerS}
			res.Metrics["allocs_per_op"] = metricValue{Value: median(allocs), Unit: "count", Samples: allocs}
			set.Workloads[sp.name] = &setResult{EndToEnd: res, PerLayer: &runResult{Workload: sp.name, Traced: true, Metrics: map[string]metricValue{}}}
		}
		return set
	}
	dir := t.TempDir()
	write := func(name string, set *resultSet) string {
		path := filepath.Join(dir, name)
		if err := writeJSON(path, set); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := mk([]float64{100, 101, 99}, []float64{10, 10, 10})
	basePath := write("base.json", base)
	back, err := readResultSet(basePath)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, back) {
		t.Errorf("results.json does not round-trip:\nwrote %+v\nread  %+v", base, back)
	}

	var out bytes.Buffer
	if worse, err := compareFiles(&out, basePath, basePath); err != nil || worse {
		t.Errorf("a set compared with itself: worse=%v err=%v\n%s", worse, err, out.String())
	}
	// 40 % fewer ops/s is worse; 40 % more is better; 1 % either way is
	// within the 25 % bound; a 10 % allocation rise breaks its 6 % bound.
	for _, tc := range []struct {
		name      string
		set       *resultSet
		wantWorse bool
		wantRow   string
	}{
		{"slower", mk([]float64{60, 61, 59}, []float64{10, 10, 10}), true, "worse"},
		{"faster", mk([]float64{140, 141, 139}, []float64{10, 10, 10}), false, "better"},
		{"same", mk([]float64{99, 100, 98}, []float64{10, 10, 10}), false, "within-bound"},
		{"allocs", mk([]float64{100, 101, 99}, []float64{11, 11, 11}), true, "worse"},
		{"noisy", mk([]float64{40, 100, 160}, []float64{10, 10, 10}), false, "unresolved"},
	} {
		out.Reset()
		worse, err := compareFiles(&out, basePath, write(tc.name+".json", tc.set))
		if err != nil {
			t.Fatal(err)
		}
		if worse != tc.wantWorse || !bytes.Contains(out.Bytes(), []byte(tc.wantRow)) {
			t.Errorf("%s: worse=%v, want %v and a %q row\n%s", tc.name, worse, tc.wantWorse, tc.wantRow, out.String())
		}
	}
}
