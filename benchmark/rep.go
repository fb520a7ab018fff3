package main

import (
	"fmt"
	"runtime"
	"slices"
	"syscall"
	"time"

	"godosn/internal/cache"
	"godosn/internal/crypto/symmetric"
	"godosn/internal/overlay/simnet"
	"godosn/internal/resilience"
	"godosn/internal/workload"
)

// chunkActions is how many actions are generated at a time, off the clock.
// Stream.Next costs about 2 µs an action, a fifth of the per-key loop, and
// it is harness, not system; a chunk keeps the generated payloads from
// piling up in the heap the system's GC has to walk.
const chunkActions = 65536

// spec is one workload's frozen shape. Names are the contract.
type spec struct {
	name string
	why  string
	// users is the streamed population, actions the generated actions per
	// repetition (the first twentieth is the untimed warm-up).
	users, actions int
	clients        int
	batch          int // keys per PutBatch/GetBatch; 0: per-key Store/Lookup
	valueCache     int
	faults         bool
	private        bool
	tickActions    int // stream-faulted: actions per tick
	revokeEvery    int // feed-private: actions per revocation
}

var specs = []spec{
	{
		name:  "stream-batched",
		why:   "1M users through PutBatch/GetBatch of 256: population far larger than every cache, so batch pipeline, route grouping and stores do the work and simnet little",
		users: 1_000_000, actions: 200_000, clients: 1, batch: 256,
	},
	{
		name:  "stream-perkey",
		why:   "per-key Store/Lookup from 2 concurrent clients at about 10 msg/op: simnet admission, routing walk and per-op resilience dominate and the batch pipeline is unused",
		users: 100_000, actions: 200_000, clients: 2,
	},
	{
		name:  "stream-faulted",
		why:   "Byzantine and rotating offline nodes, rot bursts with inline heal and scrub: hedge, verify, breaker and the maintenance plane do the work and must mask every fault",
		users: 100_000, actions: 100_000, clients: 1, faults: true, tickActions: 1000,
	},
	{
		name:  "feed-private",
		why:   "read-mostly feed through hybrid, ABE and IBBE groups with key and value caches that fit, plus revocations: crypto and caches do the work, the overlay little",
		users: 1_600, actions: 32_000, clients: 1, valueCache: 65536, private: true, revokeEvery: 2000,
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// scaled shrinks a workload by div, schedules included, for the smoke run.
func (s spec) scaled(div int) spec {
	s.users = max(s.users/div, 100)
	s.actions /= div
	s.tickActions /= div
	s.revokeEvery /= div
	return s
}

// fingerprint is what the repetitions of a single-client workload must
// agree on exactly: they run the same actions over the same seeds.
type fingerprint struct {
	out    outcomes
	digest uint64
	msgs   int64
	bytes  int64
	simP99 int32
}

// repResult is everything one repetition measured.
type repResult struct {
	traced  bool
	setupNs int64
	wallNs  int64 // on-clock wall time: chunk processing only
	cpuNs   int64 // process user+sys over the same segments
	genNs   int64
	calibNs int64 // mean of the calibrations around the timed chunks
	actions int

	mallocs    uint64
	allocBytes uint64
	baseHeap   uint64 // post-GC heap before set-up
	liveHeap   int64
	gcPauseNs  uint64
	gcCycles   uint32
	heapPeak   uint64

	out    outcomes
	digest uint64
	msgs   int64
	bytes  int64
	callNs []int32 // sorted
	simUs  []int32 // sorted

	res resilience.Metrics
	// Cache counters: the post-warm-up baseline until the repetition ends,
	// then the repetition's own delta.
	valueCache  cache.Stats
	routeCache  cache.Stats
	keyCache    cache.Stats
	net         simnet.Trace
	corrupted   int
	faults      *faultPlane
	priv        *privState
	sealAllocs  float64
	spans       spanTotals
	nspans      int
	recs        []*recorder
	clientCount int
}

func (r *repResult) fingerprint() fingerprint {
	fp := fingerprint{out: r.out, digest: r.digest, msgs: r.msgs, bytes: r.bytes, simP99: percentile(r.simUs, 0.99)}
	if r.priv != nil {
		// Envelope sizes follow fresh key material (variable-length
		// encodings), so byte counts differ by a few bytes between
		// repetitions; message counts still repeat.
		fp.bytes = 0
	}
	return fp
}

// hostSpeed is the reference host's calibration time over this
// repetition's: below 1 while the host is slower than the reference.
func (r *repResult) hostSpeed() float64 { return calibRefNs / float64(r.calibNs) }

func cpuNow() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// statsDelta subtracts the counters the metrics read.
func statsDelta(a, b cache.Stats) cache.Stats {
	return cache.Stats{Hits: a.Hits - b.Hits, Misses: a.Misses - b.Misses, Evictions: a.Evictions - b.Evictions}
}

// generator pulls chunks off one workload.Stream and partitions them by
// client, so a chunked run emits exactly the actions a straight run does.
type generator struct {
	stream  *workload.Stream
	clients int
}

func newGenerator(sp spec, seed int64) (*generator, error) {
	stream, err := workload.NewStream(workload.StreamConfig{
		Users: sp.users, Ops: sp.actions, Seed: seed, Weighting: workload.WeightGraph, PostBytes: 200,
	})
	if err != nil {
		return nil, err
	}
	return &generator{stream: stream, clients: sp.clients}, nil
}

// next returns up to n actions split by Actor % clients, or nil at the end.
func (g *generator) next(n int) [][]workload.Action {
	parts := make([][]workload.Action, g.clients)
	for i := range parts {
		parts[i] = make([]workload.Action, 0, n/g.clients+n/16)
	}
	got := 0
	for ; got < n; got++ {
		a, ok := g.stream.Next()
		if !ok {
			break
		}
		parts[a.Actor%g.clients] = append(parts[a.Actor%g.clients], a)
	}
	if got == 0 {
		return nil
	}
	return parts
}

// newRunner is the timed set-up: ring, content key or identities and
// groups, fault plane.
func newRunner(sp spec, seed int64, traced bool, epoch time.Time) (*runner, error) {
	// Calls per action: a first post adds an index write; spans per call:
	// op, two seals or opens, the resilience call and its dht calls.
	calls := sp.actions + sp.actions/2
	st, err := newStack(seed, sp.clients, sp.valueCache, traced, epoch, calls*8)
	if err != nil {
		return nil, err
	}
	r := &runner{spec: sp, st: st}
	for i := 0; i < sp.clients; i++ {
		r.clients = append(r.clients, newClient(st.origins[i], st.recs[i], calls/sp.clients))
	}
	if sp.private {
		if r.priv, err = newPrivState(seed, sp.actions/sp.revokeEvery+1); err != nil {
			return nil, err
		}
	} else {
		// The content key derives from the seed: same seed, same inputs.
		key := make(symmetric.Key, symmetric.KeySize)
		for i := range key {
			key[i] = byte(uint64(seed)>>(8*(i%8)) ^ uint64(i)*0x9d)
		}
		if r.sealer, err = symmetric.NewSealer(key); err != nil {
			return nil, err
		}
	}
	if sp.faults {
		if err := r.startFaults(seed); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// setUp is the timed set-up of one repetition: ring, identities and groups,
// fault plane, and the warm-up that fills caches and lazy state. The result
// carries the set-up time and the counter baselines the repetition's own
// numbers are taken against.
func setUp(sp spec, seed int64, traced bool) (*runner, *generator, *repResult, error) {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	res := &repResult{traced: traced, clientCount: sp.clients, baseHeap: m.HeapAlloc}

	tSetup := time.Now()
	r, err := newRunner(sp, seed, traced, tSetup)
	if err != nil {
		return nil, nil, nil, err
	}
	gen, err := newGenerator(sp, seed)
	if err != nil {
		return nil, nil, nil, err
	}
	// The warm-up runs the real path and the model keeps what it wrote.
	warm := sp.actions / 20
	if parts := gen.next(warm); parts != nil {
		r.runChunk(parts)
		r.flush()
	}
	if r.err != nil {
		return nil, nil, nil, fmt.Errorf("warm-up: %w", r.err)
	}
	res.actions = sp.actions - warm
	for _, c := range r.clients {
		c.out, c.digest, c.msgs, c.bytes = outcomes{}, fnvOffset, 0, 0
		c.callNs, c.simUs = c.callNs[:0], c.simUs[:0]
		if c.rec != nil {
			c.rec.spans = c.rec.spans[:0]
		}
	}
	r.st.kv.ResetMetrics()
	r.st.net.ResetTotals()
	res.valueCache, res.routeCache = r.st.kv.ValueCacheStats(), r.st.dht.RouteCacheStats()
	if r.priv != nil {
		res.keyCache = r.priv.keyCacheStats()
		*r.priv = privState{rng: r.priv.rng, groups: r.priv.groups, spares: r.priv.spares, next: r.priv.next}
	}
	if f := r.faults; f != nil {
		*f = faultPlane{rng: f.rng, ticks: f.ticks, byzantine: f.byzantine, offline: f.offline, sets: f.sets, window: f.window}
	}
	res.setupNs = int64(time.Since(tSetup))
	return r, gen, res, nil
}

// setupSample times one more set-up, in reference seconds. Set-up is short,
// so a run takes more samples of it than it has repetitions.
func setupSample(sp spec, seed int64) (float64, error) {
	r, _, res, err := setUp(sp, seed, false)
	if err != nil {
		return 0, err
	}
	res.calibNs = int64(calibrate())
	runtime.KeepAlive(r)
	return e2eOf(res)["setup_s"], nil
}

// runRep runs one repetition: set-up, then the timed chunks.
func runRep(sp spec, seed int64, traced bool) (*repResult, error) {
	r, gen, res, err := setUp(sp, seed, traced)
	if err != nil {
		return nil, err
	}
	var m0, m1 runtime.MemStats
	calibNs, calibs := int64(calibrate()), int64(1)
	for {
		tGen := time.Now()
		parts := gen.next(chunkActions)
		res.genNs += int64(time.Since(tGen))
		if parts == nil {
			break
		}
		last := gen.stream.Remaining() == 0
		runtime.ReadMemStats(&m0)
		cpu0 := cpuNow()
		t0 := time.Now()
		r.runChunk(parts)
		if last {
			r.flush()
		}
		res.wallNs += int64(time.Since(t0))
		res.cpuNs += cpuNow() - cpu0
		runtime.ReadMemStats(&m1)
		res.mallocs += m1.Mallocs - m0.Mallocs
		res.allocBytes += m1.TotalAlloc - m0.TotalAlloc
		res.gcPauseNs += m1.PauseTotalNs - m0.PauseTotalNs
		res.gcCycles += m1.NumGC - m0.NumGC
		res.heapPeak = max(res.heapPeak, m1.HeapAlloc)
		if r.err != nil {
			return nil, r.err
		}
		calibNs += int64(calibrate())
		calibs++
	}
	res.calibNs = calibNs / calibs

	// Live heap: after a collection, with the stack (and the harness's own
	// model) still referenced.
	runtime.GC()
	runtime.ReadMemStats(&m1)
	res.liveHeap = int64(m1.HeapAlloc) - int64(res.baseHeap)

	for _, c := range r.clients {
		res.out.add(c.out)
		// Clients fold their own reads; the run's digest combines them in
		// client order.
		res.digest = (res.digest ^ c.digest) * fnvPrime
		res.msgs += c.msgs
		res.bytes += c.bytes
		res.callNs = append(res.callNs, c.callNs...)
		res.simUs = append(res.simUs, c.simUs...)
		if c.rec != nil {
			res.spans.add(selfTimes(c.rec.spans))
			res.nspans += len(c.rec.spans)
			res.recs = append(res.recs, c.rec)
		}
	}
	slices.Sort(res.callNs)
	slices.Sort(res.simUs)
	res.res = r.st.kv.Metrics()
	res.valueCache = statsDelta(r.st.kv.ValueCacheStats(), res.valueCache)
	res.routeCache = statsDelta(r.st.dht.RouteCacheStats(), res.routeCache)
	res.net = r.st.net.Totals()
	res.corrupted = r.st.net.CorruptedReplies()
	res.faults, res.priv = r.faults, r.priv
	if r.priv != nil {
		res.keyCache = statsDelta(r.priv.keyCacheStats(), res.keyCache)
	}
	if traced {
		res.sealAllocs = r.sealAllocsProbe()
	}
	runtime.KeepAlive(r)
	return res, nil
}

// sealAllocsProbe measures the heap allocations of one privacy seal, off
// the clock and after the repetition's numbers are taken (a private seal
// appends to its group's archive).
func (r *runner) sealAllocsProbe() float64 {
	const n = 512
	value := make([]byte, 200)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		var err error
		if r.priv != nil {
			_, err = r.priv.encrypt(i, "probe", value)
		} else {
			_, err = r.sealer.Seal(value, []byte("probe"))
		}
		if err != nil {
			return 0
		}
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / n
}
