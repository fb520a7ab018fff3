package main

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"godosn/internal/crypto/symmetric"
	"godosn/internal/overlay"
	"godosn/internal/resilience/scrub"
	"godosn/internal/workload"
)

// outcomes classifies every client operation of a repetition against the
// reference model. All fields are part of the repetition-agreement check.
type outcomes struct {
	Writes, Reads int64
	// Served reads returned the last acked plaintext; NotFound reads missed
	// a key the model says was never written (a success).
	Served, NotFound int64
	// FalseNotFound reads missed a key whose write was acked; Failed* ops
	// returned an error after the resilience layer gave up.
	FalseNotFound, FailedReads, FailedWrites int64
	// Wrong reads returned a value the model never saw for the key;
	// OpenErrors are served records the member could not open. Either
	// makes the run incorrect.
	Wrong, OpenErrors int64
}

func (o outcomes) ops() int64 { return o.Writes + o.Reads }

func (o outcomes) failed() int64 {
	return o.FalseNotFound + o.FailedReads + o.FailedWrites + o.Wrong + o.OpenErrors
}

func (o *outcomes) add(p outcomes) {
	o.Writes += p.Writes
	o.Reads += p.Reads
	o.Served += p.Served
	o.NotFound += p.NotFound
	o.FalseNotFound += p.FalseNotFound
	o.FailedReads += p.FailedReads
	o.FailedWrites += p.FailedWrites
	o.Wrong += p.Wrong
	o.OpenErrors += p.OpenErrors
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnv64(h uint64, b []byte) uint64 {
	for _, x := range b {
		h = (h ^ uint64(x)) * fnvPrime
	}
	return h
}

func fnv64s(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h
}

// client is one closed-loop caller: it issues its next call only after the
// previous one returned. Everything in it is touched by its goroutine alone.
type client struct {
	origin string
	rec    *recorder

	// Reference model: key -> FNV-64 of the last acked plaintext, plus the
	// plaintext of writes that failed but may have landed (ack lost).
	model map[string]uint64
	maybe map[string]uint64

	out    outcomes
	digest uint64 // read outcomes folded in issue order

	callNs []int32 // wall latency of each client call
	simUs  []int32 // simulated latency (OpStats.Latency) of each client call
	msgs   int64
	bytes  int64

	// Pending batches (batched workloads only).
	wKeys   []string
	wVals   [][]byte
	wHashes []uint64
	wSet    map[string]struct{}
	rKeys   []string
	rActors []int
	rSet    map[string]struct{}
}

func newClient(origin string, rec *recorder, calls int) *client {
	return &client{
		origin: origin,
		rec:    rec,
		model:  make(map[string]uint64),
		maybe:  make(map[string]uint64),
		digest: fnvOffset,
		callNs: make([]int32, 0, calls),
		simUs:  make([]int32, 0, calls),
		wSet:   make(map[string]struct{}),
		rSet:   make(map[string]struct{}),
	}
}

func (c *client) noteCall(wall time.Duration, st overlay.OpStats) {
	c.callNs = append(c.callNs, int32(wall))
	c.simUs = append(c.simUs, int32(st.Latency/time.Microsecond))
	c.msgs += int64(st.Messages)
	c.bytes += int64(st.Bytes)
}

// Read outcome tags folded into the digest.
const (
	tagServed = iota
	tagNotFound
	tagFalseNotFound
	tagFailed
	tagWrong
)

func (c *client) fold(key string, tag byte, h uint64) {
	d := fnv64s(c.digest, key)
	d = (d ^ uint64(tag)) * fnvPrime
	for i := 0; i < 8; i++ {
		d = (d ^ (h >> (8 * i) & 0xff)) * fnvPrime
	}
	c.digest = d
}

// runner drives one repetition of one workload over a fresh stack.
type runner struct {
	spec    spec
	st      *stack
	sealer  *symmetric.Sealer // stream workloads: one long-lived content key
	clients []*client
	faults  *faultPlane // stream-faulted only
	priv    *privState  // feed-private only
	actions int         // actions processed so far (single-client workloads)
	err     error       // first harness-level error; ends the repetition
}

func (r *runner) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// do performs one generated action the way runE23Arm does: posts and
// comments write, feed reads and searches read, and a user's first post
// also publishes its search-index entry.
func (r *runner) do(c *client, a *workload.Action) {
	switch a.Kind {
	case workload.ActionPost, workload.ActionComment:
		r.write(c, a.Actor, a.Key, a.Value)
		if a.Kind == workload.ActionPost && strings.HasSuffix(a.Key, "/0") {
			r.write(c, a.Actor, workload.SearchKey(a.Actor), []byte("index:"+a.Key))
		}
	case workload.ActionReadFeed, workload.ActionSearch:
		r.read(c, a.Actor, a.Key)
	}
}

// step is do plus the single-client workloads' inline schedules.
func (r *runner) step(c *client, a *workload.Action) {
	r.do(c, a)
	r.actions++
	if r.faults != nil && r.actions%r.spec.tickActions == 0 {
		r.tick(c)
	}
	if r.priv != nil && r.actions%r.spec.revokeEvery == 0 {
		r.revoke(c)
	}
}

// runChunk processes one pre-generated chunk, already partitioned by
// client. Every key an action touches belongs to its actor and an actor
// belongs to one client, so per-key program order holds across clients.
func (r *runner) runChunk(parts [][]workload.Action) {
	if len(parts) == 1 {
		c := r.clients[0]
		for i := range parts[0] {
			r.step(c, &parts[0][i])
		}
		return
	}
	var wg sync.WaitGroup
	for ci := range parts {
		wg.Add(1)
		go func(c *client, part []workload.Action) {
			defer wg.Done()
			for i := range part {
				r.do(c, &part[i])
			}
		}(r.clients[ci], parts[ci])
	}
	wg.Wait()
}

// flush lands every pending batch.
func (r *runner) flush() {
	for _, c := range r.clients {
		r.flushWrites(c)
		r.flushReads(c)
	}
}

// seal turns a plaintext into the record the overlay stores: privacy seal,
// then the self-verifying scrub record.
func (r *runner) seal(c *client, actor int, key string, value []byte) []byte {
	c.rec.begin(spPrivacySeal)
	var (
		ct  []byte
		err error
	)
	if r.priv != nil {
		ct, err = r.priv.encrypt(actor, key, value)
	} else {
		ct, err = r.sealer.Seal(value, []byte(key))
	}
	c.rec.end()
	if err != nil {
		r.fail(fmt.Errorf("sealing %q: %w", key, err))
		return nil
	}
	c.rec.begin(spRecordSeal)
	rec := scrub.Seal(key, ct)
	c.rec.end()
	return rec
}

// open reverses seal for a served read.
func (r *runner) open(c *client, actor int, key string, rec []byte) ([]byte, error) {
	c.rec.begin(spRecordOpen)
	ct, err := scrub.Open(key, rec)
	c.rec.end()
	if err != nil {
		return nil, err
	}
	c.rec.begin(spPrivacyOpen)
	var pt []byte
	if r.priv != nil {
		pt, err = r.priv.decrypt(actor, ct)
	} else {
		pt, err = r.sealer.Open(ct, []byte(key))
	}
	c.rec.end()
	return pt, err
}

func (r *runner) write(c *client, actor int, key string, value []byte) {
	c.rec.nextOp()
	c.rec.begin(spOp)
	defer c.rec.end()
	c.out.Writes++
	// A private write is one client call end to end; on the stream
	// workloads the call is the Store (or the whole batch).
	t0 := time.Now()
	rec := r.seal(c, actor, key, value)
	if rec == nil {
		return
	}
	h := fnv64(fnvOffset, value)
	if r.faults != nil {
		r.faults.window = append(r.faults.window, key)
	}
	if r.spec.batch > 0 {
		// Pending reads of this key predate this write and must see the
		// older state.
		if _, conflict := c.rSet[key]; conflict {
			r.flushReads(c)
		}
		c.wKeys = append(c.wKeys, key)
		c.wVals = append(c.wVals, rec)
		c.wHashes = append(c.wHashes, h)
		c.wSet[key] = struct{}{}
		if len(c.wKeys) >= r.spec.batch {
			r.flushWrites(c)
		}
		return
	}
	if r.priv == nil {
		t0 = time.Now()
	}
	c.rec.begin(spResilienceCall)
	st, err := r.st.kv.Store(c.origin, key, rec)
	c.rec.end()
	c.noteCall(time.Since(t0), st)
	c.acked(key, h, err)
}

// acked records a write's outcome in the model.
func (c *client) acked(key string, h uint64, err error) {
	if err != nil {
		c.out.FailedWrites++
		c.maybe[key] = h
		return
	}
	c.model[key] = h
}

func (r *runner) read(c *client, actor int, key string) {
	c.rec.nextOp()
	c.rec.begin(spOp)
	defer c.rec.end()
	c.out.Reads++
	if r.spec.batch > 0 {
		// A pending write of this key must land before this read sees it.
		if _, conflict := c.wSet[key]; conflict {
			r.flushWrites(c)
		}
		c.rKeys = append(c.rKeys, key)
		c.rActors = append(c.rActors, actor)
		c.rSet[key] = struct{}{}
		if len(c.rKeys) >= r.spec.batch {
			r.flushReads(c)
		}
		return
	}
	t0 := time.Now()
	c.rec.begin(spResilienceCall)
	v, st, err := r.st.kv.Lookup(c.origin, key)
	c.rec.end()
	var wall time.Duration
	if r.priv == nil {
		wall = time.Since(t0)
	}
	r.classify(c, actor, key, v, err)
	if r.priv != nil {
		wall = time.Since(t0)
	}
	c.noteCall(wall, st)
}

// classify checks one read result against the model.
func (r *runner) classify(c *client, actor int, key string, rec []byte, err error) {
	want, written := c.model[key]
	switch {
	case err == nil:
		pt, oerr := r.open(c, actor, key, rec)
		if oerr != nil {
			c.out.OpenErrors++
			c.fold(key, tagWrong, 0)
			r.fail(fmt.Errorf("served read of %q did not open: %w", key, oerr))
			return
		}
		h := fnv64(fnvOffset, pt)
		maybe, pending := c.maybe[key]
		if (written && h == want) || (pending && h == maybe) {
			c.out.Served++
			c.fold(key, tagServed, h)
			return
		}
		c.out.Wrong++
		c.fold(key, tagWrong, h)
		r.fail(fmt.Errorf("served-but-wrong read of %q", key))
	case errors.Is(err, overlay.ErrNotFound):
		if written {
			c.out.FalseNotFound++
			c.fold(key, tagFalseNotFound, 0)
			return
		}
		c.out.NotFound++
		c.fold(key, tagNotFound, 0)
	default:
		c.out.FailedReads++
		c.fold(key, tagFailed, 0)
	}
}

func (r *runner) flushWrites(c *client) {
	if len(c.wKeys) == 0 {
		return
	}
	c.rec.nextOp()
	c.rec.begin(spOp)
	defer c.rec.end()
	t0 := time.Now()
	c.rec.begin(spResilienceCall)
	errs, st, err := r.st.kv.PutBatch(c.origin, c.wKeys, c.wVals)
	c.rec.end()
	c.noteCall(time.Since(t0), st)
	if err != nil {
		r.fail(fmt.Errorf("PutBatch: %w", err))
		return
	}
	for i, key := range c.wKeys {
		c.acked(key, c.wHashes[i], errs[i])
	}
	c.wKeys, c.wVals, c.wHashes = c.wKeys[:0], c.wVals[:0], c.wHashes[:0]
	clear(c.wSet)
}

func (r *runner) flushReads(c *client) {
	if len(c.rKeys) == 0 {
		return
	}
	c.rec.nextOp()
	c.rec.begin(spOp)
	defer c.rec.end()
	t0 := time.Now()
	c.rec.begin(spResilienceCall)
	results, st, err := r.st.kv.GetBatch(c.origin, c.rKeys)
	c.rec.end()
	c.noteCall(time.Since(t0), st)
	if err != nil {
		r.fail(fmt.Errorf("GetBatch: %w", err))
		return
	}
	for i, key := range c.rKeys {
		r.classify(c, c.rActors[i], key, results[i].Value, results[i].Err)
	}
	c.rKeys, c.rActors = c.rKeys[:0], c.rActors[:0]
	clear(c.rSet)
}
