package main

import (
	"bufio"
	"fmt"
	"os"
	"strings"
	"time"

	"godosn/internal/overlay"
	"godosn/internal/overlay/dht"
	"godosn/internal/telemetry"
)

// Span names, one per layer boundary the harness can see from outside the
// program. The part before the dot is the layer a span's self time is
// charged to.
const (
	spOp = iota
	spMaint
	spRevoke
	spPrivacySeal
	spPrivacyOpen
	spPrivacyRevoke
	spRecordSeal
	spRecordOpen
	spScrubPass
	spResilienceCall
	spDHTStore
	spDHTLookup
	spDHTPutBatch
	spDHTGetBatch
	spDHTReplicasFor
	spDHTLookupFrom
	spDHTStoreTo
	spDHTDigestFrom
	spDHTFetchBatchFrom
	spDHTStoreBatchTo
	spDHTDigestBatchFrom
	spDHTHeal
	numSpanNames
)

var spanNames = [numSpanNames]string{
	spOp:                 "harness.op",
	spMaint:              "harness.maint",
	spRevoke:             "harness.revoke",
	spPrivacySeal:        "privacy.seal",
	spPrivacyOpen:        "privacy.open",
	spPrivacyRevoke:      "privacy.revoke",
	spRecordSeal:         "scrub.record_seal",
	spRecordOpen:         "scrub.record_open",
	spScrubPass:          "scrub.pass",
	spResilienceCall:     "resilience.call",
	spDHTStore:           "dht.store",
	spDHTLookup:          "dht.lookup",
	spDHTPutBatch:        "dht.put_batch",
	spDHTGetBatch:        "dht.get_batch",
	spDHTReplicasFor:     "dht.replicas_for",
	spDHTLookupFrom:      "dht.lookup_from",
	spDHTStoreTo:         "dht.store_to",
	spDHTDigestFrom:      "dht.digest_from",
	spDHTFetchBatchFrom:  "dht.fetch_batch_from",
	spDHTStoreBatchTo:    "dht.store_batch_to",
	spDHTDigestBatchFrom: "dht.digest_batch_from",
	spDHTHeal:            "dht.heal",
}

func layerOf(name int) string {
	s := spanNames[name]
	return s[:strings.IndexByte(s, '.')]
}

// span is one recorded interval. Times are nanoseconds since the
// recorder's epoch; parent indexes the recorder's own slice (-1: root).
type span struct {
	name   uint8
	parent int32
	op     int32
	start  int64
	end    int64
}

// recorder collects the spans of one client goroutine. Everything a client
// causes runs synchronously on its goroutine (FanoutWorkers is 1), so the
// innermost open span is the parent of the next one and no lock is needed.
// A nil recorder records nothing: the untraced run pays one nil check per
// boundary.
type recorder struct {
	epoch time.Time
	spans []span
	open  []int32
	op    int32
}

func newRecorder(epoch time.Time, capacity int) *recorder {
	return &recorder{epoch: epoch, spans: make([]span, 0, capacity), open: make([]int32, 0, 8)}
}

func (r *recorder) begin(name int) {
	if r == nil {
		return
	}
	parent := int32(-1)
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.open = append(r.open, int32(len(r.spans)))
	r.spans = append(r.spans, span{name: uint8(name), parent: parent, op: r.op, start: int64(time.Since(r.epoch))})
}

func (r *recorder) end() {
	if r == nil {
		return
	}
	n := len(r.open) - 1
	r.spans[r.open[n]].end = int64(time.Since(r.epoch))
	r.open = r.open[:n]
}

// nextOp gives the spans that follow a fresh operation identifier.
func (r *recorder) nextOp() {
	if r != nil {
		r.op++
	}
}

// spanTotals is what the per-layer metrics need from a span list.
type spanTotals struct {
	count [numSpanNames]int64
	total [numSpanNames]int64 // inclusive duration
	self  [numSpanNames]int64 // duration minus the part child spans cover
}

// selfTimes charges every span its duration minus the time its child spans
// cover. Children of one parent never overlap (one goroutine), so covered
// time is the plain sum of child durations.
func selfTimes(spans []span) spanTotals {
	var t spanTotals
	covered := make([]int64, len(spans))
	for _, s := range spans {
		if s.parent >= 0 {
			covered[s.parent] += s.end - s.start
		}
	}
	for i, s := range spans {
		d := s.end - s.start
		t.count[s.name]++
		t.total[s.name] += d
		t.self[s.name] += d - covered[i]
	}
	return t
}

func (t *spanTotals) add(o spanTotals) {
	for i := range t.count {
		t.count[i] += o.count[i]
		t.total[i] += o.total[i]
		t.self[i] += o.self[i]
	}
}

// layerSelf sums self time by layer.
func (t spanTotals) layerSelf() map[string]int64 {
	out := map[string]int64{}
	for i, ns := range t.self {
		out[layerOf(i)] += ns
	}
	return out
}

func (t spanTotals) prefixed(prefix string) (count, total int64) {
	for i := range t.count {
		if strings.HasPrefix(spanNames[i], prefix) {
			count += t.count[i]
			total += t.total[i]
		}
	}
	return count, total
}

// writeSpans writes the recorders' spans as JSON lines, after the clock has
// stopped.
func writeSpans(path string, recs []*recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	for c, r := range recs {
		for i, s := range r.spans {
			fmt.Fprintf(w, `{"client":%d,"id":%d,"name":%q,"start":%d,"end":%d,"parent":%d,"op":%d}`+"\n",
				c, i, spanNames[s.name], s.start, s.end, s.parent, s.op)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedDHT stamps every data- and maintenance-plane call into the DHT. It
// embeds the *dht.DHT, so every overlay capability the bare DHT has is
// still found by the type assertions in resilience.Wrap and scrub.New and
// no fallback path is taken; only the methods below are overridden. simnet
// cannot be wrapped the same way (dht.New takes the concrete network), so
// dht.* spans include transport and the node stores.
type tracedDHT struct {
	*dht.DHT
	// recFor returns the calling client's recorder, keyed by the origin
	// node the call names (each client originates at its own node).
	recFor func(origin string) *recorder
}

func (t *tracedDHT) Store(origin, key string, value []byte) (overlay.OpStats, error) {
	r := t.recFor(origin)
	r.begin(spDHTStore)
	st, err := t.DHT.Store(origin, key, value)
	r.end()
	return st, err
}

func (t *tracedDHT) StoreSpan(sp *telemetry.Span, origin, key string, value []byte) (overlay.OpStats, error) {
	r := t.recFor(origin)
	r.begin(spDHTStore)
	st, err := t.DHT.StoreSpan(sp, origin, key, value)
	r.end()
	return st, err
}

func (t *tracedDHT) Lookup(origin, key string) ([]byte, overlay.OpStats, error) {
	r := t.recFor(origin)
	r.begin(spDHTLookup)
	v, st, err := t.DHT.Lookup(origin, key)
	r.end()
	return v, st, err
}

func (t *tracedDHT) LookupSpan(sp *telemetry.Span, origin, key string) ([]byte, overlay.OpStats, error) {
	r := t.recFor(origin)
	r.begin(spDHTLookup)
	v, st, err := t.DHT.LookupSpan(sp, origin, key)
	r.end()
	return v, st, err
}

func (t *tracedDHT) PutBatch(origin string, keys []string, values [][]byte) ([]error, overlay.OpStats, error) {
	r := t.recFor(origin)
	r.begin(spDHTPutBatch)
	errs, st, err := t.DHT.PutBatch(origin, keys, values)
	r.end()
	return errs, st, err
}

func (t *tracedDHT) GetBatch(origin string, keys []string) ([]overlay.BatchResult, overlay.OpStats, error) {
	r := t.recFor(origin)
	r.begin(spDHTGetBatch)
	res, st, err := t.DHT.GetBatch(origin, keys)
	r.end()
	return res, st, err
}

func (t *tracedDHT) ReplicasFor(origin, key string) ([]string, overlay.OpStats, error) {
	r := t.recFor(origin)
	r.begin(spDHTReplicasFor)
	names, st, err := t.DHT.ReplicasFor(origin, key)
	r.end()
	return names, st, err
}

func (t *tracedDHT) LookupFrom(origin, key, replica string) ([]byte, overlay.OpStats, error) {
	r := t.recFor(origin)
	r.begin(spDHTLookupFrom)
	v, st, err := t.DHT.LookupFrom(origin, key, replica)
	r.end()
	return v, st, err
}

func (t *tracedDHT) StoreTo(origin, key string, value []byte, replica string) (overlay.OpStats, error) {
	r := t.recFor(origin)
	r.begin(spDHTStoreTo)
	st, err := t.DHT.StoreTo(origin, key, value, replica)
	r.end()
	return st, err
}

func (t *tracedDHT) DigestFrom(origin string, keys []string, nonce uint64, replica string) (overlay.Digest, overlay.OpStats, error) {
	r := t.recFor(origin)
	r.begin(spDHTDigestFrom)
	d, st, err := t.DHT.DigestFrom(origin, keys, nonce, replica)
	r.end()
	return d, st, err
}

func (t *tracedDHT) FetchBatchFrom(origin string, keys []string, replica string) ([]overlay.BatchResult, overlay.OpStats, error) {
	r := t.recFor(origin)
	r.begin(spDHTFetchBatchFrom)
	res, st, err := t.DHT.FetchBatchFrom(origin, keys, replica)
	r.end()
	return res, st, err
}

func (t *tracedDHT) StoreBatchTo(origin string, keys []string, values [][]byte, replica string) ([]error, overlay.OpStats, error) {
	r := t.recFor(origin)
	r.begin(spDHTStoreBatchTo)
	errs, st, err := t.DHT.StoreBatchTo(origin, keys, values, replica)
	r.end()
	return errs, st, err
}

func (t *tracedDHT) DigestBatchFrom(origin string, groups [][]string, nonce uint64, replica string) ([]overlay.Digest, overlay.OpStats, error) {
	r := t.recFor(origin)
	r.begin(spDHTDigestBatchFrom)
	ds, st, err := t.DHT.DigestBatchFrom(origin, groups, nonce, replica)
	r.end()
	return ds, st, err
}

// Heal names no origin; maintenance runs on the first client's goroutine.
func (t *tracedDHT) Heal() (overlay.HealReport, error) {
	r := t.recFor("")
	r.begin(spDHTHeal)
	rep, err := t.DHT.Heal()
	r.end()
	return rep, err
}

func (t *tracedDHT) HealSpan(sp *telemetry.Span) (overlay.HealReport, error) {
	r := t.recFor("")
	r.begin(spDHTHeal)
	rep, err := t.DHT.HealSpan(sp)
	r.end()
	return rep, err
}
