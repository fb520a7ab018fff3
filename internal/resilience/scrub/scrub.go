package scrub

import (
	"bytes"
	"errors"
	"slices"
	"sort"
	"strconv"
	"sync/atomic"

	"godosn/internal/crypto/merkle"
	"godosn/internal/overlay"
	"godosn/internal/parallel"
	"godosn/internal/telemetry"
)

// Config parameterizes a Scrubber.
type Config struct {
	// Origin is the node the scrubber's reads and repairs originate at.
	Origin string
	// Workers bounds concurrent replica-set groups in flight (<= 1 serial).
	// On a lossy network, worker counts > 1 make the assignment of seeded
	// drops to individual messages scheduling-dependent; seeded experiments
	// keep the serial default.
	Workers int
	// PerKey forces the per-key maintenance RPC path (one digest exchange
	// per group, one fetch per key per replica, one repair push per copy)
	// even when the overlay implements the batched contracts
	// (overlay.BatchRepairKV / overlay.BatchDigestKV) — the measured
	// baseline for E26 and an escape hatch.
	PerKey bool
}

// DefaultConfig scrubs serially from origin.
func DefaultConfig(origin string) Config {
	return Config{Origin: origin, Workers: 1}
}

// Report summarizes one scrub pass.
type Report struct {
	// KeysScanned is the number of distinct keys examined.
	KeysScanned int
	// Groups is the number of replica-set groups the keys resolved into.
	Groups int
	// DigestClean is the number of groups short-circuited because every
	// replica returned the same Merkle digest over the group's keys.
	DigestClean int
	// KeysCompared is the number of keys drilled into (full value fetch).
	KeysCompared int
	// CleanKeys is the number of drilled keys whose copies all verified
	// and agreed.
	CleanKeys int
	// DivergentKeys is the number of drilled keys with at least one
	// condemned or missing copy.
	DivergentKeys int
	// CorruptCopies is the number of copies condemned (failed verification
	// or diverged from the verified canonical value, surviving recheck).
	CorruptCopies int
	// MissingCopies is the number of replicas that answered not-found.
	MissingCopies int
	// RepairedWrites is the number of copies overwritten with the
	// canonical value (successful repair pushes).
	RepairedWrites int
	// RepairWriteFailures is the number of repair pushes that failed in
	// flight (left for the next pass).
	RepairWriteFailures int
	// UnreachableHolders is the number of replica contacts that failed
	// with a delivery error during drill-down — the copy's state is
	// unknown, and liveness is the healer's job, not the scrubber's.
	UnreachableHolders int
	// Failed is the number of keys that could not be scrubbed: replica
	// resolution failed, or no copy verified (no trusted value to repair
	// from).
	Failed int
	// BatchRPCs is the number of batched maintenance RPCs the pass issued
	// (multi-group digests, column fetches, batched rechecks, coalesced
	// repair envelopes); 0 on the per-key path.
	BatchRPCs int
	// BatchMsgs is the number of network messages those batched RPCs
	// charged; 0 on the per-key path.
	BatchMsgs int
	// RepairBatches is the number of coalesced repair envelopes pushed
	// (StoreBatchTo calls); 0 on the per-key path.
	RepairBatches int
	// CoalescedPushes is the number of repair pushes that shared an
	// envelope with at least one sibling push — writes that would each
	// have cost a full RPC on the per-key path.
	CoalescedPushes int
	// Failed is counted above; Digest fingerprints the pass outcome
	// (groups in formation order; digest-clean groups contribute their
	// replica digest, drilled keys their canonical copy). Two runs over
	// identical state and seeds produce identical digests.
	Digest [32]byte
	// Stats is the network cost of the pass, including repairs.
	Stats overlay.OpStats
}

// Scrubber walks replica sets comparing, verifying, and repairing copies.
// It is the active half of the integrity layer: the resilience KV's Verify
// hook guarantees corrupt reads never surface, the scrubber removes the
// corruption and quarantines its source.
type Scrubber struct {
	kv      overlay.ReplicaKV
	repair  overlay.RepairKV      // nil: overlay cannot write per-replica
	digests overlay.DigestKV      // nil: overlay cannot summarize
	brepair overlay.BatchRepairKV // nil: overlay cannot batch fetch/repair
	bdigest overlay.BatchDigestKV // nil: overlay cannot batch digests
	cfg     Config
	verdict func(node string, ok bool)
	invalid func(key string) // nil until SetInvalidator
	pass    atomic.Uint64    // freshness nonce source: one per Scrub call
	tel     *scrubTelemetry  // nil until SetTelemetry
}

// scrubTelemetry holds the scrubber's resolved registry instruments.
type scrubTelemetry struct {
	passes        *telemetry.Counter
	keysScanned   *telemetry.Counter
	digestClean   *telemetry.Counter
	keysCompared  *telemetry.Counter
	corrupt       *telemetry.Counter
	missing       *telemetry.Counter
	unreachable   *telemetry.Counter
	repaired      *telemetry.Counter
	repairFails   *telemetry.Counter
	failed        *telemetry.Counter
	batchRPCs     *telemetry.Counter
	batchMsgs     *telemetry.Counter
	repairBatches *telemetry.Counter
	coalesced     *telemetry.Counter
	events        *telemetry.Log
}

// SetTelemetry mirrors the scrubber's per-pass accounting into reg's
// counters and emits repair/verdict events to reg's event log. Counters
// and events are updated in the deterministic merge loop only, so their
// values and order are independent of Workers.
func (s *Scrubber) SetTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		s.tel = nil
		return
	}
	s.tel = &scrubTelemetry{
		passes:        reg.Counter("scrub_passes_total"),
		keysScanned:   reg.Counter("scrub_keys_scanned_total"),
		digestClean:   reg.Counter("scrub_digest_clean_groups_total"),
		keysCompared:  reg.Counter("scrub_keys_compared_total"),
		corrupt:       reg.Counter("scrub_corrupt_copies_total"),
		missing:       reg.Counter("scrub_missing_copies_total"),
		unreachable:   reg.Counter("scrub_unreachable_holders_total"),
		repaired:      reg.Counter("scrub_repaired_writes_total"),
		repairFails:   reg.Counter("scrub_repair_write_failures_total"),
		failed:        reg.Counter("scrub_failed_keys_total"),
		batchRPCs:     reg.Counter("scrub_batch_rpcs_total"),
		batchMsgs:     reg.Counter("scrub_batch_msgs_total"),
		repairBatches: reg.Counter("scrub_repair_batches_total"),
		coalesced:     reg.Counter("scrub_repair_coalesced_pushes_total"),
		events:        reg.Events(),
	}
}

// New builds a scrubber over a replica-addressing overlay. Digest
// short-circuiting and repair activate automatically when the overlay
// implements overlay.DigestKV / overlay.RepairKV; the batched maintenance
// paths activate when it also implements overlay.BatchDigestKV /
// overlay.BatchRepairKV (Config.PerKey forces the per-key paths back on).
func New(kv overlay.ReplicaKV, cfg Config) *Scrubber {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	s := &Scrubber{kv: kv, cfg: cfg}
	if r, ok := kv.(overlay.RepairKV); ok {
		s.repair = r
	}
	if d, ok := kv.(overlay.DigestKV); ok {
		s.digests = d
	}
	if br, ok := kv.(overlay.BatchRepairKV); ok {
		s.brepair = br
	}
	if bd, ok := kv.(overlay.BatchDigestKV); ok {
		s.bdigest = bd
	}
	return s
}

// batchDigests reports whether the multi-group digest phase is active.
func (s *Scrubber) batchDigests() bool { return s.bdigest != nil && !s.cfg.PerKey }

// batchData reports whether batched drill-down (column fetch, coalesced
// recheck and repair) is active.
func (s *Scrubber) batchData() bool { return s.brepair != nil && !s.cfg.PerKey }

// SetVerdict installs the corruption-verdict sink, called once per node per
// pass after the merge, in first-appearance order (group, then replica)
// regardless of Workers: ok=false means the node served a condemned copy,
// ok=true that every copy it served was canonical; missing and unreachable
// copies give none. Wired to a resilience breaker (Breaker.ReportCorrupt /
// Report), a rate-1 liar is quarantined after Threshold passes, while a rot
// burst on an honest node is one strike that its next clean pass clears.
func (s *Scrubber) SetVerdict(fn func(node string, ok bool)) { s.verdict = fn }

// SetInvalidator installs a per-key cache-invalidation sink, called during
// the deterministic merge for every key a pass found divergent (a condemned
// or missing copy) or failed to compare. The resilient KV wires its
// verified-value cache here so no cached value outlives a condemnation of
// its holder group. Call before the first Scrub; not synchronized with
// in-flight passes.
func (s *Scrubber) SetInvalidator(fn func(key string)) { s.invalid = fn }

// Group is one pre-resolved scrub unit: a replica set and the keys that
// resolve to it. Schedulers that plan replica sets from local state
// (scrub.Sweeper via dht.PlanReplicas) hand groups straight to
// ScrubResolved, skipping the per-key ReplicasFor resolution Scrub pays.
type Group struct {
	// Replicas is the replica candidate set shared by every key.
	Replicas []string
	// Keys are the keys to verify against that set.
	Keys []string
}

// group is the internal form of one replica set and its keys.
type group struct {
	replicas []string
	keys     []string
}

// copyState classifies one replica's copy of one key.
type copyState int

const (
	copyCanonical   copyState = iota // verified, matches canonical
	copyCondemned                    // failed verify or diverged at the winning version, survived recheck
	copyMissing                      // replica answered not-found, or holds an older verified version
	copyUnreachable                  // delivery failure; liveness is the healer's job
	copyHeld                         // fetched, not yet judged by the election
)

// keyOutcome is the drilled-down result for one key.
type keyOutcome struct {
	key       string
	canonical []byte
	found     bool
	version   uint64      // winning record version of the election
	best      [32]byte    // winning copy leaf of the election
	states    []copyState // by replica index, aligned with the group's replicas
	failed    bool
}

// drillScratch is one drill-down's per-key working state, laid out by
// replica index in arrays sized once per group: the key's copy states, the
// copies fetched and what the election read from them.
type drillScratch struct {
	states []copyState
	values [][]byte
	held   []heldCopy
}

// heldCopy is what the election reads from one verified copy.
type heldCopy struct {
	leaf    [32]byte
	version uint64
}

func newDrillScratch(keys, replicas int) drillScratch {
	return drillScratch{
		states: make([]copyState, keys*replicas),
		values: make([][]byte, replicas),
		held:   make([]heldCopy, replicas),
	}
}

// outcome starts key ki's outcome over its slice of the states.
func (d *drillScratch) outcome(ki int, key string) keyOutcome {
	n := len(d.values)
	return keyOutcome{key: key, states: d.states[ki*n : (ki+1)*n : (ki+1)*n]}
}

// repairPush records one repair write for deterministic event emission.
type repairPush struct {
	key string
	to  string
	ok  bool
}

// groupResult carries a processed group's accounting back to the merge.
type groupResult struct {
	g             group
	digestClean   bool
	digestRoot    [32]byte
	outcomes      []keyOutcome
	repaired      int
	unrepair      int
	pushes        []repairPush // in (key, replica) order
	batchRPCs     int
	batchMsgs     int
	repairBatches int
	coalesced     int
	stats         overlay.OpStats
	span          *telemetry.Span // detached per-group span; nil when untraced
}

// Scrub runs one pass over the given keys and reports what it found and
// fixed. Keys are deduplicated in first-occurrence order; within a group
// keys are walked sorted.
func (s *Scrubber) Scrub(keys []string) (Report, error) {
	return s.ScrubSpan(nil, keys)
}

// ScrubSpan is Scrub with the pass's digest exchanges, drill-down
// verifications, and repair pushes attributed to child spans of sp (nil
// sp: identical untraced pass). Group spans are built detached by the
// workers and adopted in deterministic group order.
func (s *Scrubber) ScrubSpan(sp *telemetry.Span, keys []string) (Report, error) {
	report := Report{}
	uniq := dedupe(keys)
	report.KeysScanned = len(uniq)
	if len(uniq) == 0 {
		report.Digest = overlay.DigestOf(nil)
		s.notePass(&report)
		return report, nil
	}

	// Resolve every key's replica set and bucket keys by set: keys sharing
	// a replica set are compared through one digest exchange. Group
	// formation order follows the first-occurrence key order.
	type resolved struct {
		key      string
		replicas []string
		stats    overlay.OpStats
		err      error
	}
	res, _ := parallel.Map(s.cfg.Workers, uniq, func(_ int, key string) (resolved, error) {
		names, st, err := s.kv.ReplicasFor(s.cfg.Origin, key)
		return resolved{key: key, replicas: names, stats: st, err: err}, nil
	})
	// A replica set's signature is built in one reused buffer and only a
	// new set's is kept as a string: the lookup allocates nothing per key.
	bySet := make(map[string]int)
	var groups []group
	var sig []byte
	for _, r := range res {
		report.Stats.Add(&r.stats)
		if r.err != nil || len(r.replicas) == 0 {
			report.Failed++
			continue
		}
		sig = sig[:0]
		for _, name := range r.replicas {
			sig = append(append(sig, name...), 0)
		}
		gi, ok := bySet[string(sig)]
		if !ok {
			gi = len(groups)
			bySet[string(sig)] = gi
			groups = append(groups, group{replicas: r.replicas})
		}
		groups[gi].keys = append(groups[gi].keys, r.key)
	}
	for _, g := range groups {
		sort.Strings(g.keys)
	}
	report.Groups = len(groups)
	s.run(sp, &report, groups)
	return report, nil
}

// ScrubResolved runs one pass over pre-resolved groups, skipping replica
// resolution entirely: the caller (a scheduler planning from local overlay
// state, e.g. Sweeper over dht.PlanReplicas) already knows each key's
// replica set. Network cost is bounded above by WorstCaseMessages over the
// same groups.
func (s *Scrubber) ScrubResolved(groups []Group) (Report, error) {
	return s.ScrubResolvedSpan(nil, groups)
}

// ScrubResolvedSpan is ScrubResolved with span attribution (see ScrubSpan).
func (s *Scrubber) ScrubResolvedSpan(sp *telemetry.Span, groups []Group) (Report, error) {
	report := Report{}
	gs := make([]group, 0, len(groups))
	for _, g := range groups {
		// Sorted, then deduplicated in place: the set dedupe keeps, in the
		// order the group walks it, with one allocation per group.
		keys := slices.Clone(g.Keys)
		slices.Sort(keys)
		keys = slices.Compact(keys)
		report.KeysScanned += len(keys)
		if len(keys) == 0 {
			continue
		}
		if len(g.Replicas) == 0 {
			report.Failed += len(keys)
			continue
		}
		gs = append(gs, group{replicas: slices.Clone(g.Replicas), keys: keys})
	}
	report.Groups = len(gs)
	if len(gs) == 0 {
		report.Digest = overlay.DigestOf(nil)
		s.notePass(&report)
		return report, nil
	}
	s.run(sp, &report, gs)
	return report, nil
}

// run executes the scrub pipeline over formed groups: the hoisted batched
// digest phase, the per-group drill-downs, and the deterministic merge.
func (s *Scrubber) run(sp *telemetry.Span, report *Report, groups []group) {
	nonce := s.pass.Add(1)
	digests := s.digestPhase(sp, nonce, groups, report)

	results, _ := parallel.Map(s.cfg.Workers, groups, func(i int, g group) (groupResult, error) {
		var gsp *telemetry.Span
		if sp != nil {
			gsp = telemetry.NewSpan("group")
		}
		var dg *groupDigests
		if digests != nil {
			dg = digests[i]
		}
		return s.scrubGroup(gsp, nonce, g, dg), nil
	})

	// Merge deterministically in group order: verdicts, counters, events,
	// spans, and the pass fingerprint all follow group formation order
	// (sorted keys within a group), independent of Workers. The
	// fingerprint has at most one leaf per key, in a slice sized for all.
	nkeys := 0
	for _, g := range groups {
		nkeys += len(g.keys)
	}
	fp := make([][32]byte, 0, nkeys)
	var clean map[string]bool // node -> served only canonical copies
	var judged []string       // nodes with a verdict, first appearance first
	if s.verdict != nil {
		clean = make(map[string]bool)
	}
	for _, r := range results {
		sp.Adopt(r.span)
		report.Stats.Add(&r.stats)
		report.RepairedWrites += r.repaired
		report.RepairWriteFailures += r.unrepair
		report.BatchRPCs += r.batchRPCs
		report.BatchMsgs += r.batchMsgs
		report.RepairBatches += r.repairBatches
		report.CoalescedPushes += r.coalesced
		if s.tel != nil { // events only when a registry is attached
			for _, p := range r.pushes {
				s.tel.events.Emit("scrub.repair", telemetry.A("key", p.key),
					telemetry.A("to", p.to), telemetry.A("ok", strconv.FormatBool(p.ok)))
			}
		}
		if r.digestClean {
			report.DigestClean++
			for _, key := range r.g.keys {
				fp = append(fp, merkle.NodeHash(merkle.LeafHash([]byte(key)), r.digestRoot))
			}
			continue
		}
		if s.verdict != nil {
			judged = judge(clean, judged, &r)
		}
		for _, o := range r.outcomes {
			report.KeysCompared++
			if o.failed {
				report.Failed++
				if s.invalid != nil {
					// The pass could not establish this key's canonical
					// value — any cached copy is suspect.
					s.invalid(o.key)
				}
				continue
			}
			divergent := false
			for ri, name := range r.g.replicas {
				switch o.states[ri] {
				case copyCondemned:
					report.CorruptCopies++
					divergent = true
					if s.tel != nil {
						s.tel.events.Emit("scrub.condemned", telemetry.A("key", o.key), telemetry.A("node", name))
					}
				case copyMissing:
					report.MissingCopies++
					divergent = true
				case copyUnreachable:
					report.UnreachableHolders++
				}
			}
			if divergent {
				report.DivergentKeys++
				if s.invalid != nil {
					// A condemned or missing copy existed: drop any cached
					// value so the next read re-verifies post-repair state.
					s.invalid(o.key)
				}
			} else {
				report.CleanKeys++
			}
			fp = append(fp, merkle.NodeHash(merkle.LeafHash([]byte(o.key)),
				overlay.CopyLeaf(o.key, o.canonical, o.found)))
		}
	}
	report.Digest = merkle.RootOf(fp)
	s.notePass(report)
	for _, name := range judged { // one verdict per node per pass (SetVerdict)
		s.verdict(name, clean[name])
	}
}

// judge folds one drilled group's copy states into the pass's per-node
// verdicts and returns order extended by the nodes judged for the first
// time, in replica order. A node that served any condemned copy is judged
// corrupt, one that served only canonical copies clean; missing and
// unreachable copies, and keys the pass could not elect, judge nobody.
func judge(clean map[string]bool, order []string, r *groupResult) []string {
	for ri, name := range r.g.replicas {
		for _, o := range r.outcomes {
			st := o.states[ri]
			if o.failed || (st != copyCanonical && st != copyCondemned) {
				continue
			}
			prev, seen := clean[name]
			if !seen {
				order = append(order, name)
				prev = true
			}
			clean[name] = prev && st == copyCanonical
		}
	}
	return order
}

// groupDigests carries one group's per-replica digest columns, fetched by
// the hoisted multi-group digest phase. A replica whose reply failed or
// never arrived has got=false — the group then drills down, never trusting
// a partial summary.
type groupDigests struct {
	roots []overlay.Digest // aligned with the group's replicas
	got   []bool
}

// clean reports whether every replica answered and all nonce-bound roots
// agree.
func (d *groupDigests) clean() bool {
	for _, ok := range d.got {
		if !ok {
			return false
		}
	}
	for _, r := range d.roots[1:] {
		if r.Fresh != d.roots[0].Fresh {
			return false
		}
	}
	return true
}

// digestPhase runs the hoisted multi-group digest exchange: one
// DigestBatchFrom per distinct replica, covering every multi-replica group
// that replica participates in, instead of one DigestFrom per (group,
// replica) pair. Returns nil when the batched digest path is inactive
// (groups then run the legacy per-group exchange inside scrubGroup).
// Stats, counters, and spans are merged in deterministic replica order.
func (s *Scrubber) digestPhase(sp *telemetry.Span, nonce uint64, groups []group, report *Report) []*groupDigests {
	if !s.batchDigests() {
		return nil
	}
	idx := make(map[string][]int) // replica -> participating group indices
	var order []string            // first-appearance replica order
	for gi := range groups {
		if len(groups[gi].replicas) < 2 {
			continue
		}
		for _, name := range groups[gi].replicas {
			if _, ok := idx[name]; !ok {
				order = append(order, name)
			}
			idx[name] = append(idx[name], gi)
		}
	}
	out := make([]*groupDigests, len(groups))
	for gi := range groups {
		if len(groups[gi].replicas) < 2 {
			continue
		}
		out[gi] = &groupDigests{
			roots: make([]overlay.Digest, len(groups[gi].replicas)),
			got:   make([]bool, len(groups[gi].replicas)),
		}
	}
	if len(order) == 0 {
		return out
	}
	type digestCol struct {
		name  string
		roots []overlay.Digest
		st    overlay.OpStats
		err   error
		span  *telemetry.Span
	}
	cols, _ := parallel.Map(s.cfg.Workers, order, func(_ int, name string) (digestCol, error) {
		gis := idx[name]
		keyGroups := make([][]string, len(gis))
		for j, gi := range gis {
			keyGroups[j] = groups[gi].keys
		}
		var dsp *telemetry.Span
		if sp != nil {
			dsp = telemetry.NewSpan("digest")
			dsp.Tag("replica", name)
			dsp.Tag("groups", strconv.Itoa(len(gis)))
		}
		roots, st, err := s.bdigest.DigestBatchFrom(s.cfg.Origin, keyGroups, nonce, name)
		dsp.AddLatency(st.Latency)
		if err != nil {
			dsp.End("error")
		} else {
			dsp.End("ok")
		}
		return digestCol{name: name, roots: roots, st: st, err: err, span: dsp}, nil
	})
	for _, c := range cols {
		sp.Adopt(c.span)
		report.Stats.Add(&c.st)
		report.BatchRPCs++
		report.BatchMsgs += c.st.Messages
		if c.err != nil {
			continue
		}
		for j, gi := range idx[c.name] {
			gd := out[gi]
			for ri, rn := range groups[gi].replicas {
				if rn == c.name {
					gd.roots[ri] = c.roots[j]
					gd.got[ri] = true
					break
				}
			}
		}
	}
	return out
}

// WorstCaseMessages bounds the network messages one ScrubResolved pass over
// groups can charge, so a budgeted scheduler (Sweeper) can decide whether a
// chunk fits the remaining per-tick budget before spending anything. The
// bound assumes every RPC completes (a successful simnet RPC charges
// exactly two messages — request and reply; failures charge fewer) and
// every phase fires: digest exchange, full drill-down, recheck, and repair
// of every copy.
func (s *Scrubber) WorstCaseMessages(groups []Group) int {
	const perRPC = 2 // request + reply
	total := 0
	if s.batchDigests() {
		distinct := make(map[string]bool)
		for _, g := range groups {
			if len(g.Replicas) < 2 {
				continue
			}
			for _, n := range g.Replicas {
				distinct[n] = true
			}
		}
		total += len(distinct) * perRPC
	} else if s.digests != nil {
		for _, g := range groups {
			if len(g.Replicas) > 1 {
				total += len(g.Replicas) * perRPC
			}
		}
	}
	for _, g := range groups {
		phases := 2 // column / per-key fetch, recheck
		if s.repair != nil || s.brepair != nil {
			phases++
		}
		if s.batchData() {
			total += phases * len(g.Replicas) * perRPC
		} else {
			total += phases * len(g.Replicas) * len(g.Keys) * perRPC
		}
	}
	return total
}

// notePass mirrors a finished pass's accounting into the registry.
func (s *Scrubber) notePass(r *Report) {
	t := s.tel
	if t == nil {
		return
	}
	t.passes.Inc()
	t.keysScanned.Add(int64(r.KeysScanned))
	t.digestClean.Add(int64(r.DigestClean))
	t.keysCompared.Add(int64(r.KeysCompared))
	t.corrupt.Add(int64(r.CorruptCopies))
	t.missing.Add(int64(r.MissingCopies))
	t.unreachable.Add(int64(r.UnreachableHolders))
	t.repaired.Add(int64(r.RepairedWrites))
	t.repairFails.Add(int64(r.RepairWriteFailures))
	t.failed.Add(int64(r.Failed))
	t.batchRPCs.Add(int64(r.BatchRPCs))
	t.batchMsgs.Add(int64(r.BatchMsgs))
	t.repairBatches.Add(int64(r.RepairBatches))
	t.coalesced.Add(int64(r.CoalescedPushes))
}

// scrubGroup processes one replica set: digest comparison first, full value
// comparison and repair only for groups whose digests diverge (or whose
// overlay cannot digest). The pass nonce binds every digest to this pass.
// dg, when non-nil, carries the group's digest columns already fetched by
// the hoisted multi-group phase.
func (s *Scrubber) scrubGroup(gsp *telemetry.Span, nonce uint64, g group, dg *groupDigests) groupResult {
	r := groupResult{g: g, span: gsp}

	// Merkle fast path: matching digests prove the replicas agree
	// byte-for-byte over the whole key batch; a corrupted or lying digest
	// reply forces the drill-down, never a false clean. What digest
	// equality cannot prove is that the agreed bytes verify — the read
	// path's Verify hook remains the last line of defense against
	// uniformly-corrupt replica sets.
	if dg != nil {
		if dg.clean() {
			// Equality is judged on the nonce-bound roots, so a replayed
			// reply (recorded under an older nonce) always diverges and
			// forces the drill-down this pass. The nonce-free State root
			// then fingerprints the agreed replica state across passes.
			r.digestClean = true
			r.digestRoot = dg.roots[0].State
			gsp.End("digest-clean")
			return r
		}
	} else if !s.batchDigests() && s.digests != nil && len(g.replicas) > 1 {
		// Per-group exchange: one small RPC per replica instead of every
		// value.
		roots := make([]overlay.Digest, 0, len(g.replicas))
		ok := true
		for _, name := range g.replicas {
			dsp := gsp.Child("digest")
			dsp.Tag("replica", name)
			root, st, err := s.digests.DigestFrom(s.cfg.Origin, g.keys, nonce, name)
			r.stats.Add(&st)
			dsp.AddLatency(st.Latency)
			if err != nil {
				dsp.End("error")
				ok = false
				break
			}
			dsp.End("ok")
			roots = append(roots, root)
		}
		if ok {
			equal := true
			for _, root := range roots[1:] {
				if root.Fresh != roots[0].Fresh {
					equal = false
					break
				}
			}
			if equal {
				r.digestClean = true
				r.digestRoot = roots[0].State
				gsp.End("digest-clean")
				return r
			}
		}
	}

	if s.batchData() {
		s.drillGroupBatched(gsp, g, &r)
	} else {
		for _, key := range g.keys {
			o := s.scrubKey(gsp, key, g.replicas, &r.stats)
			if o.found {
				s.repairKey(gsp, &o, g.replicas, &r)
			}
			r.outcomes = append(r.outcomes, o)
		}
	}
	gsp.End("drilled")
	return r
}

// electKey runs the canonical-value election over one key's fetched copies.
// One freshness rule: the highest verified record version wins; among the
// copies of that version, the largest set of equal copy leaves wins, ties
// broken by smallest leaf hash so the election is deterministic. A verified
// copy of an older version is a write its holder missed, not corruption: it
// becomes missing, is repaired from the winner and judges no node. Pure
// local computation shared by the per-key and batched drill-downs — both
// paths must elect identically for their reports to agree. values and held
// are replica-indexed: a copyHeld state says values holds that replica's
// copy, and held is scratch for what its parse yields. Missing and
// unreachable states are left untouched; every held copy ends canonical,
// condemned or missing.
func electKey(o *keyOutcome, values [][]byte, held []heldCopy) {
	verified := false
	for ri, st := range o.states {
		if st != copyHeld {
			continue
		}
		_, version, fault := readRecord(o.key, values[ri])
		if fault != "" {
			o.states[ri] = copyCondemned
			continue
		}
		held[ri] = heldCopy{leaf: overlay.CopyLeaf(o.key, values[ri], true), version: version}
		if !verified || version > o.version {
			o.version, verified = version, true
		}
	}
	votes := 0 // the winning leaf's
	for ri, st := range o.states {
		if st != copyHeld {
			continue
		}
		if held[ri].version < o.version {
			o.states[ri] = copyMissing
			continue
		}
		n := 0
		for rj, other := range o.states {
			if other == copyHeld && held[rj] == held[ri] {
				n++
			}
		}
		if !o.found || n > votes || (n == votes && bytes.Compare(held[ri].leaf[:], o.best[:]) < 0) {
			o.best, votes, o.found = held[ri].leaf, n, true
		}
	}
	if !o.found {
		// Nothing verified: there is no trusted value to compare against
		// or repair from. Detect-or-fail still holds (the read path rejects
		// these copies); the key is reported failed, not silently skipped.
		o.failed = true
		return
	}
	for ri, st := range o.states {
		if st != copyHeld {
			continue
		}
		if held[ri].leaf == o.best {
			o.states[ri] = copyCanonical
			if o.canonical == nil {
				o.canonical = values[ri]
			}
		} else {
			// Verified but divergent at the winning version: a valid record
			// carrying different bytes — the stale-replay shape. The
			// majority copy wins.
			o.states[ri] = copyCondemned
		}
	}
}

// recheck judges condemned copy ri again from its refetch v, so a one-off
// wire corruption is not blamed on the node: a refetch that verifies as the
// winning copy is canonical, one that verifies at an older version is
// missing, anything else stays condemned. A refetch newer than the winner
// is a write that landed during the pass: its state is unknown to this
// election, so the pass neither judges nor repairs it.
func (o *keyOutcome) recheck(ri int, v []byte) {
	_, version, fault := readRecord(o.key, v)
	switch {
	case fault != "":
	case version > o.version:
		o.states[ri] = copyUnreachable
	case version < o.version:
		o.states[ri] = copyMissing
	case overlay.CopyLeaf(o.key, v, true) == o.best:
		o.states[ri] = copyCanonical
	}
}

// drillGroupBatched is the batched drill-down: one FetchBatchFrom per
// replica retrieves the group's full value columns, elections run locally
// per key over the columns, condemned copies are rechecked with one batched
// refetch per replica, and repair pushes are coalesced into one
// StoreBatchTo per destination replica. Per-key fault isolation holds
// end to end: a failed envelope marks only that replica unreachable, a
// per-key slot error affects only that key, and a failed repair push never
// fails its envelope siblings. Every key's copy states share one array
// sized for the group (drillScratch), and so do the envelopes' key lists
// and the pushes' outcomes, so the drill allocates per group and per
// envelope, not per key.
func (s *Scrubber) drillGroupBatched(gsp *telemetry.Span, g group, r *groupResult) {
	// Phase 1: column fetch — one envelope per replica. A nil column means
	// the whole envelope failed.
	cols := make([][]overlay.BatchResult, len(g.replicas))
	for ri, name := range g.replicas {
		fsp := gsp.Child("fetch")
		if fsp != nil {
			fsp.Tag("replica", name)
			fsp.Tag("keys", strconv.Itoa(len(g.keys)))
		}
		res, st, err := s.brepair.FetchBatchFrom(s.cfg.Origin, g.keys, name)
		r.stats.Add(&st)
		r.batchRPCs++
		r.batchMsgs += st.Messages
		fsp.AddLatency(st.Latency)
		if err != nil {
			fsp.End("error")
			continue
		}
		fsp.End("ok")
		cols[ri] = res
	}

	// Phase 2: per-key election over the columns — local, zero messages.
	// Slots classify exactly as the per-key path classifies a LookupFrom:
	// not-found is a missing copy, any other error leaves the copy's state
	// unknown (unreachable, never repaired over).
	sc := newDrillScratch(len(g.keys), len(g.replicas))
	outs := make([]keyOutcome, len(g.keys))
	for ki, key := range g.keys {
		o := sc.outcome(ki, key)
		for ri := range g.replicas {
			switch {
			case cols[ri] == nil:
				o.states[ri] = copyUnreachable
			case cols[ri][ki].Err == nil:
				o.states[ri], sc.values[ri] = copyHeld, cols[ri][ki].Value
			case errors.Is(cols[ri][ki].Err, overlay.ErrNotFound):
				o.states[ri] = copyMissing
			default:
				o.states[ri] = copyUnreachable
			}
		}
		vsp := gsp.Child("verify")
		vsp.Tag("key", key)
		electKey(&o, sc.values, sc.held)
		switch {
		case !o.found:
			vsp.End("failed")
		case anyDivergent(&o):
			vsp.End("divergent")
		default:
			vsp.End("clean")
		}
		outs[ki] = o
	}

	// One envelope's keys at a time, by group index and by name, and a
	// repair envelope's values: the lists are sized once for the group and
	// refilled replica after replica (no batch call keeps them).
	idx := make([]int, 0, len(g.keys))
	rkeys := make([]string, 0, len(g.keys))
	rvals := make([][]byte, 0, len(g.keys))

	// Phase 3: coalesced recheck — one refetch envelope per replica over
	// its condemned keys, so a one-off wire corruption is not blamed on
	// the node (same contract as the per-key recheck).
	for ri, name := range g.replicas {
		idx, rkeys = idx[:0], rkeys[:0]
		for ki, key := range g.keys {
			if outs[ki].found && outs[ki].states[ri] == copyCondemned {
				idx, rkeys = append(idx, ki), append(rkeys, key)
			}
		}
		if len(idx) == 0 {
			continue
		}
		rsp := gsp.Child("recheck")
		if rsp != nil {
			rsp.Tag("replica", name)
			rsp.Tag("keys", strconv.Itoa(len(idx)))
		}
		res, st, err := s.brepair.FetchBatchFrom(s.cfg.Origin, rkeys, name)
		r.stats.Add(&st)
		r.batchRPCs++
		r.batchMsgs += st.Messages
		rsp.AddLatency(st.Latency)
		if err != nil {
			rsp.End("error")
			continue
		}
		rsp.End("ok")
		for j, ki := range idx {
			if res[j].Err == nil {
				outs[ki].recheck(ri, res[j].Value)
			}
		}
	}

	// Phase 4: coalesced repair — one StoreBatchTo per destination replica
	// carrying every condemned or missing copy it needs, instead of one
	// StoreTo per copy. Each push's outcome is marked by (key, replica) in
	// landed, which then lists the pushes in the order the per-key path
	// emits them.
	landed := make([]bool, len(sc.states))
	pushes := 0
	for ri, name := range g.replicas {
		idx, rkeys, rvals = idx[:0], rkeys[:0], rvals[:0]
		for ki, key := range g.keys {
			o := &outs[ki]
			if !o.found {
				continue
			}
			if st := o.states[ri]; st == copyCondemned || st == copyMissing {
				idx, rkeys, rvals = append(idx, ki), append(rkeys, key), append(rvals, o.canonical)
			}
		}
		if len(idx) == 0 {
			continue
		}
		psp := gsp.Child("repair")
		if psp != nil {
			psp.Tag("to", name)
			psp.Tag("keys", strconv.Itoa(len(idx)))
		}
		errs, st, err := s.brepair.StoreBatchTo(s.cfg.Origin, rkeys, rvals, name)
		r.stats.Add(&st)
		r.batchRPCs++
		r.batchMsgs += st.Messages
		r.repairBatches++
		if len(idx) > 1 {
			r.coalesced += len(idx)
		}
		psp.AddLatency(st.Latency)
		if err != nil {
			psp.End("error")
		} else {
			psp.End("ok")
		}
		for j, ki := range idx {
			ok := err == nil && errs[j] == nil
			if ok {
				r.repaired++
			} else {
				r.unrepair++
			}
			landed[ki*len(g.replicas)+ri] = ok
		}
		pushes += len(idx)
	}
	if pushes > 0 {
		r.pushes = make([]repairPush, 0, pushes)
		for ki := range outs {
			o := &outs[ki]
			for ri, st := range o.states {
				if o.found && (st == copyCondemned || st == copyMissing) {
					r.pushes = append(r.pushes, repairPush{
						key: g.keys[ki], to: g.replicas[ri], ok: landed[ki*len(g.replicas)+ri],
					})
				}
			}
		}
	}
	r.outcomes = outs
}

// anyDivergent reports whether any replica's copy is condemned or missing.
func anyDivergent(o *keyOutcome) bool {
	for _, st := range o.states {
		if st == copyCondemned || st == copyMissing {
			return true
		}
	}
	return false
}

// scrubKey fetches every replica's copy of one key, verifies them, and
// elects the canonical value (electKey). Condemnations are
// recheck-confirmed.
func (s *Scrubber) scrubKey(gsp *telemetry.Span, key string, replicas []string, stats *overlay.OpStats) keyOutcome {
	sc := newDrillScratch(1, len(replicas))
	o := sc.outcome(0, key)
	vsp := gsp.Child("verify")
	vsp.Tag("key", key)
	for ri, name := range replicas {
		v, st, err := s.kv.LookupFrom(s.cfg.Origin, key, name)
		stats.Add(&st)
		vsp.AddLatency(st.Latency)
		switch {
		case err == nil:
			o.states[ri], sc.values[ri] = copyHeld, v
		case errors.Is(err, overlay.ErrNotFound):
			o.states[ri] = copyMissing
		default:
			o.states[ri] = copyUnreachable
		}
	}

	electKey(&o, sc.values, sc.held)
	if !o.found {
		vsp.End("failed")
		return o
	}

	// Recheck: condemned copies are re-fetched once before the verdict
	// stands, so a one-off wire corruption is not blamed on the node.
	for ri, name := range replicas {
		if o.states[ri] != copyCondemned {
			continue
		}
		v, st, err := s.kv.LookupFrom(s.cfg.Origin, key, name)
		stats.Add(&st)
		vsp.AddLatency(st.Latency)
		if err == nil {
			o.recheck(ri, v)
		}
	}
	if anyDivergent(&o) {
		vsp.End("divergent")
	} else {
		vsp.End("clean")
	}
	return o
}

// repairKey pushes the canonical value over condemned and missing copies.
func (s *Scrubber) repairKey(gsp *telemetry.Span, o *keyOutcome, replicas []string, r *groupResult) {
	if s.repair == nil {
		return
	}
	for ri, name := range replicas {
		st := o.states[ri]
		if st != copyCondemned && st != copyMissing {
			continue
		}
		psp := gsp.Child("repair")
		psp.Tag("key", o.key)
		psp.Tag("to", name)
		pst, err := s.repair.StoreTo(s.cfg.Origin, o.key, o.canonical, name)
		r.stats.Add(&pst)
		psp.AddLatency(pst.Latency)
		if err == nil {
			psp.End("ok")
			r.repaired++
		} else {
			psp.End("error")
			r.unrepair++
		}
		r.pushes = append(r.pushes, repairPush{key: o.key, to: name, ok: err == nil})
	}
}

// dedupe removes duplicate keys preserving first-occurrence order. The
// caller's order is load-bearing: group formation (and therefore merge,
// event, and fingerprint order) follows it, so dedupe must keep positions
// stable — identically at any worker count — rather than sort.
func dedupe(keys []string) []string {
	seen := make(map[string]bool, len(keys))
	out := make([]string, 0, len(keys))
	for _, k := range keys {
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, k)
	}
	return out
}
