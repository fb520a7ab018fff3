package main

import (
	"fmt"
	"math/rand"
	"time"

	"godosn/internal/overlay/simnet"
)

// Fault schedule of stream-faulted, in ticks of spec.tickActions actions.
// Links stay lossless: the DHT acks a store that reached one replica, so
// under message loss some acked keys become unreadable until the next heal
// and operations fail by design — and the benchmark contract asks for
// workloads on which no operation fails. The faults kept are the ones k=3
// replication with verified, hedged reads must mask completely.
const (
	byzantineNodes = 2
	byzantineRate  = 0.5
	offlineNodes   = 3
	// Every maintainTicks ticks the offline nodes return, a rot burst hits
	// stored copies, heal and scrub run inline, and another set goes down.
	maintainTicks = 25
	// placementProbes keys are sampled to learn which nodes share a replica
	// set, so that no set ever holds two faulty nodes.
	placementProbes = 1 << 15
)

// faultPlane is the seeded fault and maintenance schedule of stream-faulted.
// It is driven inline by the single client, so every seeded RNG is drawn in
// one fixed order and a repetition repeats exactly.
type faultPlane struct {
	rng       *rand.Rand
	ticks     int
	byzantine []simnet.NodeID
	offline   []simnet.NodeID
	// sets are the distinct replica candidate sets of the ring: the k
	// canonical holders of a key range plus its k fallback successors.
	sets [][]string
	// window holds the keys written since the last maintenance round; the
	// rot burst and the scrub pass work on them.
	window []string

	stallNs    []int64 // foreground pause per maintenance round
	healNs     []int64
	healMsgs   int64
	passNs     int64
	passKeys   int64
	passMsgs   int64
	repaired   int64
	unrepaired int64
}

// startFaults turns the healthy ring into the faulted one: Byzantine
// responders and the first set of offline nodes. The client's own node is
// exempt.
func (r *runner) startFaults(seed int64) error {
	f := &faultPlane{rng: rand.New(rand.NewSource(seed ^ 0x5ca1ab1e))}
	seen := map[string]bool{}
	for i := 0; i < placementProbes; i++ {
		set := r.st.dht.PlanReplicas(fmt.Sprintf("probe/%d", i))
		if sig := fmt.Sprint(set); !seen[sig] {
			seen[sig] = true
			f.sets = append(f.sets, set)
		}
	}
	r.faults = f
	f.byzantine = f.pickFaulty(r.st.nodes[1:], byzantineNodes)
	for _, id := range f.byzantine {
		cfg := simnet.ByzantineConfig{Mode: simnet.ByzBitFlip, Rate: byzantineRate, Seed: seed}
		if err := r.st.net.SetByzantine(id, cfg); err != nil {
			return err
		}
	}
	return r.takeOffline()
}

// pickFaulty draws n peers such that no replica set holds two faulty nodes,
// the Byzantine ones and the already chosen included: every key keeps two
// honest, reachable copies.
func (f *faultPlane) pickFaulty(peers []simnet.NodeID, n int) []simnet.NodeID {
	faulty := map[string]bool{}
	for _, id := range f.byzantine {
		faulty[string(id)] = true
	}
	var picked []simnet.NodeID
	for _, i := range f.rng.Perm(len(peers)) {
		if len(picked) == n {
			break
		}
		cand := string(peers[i])
		if faulty[cand] {
			continue
		}
		faulty[cand] = true
		if f.crowded(faulty) {
			delete(faulty, cand)
			continue
		}
		picked = append(picked, peers[i])
	}
	return picked
}

func (f *faultPlane) crowded(faulty map[string]bool) bool {
	for _, set := range f.sets {
		n := 0
		for _, name := range set {
			if faulty[name] {
				n++
			}
		}
		if n > 1 {
			return true
		}
	}
	return false
}

func (r *runner) takeOffline() error {
	f := r.faults
	f.offline = f.pickFaulty(r.st.nodes[1:], offlineNodes)
	for _, id := range f.offline {
		if err := r.st.net.SetOnline(id, false); err != nil {
			return err
		}
	}
	return nil
}

// tick advances the shared tick clock and runs the maintenance round when
// one is due. It runs on the clock: maintenance pauses the foreground.
func (r *runner) tick(c *client) {
	f := r.faults
	r.st.net.TickCapacity()
	r.st.kv.Tick()
	f.ticks++
	if f.ticks%maintainTicks == 0 {
		r.maintain(c)
	}
}

// maintain is one maintenance round: the offline nodes return, a seeded rot
// burst flips a bit in one stored copy of 1 % of the keys written since the
// last round, an anti-entropy heal and one batched scrub pass over the
// rotted keys repair the ring, and another set of nodes goes down.
func (r *runner) maintain(c *client) {
	f := r.faults
	c.rec.nextOp()
	c.rec.begin(spMaint)
	defer c.rec.end()
	t0 := time.Now()

	for _, id := range f.offline {
		if err := r.st.net.SetOnline(id, true); err != nil {
			r.fail(err)
			return
		}
	}
	byzantine := map[string]bool{}
	for _, id := range f.byzantine {
		byzantine[string(id)] = true
	}
	var rotKeys []string
	for _, i := range f.rng.Perm(len(f.window))[:len(f.window)/100] {
		key := f.window[i]
		pick, pos := f.rng.Intn(replication), f.rng.Intn(1<<16)
		var holders []string
		for _, name := range r.st.dht.PlanReplicas(key) {
			if !byzantine[name] && r.st.dht.Holds(name, key) {
				holders = append(holders, name)
			}
		}
		if len(holders) == 0 {
			continue
		}
		if r.st.dht.CorruptStored(holders[pick%len(holders)], key, func(b []byte) []byte {
			b[pos%len(b)] ^= 0x01
			return b
		}) {
			rotKeys = append(rotKeys, key)
		}
	}

	tHeal := time.Now()
	heal, err := r.st.kv.Heal()
	f.healNs = append(f.healNs, int64(time.Since(tHeal)))
	if err != nil {
		r.fail(fmt.Errorf("heal: %w", err))
		return
	}
	f.healMsgs += int64(heal.Stats.Messages)

	tPass := time.Now()
	c.rec.begin(spScrubPass)
	rep, err := r.st.scrubber.Scrub(rotKeys)
	c.rec.end()
	f.passNs += int64(time.Since(tPass))
	if err != nil {
		r.fail(fmt.Errorf("scrub: %w", err))
		return
	}
	f.passKeys += int64(rep.KeysScanned)
	f.passMsgs += int64(rep.Stats.Messages)
	f.repaired += int64(rep.RepairedWrites)
	f.unrepaired += int64(rep.RepairWriteFailures + rep.Failed)

	f.window = f.window[:0]
	if err := r.takeOffline(); err != nil {
		r.fail(err)
	}
	f.stallNs = append(f.stallNs, int64(time.Since(t0)))
}
