package bench

import (
	"bytes"
	"fmt"
	"math/rand"

	"godosn/internal/overlay"
	"godosn/internal/overlay/simnet"
	"godosn/internal/resilience/scrub"
	"godosn/internal/stack"
	"godosn/internal/telemetry"
)

// benchNames is the experiment population: node-0 … node-(n-1), node-0 the
// client.
func benchNames(n int) []simnet.NodeID { return stack.NodeNames("node-%d", n) }

// byzFault makes one node (by index) corrupt its replies.
type byzFault struct {
	node int
	mode simnet.ByzMode
	rate float64
}

// e19Byzantine is E19's responder mix, shared by E20's Byzantine arm: four
// 5%-rate responders, one per corruption mode, and one node flipping a bit
// in every reply.
var e19Byzantine = []byzFault{
	{7, simnet.ByzBitFlip, 0.05}, {13, simnet.ByzTruncate, 0.05},
	{19, simnet.ByzReplay, 0.05}, {25, simnet.ByzEquivocate, 0.05},
	{31, simnet.ByzBitFlip, 1},
}

// soak is the fault soak E17, E19, E20 and E21 share, as data: populate
// sealed records on a healthy network, then per operation advance the churn
// schedule, maybe rot one stored copy, heal, maybe scrub, and look one key
// up. Which layers take part follows from the stack the arm built: heal
// runs when there is a resilience decorator, scrub when there is a
// scrubber, and operations go through the decorator when there is one, the
// bare DHT otherwise.
type soak struct {
	name string // experiment id for error messages
	seed int64  // churn, Byzantine and (salted) rot seed
	keys int
	ops  int

	loss   float64 // message loss injected after population
	uptime float64 // churn uptime of every node but the client
	byz    []byzFault

	rotEvery   int   // rot one stored copy every rotEvery ops (0 = never)
	rotSalt    int64 // XORed into seed for the rot RNG
	scrubEvery int   // scrub all keys on the last op of every scrubEvery

	// onSpan, when set, makes every store, heal, scrub and lookup run traced
	// under a fresh root span ("put", "heal", "scrub", "get") and receives
	// the finished tree.
	onSpan func(sp *telemetry.Span)
}

// soakResult is what one soak observed.
type soakResult struct {
	ok       int             // lookups that returned a value
	surfaced int             // of those, values differing from what was stored
	injected int             // stored copies the rot injector corrupted
	detected int             // corrupt copies scrub passes condemned
	repaired int             // copies scrub passes repaired
	total    overlay.OpStats // heal + scrub + lookup cost
}

func (r soakResult) okRate(ops int) float64   { return float64(r.ok) / float64(ops) }
func (r soakResult) msgPerOp(ops int) float64 { return float64(r.total.Messages) / float64(ops) }

// span opens an operation's root span when tracing is on; a nil span runs
// the identical untraced path. done hands the finished tree to onSpan.
func (s soak) span(name string) *telemetry.Span {
	if s.onSpan == nil {
		return nil
	}
	return telemetry.NewSpan(name)
}

func (s soak) done(sp *telemetry.Span) {
	if sp != nil {
		s.onSpan(sp)
	}
}

// run drives the soak over a built stack.
func (s soak) run(st *stack.Stack) (soakResult, error) {
	var res soakResult
	var front overlay.SpanKV = st.DHT
	if st.KV != nil {
		front = st.KV
	}

	allKeys := make([]string, s.keys)
	expected := make(map[string][]byte, s.keys)
	for i := range allKeys {
		key := fmt.Sprintf("k%d", i)
		allKeys[i] = key
		rec := scrub.Seal(key, []byte(fmt.Sprintf("post-%d", i)))
		expected[key] = rec
		sp := s.span("put")
		if _, err := front.StoreSpan(sp, st.Client, key, rec); err != nil {
			return res, fmt.Errorf("bench: %s store: %w", s.name, err)
		}
		s.done(sp)
	}

	st.Net.SetLossRate(s.loss)
	sched, err := simnet.NewFaultSchedule(st.Net, st.Names[1:], simnet.ChurnConfig{Seed: s.seed, Uptime: s.uptime})
	if err != nil {
		return res, err
	}
	defer sched.Restore()
	for _, b := range s.byz {
		if err := st.Net.SetByzantine(st.Names[b.node], simnet.ByzantineConfig{Mode: b.mode, Rate: b.rate, Seed: s.seed}); err != nil {
			return res, err
		}
	}
	rotRng := rand.New(rand.NewSource(s.seed ^ s.rotSalt))

	for i := 0; i < s.ops; i++ {
		sched.Tick()

		// Seeded bit rot: flip a byte in one stored copy of one key. All
		// three draws happen whether or not a holder is found, so arms
		// sharing a seed inject identically.
		if s.rotEvery > 0 && i%s.rotEvery == 0 {
			key := allKeys[rotRng.Intn(len(allKeys))]
			pick := rotRng.Intn(len(st.Names))
			pos := rotRng.Intn(1 << 16)
			var holders []string
			for _, nm := range st.Names {
				if st.DHT.Holds(string(nm), key) {
					holders = append(holders, string(nm))
				}
			}
			if len(holders) > 0 && st.DHT.CorruptStored(holders[pick%len(holders)], key, func(b []byte) []byte {
				if len(b) > 0 {
					b[pos%len(b)] ^= 0x01
				}
				return b
			}) {
				res.injected++
			}
		}

		// Heal re-replicates after churn. It trusts local copies: without a
		// scrubber it can propagate rot.
		if st.KV != nil {
			sp := s.span("heal")
			report, err := st.KV.HealSpan(sp)
			if err != nil {
				return res, err
			}
			res.total.Add(&report.Stats)
			s.done(sp)
		}

		if st.Scrub != nil && i%s.scrubEvery == s.scrubEvery-1 {
			sp := s.span("scrub")
			rep, err := st.Scrub.ScrubSpan(sp, allKeys)
			if err != nil {
				return res, err
			}
			res.total.Add(&rep.Stats)
			res.detected += rep.CorruptCopies
			res.repaired += rep.RepairedWrites
			s.done(sp)
		}

		key := allKeys[i%len(allKeys)]
		sp := s.span("get")
		v, stats, err := front.LookupSpan(sp, st.Client, key)
		res.total.Add(&stats)
		if err == nil {
			res.ok++
			if !bytes.Equal(v, expected[key]) {
				res.surfaced++
			}
		}
		s.done(sp)
	}
	return res, nil
}
