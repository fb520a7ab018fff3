package simnet

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
)

// This file implements seeded Byzantine reply corruption: per-node fault
// modes under which a node's RPC *replies* are silently mutated before
// delivery. Unlike the omission faults elsewhere in this package (drops,
// offline nodes, partitions), corruption produces no error — the caller
// receives wrong bytes and must detect them itself (checksummed records,
// signed chains, the integrity scrubber of internal/resilience/scrub).
// Requests are never corrupted: the model is a Byzantine *responder*, not a
// Byzantine wire. Only a reply whose type implements Corruptible can lie; any
// other payload passes every mode untouched.

// Corruptible is a reply payload a Byzantine responder can lie through.
// Corrupt applies mut to each non-empty byte field in a fixed order (the
// seeded mutation stream draws in that order; mut returns a fresh slice) and
// reports whether mut ran. When it ran, the returned payload is a private
// copy, sharing no memory with the original (a handler's state or a frame its
// sender will reuse); when it did not, the caller keeps the original and the
// returned payload may be the original itself. Corrupt(nil) returns a private
// copy with every byte field copied and reports false: what a replayer
// records and serves.
type Corruptible interface {
	Corrupt(mut func([]byte) []byte) (any, bool)
}

// ByzMode selects a node's Byzantine corruption behaviour.
type ByzMode int

// Byzantine fault modes.
const (
	// ByzNone disables corruption (the default).
	ByzNone ByzMode = iota
	// ByzBitFlip flips one random bit in each byte payload of a reply.
	ByzBitFlip
	// ByzTruncate cuts each byte payload to a random shorter prefix.
	ByzTruncate
	// ByzReplay serves a previously recorded reply of the same RPC kind
	// instead of the current one (stale-value replay). Until a reply has
	// been recorded the node answers honestly.
	ByzReplay
	// ByzEquivocate gives different answers to different callers: a
	// deterministic fraction (Rate) of caller identities always receive
	// bit-flipped replies, the rest always receive honest ones.
	ByzEquivocate
)

// String renders the mode.
func (m ByzMode) String() string {
	switch m {
	case ByzNone:
		return "none"
	case ByzBitFlip:
		return "bit-flip"
	case ByzTruncate:
		return "truncate"
	case ByzReplay:
		return "replay"
	case ByzEquivocate:
		return "equivocate"
	default:
		return fmt.Sprintf("byz(%d)", int(m))
	}
}

// ByzantineConfig parameterizes one node's corruption behaviour.
type ByzantineConfig struct {
	// Mode is the corruption behaviour.
	Mode ByzMode
	// Rate is the per-reply corruption probability in [0,1] for BitFlip,
	// Truncate, and Replay; for Equivocate it is the fraction of caller
	// identities that receive corrupted replies. 0 behaves like ByzNone.
	Rate float64
	// Seed perturbs the node's corruption RNG; the stream is derived from
	// the network seed, the node id, and this value, so two runs with the
	// same seeds corrupt identically.
	Seed int64
}

// byzState is one node's corruption state. mu serialises the node's seeded
// stream and its replay memory between concurrent callers.
type byzState struct {
	cfg       ByzantineConfig
	mu        sync.Mutex
	rng       *rand.Rand
	mut       func([]byte) []byte // BitFlip/Truncate mutation over rng, bound once
	lastReply map[string]Message  // per RPC kind, private copies (ByzReplay)
}

// SetByzantine configures (or, with ByzNone, clears) a node's Byzantine
// corruption mode. Unregistered nodes are rejected, mirroring SetOnline.
func (n *Network) SetByzantine(id NodeID, cfg ByzantineConfig) error {
	s, err := n.node(id)
	if err != nil {
		return err
	}
	if cfg.Mode == ByzNone || cfg.Rate <= 0 {
		s.byz.Store(nil)
		return nil
	}
	b := &byzState{
		cfg:       cfg,
		rng:       rand.New(rand.NewSource(n.cfg.Seed ^ labelHash(string(id)) ^ cfg.Seed)),
		lastReply: make(map[string]Message),
	}
	// Bound here rather than per lie: a closure built per reply escapes
	// through the Corrupt call and costs an allocation each time.
	b.mut = func(p []byte) []byte { return flipBit(b.rng, p) }
	if cfg.Mode == ByzTruncate {
		b.mut = func(p []byte) []byte { return truncateBytes(b.rng, p) }
	}
	s.byz.Store(b)
	return nil
}

// corrupt applies the responder's Byzantine mode to a reply from node to to
// caller from, returning the (possibly replaced) message and whether it now
// lies.
func (s *byzState) corrupt(netSeed int64, from, to NodeID, reply Message) (Message, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch s.cfg.Mode {
	case ByzBitFlip, ByzTruncate:
		if s.rng.Float64() >= s.cfg.Rate {
			return reply, false
		}
		return mutatePayload(reply, s.mut)

	case ByzReplay:
		// Record a private copy of the honest reply for future replays, then
		// decide whether to serve the one recorded before it instead. Every
		// reply draws, Corruptible or not, so the stream does not depend on
		// which kinds carry payloads.
		stale, have := s.lastReply[reply.Kind]
		s.lastReply[reply.Kind] = privateCopy(reply)
		if !have || s.rng.Float64() >= s.cfg.Rate {
			return reply, false
		}
		if stale.Payload == nil || payloadEqual(stale, reply) {
			return reply, false
		}
		// Serve a copy of the stale reply so later replays stay pristine
		// even if the caller mutates what it received.
		return privateCopy(stale), true

	case ByzEquivocate:
		// The lie is a deterministic function of the caller identity: the
		// same caller always sees the same (corrupted or honest) behaviour.
		pair := labelHash(string(to)+"\x00"+string(from)) ^ netSeed ^ s.cfg.Seed
		if float64(uint64(pair)%1000)/1000 >= s.cfg.Rate {
			return reply, false
		}
		flipRng := rand.New(rand.NewSource(pair))
		return mutatePayload(reply, func(b []byte) []byte { return flipBit(flipRng, b) })
	}
	return reply, false
}

// flipBit returns a copy of b with one random bit flipped (nil-safe).
func flipBit(rng *rand.Rand, b []byte) []byte {
	if len(b) == 0 {
		return b
	}
	c := append([]byte(nil), b...)
	bit := rng.Intn(len(c) * 8)
	c[bit/8] ^= 1 << uint(bit%8)
	return c
}

// truncateBytes returns a random strict prefix of b (nil-safe).
func truncateBytes(rng *rand.Rand, b []byte) []byte {
	if len(b) == 0 {
		return b
	}
	return append([]byte(nil), b[:rng.Intn(len(b))]...)
}

// mutatePayload applies mut through msg's Corruptible payload, reporting
// whether it ran. A payload mut did not run over, and any payload that is not
// Corruptible, comes back untouched.
func mutatePayload(msg Message, mut func([]byte) []byte) (Message, bool) {
	c, ok := msg.Payload.(Corruptible)
	if !ok {
		return msg, false
	}
	lie, mutated := c.Corrupt(mut)
	if mutated {
		msg.Payload = lie
	}
	return msg, mutated
}

// privateCopy returns msg with a private copy of its payload, or with none
// when that is not Corruptible: a replayer keeps nothing it cannot copy.
func privateCopy(msg Message) Message {
	if c, ok := msg.Payload.(Corruptible); ok {
		msg.Payload, _ = c.Corrupt(nil)
	} else {
		msg.Payload = nil
	}
	return msg
}

// payloadEqual reports whether two messages carry deeply equal payloads —
// used so a replay of an identical reply is not counted as a corruption.
func payloadEqual(a, b Message) bool {
	return a.Kind == b.Kind && reflect.DeepEqual(a.Payload, b.Payload)
}

// labelHash is the deterministic string hash shared with Network.Rand.
func labelHash(label string) int64 {
	var h int64 = 1125899906842597
	for _, c := range label {
		h = h*31 + int64(c)
	}
	return h
}
