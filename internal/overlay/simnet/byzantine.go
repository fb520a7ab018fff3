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
// Byzantine wire.
//
// Corruption applies to the exported []byte fields of a reply payload
// (e.g. a DHT fetchResp.Value); replies without byte payloads — routing
// messages, plain acks — pass through untouched. Mutations always operate
// on fresh copies, so a handler's stored state is never aliased into the
// corrupted reply. A payload that is a pointer to a struct points into
// memory its sender will reuse (a DHT operation frame): whatever is mutated,
// recorded or replayed is a private copy of the struct, never the pointer.

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
	lastReply map[string]Message // per RPC kind, deep-copied (ByzReplay)
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
	s.byz.Store(&byzState{
		cfg:       cfg,
		rng:       rand.New(rand.NewSource(n.cfg.Seed ^ labelHash(string(id)) ^ cfg.Seed)),
		lastReply: make(map[string]Message),
	})
	return nil
}

// ByzantineMode reports a node's configured corruption mode (ByzNone when
// unconfigured or unknown).
func (n *Network) ByzantineMode(id NodeID) ByzMode {
	if s := n.table()[id]; s != nil {
		if b := s.byz.Load(); b != nil {
			return b.cfg.Mode
		}
	}
	return ByzNone
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
		return mutatePayload(reply, func(b []byte) []byte {
			if s.cfg.Mode == ByzTruncate {
				return truncateBytes(s.rng, b)
			}
			return flipBit(s.rng, b)
		})

	case ByzReplay:
		// Record the honest reply (deep copy) for future replays, then
		// decide whether to serve a previously recorded one instead.
		stale, have := s.lastReply[reply.Kind]
		s.lastReply[reply.Kind], _ = mutatePayload(reply, copyBytes)
		if !have || s.rng.Float64() >= s.cfg.Rate {
			return reply, false
		}
		// Serve a copy of the stale reply so later replays stay pristine
		// even if the caller mutates what it received.
		out, _ := mutatePayload(stale, copyBytes)
		if !payloadEqual(out, reply) {
			return out, true
		}
		return reply, false

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

// copyBytes is the identity mutation: it deep-copies a byte field, used to
// detach recorded or replayed messages from caller-visible slices.
func copyBytes(b []byte) []byte { return append([]byte(nil), b...) }

// mutatePayload applies mut to every exported non-empty []byte field of the
// message payload — including each element of exported [][]byte fields, so
// batch replies carrying many values are as corruptible as single-value
// replies — operating on a fresh copy of the payload struct. It reports
// whether any field was visited. Payloads that are themselves []byte are
// handled directly; value payloads without byte fields (routing replies,
// acks) pass through unchanged. A non-nil pointer to a struct is treated as
// the struct and always comes back as a pointer to the private copy, visited
// or not, so nothing kept from the result aliases the sender's memory.
func mutatePayload(msg Message, mut func([]byte) []byte) (Message, bool) {
	if msg.Payload == nil {
		return msg, false
	}
	if b, ok := msg.Payload.([]byte); ok {
		if len(b) == 0 {
			return msg, false
		}
		msg.Payload = mut(b)
		return msg, true
	}
	v := reflect.ValueOf(msg.Payload)
	byPointer := v.Kind() == reflect.Pointer
	if byPointer {
		if v.IsNil() {
			return msg, false
		}
		v = v.Elem()
	}
	if v.Kind() != reflect.Struct {
		return msg, false
	}
	private := reflect.New(v.Type())
	cp := private.Elem()
	cp.Set(v)
	mutated := false
	for i := 0; i < cp.NumField(); i++ {
		f := cp.Field(i)
		if !f.CanSet() || f.Kind() != reflect.Slice {
			continue
		}
		// [][]byte: mutate each non-empty element (batch value lists).
		if f.Type().Elem().Kind() == reflect.Slice && f.Type().Elem().Elem().Kind() == reflect.Uint8 {
			vs, ok := f.Interface().([][]byte)
			if !ok || len(vs) == 0 {
				continue
			}
			out := make([][]byte, len(vs))
			touched := false
			for j, b := range vs {
				if len(b) == 0 {
					out[j] = b
					continue
				}
				out[j] = mut(b)
				touched = true
			}
			if touched {
				f.Set(reflect.ValueOf(out))
				mutated = true
			}
			continue
		}
		if f.Type().Elem().Kind() != reflect.Uint8 {
			continue
		}
		b, ok := f.Interface().([]byte)
		if !ok || len(b) == 0 {
			continue
		}
		f.Set(reflect.ValueOf(mut(b)))
		mutated = true
	}
	if byPointer {
		msg.Payload = private.Interface()
		return msg, mutated
	}
	if !mutated {
		return msg, false
	}
	msg.Payload = cp.Interface()
	return msg, true
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
