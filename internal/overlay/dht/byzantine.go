package dht

import (
	"slices"

	"godosn/internal/overlay/simnet"
)

// Every DHT reply that carries a payload names the bytes a Byzantine
// responder may rewrite (simnet.Corruptible), in field-declaration order, and
// hands back a private copy, never the pointer into its operation frame,
// whenever the mutation ran or none was given (a replayer's copy).

var (
	_ simnet.Corruptible = (*findSuccessorResp)(nil)
	_ simnet.Corruptible = (*fetchResp)(nil)
	_ simnet.Corruptible = digestResp{}
	_ simnet.Corruptible = (*fetchBatchResp)(nil)
	_ simnet.Corruptible = digestBatchResp{}
)

// Corrupt implements simnet.Corruptible. A routing reply has no bytes to lie
// through, so only a replayer's plain copy copies it: a replayer never
// records a pointer into a pooled frame, and a bit-flipper costs nothing.
func (r *findSuccessorResp) Corrupt(mut func([]byte) []byte) (any, bool) {
	if mut != nil {
		return r, false
	}
	c := *r
	return &c, false
}

// Corrupt implements simnet.Corruptible over Value.
func (r *fetchResp) Corrupt(mut func([]byte) []byte) (any, bool) {
	c := *r
	return &c, corrupt(&c.Value, mut)
}

// Corrupt implements simnet.Corruptible over Fresh, then State.
func (r digestResp) Corrupt(mut func([]byte) []byte) (any, bool) {
	fresh := corrupt(&r.Fresh, mut)
	state := corrupt(&r.State, mut)
	return r, fresh || state
}

// Corrupt implements simnet.Corruptible over each found value. The copy's
// headers are its own too: the reply's are the caller's frame.
func (r *fetchBatchResp) Corrupt(mut func([]byte) []byte) (any, bool) {
	c := *r
	c.Found = slices.Clone(c.Found)
	return &c, corruptEach(&c.Values, mut)
}

// Corrupt implements simnet.Corruptible over each Fresh root, then each
// State root.
func (r digestBatchResp) Corrupt(mut func([]byte) []byte) (any, bool) {
	fresh := corruptEach(&r.Fresh, mut)
	state := corruptEach(&r.State, mut)
	return r, fresh || state
}

// corrupt replaces a non-empty *b with mut(*b), or with a copy when mut is
// nil, and reports whether mut ran; mut returns fresh memory, so the
// replacement shares none with the sender.
func corrupt(b *[]byte, mut func([]byte) []byte) bool {
	switch {
	case len(*b) == 0:
		return false
	case mut == nil:
		*b = slices.Clone(*b)
		return false
	}
	*b = mut(*b)
	return true
}

// corruptEach runs corrupt over every element of a fresh copy of *vs.
func corruptEach(vs *[][]byte, mut func([]byte) []byte) bool {
	*vs = slices.Clone(*vs)
	ran := false
	for i := range *vs {
		ran = corrupt(&(*vs)[i], mut) || ran
	}
	return ran
}
