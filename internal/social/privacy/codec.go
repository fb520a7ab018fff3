package privacy

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strings"

	"godosn/internal/crypto/abe"
	"godosn/internal/crypto/ibe"
	"godosn/internal/crypto/pubkey"
)

// This file implements the wire codec for envelopes: what a DOSN actually
// replicates to other peers is serialized ciphertext, and "the replica nodes
// are indeed another kind of service provider" (paper Section I) must be
// able to store and forward envelopes they cannot read. Marshal/Unmarshal
// cover every scheme's payload with a tagged, length-prefixed binary format.
//
// Both directions cost a constant number of allocations per envelope, not
// one per field: Marshal sizes its output first and writes into one buffer,
// Unmarshal hands out views of its input, copies only the strings and puts
// an ABE or IBBE payload in one allocation with its list.
//
// Version 2 writes the sender's ephemeral key once per ABE and IBBE
// payload, ahead of wraps that are each nonce, sealed key and tag; version 1
// repeated it in every wrap and is refused.

// codec framing constants.
const (
	codecMagic   = "gdsn"
	codecVersion = byte(2)
	// headerSize is magic, version, two length prefixes (scheme, group), the
	// epoch and the payload tag — the fixed part of every envelope.
	headerSize = len(codecMagic) + 1 + 4 + 4 + 8 + 1
)

// payload type tags.
const (
	tagBytes = byte(1) // symmetric, hybrid: raw AEAD ciphertext
	tagSub   = byte(2) // substitution: fake + sealed index
	tagPK    = byte(3) // public-key: per-member wraps + body
	tagABE   = byte(4) // CP-ABE ciphertext
	tagIBBE  = byte(6) // IBBE broadcast
	// 5 is retired and decodes as an unknown tag; do not reuse it.
)

// ErrCodec indicates malformed or unsupported envelope bytes.
var ErrCodec = errors.New("privacy: envelope codec error")

// Marshal serializes an envelope for replication. The result contains only
// ciphertext and public routing metadata.
func Marshal(env Envelope) ([]byte, error) {
	size, err := payloadSize(env.Payload)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 0, headerSize+len(env.Scheme)+len(env.Group)+size)
	buf = append(buf, codecMagic...)
	buf = append(buf, codecVersion)
	buf = appendField(buf, env.Scheme)
	buf = appendField(buf, env.Group)
	buf = binary.BigEndian.AppendUint64(buf, env.Epoch)

	switch p := env.Payload.(type) {
	case []byte:
		buf = append(buf, tagBytes)
		buf = appendField(buf, p)
	case subPayload:
		buf = append(buf, tagSub)
		buf = appendField(buf, p.fake)
		buf = appendField(buf, p.sealedIndex)
	case pkPayload:
		buf = append(buf, tagPK)
		buf = appendWraps(buf, p.wraps)
		buf = appendField(buf, p.body)
	case *abe.Ciphertext:
		buf = append(buf, tagABE)
		buf = binary.BigEndian.AppendUint64(buf, p.Epoch)
		buf = appendField(buf, p.PolicyText)
		buf = appendField(buf, p.Ephemeral)
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(p.Shares)))
		for _, s := range p.Shares {
			buf = binary.BigEndian.AppendUint32(buf, s.Index)
			buf = appendField(buf, s.Wrap)
		}
		buf = appendField(buf, p.Body)
	case *ibe.Broadcast:
		buf = append(buf, tagIBBE)
		buf = appendField(buf, p.Ephemeral)
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(p.Recipients)))
		for i, r := range p.Recipients {
			buf = appendField(buf, r)
			buf = appendField(buf, p.WrappedKeys[i])
		}
		buf = appendField(buf, p.Body)
	default: // a type payloadSize sizes and this switch does not write
		return nil, fmt.Errorf("%w: unsupported payload %T", ErrCodec, env.Payload)
	}
	return buf, nil
}

// payloadSize returns the exact encoded size of a payload after its tag, and
// rejects what Marshal cannot encode.
func payloadSize(payload any) (int, error) {
	switch p := payload.(type) {
	case []byte:
		return 4 + len(p), nil
	case subPayload:
		return 8 + len(p.fake) + len(p.sealedIndex), nil
	case pkPayload:
		return wrapsSize(p.wraps) + 4 + len(p.body), nil
	case *abe.Ciphertext:
		n := 8 + 4 + len(p.PolicyText) + 4 + len(p.Ephemeral) + 4 + 4 + len(p.Body)
		for _, s := range p.Shares {
			n += 8 + len(s.Wrap)
		}
		return n, nil
	case *ibe.Broadcast:
		if len(p.Recipients) != len(p.WrappedKeys) {
			return 0, fmt.Errorf("%w: inconsistent broadcast", ErrCodec)
		}
		n := 4 + len(p.Ephemeral) + 4 + 4 + len(p.Body)
		for i, r := range p.Recipients {
			n += 8 + len(r) + len(p.WrappedKeys[i])
		}
		return n, nil
	default:
		return 0, fmt.Errorf("%w: unsupported payload %T", ErrCodec, payload)
	}
}

// --- encoding helpers --------------------------------------------------------

// appendField writes a length-prefixed string or byte field.
func appendField[T ~string | ~[]byte](buf []byte, v T) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(v)))
	return append(buf, v...)
}

// appendWraps writes a name -> wrap table in sorted name order, so equal
// envelopes marshal to equal bytes.
func appendWraps(buf []byte, wraps map[string][]byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(wraps)))
	names := make([]string, 0, len(wraps))
	for name := range wraps {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		buf = appendField(buf, name)
		buf = appendField(buf, wraps[name])
	}
	return buf
}

func wrapsSize(wraps map[string][]byte) int {
	n := 4
	for name, wrap := range wraps {
		n += 8 + len(name) + len(wrap)
	}
	return n
}

// --- decoding ----------------------------------------------------------------

// Minimum encoded sizes of one element of each counted list: a declared
// count is checked against the bytes that remain before anything is sized
// from it, so a hostile count costs nothing.
const minWrap = 4 + 4 // a name or share index, plus a length-prefixed wrap

// Unmarshal reverses Marshal. It never writes to data and keeps no copy of
// it: every byte field of the result is a view of data, which must stay
// unmodified while the envelope is in use (see Envelope). The one exception
// is an ABE policy the sender did not write in canonical syntax, which
// decodes to its rendering, as Marshal would have written it.
func Unmarshal(data []byte) (Envelope, error) {
	r := reader{buf: data}
	r.names.Grow(nameBytes(r.buf))
	if string(r.take(len(codecMagic))) != codecMagic {
		return Envelope{}, fmt.Errorf("%w: bad magic", ErrCodec)
	}
	if v := r.takeByte(); v != codecVersion {
		return Envelope{}, fmt.Errorf("%w: unsupported version %d", ErrCodec, v)
	}
	var env Envelope
	env.Scheme = r.scheme()
	env.Group = r.str()
	env.Epoch = r.uint64()

	switch tag := r.takeByte(); tag {
	case tagBytes:
		env.Payload = r.bytes()
	case tagSub:
		env.Payload = subPayload{fake: r.bytes(), sealedIndex: r.bytes()}
	case tagPK:
		env.Payload = pkPayload{wraps: r.wraps(), body: r.bytes()}
	case tagABE:
		epoch := r.uint64()
		policy := r.bytes()
		if r.err == nil {
			var err error
			if policy, err = abe.CanonicalPolicy(policy); err != nil {
				return Envelope{}, fmt.Errorf("%w: policy: %v", ErrCodec, err)
			}
		}
		eph := r.ephemeral()
		n := r.count(minWrap)
		ct := newCiphertext(n)
		ct.Epoch, ct.PolicyText, ct.Ephemeral = epoch, policy, eph
		for i := 0; i < n && r.err == nil; i++ {
			ct.Shares = append(ct.Shares, abe.WrappedShare{Index: r.uint32(), Wrap: r.wrap()})
		}
		ct.Shares = indexOrder(ct.Shares)
		ct.Body = r.bytes()
		env.Payload = ct
	case tagIBBE:
		eph := r.ephemeral()
		n := r.count(minWrap)
		b := newBroadcast(n)
		b.Ephemeral = eph
		for i := 0; i < n && r.err == nil; i++ {
			b.Recipients = append(b.Recipients, r.str())
			b.WrappedKeys = append(b.WrappedKeys, r.wrap())
		}
		b.Body = r.bytes()
		env.Payload = b
	default:
		if r.err == nil {
			r.err = fmt.Errorf("%w: unknown payload tag %d", ErrCodec, tag)
		}
	}
	if r.err != nil {
		return Envelope{}, r.err
	}
	if rest := len(r.buf) - r.off; rest != 0 {
		return Envelope{}, fmt.Errorf("%w: %d trailing bytes", ErrCodec, rest)
	}
	return env, nil
}

// reader is a bounds-checked sequential decoder that only reads buf. Byte
// fields are cap-limited sub-slices of buf; string fields are substrings of
// names, so none aliases buf. After the first error every read returns zero
// values.
type reader struct {
	buf   []byte
	off   int
	names strings.Builder
	err   error
}

// take returns the next n bytes as a view whose capacity ends with it, so an
// append to one field cannot reach the next.
func (r *reader) take(n int) []byte {
	if r.err != nil || n > len(r.buf)-r.off {
		if r.err == nil {
			r.err = fmt.Errorf("%w: truncated", ErrCodec)
		}
		return nil
	}
	out := r.buf[r.off : r.off+n : r.off+n]
	r.off += n
	return out
}

func (r *reader) takeByte() byte {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (r *reader) uint32() uint32 {
	if b := r.take(4); b != nil {
		return binary.BigEndian.Uint32(b)
	}
	return 0
}

func (r *reader) uint64() uint64 {
	if b := r.take(8); b != nil {
		return binary.BigEndian.Uint64(b)
	}
	return 0
}

// count reads the declared length of a list whose elements encode to at
// least minElem bytes each. A count the remaining bytes cannot hold is a
// truncated envelope, reported before the caller sizes anything from it.
func (r *reader) count(minElem int) int {
	n := r.uint32()
	if r.err == nil && uint64(n) > uint64((len(r.buf)-r.off)/minElem) {
		r.err = fmt.Errorf("%w: truncated", ErrCodec)
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}

func (r *reader) bytes() []byte { return r.take(r.count(1)) }

// ephemeral reads a sender's ephemeral public key, which must be exactly
// one P-256 point long: anything else is refused here, before a reader runs
// a key agreement on it.
func (r *reader) ephemeral() []byte {
	b := r.bytes()
	if r.err == nil && len(b) != pubkey.EphemeralSize {
		r.err = fmt.Errorf("%w: %d-byte ephemeral key", ErrCodec, len(b))
	}
	return b
}

// wrap reads a wrapped key, which holds at least a nonce and a tag.
func (r *reader) wrap() []byte {
	b := r.bytes()
	if r.err == nil && len(b) < pubkey.WrapOverhead() {
		r.err = fmt.Errorf("%w: %d-byte wrap", ErrCodec, len(b))
	}
	return b
}

// str copies the next field into the shared builder and returns that part
// of it. A builder that has to grow leaves earlier strings on its old
// buffer, which stays valid.
func (r *reader) str() string {
	b := r.bytes()
	start := r.names.Len()
	r.names.Write(b)
	return r.names.String()[start:]
}

// scheme reads a Scheme, returning the package constant for a known one.
func (r *reader) scheme() Scheme {
	b := r.bytes()
	for _, s := range tableI {
		if string(b) == string(s) {
			return s
		}
	}
	return Scheme(b)
}

// wraps reads a name -> wrap table.
func (r *reader) wraps() map[string][]byte {
	n := r.count(minWrap)
	m := make(map[string][]byte, n)
	for i := 0; i < n && r.err == nil; i++ {
		name := r.str()
		m[name] = r.wrap()
	}
	return m
}

// nameBytes walks a well-formed envelope's layout and returns the total
// length of its string fields other than the scheme, so that one builder
// allocation holds them all. It is a sizing hint only: on a malformed
// envelope it returns some number no larger than len(buf), and the decoding
// pass reports the error.
func nameBytes(buf []byte) int {
	r := reader{buf: buf}
	r.take(len(codecMagic) + 1)
	r.bytes() // scheme: interned, not built
	total := len(r.bytes())
	r.take(8)
	tag := r.takeByte()
	if tag == tagIBBE {
		r.bytes() // ephemeral
	}
	if tag == tagPK || tag == tagIBBE {
		for n := r.count(minWrap); n > 0; n-- {
			total += len(r.bytes())
			r.bytes()
		}
	}
	return total
}

// newCiphertext returns an empty ABE ciphertext whose Shares has room for n
// shares, in one allocation when n is 1: a single-attribute policy, the one
// the feed workloads read.
func newCiphertext(n int) *abe.Ciphertext {
	if n > 1 {
		return &abe.Ciphertext{Shares: make([]abe.WrappedShare, 0, n)}
	}
	blk := new(struct {
		ct     abe.Ciphertext
		shares [1]abe.WrappedShare
	})
	blk.ct.Shares = blk.shares[:0:n]
	return &blk.ct
}

// indexOrder puts shares decoded in wire order into index order. Marshal
// writes them that way, so only hand-made bytes need the sort; of two shares
// with one index the later is kept.
func indexOrder(shares []abe.WrappedShare) []abe.WrappedShare {
	sorted := true
	for i := 1; i < len(shares) && sorted; i++ {
		sorted = shares[i-1].Index < shares[i].Index
	}
	if sorted {
		return shares
	}
	slices.SortStableFunc(shares, func(a, b abe.WrappedShare) int { return cmp.Compare(a.Index, b.Index) })
	out := shares[:0]
	for i, s := range shares {
		if i+1 < len(shares) && shares[i+1].Index == s.Index {
			continue
		}
		out = append(out, s)
	}
	return out
}

// newBroadcast returns an empty broadcast whose Recipients and WrappedKeys
// have room for n entries, in one allocation up to 8 recipients: the group
// size the feed workloads read.
func newBroadcast(n int) *ibe.Broadcast {
	if n > 8 {
		return &ibe.Broadcast{Recipients: make([]string, 0, n), WrappedKeys: make([][]byte, 0, n)}
	}
	blk := new(struct {
		b          ibe.Broadcast
		recipients [8]string
		wraps      [8][]byte
	})
	blk.b.Recipients, blk.b.WrappedKeys = blk.recipients[:0:n], blk.wraps[:0:n]
	return &blk.b
}
