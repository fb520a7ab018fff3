// Package hashchain implements signed hash chains for historical integrity,
// including cross-timeline entanglement.
//
// The paper (Section IV-B) describes two solutions for data history
// integrity, both implemented here:
//
//  1. "hash chaining alongside digital signature": each published entry is
//     signed and includes the hash of at least one prior post, yielding "a
//     provable partial ordering for his posts".
//  2. "establish a dependency between the timelines of different publishers":
//     a publisher "adds the hashes of prior events from other participants",
//     creating a provable order between different users' messages
//     (FETHR-style entanglement).
package hashchain

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"

	"godosn/internal/crypto/pubkey"
)

// Errors returned by this package.
var (
	ErrBrokenChain    = errors.New("hashchain: chain linkage broken")
	ErrBadSignature   = errors.New("hashchain: entry signature invalid")
	ErrBadSequence    = errors.New("hashchain: sequence numbers not contiguous")
	ErrUnknownAnchor  = errors.New("hashchain: foreign anchor not found")
	ErrEmptyChain     = errors.New("hashchain: empty chain")
	ErrAuthorMismatch = errors.New("hashchain: entry author mismatch")
)

// Anchor references an entry in another publisher's timeline, entangling the
// two histories.
type Anchor struct {
	// Author identifies the foreign publisher.
	Author string
	// Seq is the referenced entry's sequence number.
	Seq uint64
	// Hash is the referenced entry's hash.
	Hash [32]byte
}

// Entry is one signed element of a publisher's timeline.
type Entry struct {
	// Author is the publisher's identity.
	Author string
	// Seq is the zero-based position in the author's chain.
	Seq uint64
	// PrevHash is the hash of the author's previous entry (zero for Seq 0).
	PrevHash [32]byte
	// Anchors reference prior entries of other publishers.
	Anchors []Anchor
	// Payload is the application content (typically an encrypted post).
	Payload []byte
	// Signature is the author's signature over the entry digest.
	Signature []byte
}

// Hash returns the entry's digest, which the next entry links to.
func (e *Entry) Hash() [32]byte {
	return sha256.Sum256(e.digest())
}

// entryDomain opens every digest, so an entry's bytes cannot alias another
// signed format.
const entryDomain = "godosn/hashchain/entry-v1\x00"

// anchorMin is the smallest encoded anchor: an empty author's terminator,
// the sequence number and the hash.
const anchorMin = 1 + 8 + 32

var errMalformed = errors.New("hashchain: malformed entry")

// digest is the byte string that is hashed and signed, built in one buffer
// of its exact size.
func (e *Entry) digest() []byte {
	return e.appendDigest(make([]byte, 0, e.digestSize()))
}

// digestSize is len(e.digest()).
func (e *Entry) digestSize() int {
	n := len(entryDomain) + len(e.Author) + 1 + 8 + 32 + 8 + len(e.Payload)
	for _, a := range e.Anchors {
		n += len(a.Author) + anchorMin
	}
	return n
}

// appendDigest appends the digest to b.
func (e *Entry) appendDigest(b []byte) []byte {
	b = append(append(append(b, entryDomain...), e.Author...), 0)
	b = binary.BigEndian.AppendUint64(b, e.Seq)
	b = append(b, e.PrevHash[:]...)
	b = binary.BigEndian.AppendUint64(b, uint64(len(e.Anchors)))
	for _, a := range e.Anchors {
		b = binary.BigEndian.AppendUint64(append(append(b, a.Author...), 0), a.Seq)
		b = append(b, a.Hash[:]...)
	}
	return append(b, e.Payload...)
}

// Marshal encodes the entry as the bytes its author signed followed by the
// signature: digest ‖ signature. Authors must not contain a zero byte.
func (e *Entry) Marshal() []byte {
	b := e.appendDigest(make([]byte, 0, e.digestSize()+len(e.Signature)))
	return append(b, e.Signature...)
}

// ParseEntry decodes Marshal's encoding. Payload and Signature are views
// into b, capacity-capped so an append copies. It refuses an anchor count
// the bytes cannot hold and a signature shorter than pubkey.SignatureSize,
// but checks no signature: b[:len(b)-pubkey.SignatureSize] is what the
// author signed.
func ParseEntry(b []byte) (*Entry, error) {
	if len(b) < len(entryDomain)+pubkey.SignatureSize || string(b[:len(entryDomain)]) != entryDomain {
		return nil, fmt.Errorf("%w: bad framing (%d bytes)", errMalformed, len(b))
	}
	sig := len(b) - pubkey.SignatureSize
	e := &Entry{Signature: b[sig:len(b):len(b)]}
	body := b[len(entryDomain):sig]
	var ok bool
	if e.Author, body, ok = cutName(body); !ok || len(body) < 8+32+8 {
		return nil, fmt.Errorf("%w: short header", errMalformed)
	}
	e.Seq = binary.BigEndian.Uint64(body)
	copy(e.PrevHash[:], body[8:40])
	n := binary.BigEndian.Uint64(body[40:48])
	body = body[48:]
	if n > uint64(len(body)/anchorMin) {
		return nil, fmt.Errorf("%w: %d anchors in %d bytes", errMalformed, n, len(body))
	}
	if n > 0 {
		e.Anchors = make([]Anchor, n)
	}
	for i := range e.Anchors {
		a := &e.Anchors[i]
		if a.Author, body, ok = cutName(body); !ok || len(body) < 8+32 {
			return nil, fmt.Errorf("%w: short anchor %d", errMalformed, i)
		}
		a.Seq = binary.BigEndian.Uint64(body)
		copy(a.Hash[:], body[8:40])
		body = body[40:]
	}
	e.Payload = body[:len(body):len(body)]
	return e, nil
}

// cutName splits a zero-terminated name off the front of b.
func cutName(b []byte) (string, []byte, bool) {
	i := bytes.IndexByte(b, 0)
	if i < 0 {
		return "", nil, false
	}
	return string(b[:i]), b[i+1:], true
}

// Chain is one publisher's append-only signed timeline.
type Chain struct {
	author  string
	signer  *pubkey.SigningKeyPair
	entries []*Entry
}

// New creates an empty chain for the author with the given signing key.
func New(author string, signer *pubkey.SigningKeyPair) *Chain {
	return &Chain{author: author, signer: signer}
}

// Len returns the number of entries.
func (c *Chain) Len() int { return len(c.entries) }

// Entries returns the chain's entries. The returned slice is a copy; the
// entries themselves are shared and must be treated as immutable.
func (c *Chain) Entries() []*Entry {
	return append([]*Entry(nil), c.entries...)
}

// Head returns the latest entry, or nil for an empty chain.
func (c *Chain) Head() *Entry {
	if len(c.entries) == 0 {
		return nil
	}
	return c.entries[len(c.entries)-1]
}

// Append publishes a new signed entry with the given payload and optional
// anchors into other publishers' timelines.
func (c *Chain) Append(payload []byte, anchors ...Anchor) (*Entry, error) {
	e := &Entry{
		Author:  c.author,
		Seq:     uint64(len(c.entries)),
		Anchors: append([]Anchor(nil), anchors...),
		Payload: append([]byte(nil), payload...),
	}
	if head := c.Head(); head != nil {
		e.PrevHash = head.Hash()
	}
	e.Signature = c.signer.Sign(e.digest())
	c.entries = append(c.entries, e)
	return e, nil
}

// AnchorTo builds an anchor referencing another chain's head.
func AnchorTo(other *Chain) (Anchor, error) {
	head := other.Head()
	if head == nil {
		return Anchor{}, ErrEmptyChain
	}
	return Anchor{Author: other.author, Seq: head.Seq, Hash: head.Hash()}, nil
}

// Verify checks the full chain: signatures, contiguous sequence numbers, and
// hash linkage. It returns the index of the first bad entry on failure.
func Verify(entries []*Entry, vk pubkey.VerificationKey) (int, error) {
	var prev [32]byte
	for i, e := range entries {
		if e.Seq != uint64(i) {
			return i, ErrBadSequence
		}
		if i > 0 && e.PrevHash != prev {
			return i, ErrBrokenChain
		}
		if i > 0 && e.Author != entries[0].Author {
			return i, ErrAuthorMismatch
		}
		if err := pubkey.Verify(vk, e.digest(), e.Signature); err != nil {
			return i, fmt.Errorf("%w: entry %d: %v", ErrBadSignature, i, err)
		}
		prev = e.Hash()
	}
	return -1, nil
}

// VerifyAnchors checks every anchor in entries against the referenced
// publishers' timelines (resolve maps author to that author's entries).
// A satisfied anchor proves the referenced entry existed before the anchoring
// one — the provable cross-publisher ordering of Section IV-B.
func VerifyAnchors(entries []*Entry, resolve func(author string) []*Entry) error {
	for i, e := range entries {
		for _, a := range e.Anchors {
			foreign := resolve(a.Author)
			if a.Seq >= uint64(len(foreign)) {
				return fmt.Errorf("%w: entry %d anchors %s/%d", ErrUnknownAnchor, i, a.Author, a.Seq)
			}
			if foreign[a.Seq].Hash() != a.Hash {
				return fmt.Errorf("%w: entry %d anchor hash mismatch for %s/%d",
					ErrBrokenChain, i, a.Author, a.Seq)
			}
		}
	}
	return nil
}

// HappensBefore reports whether entry (author a, seq i) provably precedes
// (author b, seq j) given the set of verified chains: within one chain by
// sequence number, across chains by following anchors transitively.
func HappensBefore(aAuthor string, aSeq uint64, bAuthor string, bSeq uint64,
	resolve func(author string) []*Entry) bool {
	if aAuthor == bAuthor {
		return aSeq < bSeq
	}
	// BFS backwards from (bAuthor, bSeq) through prev links and anchors.
	type node struct {
		author string
		seq    uint64
	}
	seen := map[node]struct{}{}
	queue := []node{{bAuthor, bSeq}}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if _, ok := seen[n]; ok {
			continue
		}
		seen[n] = struct{}{}
		// Reaching any entry of a's chain at or after aSeq while walking
		// strictly backwards from b proves aSeq precedes b.
		if n.author == aAuthor && n.seq >= aSeq {
			return true
		}
		entries := resolve(n.author)
		if n.seq >= uint64(len(entries)) {
			continue
		}
		e := entries[n.seq]
		if n.seq > 0 {
			queue = append(queue, node{n.author, n.seq - 1})
		}
		for _, anc := range e.Anchors {
			queue = append(queue, node{anc.Author, anc.Seq})
		}
	}
	return false
}
