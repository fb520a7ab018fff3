// Package merkle implements binary Merkle hash trees with membership proofs.
//
// Merkle trees are the substrate for the object history tree of
// internal/crypto/historytree and the persistent authenticated dictionary of
// internal/crypto/pad, both of which the paper (Sections III-F and IV-B)
// attributes to Frientegrity.
package merkle

import (
	"crypto/sha256"
	"errors"
	"math/bits"
)

// Errors returned by this package.
var (
	ErrEmptyTree    = errors.New("merkle: empty tree")
	ErrIndexRange   = errors.New("merkle: index out of range")
	ErrInvalidProof = errors.New("merkle: proof verification failed")
)

// leafPrefix and nodePrefix domain-separate leaf and interior hashes,
// preventing second-preimage attacks between levels.
const (
	leafPrefix = byte(0x00)
	nodePrefix = byte(0x01)
)

// LeafHash hashes application data into a leaf digest. The data may come
// in parts, hashed as their concatenation without joining them first. The
// state and the sum live on the stack: it allocates nothing.
func LeafHash(parts ...[]byte) [32]byte {
	h := sha256.New()
	h.Write([]byte{leafPrefix})
	for _, p := range parts {
		h.Write(p)
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// NodeHash combines two child digests into a parent digest, allocating
// nothing.
func NodeHash(left, right [32]byte) [32]byte {
	h := sha256.New()
	h.Write([]byte{nodePrefix})
	h.Write(left[:])
	h.Write(right[:])
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// Tree is an append-only binary Merkle tree over leaf digests.
type Tree struct {
	leaves [][32]byte
}

// New creates a tree over the given application data items.
func New(items ...[]byte) *Tree {
	t := &Tree{}
	for _, it := range items {
		t.Append(it)
	}
	return t
}

// Append adds an item and returns its leaf index.
func (t *Tree) Append(data []byte) int {
	t.leaves = append(t.leaves, LeafHash(data))
	return len(t.leaves) - 1
}

// Len returns the number of leaves.
func (t *Tree) Len() int { return len(t.leaves) }

// Root returns the root digest. An empty tree has the digest of nothing.
func (t *Tree) Root() [32]byte { return RootOf(t.leaves) }

// RootOf returns the root digest of a tree over the given leaf digests,
// without building the tree: a caller that knows its leaf count fills one
// slice of that size and folds it here. No leaves digest as the empty tree.
func RootOf(leaves [][32]byte) [32]byte {
	if len(leaves) == 0 {
		return sha256.Sum256([]byte("godosn/merkle/empty-v1"))
	}
	return rootOf(leaves)
}

// rootOf computes the RFC-6962-style root of a non-empty leaf range: the
// split point is the largest power of two strictly less than the range size.
func rootOf(leaves [][32]byte) [32]byte {
	n := len(leaves)
	if n == 1 {
		return leaves[0]
	}
	k := splitPoint(n)
	return NodeHash(rootOf(leaves[:k]), rootOf(leaves[k:]))
}

// splitPoint returns the largest power of two < n (n >= 2).
func splitPoint(n int) int {
	return 1 << (bits.Len(uint(n-1)) - 1)
}

// Proof is a membership proof for one leaf: sibling digests bottom-up plus
// the tree size the proof was made against.
type Proof struct {
	// Index is the leaf position the proof speaks for.
	Index int
	// Size is the leaf count of the tree at proof time.
	Size int
	// Path holds sibling digests from leaf level to root.
	Path [][32]byte
}

// Prove builds a membership proof for the leaf at index.
func (t *Tree) Prove(index int) (*Proof, error) {
	if len(t.leaves) == 0 {
		return nil, ErrEmptyTree
	}
	if index < 0 || index >= len(t.leaves) {
		return nil, ErrIndexRange
	}
	p := &Proof{Index: index, Size: len(t.leaves)}
	buildPath(t.leaves, index, p)
	return p, nil
}

func buildPath(leaves [][32]byte, index int, p *Proof) {
	n := len(leaves)
	if n == 1 {
		return
	}
	k := splitPoint(n)
	if index < k {
		buildPath(leaves[:k], index, p)
		p.Path = append(p.Path, rootOf(leaves[k:]))
	} else {
		buildPath(leaves[k:], index-k, p)
		p.Path = append(p.Path, rootOf(leaves[:k]))
	}
}

// VerifyProof checks that leaf sits at proof.Index in a tree of proof.Size
// leaves with the given root.
func VerifyProof(root [32]byte, leaf [32]byte, proof *Proof) error {
	if proof == nil || proof.Size <= 0 || proof.Index < 0 || proof.Index >= proof.Size {
		return ErrInvalidProof
	}
	computed, rest, err := foldPath(leaf, proof.Index, proof.Size, proof.Path)
	if err != nil || len(rest) != 0 {
		return ErrInvalidProof
	}
	if computed != root {
		return ErrInvalidProof
	}
	return nil
}

// foldPath recomputes the root for the subtree of the given size containing
// index, consuming path entries, mirroring buildPath's recursion.
func foldPath(leaf [32]byte, index, size int, path [][32]byte) ([32]byte, [][32]byte, error) {
	if size == 1 {
		return leaf, path, nil
	}
	k := splitPoint(size)
	var (
		sub  [32]byte
		rest [][32]byte
		err  error
	)
	if index < k {
		sub, rest, err = foldPath(leaf, index, k, path)
		if err != nil {
			return sub, rest, err
		}
		if len(rest) == 0 {
			return sub, rest, ErrInvalidProof
		}
		return NodeHash(sub, rest[0]), rest[1:], nil
	}
	sub, rest, err = foldPath(leaf, index-k, size-k, path)
	if err != nil {
		return sub, rest, err
	}
	if len(rest) == 0 {
		return sub, rest, ErrInvalidProof
	}
	return NodeHash(rest[0], sub), rest[1:], nil
}
