// Package historytree implements a Frientegrity-style object history tree
// with fork-consistency checking.
//
// The paper (Section IV-B) describes the approach: an untrusted storage
// provider maintains an "object history tree" of all operations on a shared
// object (e.g. a user's wall); the provider "digitally signs the root of
// [the] object history tree", clients "share information about their
// individual views of the history by embedding it in every operation they
// perform", and "if the clients who have been equivocated by the service
// provider communicate to each other, they will discover the provider's
// misbehaviour".
//
// Concretely:
//
//   - Server: append-only Merkle tree over operations; every append yields a
//     signed Commitment (object, version, root).
//   - Clients: a View that tracks the latest verified commitment. Advancing
//     the view requires a Merkle consistency proof, so a server cannot
//     silently rewrite history ("data retention"-style tampering fails).
//   - Fork detection: two commitments for the same object are compared with
//     CheckCommitments; if neither extends the other, the pair of signed
//     roots is cryptographic evidence of equivocation (a fork), returned as
//     *ForkEvidence.
package historytree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"godosn/internal/crypto/merkle"
	"godosn/internal/crypto/pubkey"
)

// Errors returned by this package.
var (
	ErrBadCommitment = errors.New("historytree: commitment signature invalid")
	ErrStaleView     = errors.New("historytree: commitment older than view")
	ErrObjectChanged = errors.New("historytree: commitment for different object")
	ErrFork          = errors.New("historytree: fork detected")
	ErrNoSuchVersion = errors.New("historytree: unknown version")
)

// Commitment is the server's signed statement of an object's history state.
type Commitment struct {
	// ObjectID names the object (e.g. "wall:alice").
	ObjectID string
	// Version is the number of operations in the history.
	Version int
	// Root is the Merkle root over the first Version operations.
	Root [32]byte
	// Signature is the server's signature over the commitment digest.
	Signature []byte
}

// digest is the signed byte string.
func (c *Commitment) digest() []byte {
	var buf bytes.Buffer
	buf.WriteString("godosn/historytree/commitment-v1\x00")
	buf.WriteString(c.ObjectID)
	buf.WriteByte(0)
	var v [8]byte
	binary.BigEndian.PutUint64(v[:], uint64(c.Version))
	buf.Write(v[:])
	buf.Write(c.Root[:])
	return buf.Bytes()
}

// Verify checks the commitment signature.
func (c *Commitment) Verify(vk pubkey.VerificationKey) error {
	if err := pubkey.Verify(vk, c.digest(), c.Signature); err != nil {
		return fmt.Errorf("%w: %v", ErrBadCommitment, err)
	}
	return nil
}

// Server is the storage-provider side: an append-only operation log per
// object with signed commitments. It is safe for concurrent use.
type Server struct {
	mu      sync.Mutex
	signer  *pubkey.SigningKeyPair
	objects map[string]*objectLog
}

type objectLog struct {
	tree *merkle.Tree
	ops  [][]byte
}

// NewServer creates a server signing commitments with the given key.
func NewServer(signer *pubkey.SigningKeyPair) *Server {
	return &Server{signer: signer, objects: make(map[string]*objectLog)}
}

// Append records an operation on the object and returns the new signed
// commitment.
func (s *Server) Append(objectID string, op []byte) (*Commitment, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	log, ok := s.objects[objectID]
	if !ok {
		log = &objectLog{tree: merkle.New()}
		s.objects[objectID] = log
	}
	log.ops = append(log.ops, append([]byte(nil), op...))
	log.tree.Append(op)
	return s.commitLocked(objectID, log), nil
}

// Latest returns the current signed commitment for an object.
func (s *Server) Latest(objectID string) (*Commitment, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	log, ok := s.objects[objectID]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchVersion, objectID)
	}
	return s.commitLocked(objectID, log), nil
}

func (s *Server) commitLocked(objectID string, log *objectLog) *Commitment {
	c := &Commitment{ObjectID: objectID, Version: log.tree.Len(), Root: log.tree.Root()}
	c.Signature = s.signer.Sign(c.digest())
	return c
}

// ProveConsistency proves that version newV of the object extends oldV.
func (s *Server) ProveConsistency(objectID string, oldV, newV int) (*merkle.ConsistencyProof, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	log, ok := s.objects[objectID]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchVersion, objectID)
	}
	if newV > log.tree.Len() || newV <= 0 {
		return nil, ErrNoSuchVersion
	}
	// Rebuild the prefix tree so proofs work between historical versions too.
	prefix := merkle.New()
	for _, op := range log.ops[:newV] {
		prefix.Append(op)
	}
	proof, err := prefix.ProveConsistency(oldV)
	if err != nil {
		return nil, fmt.Errorf("historytree: proving consistency: %w", err)
	}
	return proof, nil
}

// ProveMembership proves that op sits at index in the object history of the
// given version.
func (s *Server) ProveMembership(objectID string, version, index int) ([]byte, *merkle.Proof, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	log, ok := s.objects[objectID]
	if !ok {
		return nil, nil, fmt.Errorf("%w: %q", ErrNoSuchVersion, objectID)
	}
	if version <= 0 || version > log.tree.Len() || index < 0 || index >= version {
		return nil, nil, ErrNoSuchVersion
	}
	prefix := merkle.New()
	for _, op := range log.ops[:version] {
		prefix.Append(op)
	}
	proof, err := prefix.Prove(index)
	if err != nil {
		return nil, nil, fmt.Errorf("historytree: proving membership: %w", err)
	}
	return append([]byte(nil), log.ops[index]...), proof, nil
}

// ForkEvidence is cryptographic proof of server equivocation: two validly
// signed commitments for the same object that are provably inconsistent.
type ForkEvidence struct {
	A, B *Commitment
}

// Error renders the evidence as an error message.
func (f *ForkEvidence) Error() string {
	return fmt.Sprintf("historytree: fork on %q: version %d root %x vs version %d root %x",
		f.A.ObjectID, f.A.Version, f.A.Root[:4], f.B.Version, f.B.Root[:4])
}

// View is a client's fork-consistent tracking of one object.
type View struct {
	// ObjectID names the tracked object.
	ObjectID string

	vk     pubkey.VerificationKey
	latest *Commitment
}

// NewView starts tracking an object, trusting the given server key.
func NewView(objectID string, vk pubkey.VerificationKey) *View {
	return &View{ObjectID: objectID, vk: vk}
}

// Latest returns the last verified commitment (nil before the first Advance).
func (v *View) Latest() *Commitment { return v.latest }

// Advance verifies a new commitment against the view. For a non-empty view a
// consistency proof from the view's version to the commitment's version is
// required. On provable equivocation it returns *ForkEvidence (which also
// satisfies error via errors.As).
func (v *View) Advance(c *Commitment, proof *merkle.ConsistencyProof) error {
	if c.ObjectID != v.ObjectID {
		return ErrObjectChanged
	}
	if err := c.Verify(v.vk); err != nil {
		return err
	}
	if v.latest == nil {
		v.latest = c
		return nil
	}
	switch {
	case c.Version < v.latest.Version:
		return ErrStaleView
	case c.Version == v.latest.Version:
		if c.Root != v.latest.Root {
			return &ForkEvidence{A: v.latest, B: c}
		}
		return nil
	default:
		if proof == nil || proof.OldSize != v.latest.Version || proof.NewSize != c.Version {
			return merkle.ErrInvalidConsistency
		}
		if err := merkle.VerifyConsistency(v.latest.Root, c.Root, proof); err != nil {
			// An invalid proof is suspicious but not yet evidence; the
			// caller retries or escalates.
			return err
		}
		v.latest = c
		return nil
	}
}

// CheckCommitments cross-checks two clients' verified commitments for the
// same object — the "clients communicate to each other" step of the paper.
// It returns *ForkEvidence when the commitments are at the same version with
// different roots. For differing versions the caller should obtain a
// consistency proof via the server; refusal to produce one is operational
// evidence of misbehaviour.
func CheckCommitments(a, b *Commitment, vk pubkey.VerificationKey) error {
	if a == nil || b == nil {
		return nil
	}
	if a.ObjectID != b.ObjectID {
		return ErrObjectChanged
	}
	if err := a.Verify(vk); err != nil {
		return err
	}
	if err := b.Verify(vk); err != nil {
		return err
	}
	if a.Version == b.Version && a.Root != b.Root {
		return &ForkEvidence{A: a, B: b}
	}
	return nil
}
