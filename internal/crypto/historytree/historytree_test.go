package historytree

import (
	"errors"
	"fmt"
	"testing"

	"godosn/internal/crypto/merkle"
	"godosn/internal/crypto/pubkey"
)

func newServer(t *testing.T) (*Server, pubkey.VerificationKey) {
	t.Helper()
	kp, err := pubkey.NewSigningKeyPair()
	if err != nil {
		t.Fatalf("NewSigningKeyPair: %v", err)
	}
	return NewServer(kp), kp.Verification()
}

func TestCommitmentSignature(t *testing.T) {
	s, vk := newServer(t)
	c, err := s.Append("wall:alice", []byte("op1"))
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := c.Verify(vk); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	c.Version++
	if err := c.Verify(vk); err == nil {
		t.Fatal("mutated commitment verified")
	}
}

func TestViewAdvances(t *testing.T) {
	s, vk := newServer(t)
	view := NewView("wall:alice", vk)
	var last *Commitment
	for i := 0; i < 10; i++ {
		c, err := s.Append("wall:alice", []byte(fmt.Sprintf("op%d", i)))
		if err != nil {
			t.Fatalf("Append: %v", err)
		}
		var proof *merkle.ConsistencyProof
		if last != nil {
			proof, err = s.ProveConsistency("wall:alice", last.Version, c.Version)
			if err != nil {
				t.Fatalf("ProveConsistency: %v", err)
			}
		}
		if err := view.Advance(c, proof); err != nil {
			t.Fatalf("Advance step %d: %v", i, err)
		}
		last = c
	}
	if view.Latest().Version != 10 {
		t.Fatalf("view at version %d", view.Latest().Version)
	}
}

func TestViewSkipsVersions(t *testing.T) {
	s, vk := newServer(t)
	view := NewView("w", vk)
	c1, _ := s.Append("w", []byte("1"))
	if err := view.Advance(c1, nil); err != nil {
		t.Fatalf("Advance: %v", err)
	}
	s.Append("w", []byte("2"))
	s.Append("w", []byte("3"))
	c4, _ := s.Append("w", []byte("4"))
	proof, err := s.ProveConsistency("w", 1, 4)
	if err != nil {
		t.Fatalf("ProveConsistency: %v", err)
	}
	if err := view.Advance(c4, proof); err != nil {
		t.Fatalf("Advance over gap: %v", err)
	}
}

func TestViewRejectsMissingProof(t *testing.T) {
	s, vk := newServer(t)
	view := NewView("w", vk)
	c1, _ := s.Append("w", []byte("1"))
	view.Advance(c1, nil)
	c2, _ := s.Append("w", []byte("2"))
	if err := view.Advance(c2, nil); err == nil {
		t.Fatal("advanced without consistency proof")
	}
}

func TestViewRejectsWrongObject(t *testing.T) {
	s, vk := newServer(t)
	view := NewView("w", vk)
	c, _ := s.Append("other", []byte("1"))
	if err := view.Advance(c, nil); !errors.Is(err, ErrObjectChanged) {
		t.Fatalf("got %v, want ErrObjectChanged", err)
	}
}

func TestForkDetectionSameVersion(t *testing.T) {
	// The provider equivocates: presents two different version-1 states to
	// two clients. When the clients compare commitments they obtain
	// cryptographic fork evidence — the scenario of Section IV-B.
	kp, _ := pubkey.NewSigningKeyPair()
	vk := kp.Verification()
	honest := NewServer(kp)
	evil := NewServer(kp)

	cA, _ := honest.Append("wall", []byte("real post"))
	cB, _ := evil.Append("wall", []byte("hidden post"))

	err := CheckCommitments(cA, cB, vk)
	var fork *ForkEvidence
	if !errors.As(err, &fork) {
		t.Fatalf("got %v, want ForkEvidence", err)
	}
	if fork.A.Root == fork.B.Root {
		t.Fatal("evidence roots identical")
	}
	if fork.Error() == "" {
		t.Fatal("empty evidence message")
	}
}

func TestForkDetectionViaView(t *testing.T) {
	kp, _ := pubkey.NewSigningKeyPair()
	vk := kp.Verification()
	honest := NewServer(kp)
	evil := NewServer(kp)

	view := NewView("wall", vk)
	c1, _ := honest.Append("wall", []byte("post-1"))
	if err := view.Advance(c1, nil); err != nil {
		t.Fatalf("Advance: %v", err)
	}
	// Evil presents an alternative version 1.
	e1, _ := evil.Append("wall", []byte("other-post"))
	err := view.Advance(e1, nil)
	var fork *ForkEvidence
	if !errors.As(err, &fork) {
		t.Fatalf("got %v, want ForkEvidence", err)
	}
}

func TestForkedExtensionRejected(t *testing.T) {
	kp, _ := pubkey.NewSigningKeyPair()
	vk := kp.Verification()
	honest := NewServer(kp)
	evil := NewServer(kp)

	view := NewView("wall", vk)
	c1, _ := honest.Append("wall", []byte("post-1"))
	view.Advance(c1, nil)

	// Evil builds a divergent longer history and tries to move the view.
	evil.Append("wall", []byte("fake-1"))
	e2, _ := evil.Append("wall", []byte("fake-2"))
	proof, err := evil.ProveConsistency("wall", 1, 2)
	if err != nil {
		t.Fatalf("ProveConsistency: %v", err)
	}
	if err := view.Advance(e2, proof); err == nil {
		t.Fatal("view advanced onto forked history")
	}
	if view.Latest().Version != 1 {
		t.Fatal("view moved despite rejection")
	}
}

func TestCheckCommitmentsConsistentPair(t *testing.T) {
	s, vk := newServer(t)
	c1, _ := s.Append("w", []byte("1"))
	c2, _ := s.Append("w", []byte("2"))
	if err := CheckCommitments(c1, c2, vk); err != nil {
		t.Fatalf("consistent pair flagged: %v", err)
	}
	if err := CheckCommitments(c1, c1, vk); err != nil {
		t.Fatalf("identical pair flagged: %v", err)
	}
	if err := CheckCommitments(nil, c1, vk); err != nil {
		t.Fatalf("nil pair flagged: %v", err)
	}
}

func TestMembershipProof(t *testing.T) {
	s, _ := newServer(t)
	var commits []*Commitment
	for i := 0; i < 8; i++ {
		c, _ := s.Append("w", []byte(fmt.Sprintf("op%d", i)))
		commits = append(commits, c)
	}
	op, proof, err := s.ProveMembership("w", 8, 3)
	if err != nil {
		t.Fatalf("ProveMembership: %v", err)
	}
	if string(op) != "op3" {
		t.Fatalf("got op %q", op)
	}
	if err := merkle.VerifyProof(commits[7].Root, merkle.LeafHash(op), proof); err != nil {
		t.Fatalf("membership proof invalid: %v", err)
	}
	// Historical version proofs too.
	op, proof, err = s.ProveMembership("w", 4, 3)
	if err != nil {
		t.Fatalf("ProveMembership historical: %v", err)
	}
	if err := merkle.VerifyProof(commits[3].Root, merkle.LeafHash(op), proof); err != nil {
		t.Fatalf("historical membership proof invalid: %v", err)
	}
}

func TestOperationsReplay(t *testing.T) {
	s, _ := newServer(t)
	for i := 0; i < 5; i++ {
		s.Append("w", []byte(fmt.Sprintf("op%d", i)))
	}
	for i := 0; i < 3; i++ {
		op, _, err := s.ProveMembership("w", 3, i)
		if err != nil || string(op) != fmt.Sprintf("op%d", i) {
			t.Fatalf("op %d of version 3 = %q, %v", i, op, err)
		}
	}
	if _, _, err := s.ProveMembership("w", 3, 3); err == nil {
		t.Fatal("op past version 3 served")
	}
	if _, _, err := s.ProveMembership("missing", 1, 0); err == nil {
		t.Fatal("operations for unknown object")
	}
	if _, _, err := s.ProveMembership("w", 99, 0); err == nil {
		t.Fatal("operations beyond version")
	}
}

func TestLatest(t *testing.T) {
	s, vk := newServer(t)
	if _, err := s.Latest("nope"); err == nil {
		t.Fatal("Latest for unknown object")
	}
	s.Append("w", []byte("1"))
	c, err := s.Latest("w")
	if err != nil || c.Version != 1 {
		t.Fatalf("Latest: %v %+v", err, c)
	}
	if err := c.Verify(vk); err != nil {
		t.Fatalf("Latest signature: %v", err)
	}
}
