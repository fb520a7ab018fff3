package zkp

import (
	"testing"
	"testing/quick"
)

func TestProveVerify(t *testing.T) {
	w, stmt, err := NewWitness()
	if err != nil {
		t.Fatalf("NewWitness: %v", err)
	}
	ctx := []byte("search request 1")
	proof, err := w.Prove(stmt, ctx)
	if err != nil {
		t.Fatalf("Prove: %v", err)
	}
	if err := Verify(stmt, proof, ctx); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestVerifyRejectsWrongContext(t *testing.T) {
	w, stmt, _ := NewWitness()
	proof, _ := w.Prove(stmt, []byte("ctx-a"))
	if err := Verify(stmt, proof, []byte("ctx-b")); err == nil {
		t.Fatal("proof verified under different context (replayable)")
	}
}

func TestVerifyRejectsWrongStatement(t *testing.T) {
	w, stmt, _ := NewWitness()
	_, other, _ := NewWitness()
	proof, _ := w.Prove(stmt, []byte("ctx"))
	if err := Verify(other, proof, []byte("ctx")); err == nil {
		t.Fatal("proof verified against wrong statement")
	}
}

func TestVerifyRejectsMutatedProof(t *testing.T) {
	w, stmt, _ := NewWitness()
	proof, _ := w.Prove(stmt, []byte("ctx"))
	badResp := append([]byte(nil), proof.Response...)
	badResp[0] ^= 1
	if err := Verify(stmt, &Proof{Commitment: proof.Commitment, Response: badResp}, []byte("ctx")); err == nil {
		t.Fatal("mutated response verified")
	}
	badCom := append([]byte(nil), proof.Commitment...)
	badCom[5] ^= 1
	if err := Verify(stmt, &Proof{Commitment: badCom, Response: proof.Response}, []byte("ctx")); err == nil {
		t.Fatal("mutated commitment verified")
	}
}

func TestVerifyRejectsNil(t *testing.T) {
	_, stmt, _ := NewWitness()
	if err := Verify(stmt, nil, nil); err == nil {
		t.Fatal("nil proof verified")
	}
	if err := Verify(nil, &Proof{}, nil); err == nil {
		t.Fatal("nil statement verified")
	}
}

func TestQuickProofsVerify(t *testing.T) {
	w, stmt, _ := NewWitness()
	f := func(ctx []byte) bool {
		proof, err := w.Prove(stmt, ctx)
		if err != nil {
			return false
		}
		return Verify(stmt, proof, ctx) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
