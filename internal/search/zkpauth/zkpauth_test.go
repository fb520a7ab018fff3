package zkpauth

import (
	"errors"
	"strings"
	"testing"
)

func TestAuthorizedPseudonymousAccess(t *testing.T) {
	owner := NewOwner()
	owner.Publish("alice:birthday", "26 October 1990")
	cred, err := NewCredential()
	if err != nil {
		t.Fatalf("NewCredential: %v", err)
	}
	owner.Authorize(cred.Statement())

	req, err := cred.NewRequest("alice:birthday")
	if err != nil {
		t.Fatalf("NewRequest: %v", err)
	}
	if !strings.HasPrefix(req.Pseudonym, "anon-") {
		t.Fatalf("pseudonym %q", req.Pseudonym)
	}
	got, err := owner.Serve(req)
	if err != nil || got != "26 October 1990" {
		t.Fatalf("Serve: %q, %v", got, err)
	}
}

func TestUnauthorizedCredentialRejected(t *testing.T) {
	owner := NewOwner()
	owner.Publish("r", "v")
	cred, _ := NewCredential()
	req, _ := cred.NewRequest("r")
	if _, err := owner.Serve(req); !errors.Is(err, ErrNotAuthorized) {
		t.Fatalf("got %v, want ErrNotAuthorized", err)
	}
}

func TestRevokedCredentialRejected(t *testing.T) {
	owner := NewOwner()
	owner.Publish("r", "v")
	cred, _ := NewCredential()
	owner.Authorize(cred.Statement())
	owner.Revoke(cred.Statement())
	req, _ := cred.NewRequest("r")
	if _, err := owner.Serve(req); !errors.Is(err, ErrNotAuthorized) {
		t.Fatalf("got %v, want ErrNotAuthorized", err)
	}
}

func TestStolenStatementWithoutWitnessFails(t *testing.T) {
	// An eavesdropper who learns the public statement (it is whitelisted at
	// the owner) still cannot produce a valid proof.
	owner := NewOwner()
	owner.Publish("r", "v")
	cred, _ := NewCredential()
	owner.Authorize(cred.Statement())
	// Forge: different witness, victim's statement.
	thief, _ := NewCredential()
	req, _ := thief.NewRequest("r")
	req.Statement = cred.Statement()
	if _, err := owner.Serve(req); !errors.Is(err, ErrBadProof) {
		t.Fatalf("got %v, want ErrBadProof", err)
	}
}

func TestProofNotReplayableAcrossResources(t *testing.T) {
	owner := NewOwner()
	owner.Publish("r1", "v1")
	owner.Publish("r2", "v2")
	cred, _ := NewCredential()
	owner.Authorize(cred.Statement())
	req, _ := cred.NewRequest("r1")
	// Replay the proof for a different resource.
	replay := &Request{
		Pseudonym: req.Pseudonym,
		Resource:  "r2",
		Statement: req.Statement,
		Proof:     req.Proof,
	}
	if _, err := owner.Serve(replay); !errors.Is(err, ErrBadProof) {
		t.Fatalf("got %v, want ErrBadProof", err)
	}
}

func TestMissingResource(t *testing.T) {
	owner := NewOwner()
	cred, _ := NewCredential()
	owner.Authorize(cred.Statement())
	req, _ := cred.NewRequest("ghost")
	if _, err := owner.Serve(req); !errors.Is(err, ErrNoResource) {
		t.Fatalf("got %v, want ErrNoResource", err)
	}
}

func TestPseudonymsUnlinkableByName(t *testing.T) {
	owner := NewOwner()
	owner.Publish("r", "v")
	cred, _ := NewCredential()
	owner.Authorize(cred.Statement())
	r1, _ := cred.NewRequest("r")
	r2, _ := cred.NewRequest("r")
	if r1.Pseudonym == r2.Pseudonym {
		t.Fatal("pseudonyms repeat across requests")
	}
	owner.Serve(r1)
	owner.Serve(r2)
	obs := owner.Observations()
	if len(obs) != 2 {
		t.Fatalf("observations = %d", len(obs))
	}
	// What the owner CAN link is the credential image — the documented
	// residual linkage surface.
	if obs[0].StatementHex != obs[1].StatementHex {
		t.Fatal("expected credential-level linkability in the log")
	}
}
