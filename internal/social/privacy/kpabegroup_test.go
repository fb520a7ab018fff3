package privacy

import (
	"errors"
	"testing"

	"godosn/internal/crypto/abe"
)

func newKPFixture(t testing.TB) (*KPABEGroup, *fixture) {
	t.Helper()
	f := newFixture(t, "alice", "bob", "carol", "eve")
	auth, err := abe.NewAuthority()
	if err != nil {
		t.Fatalf("NewAuthority: %v", err)
	}
	return NewKPABEGroup("topics", auth), f
}

func TestKPGroupPerMemberPolicies(t *testing.T) {
	g, f := newKPFixture(t)
	// alice reads family content; bob reads work content; carol reads both.
	if err := g.Grant("alice", "(family)"); err != nil {
		t.Fatalf("Grant: %v", err)
	}
	if err := g.Grant("bob", "(work)"); err != nil {
		t.Fatalf("Grant: %v", err)
	}
	if err := g.Grant("carol", "(family OR work)"); err != nil {
		t.Fatalf("Grant: %v", err)
	}

	familyPost, err := g.EncryptLabeled([]string{"family"}, []byte("reunion photos"))
	if err != nil {
		t.Fatalf("EncryptLabeled: %v", err)
	}
	workPost, err := g.EncryptLabeled([]string{"work"}, []byte("quarterly numbers"))
	if err != nil {
		t.Fatalf("EncryptLabeled: %v", err)
	}

	// alice: family yes, work no.
	if pt, err := g.Decrypt(f.users["alice"], familyPost); err != nil || string(pt) != "reunion photos" {
		t.Fatalf("alice family: %v", err)
	}
	if _, err := g.Decrypt(f.users["alice"], workPost); err == nil {
		t.Fatal("alice read work content")
	}
	// bob: reverse.
	if _, err := g.Decrypt(f.users["bob"], familyPost); err == nil {
		t.Fatal("bob read family content")
	}
	if pt, err := g.Decrypt(f.users["bob"], workPost); err != nil || string(pt) != "quarterly numbers" {
		t.Fatalf("bob work: %v", err)
	}
	// carol: both.
	if _, err := g.Decrypt(f.users["carol"], familyPost); err != nil {
		t.Fatalf("carol family: %v", err)
	}
	if _, err := g.Decrypt(f.users["carol"], workPost); err != nil {
		t.Fatalf("carol work: %v", err)
	}
	// eve: nothing.
	if _, err := g.Decrypt(f.users["eve"], familyPost); !errors.Is(err, ErrNotMember) {
		t.Fatalf("eve: %v", err)
	}
}

func TestKPGroupAndPolicy(t *testing.T) {
	g, f := newKPFixture(t)
	if err := g.Grant("alice", "(work AND urgent)"); err != nil {
		t.Fatalf("Grant: %v", err)
	}
	urgent, _ := g.EncryptLabeled([]string{"work", "urgent"}, []byte("outage!"))
	routine, _ := g.EncryptLabeled([]string{"work"}, []byte("weekly report"))
	if _, err := g.Decrypt(f.users["alice"], urgent); err != nil {
		t.Fatalf("urgent: %v", err)
	}
	if _, err := g.Decrypt(f.users["alice"], routine); err == nil {
		t.Fatal("AND policy satisfied by a single label")
	}
}

func TestKPGroupRevocation(t *testing.T) {
	g, f := newKPFixture(t)
	g.Grant("alice", "(family)")
	g.Grant("bob", "(family)")
	g.EncryptLabeled([]string{"family"}, []byte("post 1"))
	g.EncryptLabeled([]string{"family"}, []byte("post 2"))

	report, err := g.Revoke("bob")
	if err != nil {
		t.Fatalf("Revoke: %v", err)
	}
	if report.ReencryptedEnvelopes != 2 || report.RekeyedMembers != 1 {
		t.Fatalf("report = %+v", report)
	}
	// New content unreadable by bob (not a member), readable by re-keyed alice.
	env, _ := g.EncryptLabeled([]string{"family"}, []byte("post 3"))
	if _, err := g.Decrypt(f.users["bob"], env); err == nil {
		t.Fatal("revoked member read new content")
	}
	if pt, err := g.Decrypt(f.users["alice"], env); err != nil || string(pt) != "post 3" {
		t.Fatalf("alice post-revocation: %v", err)
	}
	// Re-encrypted archive readable by alice.
	for i, archived := range g.Archive()[:2] {
		if _, err := g.Decrypt(f.users["alice"], archived); err != nil {
			t.Fatalf("archive[%d]: %v", i, err)
		}
	}
}

func TestKPGroupValidation(t *testing.T) {
	g, f := newKPFixture(t)
	if err := g.Grant("alice", "(((broken"); err == nil {
		t.Fatal("accepted broken policy")
	}
	g.Grant("alice", "(family)")
	if err := g.Grant("alice", "(work)"); !errors.Is(err, ErrAlreadyMember) {
		t.Fatalf("double grant: %v", err)
	}
	if _, err := g.EncryptLabeled(nil, []byte("x")); err == nil {
		t.Fatal("accepted empty label set")
	}
	env, _ := g.EncryptLabeled([]string{"family"}, []byte("x"))
	env.Group = "other"
	if _, err := g.Decrypt(f.users["alice"], env); !errors.Is(err, ErrWrongGroup) {
		t.Fatalf("wrong group: %v", err)
	}
	env.Group, env.Scheme = g.Name(), SchemeIBBE
	if _, err := g.Decrypt(f.users["alice"], env); !errors.Is(err, ErrWrongScheme) {
		t.Fatalf("wrong scheme: %v", err)
	}
	if _, err := g.Revoke("ghost"); !errors.Is(err, ErrNotMember) {
		t.Fatalf("revoking ghost: %v", err)
	}
	if g.PolicyOf("alice") != "(family)" {
		t.Fatalf("PolicyOf = %q", g.PolicyOf("alice"))
	}
	if g.Name() != "topics" || g.Scheme() != SchemeABE {
		t.Fatal("metadata wrong")
	}
}
