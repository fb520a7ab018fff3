package privacy

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"godosn/internal/social/identity"
)

// fixture bundles everything scheme constructors need.
type fixture struct {
	registry *identity.Registry
	users    map[string]*identity.User
}

func newFixture(t testing.TB, names ...string) *fixture {
	t.Helper()
	f := &fixture{registry: identity.NewRegistry(), users: make(map[string]*identity.User)}
	for _, n := range names {
		u, err := identity.NewUser(n)
		if err != nil {
			t.Fatalf("NewUser(%s): %v", n, err)
		}
		if err := f.registry.Register(u); err != nil {
			t.Fatalf("Register(%s): %v", n, err)
		}
		f.users[n] = u
	}
	return f
}

// schemeCase describes one Group implementation for the conformance suite.
type schemeCase struct {
	name string
	// revocationReencrypts: scheme re-encrypts the archive on Remove.
	revocationReencrypts bool
	// revocationFree: Remove reports Free.
	revocationFree bool
	// staleAfterRevoke: envelopes from before a revocation no longer open
	// through the group (epoch-guarded schemes).
	staleAfterRevoke bool
}

// build constructs the case's group through NewGroup, owned by a user
// outside the fixture.
func (sc schemeCase) build(t *testing.T, f *fixture) Group {
	t.Helper()
	owner, err := identity.NewUser("owner")
	if err != nil {
		t.Fatalf("NewUser: %v", err)
	}
	g, err := NewGroup(Scheme(sc.name), sc.name, f.registry, owner)
	if err != nil {
		t.Fatalf("NewGroup(%s): %v", sc.name, err)
	}
	return g
}

func allSchemes() []schemeCase {
	return []schemeCase{
		{name: "substitution", revocationReencrypts: true, staleAfterRevoke: true},
		{name: "symmetric", revocationReencrypts: true, staleAfterRevoke: true},
		{name: "public-key", revocationFree: true},
		{name: "abe", revocationReencrypts: true},
		{name: "ibbe", revocationFree: true},
		{name: "hybrid", revocationReencrypts: true, staleAfterRevoke: true},
	}
}

// TestNewGroup holds the one constructor to Table I: Schemes lists the six
// schemes once each in the table's order, NewGroup builds each into a group
// of that scheme whose envelopes survive the wire for a member and refuse a
// non-member, and an unknown scheme gets an error and no group.
func TestNewGroup(t *testing.T) {
	want := []Scheme{SchemeSubstitution, SchemeSymmetric, SchemePublicKey, SchemeABE, SchemeIBBE, SchemeHybrid}
	got := Schemes()
	if !slices.Equal(got, want) {
		t.Fatalf("Schemes() = %v, want %v", got, want)
	}
	got[0] = SchemeHybrid
	if Schemes()[0] != SchemeSubstitution {
		t.Fatal("writing into Schemes()'s result changed the list")
	}
	f := newFixture(t, "alice", "bob", "eve")
	for _, s := range Schemes() {
		t.Run(string(s), func(t *testing.T) {
			g, err := NewGroup(s, "g-"+string(s), f.registry, f.users["alice"])
			if err != nil {
				t.Fatalf("NewGroup: %v", err)
			}
			if g.Scheme() != s {
				t.Fatalf("Scheme() = %s", g.Scheme())
			}
			for _, m := range []string{"alice", "bob"} {
				if err := g.Add(m); err != nil {
					t.Fatalf("Add(%s): %v", m, err)
				}
			}
			env, err := g.Encrypt([]byte("one constructor"))
			if err != nil {
				t.Fatalf("Encrypt: %v", err)
			}
			wire, err := Marshal(env)
			if err != nil {
				t.Fatalf("Marshal: %v", err)
			}
			restored, err := Unmarshal(wire)
			if err != nil {
				t.Fatalf("Unmarshal: %v", err)
			}
			if pt, err := g.Decrypt(f.users["bob"], restored); err != nil || string(pt) != "one constructor" {
				t.Fatalf("member Decrypt = %q, %v", pt, err)
			}
			if _, err := g.Decrypt(f.users["eve"], restored); err == nil {
				t.Fatal("non-member decrypted")
			}
		})
	}
	if g, err := NewGroup("bogus", "g", f.registry, f.users["alice"]); err == nil || g != nil {
		t.Fatalf("unknown scheme: got %v, %v; want nil group and an error", g, err)
	}
}

func TestConformanceRoundTrip(t *testing.T) {
	for _, sc := range allSchemes() {
		t.Run(sc.name, func(t *testing.T) {
			f := newFixture(t, "alice", "bob", "eve")
			g := sc.build(t, f)
			for _, m := range []string{"alice", "bob"} {
				if err := g.Add(m); err != nil {
					t.Fatalf("Add(%s): %v", m, err)
				}
			}
			env, err := g.Encrypt([]byte("party at my place on friday"))
			if err != nil {
				t.Fatalf("Encrypt: %v", err)
			}
			if env.Scheme != g.Scheme() || env.Group != g.Name() {
				t.Fatalf("envelope metadata %q/%q", env.Scheme, env.Group)
			}
			if wire, err := Marshal(env); err != nil || len(wire) == 0 {
				t.Fatalf("Marshal: %d bytes, %v", len(wire), err)
			}
			for _, m := range []string{"alice", "bob"} {
				pt, err := g.Decrypt(f.users[m], env)
				if err != nil {
					t.Fatalf("Decrypt as %s: %v", m, err)
				}
				if string(pt) != "party at my place on friday" {
					t.Fatalf("%s got %q", m, pt)
				}
			}
		})
	}
}

func TestConformanceNonMemberRejected(t *testing.T) {
	for _, sc := range allSchemes() {
		t.Run(sc.name, func(t *testing.T) {
			f := newFixture(t, "alice", "eve")
			g := sc.build(t, f)
			if err := g.Add("alice"); err != nil {
				t.Fatalf("Add: %v", err)
			}
			env, err := g.Encrypt([]byte("secret"))
			if err != nil {
				t.Fatalf("Encrypt: %v", err)
			}
			if pt, err := g.Decrypt(f.users["eve"], env); err == nil {
				t.Fatalf("non-member decrypted: %q", pt)
			}
		})
	}
}

func TestConformanceMembership(t *testing.T) {
	for _, sc := range allSchemes() {
		t.Run(sc.name, func(t *testing.T) {
			f := newFixture(t, "alice", "bob")
			g := sc.build(t, f)
			if err := g.Add("alice"); err != nil {
				t.Fatalf("Add: %v", err)
			}
			if err := g.Add("alice"); !errors.Is(err, ErrAlreadyMember) {
				t.Fatalf("double add: %v", err)
			}
			if _, err := g.Remove("bob"); !errors.Is(err, ErrNotMember) {
				t.Fatalf("removing non-member: %v", err)
			}
			g.Add("bob")
			got := g.Members()
			if len(got) != 2 || got[0] != "alice" || got[1] != "bob" {
				t.Fatalf("Members = %v", got)
			}
		})
	}
}

func TestConformanceEmptyGroupCannotEncrypt(t *testing.T) {
	for _, sc := range allSchemes() {
		t.Run(sc.name, func(t *testing.T) {
			f := newFixture(t, "alice")
			g := sc.build(t, f)
			if _, err := g.Encrypt([]byte("x")); !errors.Is(err, ErrNoMembers) {
				t.Fatalf("empty group Encrypt: %v", err)
			}
		})
	}
}

func TestConformanceRevocation(t *testing.T) {
	for _, sc := range allSchemes() {
		t.Run(sc.name, func(t *testing.T) {
			f := newFixture(t, "alice", "bob", "carol")
			g := sc.build(t, f)
			for _, m := range []string{"alice", "bob", "carol"} {
				g.Add(m)
			}
			for i := 0; i < 5; i++ {
				if _, err := g.Encrypt([]byte(fmt.Sprintf("post %d", i))); err != nil {
					t.Fatalf("Encrypt: %v", err)
				}
			}
			report, err := g.Remove("carol")
			if err != nil {
				t.Fatalf("Remove: %v", err)
			}
			if report.Free != sc.revocationFree {
				t.Fatalf("Free = %v, want %v", report.Free, sc.revocationFree)
			}
			if sc.revocationReencrypts && report.ReencryptedEnvelopes != 5 {
				t.Fatalf("ReencryptedEnvelopes = %d, want 5", report.ReencryptedEnvelopes)
			}
			if !sc.revocationReencrypts && report.ReencryptedEnvelopes != 0 {
				t.Fatalf("ReencryptedEnvelopes = %d, want 0", report.ReencryptedEnvelopes)
			}
			// Post-revocation content must exclude carol but reach bob.
			env, err := g.Encrypt([]byte("after revocation"))
			if err != nil {
				t.Fatalf("Encrypt: %v", err)
			}
			if _, err := g.Decrypt(f.users["carol"], env); err == nil {
				t.Fatal("revoked member decrypted new content")
			}
			pt, err := g.Decrypt(f.users["bob"], env)
			if err != nil || string(pt) != "after revocation" {
				t.Fatalf("remaining member decrypt: %v", err)
			}
			// Archive is re-protected for remaining members, and a re-encrypting
			// scheme leaves carol no archived envelope she can open.
			archive := g.Archive()
			for i, archived := range archive {
				if sc.revocationReencrypts {
					if _, err := g.Decrypt(f.users["carol"], archived); err == nil {
						t.Fatalf("revoked member opened archive[%d]", i)
					}
				}
				if i == len(archive)-1 {
					break // the post-revocation envelope
				}
				pt, err := g.Decrypt(f.users["alice"], archived)
				if err != nil {
					t.Fatalf("archive[%d] unreadable by member: %v", i, err)
				}
				if string(pt) != fmt.Sprintf("post %d", i) {
					t.Fatalf("archive[%d] = %q", i, pt)
				}
			}
			// The archive hands out a copy: writing into it changes nothing.
			archive[0] = Envelope{Group: "scribbled"}
			if again := g.Archive(); again[0].Group != g.Name() {
				t.Fatalf("writing into Archive()'s result changed the archive: %+v", again[0])
			}
		})
	}
}

func TestConformanceStaleEnvelopesAfterRevoke(t *testing.T) {
	for _, sc := range allSchemes() {
		if !sc.staleAfterRevoke {
			continue
		}
		t.Run(sc.name, func(t *testing.T) {
			f := newFixture(t, "alice", "bob")
			g := sc.build(t, f)
			g.Add("alice")
			g.Add("bob")
			oldEnv, _ := g.Encrypt([]byte("pre-revocation"))
			g.Remove("bob")
			if _, err := g.Decrypt(f.users["alice"], oldEnv); !errors.Is(err, ErrStaleEpoch) {
				t.Fatalf("stale envelope: %v", err)
			}
		})
	}
}

func TestConformanceWrongGroupEnvelope(t *testing.T) {
	for _, sc := range allSchemes() {
		t.Run(sc.name, func(t *testing.T) {
			f := newFixture(t, "alice")
			g := sc.build(t, f)
			g.Add("alice")
			env, _ := g.Encrypt([]byte("x"))
			env.Group = "other-group"
			if _, err := g.Decrypt(f.users["alice"], env); !errors.Is(err, ErrWrongGroup) {
				t.Fatalf("wrong group: %v", err)
			}
			env.Group = g.Name()
			env.Scheme = "bogus"
			if _, err := g.Decrypt(f.users["alice"], env); !errors.Is(err, ErrWrongScheme) {
				t.Fatalf("wrong scheme: %v", err)
			}
		})
	}
}
