// Privacy-scheme comparison: the paper's party-invitation scenario run under
// all six Table-I data-privacy mechanisms, printing cost, ciphertext size,
// and revocation behaviour side by side. A second part signs the same
// invitation and runs the Section IV-B integrity checks on it (owner,
// content, relation, history), genuine and forged.
//
//	go run ./examples/privacyschemes
package main

import (
	"errors"
	"fmt"
	"log"
	"time"

	"godosn/internal/crypto/abe"
	"godosn/internal/social/identity"
	"godosn/internal/social/integrity"
	"godosn/internal/social/privacy"
)

const invitation = "Come to my party held at my home on Friday"

func main() {
	registry := identity.NewRegistry()
	var members []*identity.User
	for _, name := range []string{"alice", "bob", "carol", "dave", "erin", "frank", "grace", "heidi"} {
		u, err := identity.NewUser(name)
		if err != nil {
			log.Fatalf("creating user: %v", err)
		}
		if err := registry.Register(u); err != nil {
			log.Fatalf("registering: %v", err)
		}
		members = append(members, u)
	}

	fmt.Println("Bob invites 8 friends to a party, under each Table-I scheme:")
	fmt.Printf("%-14s %-12s %-12s %-10s %-22s\n", "scheme", "encrypt", "decrypt", "ct bytes", "revoking one member")

	for _, scheme := range privacy.Schemes() {
		group, err := privacy.NewGroup(scheme, "g", registry, memberNamed(members, "bob"))
		if err != nil {
			log.Fatalf("%s: %v", scheme, err)
		}
		for _, m := range members {
			if err := group.Add(m.Name); err != nil {
				log.Fatalf("%s add: %v", scheme, err)
			}
		}
		start := time.Now()
		env, err := group.Encrypt([]byte(invitation))
		if err != nil {
			log.Fatalf("%s encrypt: %v", scheme, err)
		}
		encCost := time.Since(start)

		start = time.Now()
		got, err := group.Decrypt(members[0], env)
		if err != nil {
			log.Fatalf("%s decrypt: %v", scheme, err)
		}
		decCost := time.Since(start)
		if string(got) != invitation {
			log.Fatalf("%s round trip mismatch", scheme)
		}
		wire, err := privacy.Marshal(env)
		if err != nil {
			log.Fatalf("%s marshal: %v", scheme, err)
		}

		// Revoke heidi and describe what it cost.
		report, err := group.Remove("heidi")
		if err != nil {
			log.Fatalf("%s remove: %v", scheme, err)
		}
		revocation := "free (list update only)"
		if !report.Free {
			revocation = fmt.Sprintf("re-encrypted %d, re-keyed %d", report.ReencryptedEnvelopes, report.RekeyedMembers)
		}
		fmt.Printf("%-14s %-12s %-12s %-10d %-22s\n",
			scheme, encCost.Round(time.Microsecond), decCost.Round(time.Microsecond),
			len(wire), revocation)
	}

	// The substitution scheme's special property: what outsiders see.
	fmt.Println("\ninformation substitution detail (NOYB-style):")
	dict := privacy.NewDictionary()
	sub, err := privacy.NewSubstitutionGroup("subst", dict, [][]byte{[]byte("Pizza night at Joe's on Monday")})
	if err != nil {
		log.Fatal(err)
	}
	if err := sub.Add("alice"); err != nil {
		log.Fatal(err)
	}
	env, err := sub.Encrypt([]byte(invitation))
	if err != nil {
		log.Fatal(err)
	}
	fake, _ := privacy.FakeView(env)
	fmt.Printf("  the service provider sees: %q\n", fake)
	got, err := sub.Decrypt(memberNamed(members, "alice"), env)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  a group member recovers:   %q\n", got)

	// ABE's special property: policy-based audiences.
	fmt.Println("\nattribute-based detail (Persona/Cachet-style):")
	auth, err := abe.NewAuthority()
	if err != nil {
		log.Fatal(err)
	}
	abeGroup, err := privacy.NewABEGroup("policy-group", auth, "(relative OR (friend AND doctor))")
	if err != nil {
		log.Fatal(err)
	}
	abeGroup.AddWithAttributes("alice", "relative")
	abeGroup.AddWithAttributes("bob", "friend", "doctor")
	abeGroup.AddWithAttributes("carol", "friend")
	env2, err := abeGroup.Encrypt([]byte(invitation))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  policy: %s\n", abeGroup.Policy())
	for _, name := range []string{"alice", "bob", "carol"} {
		u := memberNamed(members, name)
		if _, err := abeGroup.Decrypt(u, env2); err != nil {
			fmt.Printf("  %s (%v): DENIED\n", name, abeGroup.MemberAttributes(name))
		} else {
			fmt.Printf("  %s (%v): can read\n", name, abeGroup.MemberAttributes(name))
		}
	}

	checkIntegrity(registry, memberNamed(members, "bob"))
}

// checkIntegrity signs bob's invitation to alice and verifies it as sent,
// then under each forgery Section IV-B names; each must get its own
// rejection.
func checkIntegrity(registry *identity.Registry, bob *identity.User) {
	fmt.Println("\ninvitation integrity (owner, content, relation, history):")
	mallory, err := identity.NewUser("mallory")
	if err != nil {
		log.Fatal(err)
	}
	now := time.Date(2015, 6, 29, 12, 0, 0, 0, time.UTC)
	inv := integrity.NewSignedMessage(bob, "alice", []byte(invitation), now, 7*24*time.Hour)
	forged := integrity.NewSignedMessage(mallory, "alice", []byte(invitation), now, time.Hour)
	forged.From = "bob"
	tampered := *inv
	tampered.Content = []byte("Come to my party held at my home on Saturday")
	for _, c := range []struct {
		label string
		msg   *integrity.SignedMessage
		to    string
		at    time.Time
		want  error
	}{
		{"genuine invitation", inv, "alice", now.Add(time.Hour), nil},
		{"mallory forging bob's name", forged, "alice", now, integrity.ErrForgedOwner},
		{"content changed to saturday", &tampered, "alice", now, integrity.ErrForgedOwner},
		{"replayed one month later", inv, "alice", now.Add(31 * 24 * time.Hour), integrity.ErrExpired},
		{"delivered to carol instead", inv, "carol", now, integrity.ErrWrongRecipient},
	} {
		err := integrity.VerifyMessage(registry, c.msg, c.to, c.at)
		if !errors.Is(err, c.want) {
			log.Fatalf("%s: got %v, want %v", c.label, err, c.want)
		}
		verdict := "ACCEPTED"
		if err != nil {
			verdict = "REJECTED: " + err.Error()
		}
		fmt.Printf("  %-28s %s\n", c.label, verdict)
	}
}

func memberNamed(members []*identity.User, name string) *identity.User {
	for _, m := range members {
		if m.Name == name {
			return m
		}
	}
	return nil
}
