package privacy

import (
	"fmt"

	"godosn/internal/crypto/symmetric"
	"godosn/internal/parallel"
	"godosn/internal/social/identity"
)

// PublicKeyGroup implements Table I's "public key encryption" row, as used
// by flyByNight and PeerSoN (Section III-C): "data should be encrypted under
// the public keys of all group's members and then sent to them. When a user
// leaves the group, his public key will be deleted from the list of group
// members."
//
// Each message carries a fresh session key wrapped to every member's public
// key, so the ciphertext grows linearly with the group — the size behaviour
// experiment E3 measures. Removal is free for future messages.
type PublicKeyGroup struct {
	core
	registry *identity.Registry
}

var _ Group = (*PublicKeyGroup)(nil)

// pkPayload is the scheme ciphertext: per-member session-key wraps plus the
// session-key-sealed body.
type pkPayload struct {
	wraps map[string][]byte
	body  []byte
}

// NewPublicKeyGroup creates a group resolving member keys via the registry.
func NewPublicKeyGroup(name string, registry *identity.Registry) *PublicKeyGroup {
	return &PublicKeyGroup{core: newCore(SchemePublicKey, name), registry: registry}
}

// Add implements Group. The member must be resolvable in the registry.
func (g *PublicKeyGroup) Add(member string) error {
	if _, err := g.registry.Lookup(member); err != nil {
		return err
	}
	return g.add(member)
}

// Remove implements Group: "his public key will be deleted from the list" —
// no re-keying, no re-encryption; already-delivered ciphertexts remain
// readable by the removed member (they were addressed to him).
func (g *PublicKeyGroup) Remove(member string) (RevocationReport, error) {
	if err := g.remove(member); err != nil {
		return RevocationReport{}, err
	}
	return RevocationReport{Free: true}, nil
}

// Encrypt implements Group.
func (g *PublicKeyGroup) Encrypt(plaintext []byte) (Envelope, error) {
	if len(g.members) == 0 {
		return Envelope{}, ErrNoMembers
	}
	session, err := symmetric.NewKey()
	if err != nil {
		return Envelope{}, fmt.Errorf("privacy: session key for %q: %w", g.name, err)
	}
	// The per-member wraps are the O(members) cost of this scheme; each is
	// an independent ECIES operation, so fan them out and merge after.
	members := g.list()
	wraps, err := parallel.Map(0, members, func(_ int, member string) ([]byte, error) {
		wrap, err := g.registry.EncryptTo(member, session)
		if err != nil {
			return nil, fmt.Errorf("privacy: wrapping for %q: %w", member, err)
		}
		return wrap, nil
	})
	if err != nil {
		return Envelope{}, err
	}
	p := pkPayload{wraps: make(map[string][]byte, len(wraps))}
	for i, member := range members {
		p.wraps[member] = wraps[i]
	}
	if p.body, err = symmetric.Seal(session, plaintext, []byte(g.name)); err != nil {
		return Envelope{}, fmt.Errorf("privacy: sealing body for %q: %w", g.name, err)
	}
	env := g.envelope(1, p)
	g.record(env)
	return env, nil
}

// Decrypt implements Group: the user unwraps its own session-key copy.
func (g *PublicKeyGroup) Decrypt(user *identity.User, env Envelope) ([]byte, error) {
	if err := g.check(env); err != nil {
		return nil, err
	}
	p, ok := env.Payload.(pkPayload)
	if !ok {
		return nil, fmt.Errorf("privacy: malformed public-key payload")
	}
	wrap, ok := p.wraps[user.Name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotMember, user.Name)
	}
	session, err := user.Decrypt(wrap)
	if err != nil {
		return nil, fmt.Errorf("privacy: unwrapping session key: %w", err)
	}
	pt, err := symmetric.Open(session, p.body, []byte(g.name))
	if err != nil {
		return nil, fmt.Errorf("privacy: opening body: %w", err)
	}
	return pt, nil
}
