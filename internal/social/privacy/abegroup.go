package privacy

import (
	"bytes"
	"fmt"

	"godosn/internal/crypto/abe"
	"godosn/internal/crypto/pubkey"
	"godosn/internal/parallel"
	"godosn/internal/social/identity"
)

// ABEGroup implements Table I's "attribute based encryption" row
// (ciphertext-policy variant, as used by Persona and Cachet — Section
// III-D): the group is defined by a policy over attributes, members hold
// attribute keys, and "it is enough to do a single encryption operation to
// construct a new group".
//
// Revocation follows the paper's description: "Usual revocation methods for
// ABE use frequent re-keying. To remove the accessibility of a revoked user,
// the previous data which were accessible by him must be encrypted and
// stored again. This kind of re-encryptions causes an extra overhead" —
// Remove re-keys the member's attributes, re-issues keys to remaining
// members holding them, and re-encrypts the archive. Experiment E2 measures
// that overhead.
type ABEGroup struct {
	core
	// envelopeKeyCache optionally memoizes each member's recovered payload
	// key per ciphertext (SetKeyCache); Remove bumps its generation on rekey.
	envelopeKeyCache

	// authority issues the keys; sender is the owner's ECIES context — one
	// key agreement per attribute parameter, then symmetric leaf wraps — and
	// snapshot the public parameters, so a post does not rebuild the
	// attribute map.
	authority *abe.Authority
	sender    *pubkey.Sender
	snapshot  *abe.PublicParams
	policy    *abe.Policy
	// policyText is policy in canonical syntax, as ciphertexts carry it.
	policyText []byte
	// attrs records each member's attribute set; keys are the issued
	// decryption keys (held here in-process; conceptually each member's).
	attrs map[string][]string
	keys  map[string]*abe.UserKey
}

var _ Group = (*ABEGroup)(nil)

// params returns the authority's current public parameters, re-reading them
// only when the epoch or the attribute set moved — which any group sharing
// the authority may have caused. A parameter the new snapshot replaced was
// re-keyed by a revocation: its pairwise key leaves the sender context with
// it.
func (g *ABEGroup) params() *abe.PublicParams {
	stale := g.snapshot
	if stale != nil && g.authority.Current(stale) {
		return stale
	}
	g.snapshot = g.authority.PublicParams()
	if stale != nil {
		for attr, old := range stale.Attrs {
			if g.snapshot.Attrs[attr] != old {
				g.sender.Forget(old)
			}
		}
	}
	return g.snapshot
}

// NewABEGroup creates a group guarded by the given policy string (e.g.
// "(relative AND doctor)"). All policy attributes are registered with the
// authority.
func NewABEGroup(name string, authority *abe.Authority, policyExpr string) (*ABEGroup, error) {
	policy, err := abe.ParsePolicy(policyExpr)
	if err != nil {
		return nil, fmt.Errorf("privacy: policy for %q: %w", name, err)
	}
	for _, attr := range policy.Attributes() {
		if err := authority.AddAttribute(attr); err != nil {
			return nil, err
		}
	}
	return &ABEGroup{
		core:       newCore(SchemeABE, name),
		authority:  authority,
		sender:     pubkey.NewSender(),
		policy:     policy,
		policyText: []byte(policy.String()),
		attrs:      make(map[string][]string),
		keys:       make(map[string]*abe.UserKey),
	}, nil
}

// Policy returns the group's access structure.
func (g *ABEGroup) Policy() string { return g.policy.String() }

// Add implements Group: the member is issued a key for the full policy
// attribute set. Use AddWithAttributes for finer-grained assignment.
func (g *ABEGroup) Add(member string) error {
	return g.AddWithAttributes(member, g.policy.Attributes()...)
}

// AddWithAttributes admits a member with a specific attribute set, e.g.
// assigning only ('relative', 'doctor') to Alice.
func (g *ABEGroup) AddWithAttributes(member string, attributes ...string) error {
	if g.has(member) {
		return fmt.Errorf("%w: %s", ErrAlreadyMember, member)
	}
	for _, a := range attributes {
		if err := g.authority.AddAttribute(a); err != nil {
			return err
		}
	}
	key, err := g.authority.IssueKey(attributes)
	if err != nil {
		return fmt.Errorf("privacy: issuing ABE key for %q: %w", member, err)
	}
	if err := g.add(member); err != nil {
		return err
	}
	g.attrs[member] = append([]string(nil), attributes...)
	g.keys[member] = key
	return nil
}

// Remove implements Group with the full ABE revocation workflow.
func (g *ABEGroup) Remove(member string) (RevocationReport, error) {
	if err := g.remove(member); err != nil {
		return RevocationReport{}, err
	}
	revokedAttrs := g.attrs[member]
	delete(g.attrs, member)
	delete(g.keys, member)

	if err := g.authority.Revoke(revokedAttrs); err != nil {
		return RevocationReport{}, fmt.Errorf("privacy: revoking attributes: %w", err)
	}
	// Every memoized payload key predates the re-key; the revoked member's
	// entries in particular must not survive.
	g.keyCache.BumpGeneration()
	report := RevocationReport{}
	agreed := g.sender.Agreements()
	// Re-issue keys to remaining members who held a revoked attribute.
	revoked := make(map[string]bool, len(revokedAttrs))
	for _, a := range revokedAttrs {
		revoked[a] = true
	}
	var needsRekey []string
	for _, m := range g.list() {
		for _, a := range g.attrs[m] {
			if revoked[a] {
				needsRekey = append(needsRekey, m)
				break
			}
		}
	}
	// The authority is safe for concurrent use, so re-issue the affected
	// members' keys in parallel and merge on this goroutine.
	keys, err := parallel.Map(0, needsRekey, func(_ int, m string) (*abe.UserKey, error) {
		key, err := g.authority.IssueKey(g.attrs[m])
		if err != nil {
			return nil, fmt.Errorf("privacy: re-issuing key for %q: %w", m, err)
		}
		return key, nil
	})
	if err != nil {
		return report, err
	}
	for i, m := range needsRekey {
		g.keys[m] = keys[i]
	}
	report.RekeyedMembers = len(needsRekey)
	// Re-encrypt the archive under the new parameters — independent ABE
	// encryptions over a shared read-only snapshot, the O(archive) cost the
	// paper calls "an extra overhead". The first wrap to each re-keyed
	// parameter is a key agreement, the rest are symmetric.
	params := g.params()
	n, err := g.reencrypt(0, func(i int, _ Envelope) (Envelope, error) {
		ct, err := abe.Encrypt(g.sender, params, g.policy, g.plaintexts[i])
		if err != nil {
			return Envelope{}, fmt.Errorf("privacy: re-encrypting archive: %w", err)
		}
		return g.envelope(ct.Epoch, ct), nil
	})
	report.ReencryptedEnvelopes = n
	report.PublicKeyOps = int(g.sender.Agreements() - agreed)
	return report, err
}

// Encrypt implements Group: one ABE encryption regardless of member count
// ("a single encryption operation to construct a new group").
func (g *ABEGroup) Encrypt(plaintext []byte) (Envelope, error) {
	if len(g.members) == 0 {
		return Envelope{}, ErrNoMembers
	}
	ct, err := abe.Encrypt(g.sender, g.params(), g.policy, plaintext)
	if err != nil {
		return Envelope{}, fmt.Errorf("privacy: ABE encrypting for %q: %w", g.name, err)
	}
	env := g.envelope(ct.Epoch, ct)
	g.retain(env, plaintext)
	return env, nil
}

// Decrypt implements Group using the member's issued attribute key. The
// public-key phase (share recovery) is memoized per (member, ciphertext
// epoch, ciphertext) when a key cache is set; the membership check runs
// before any cache consult, so a revoked member is denied even with a warm
// cache.
func (g *ABEGroup) Decrypt(user *identity.User, env Envelope) ([]byte, error) {
	if err := g.check(env); err != nil {
		return nil, err
	}
	key, ok := g.keys[user.Name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotMember, user.Name)
	}
	ct, ok := env.Payload.(*abe.Ciphertext)
	if !ok {
		return nil, fmt.Errorf("privacy: malformed ABE payload")
	}
	var buf [keyBufSize]byte
	sym, _, err := g.keyCache.DoBytes(epochContentKey(buf[:0], user.Name, ct.Epoch, ct.Body), func() ([]byte, error) {
		// A ciphertext carries its policy as text; when that is the group's
		// own, recover under the group's parsed tree.
		var policy *abe.Policy
		if bytes.Equal(ct.PolicyText, g.policyText) {
			policy = g.policy
		}
		k, err := key.RecoverKey(ct, policy)
		if err != nil {
			return nil, err
		}
		return k, nil
	})
	if err != nil {
		return nil, fmt.Errorf("privacy: ABE decrypting for %q: %w", user.Name, err)
	}
	pt, err := abe.OpenBody(sym, ct)
	if err != nil {
		return nil, fmt.Errorf("privacy: ABE decrypting for %q: %w", user.Name, err)
	}
	return pt, nil
}

// MemberAttributes returns the attribute set issued to a member.
func (g *ABEGroup) MemberAttributes(member string) []string {
	return append([]string(nil), g.attrs[member]...)
}
