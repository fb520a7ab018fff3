package privacy

import (
	"fmt"

	"godosn/internal/crypto/abe"
	"godosn/internal/social/identity"
)

// KPABEGroup implements the key-policy ABE variant of Table I's ABE row
// (Section III-D: "There exist two kinds of ABE based on the association of
// access structure with the users' secret keys or with the encrypted
// messages ... the condition in the key policy ABE is reverse").
//
// Here the *content* carries attribute labels (e.g. topic tags like
// "family", "work", "photos") and each *member* holds an authority-issued
// key policy (e.g. "(family OR (work AND urgent))"): a member reads exactly
// the posts whose labels satisfy their policy. This is per-member access
// control over a content taxonomy, which the plain Group interface (one
// audience per envelope) cannot express — hence the dedicated type.
type KPABEGroup struct {
	core
	abeEncryptor
	policies map[string]string
	keys     map[string]*abe.KPKey
	// labels retains each archive entry's labels beside its plaintext, so
	// revocation can re-encrypt.
	labels [][]string
}

// NewKPABEGroup creates a KP-ABE group using the given authority.
func NewKPABEGroup(name string, authority *abe.Authority) *KPABEGroup {
	return &KPABEGroup{
		core:         newCore(SchemeABE, name),
		abeEncryptor: newABEEncryptor(authority),
		policies:     make(map[string]string),
		keys:         make(map[string]*abe.KPKey),
	}
}

// Grant admits a member with a key policy over content labels.
func (g *KPABEGroup) Grant(member, policyExpr string) error {
	if g.has(member) {
		return fmt.Errorf("%w: %s", ErrAlreadyMember, member)
	}
	policy, err := abe.ParsePolicy(policyExpr)
	if err != nil {
		return fmt.Errorf("privacy: key policy for %q: %w", member, err)
	}
	for _, attr := range policy.Attributes() {
		if err := g.authority.AddAttribute(attr); err != nil {
			return err
		}
	}
	key, err := g.authority.IssueKPKey(policy)
	if err != nil {
		return fmt.Errorf("privacy: issuing KP key for %q: %w", member, err)
	}
	if err := g.add(member); err != nil {
		return err
	}
	g.policies[member] = policyExpr
	g.keys[member] = key
	return nil
}

// PolicyOf returns the key policy granted to a member.
func (g *KPABEGroup) PolicyOf(member string) string { return g.policies[member] }

// Revoke removes a member. As with CP-ABE, the member's key material is
// invalidated by authority re-keying of the attributes in their policy, and
// the archive is re-encrypted.
func (g *KPABEGroup) Revoke(member string) (RevocationReport, error) {
	if err := g.remove(member); err != nil {
		return RevocationReport{}, err
	}
	policy, err := abe.ParsePolicy(g.policies[member])
	if err != nil {
		return RevocationReport{}, err
	}
	delete(g.policies, member)
	delete(g.keys, member)
	if err := g.authority.Revoke(policy.Attributes()); err != nil {
		return RevocationReport{}, err
	}
	report := RevocationReport{}
	agreed := g.sender.Agreements()
	// Re-issue keys to all remaining members (their policies may share the
	// re-keyed attributes).
	for _, m := range g.list() {
		p, err := abe.ParsePolicy(g.policies[m])
		if err != nil {
			return report, err
		}
		key, err := g.authority.IssueKPKey(p)
		if err != nil {
			return report, fmt.Errorf("privacy: re-issuing KP key for %q: %w", m, err)
		}
		g.keys[m] = key
		report.RekeyedMembers++
	}
	params := g.params()
	n, err := g.reencrypt(1, func(i int, _ Envelope) (Envelope, error) {
		ct, err := abe.EncryptKP(g.sender, params, g.labels[i], g.plaintexts[i])
		if err != nil {
			return Envelope{}, fmt.Errorf("privacy: re-encrypting archive: %w", err)
		}
		return g.envelope(ct.Epoch, ct), nil
	})
	report.ReencryptedEnvelopes = n
	report.PublicKeyOps = int(g.sender.Agreements() - agreed)
	return report, err
}

// EncryptLabeled publishes content tagged with attribute labels.
func (g *KPABEGroup) EncryptLabeled(labels []string, plaintext []byte) (Envelope, error) {
	if len(g.members) == 0 {
		return Envelope{}, ErrNoMembers
	}
	for _, l := range labels {
		if err := g.authority.AddAttribute(l); err != nil {
			return Envelope{}, err
		}
	}
	ct, err := abe.EncryptKP(g.sender, g.params(), labels, plaintext)
	if err != nil {
		return Envelope{}, fmt.Errorf("privacy: KP encrypting: %w", err)
	}
	env := g.envelope(ct.Epoch, ct)
	g.retain(env, plaintext)
	g.labels = append(g.labels, append([]string(nil), labels...))
	return env, nil
}

// Decrypt opens an envelope as the given user: succeeds iff the content
// labels satisfy the member's key policy.
func (g *KPABEGroup) Decrypt(user *identity.User, env Envelope) ([]byte, error) {
	if err := g.check(env); err != nil {
		return nil, err
	}
	key, ok := g.keys[user.Name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotMember, user.Name)
	}
	ct, ok := env.Payload.(*abe.KPCiphertext)
	if !ok {
		return nil, fmt.Errorf("privacy: malformed KP-ABE payload")
	}
	pt, err := key.Decrypt(g.authority.PublicParams(), ct)
	if err != nil {
		return nil, fmt.Errorf("privacy: KP decrypting for %q: %w", user.Name, err)
	}
	return pt, nil
}
