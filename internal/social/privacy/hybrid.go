package privacy

import (
	"crypto/subtle"
	"fmt"

	"godosn/internal/crypto/pad"
	"godosn/internal/crypto/pubkey"
	"godosn/internal/social/identity"
)

// HybridGroup implements Table I's "hybrid encryption" row (Section III-F):
// "combines the convenience of a public-key encryption with the high speed
// of a symmetric-key encryption ... access control management is performed
// in two phases: symmetric encryption of data by the use of a symmetric key
// [and] applying public key encryption under the public keys of all group's
// members to encrypt that symmetric key."
//
// Unlike PublicKeyGroup, the per-member public-key work happens once per key
// epoch (at Add/Remove), not once per message: each message is a single fast
// symmetric operation. Following Frientegrity (Section III-F), the group's
// ACL is "organized in a persistent authenticated dictionary (PAD) ...
// making it possible to access in logarithmic time": membership lives in a
// pad.Dict whose signed root lets untrusted replicas prove membership.
type HybridGroup struct {
	// symmetricRow is the data phase: the epoch's data key and its AEAD.
	symmetricRow
	// envelopeKeyCache optionally memoizes each member's unwrapped data key
	// per epoch (SetKeyCache); Remove bumps its generation on rekey.
	envelopeKeyCache

	registry *identity.Registry
	owner    *pubkey.SigningKeyPair
	// sender is the owner's ECIES context for the data-key wraps: one key
	// agreement per member, after which a rekey wraps the new data key to
	// each remaining member with a symmetric seal.
	sender *pubkey.Sender
	// workers bounds the archive re-encryption fan-out on Remove (0 = all
	// CPUs, 1 = serial); see SetWorkers.
	workers int
	// keyWraps holds the per-member wrap of the current epoch's data key.
	keyWraps map[string][]byte

	// acl is the PAD version holding current membership entries.
	acl    *pad.Dict
	aclSig []byte
}

var _ Group = (*HybridGroup)(nil)

// NewHybridGroup creates a hybrid group owned by the given signer (whose
// signature authenticates the ACL root).
func NewHybridGroup(name string, registry *identity.Registry, owner *pubkey.SigningKeyPair) (*HybridGroup, error) {
	row, err := newSymmetricRow(SchemeHybrid, "hybrid", name)
	if err != nil {
		return nil, err
	}
	g := &HybridGroup{
		symmetricRow: row,
		registry:     registry,
		owner:        owner,
		sender:       pubkey.NewSender(),
		keyWraps:     make(map[string][]byte),
		acl:          pad.New(),
	}
	g.signACL()
	return g, nil
}

// SetWorkers bounds the worker pool used for the archive re-encryption on
// Remove: 0 (the default) uses all CPUs, 1 forces the serial path. Outputs
// are identical at any setting (parallel.Map collects index-ordered).
func (g *HybridGroup) SetWorkers(n int) { g.workers = n }

func (g *HybridGroup) signACL() {
	root := g.acl.Root()
	g.aclSig = g.owner.Sign(root[:])
}

// wrapFor wraps the current data key to one member through the sender
// context: a key agreement on first contact, a symmetric seal afterwards.
func (g *HybridGroup) wrapFor(member string) error {
	id, err := g.registry.Lookup(member)
	if err != nil {
		return err
	}
	wrap, err := g.sender.Encrypt(id.Encryption, g.key)
	if err != nil {
		return fmt.Errorf("privacy: wrapping data key for %q: %w", member, err)
	}
	g.keyWraps[member] = wrap
	return nil
}

// Add implements Group: one public-key wrap for the new member, and an ACL
// insertion (a new PAD version, signed).
func (g *HybridGroup) Add(member string) error {
	if g.has(member) {
		return fmt.Errorf("%w: %s", ErrAlreadyMember, member)
	}
	if err := g.wrapFor(member); err != nil {
		return err
	}
	if err := g.add(member); err != nil {
		return err
	}
	g.acl = g.acl.Insert([]byte(member), []byte("member"))
	g.signACL()
	return nil
}

// Remove implements Group: rotate the data key, re-wrap it for the remaining
// members (the public-key phase), re-encrypt the archive (the symmetric
// phase), and update the signed ACL.
func (g *HybridGroup) Remove(member string) (RevocationReport, error) {
	if err := g.remove(member); err != nil {
		return RevocationReport{}, err
	}
	delete(g.keyWraps, member)
	g.acl = g.acl.Delete([]byte(member))
	g.signACL()

	if err := g.rotate(); err != nil {
		return RevocationReport{}, err
	}
	// Every cached data key predates the rotation; the revoked member's copy
	// in particular must not survive.
	g.keyCache.BumpGeneration()
	report := RevocationReport{}
	// Public-key phase: wrap the new data key to every remaining member
	// under the pairwise key the sender context already shares with it — no
	// agreement unless the table lost one. The revoked member holds none of
	// those keys.
	agreed := g.sender.Agreements()
	for _, m := range g.list() {
		if err := g.wrapFor(m); err != nil {
			return report, err
		}
	}
	report.RekeyedMembers = len(g.members)
	report.PublicKeyOps = int(g.sender.Agreements() - agreed)
	// Symmetric phase: archive envelopes re-seal independently under the
	// new data key.
	n, err := g.reencrypt(g.workers, g.reseal)
	report.ReencryptedEnvelopes = n
	return report, err
}

// Decrypt implements Group: the member unwraps its data-key copy (public-key
// phase, memoized per epoch when a key cache is set) and opens the body
// (symmetric phase). The membership and epoch checks run before any cache
// consult, so a revoked member is denied even with a warm cache.
func (g *HybridGroup) Decrypt(user *identity.User, env Envelope) ([]byte, error) {
	if err := g.check(env); err != nil {
		return nil, err
	}
	wrap, ok := g.keyWraps[user.Name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotMember, user.Name)
	}
	ct, err := g.ciphertext(env)
	if err != nil {
		return nil, err
	}
	var buf [keyBufSize]byte
	key, _, err := g.keyCache.DoBytes(epochKey(buf[:0], user.Name, g.epoch), func() ([]byte, error) {
		k, err := user.Decrypt(wrap)
		if err != nil {
			return nil, fmt.Errorf("privacy: unwrapping data key: %w", err)
		}
		return k, nil
	})
	if err != nil {
		return nil, err
	}
	// The member proves possession by unwrapping its own wrap: only the
	// current data key lets the group's prepared AEAD open the body for it.
	if subtle.ConstantTimeCompare(key, g.key) != 1 {
		return nil, fmt.Errorf("privacy: opening body: unwrapped key is not the data key")
	}
	return g.open(ct)
}

// ACLRoot returns the signed PAD root replicas use to authenticate
// membership answers.
func (g *HybridGroup) ACLRoot() ([32]byte, []byte) {
	return g.acl.Root(), append([]byte(nil), g.aclSig...)
}

// ProveMembership produces a PAD proof that member is (or is not) in the
// ACL, verifiable against the signed root — Frientegrity's logarithmic ACL
// access served by an untrusted replica.
func (g *HybridGroup) ProveMembership(member string) *pad.Proof {
	return g.acl.Prove([]byte(member))
}

// VerifyMembership checks a PAD membership proof against a signed root.
func VerifyMembership(root [32]byte, rootSig []byte, ownerVK pubkey.VerificationKey, member string, proof *pad.Proof) error {
	if err := pubkey.Verify(ownerVK, root[:], rootSig); err != nil {
		return fmt.Errorf("privacy: ACL root signature: %w", err)
	}
	if err := pad.VerifyProof(root, []byte(member), proof); err != nil {
		return fmt.Errorf("privacy: ACL proof: %w", err)
	}
	return nil
}
