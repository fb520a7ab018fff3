package privacy

import (
	"crypto/subtle"
	"fmt"

	"godosn/internal/crypto/pad"
	"godosn/internal/crypto/pubkey"
	"godosn/internal/crypto/symmetric"
	"godosn/internal/parallel"
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
	// envelopeKeyCache optionally memoizes each member's unwrapped data key
	// per epoch (SetKeyCache); Remove bumps its generation on rekey.
	envelopeKeyCache

	name     string
	epoch    uint64
	registry *identity.Registry
	owner    *pubkey.SigningKeyPair
	// sender is the owner's ECIES context for the data-key wraps: one key
	// agreement per member, after which a rekey wraps the new data key to
	// each remaining member with a symmetric seal.
	sender *pubkey.Sender
	// workers bounds the archive re-encryption fan-out on Remove (0 = all
	// CPUs, 1 = serial); see SetWorkers.
	workers int

	dataKey symmetric.Key
	// sealer holds the precomputed AEAD for the current data key and adBuf
	// the current epoch's associated data; both are rebuilt on rotation so
	// the per-message seal pays neither a key schedule nor a Sprintf. The
	// sealer is safe for the concurrent re-seal fan-out in Remove.
	sealer *symmetric.Sealer
	adBuf  []byte
	// keyWraps holds the per-member wrap of the current epoch's data key.
	keyWraps map[string][]byte
	members  memberSet

	// acl is the PAD version holding current membership entries.
	acl     *pad.Dict
	aclSig  []byte
	archive []Envelope
	// plaintexts backs archive re-encryption on revocation.
	plaintexts [][]byte
}

var _ Group = (*HybridGroup)(nil)

// NewHybridGroup creates a hybrid group owned by the given signer (whose
// signature authenticates the ACL root).
func NewHybridGroup(name string, registry *identity.Registry, owner *pubkey.SigningKeyPair) (*HybridGroup, error) {
	key, err := symmetric.NewKey()
	if err != nil {
		return nil, fmt.Errorf("privacy: creating hybrid group %q: %w", name, err)
	}
	g := &HybridGroup{
		name:     name,
		epoch:    1,
		registry: registry,
		owner:    owner,
		sender:   pubkey.NewSender(),
		dataKey:  key,
		keyWraps: make(map[string][]byte),
		members:  newMemberSet(),
		acl:      pad.New(),
	}
	if err := g.rebuildSealer(); err != nil {
		return nil, err
	}
	g.signACL()
	return g, nil
}

// rebuildSealer recomputes the pooled AEAD and the epoch-bound associated
// data after the data key or epoch changed.
func (g *HybridGroup) rebuildSealer() error {
	sealer, err := symmetric.NewSealer(g.dataKey)
	if err != nil {
		return fmt.Errorf("privacy: building sealer for %q: %w", g.name, err)
	}
	g.sealer = sealer
	g.adBuf = []byte(fmt.Sprintf("hybrid/%s/%d", g.name, g.epoch))
	return nil
}

// Scheme implements Group.
func (g *HybridGroup) Scheme() Scheme { return SchemeHybrid }

// Name implements Group.
func (g *HybridGroup) Name() string { return g.name }

// Members implements Group.
func (g *HybridGroup) Members() []string { return g.members.sorted() }

// Epoch returns the current key epoch.
func (g *HybridGroup) Epoch() uint64 { return g.epoch }

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
	wrap, err := g.sender.Encrypt(id.Encryption, g.dataKey)
	if err != nil {
		return fmt.Errorf("privacy: wrapping data key for %q: %w", member, err)
	}
	g.keyWraps[member] = wrap
	return nil
}

// Add implements Group: one public-key wrap for the new member, and an ACL
// insertion (a new PAD version, signed).
func (g *HybridGroup) Add(member string) error {
	if g.members.has(member) {
		return fmt.Errorf("%w: %s", ErrAlreadyMember, member)
	}
	if err := g.wrapFor(member); err != nil {
		return err
	}
	if err := g.members.add(member); err != nil {
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
	if err := g.members.remove(member); err != nil {
		return RevocationReport{}, err
	}
	delete(g.keyWraps, member)
	g.acl = g.acl.Delete([]byte(member))
	g.signACL()

	newKey, err := symmetric.NewKey()
	if err != nil {
		return RevocationReport{}, fmt.Errorf("privacy: rotating data key: %w", err)
	}
	g.dataKey = newKey
	g.epoch++
	if err := g.rebuildSealer(); err != nil {
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
	for _, m := range g.members.sorted() {
		if err := g.wrapFor(m); err != nil {
			return report, err
		}
	}
	report.RekeyedMembers = g.members.len()
	report.PublicKeyOps = int(g.sender.Agreements() - agreed)
	// Symmetric phase: archive envelopes re-seal independently under the
	// new data key.
	envs, err := parallel.Map(g.workers, g.plaintexts, func(_ int, pt []byte) (Envelope, error) {
		return g.seal(pt)
	})
	if err != nil {
		return report, err
	}
	copy(g.archive, envs)
	report.ReencryptedEnvelopes = len(envs)
	return report, nil
}

func (g *HybridGroup) ad() []byte { return g.adBuf }

func (g *HybridGroup) seal(plaintext []byte) (Envelope, error) {
	ct, err := g.sealer.Seal(plaintext, g.ad())
	if err != nil {
		return Envelope{}, fmt.Errorf("privacy: sealing for %q: %w", g.name, err)
	}
	return Envelope{
		Scheme:   SchemeHybrid,
		Group:    g.name,
		Epoch:    g.epoch,
		Payload:  ct,
		WireSize: len(ct),
	}, nil
}

// Encrypt implements Group: a single symmetric operation per message.
func (g *HybridGroup) Encrypt(plaintext []byte) (Envelope, error) {
	if g.members.len() == 0 {
		return Envelope{}, ErrNoMembers
	}
	env, err := g.seal(plaintext)
	if err != nil {
		return Envelope{}, err
	}
	g.archive = append(g.archive, env)
	g.plaintexts = append(g.plaintexts, append([]byte(nil), plaintext...))
	return env, nil
}

// Decrypt implements Group: the member unwraps its data-key copy (public-key
// phase, memoized per epoch when a key cache is set) and opens the body
// (symmetric phase). The membership and epoch checks run before any cache
// consult, so a revoked member is denied even with a warm cache.
func (g *HybridGroup) Decrypt(user *identity.User, env Envelope) ([]byte, error) {
	if err := checkEnvelope(g, env); err != nil {
		return nil, err
	}
	wrap, ok := g.keyWraps[user.Name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotMember, user.Name)
	}
	if env.Epoch != g.epoch {
		return nil, fmt.Errorf("%w: envelope epoch %d, key epoch %d", ErrStaleEpoch, env.Epoch, g.epoch)
	}
	key, _, err := g.keyCache.Do(epochKey(user.Name, g.epoch), func() ([]byte, error) {
		k, err := user.Decrypt(wrap)
		if err != nil {
			return nil, fmt.Errorf("privacy: unwrapping data key: %w", err)
		}
		return k, nil
	})
	if err != nil {
		return nil, err
	}
	ct, ok := env.Payload.([]byte)
	if !ok {
		return nil, fmt.Errorf("privacy: malformed hybrid payload")
	}
	// The member proves possession by unwrapping its own wrap: only the
	// current data key lets the group's prepared AEAD open the body for it.
	if subtle.ConstantTimeCompare(key, g.dataKey) != 1 {
		return nil, fmt.Errorf("privacy: opening body: unwrapped key is not the data key")
	}
	pt, err := g.sealer.Open(ct, g.ad())
	if err != nil {
		return nil, fmt.Errorf("privacy: opening body: %w", err)
	}
	return pt, nil
}

// Archive implements Group.
func (g *HybridGroup) Archive() []Envelope {
	return append([]Envelope(nil), g.archive...)
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
