package privacy

import (
	"encoding/binary"
	"fmt"

	"godosn/internal/crypto/prf"
	"godosn/internal/crypto/symmetric"
	"godosn/internal/social/identity"
)

// SubstitutionGroup implements Table I's "information substitution" row
// (Section III-A): "replacing real information with fake information ...
// mostly used for hiding data from the service provider".
//
// Following NOYB, data is split into atoms; the publicly visible value is a
// plausible fake drawn from a pool, while the real atom is stored in a
// public Dictionary under "a unique index ... For swapping an atom, its
// index will be encrypted ... Dictionary is public and only authorized users
// will be able to trace swapping results." Here the envelope's visible
// payload is the fake atom; the sealed part is only the dictionary index.
// The service provider (or any non-member) sees a well-formed but fake value
// and an opaque index — it cannot tell substituted data from real data.
type SubstitutionGroup struct {
	core
	epoch   uint64
	secret  prf.Secret
	indexes symmetric.Key
	dict    *Dictionary
	fakes   [][]byte
	counter uint64
	// realAtoms tracks dictionary indices so revocation can re-place atoms.
	realAtoms []uint64
}

var _ Group = (*SubstitutionGroup)(nil)

// Dictionary is the public atom store of the NOYB design: anyone can read
// entries, but indices are meaningless without the group secret.
type Dictionary struct {
	atoms map[uint64][]byte
}

// NewDictionary creates an empty public dictionary.
func NewDictionary() *Dictionary {
	return &Dictionary{atoms: make(map[uint64][]byte)}
}

// Put stores an atom at an index.
func (d *Dictionary) Put(index uint64, atom []byte) {
	d.atoms[index] = append([]byte(nil), atom...)
}

// Get fetches the atom at an index.
func (d *Dictionary) Get(index uint64) ([]byte, bool) {
	a, ok := d.atoms[index]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), a...), true
}

// Delete removes an atom.
func (d *Dictionary) Delete(index uint64) { delete(d.atoms, index) }

// Len returns the number of stored atoms.
func (d *Dictionary) Len() int { return len(d.atoms) }

// subPayload is the envelope payload: the visible fake plus the sealed
// dictionary index.
type subPayload struct {
	fake        []byte
	sealedIndex []byte
}

// NewSubstitutionGroup creates a group writing real atoms into dict and
// exposing fakes from the given pool (e.g. plausible names, cities, dates).
func NewSubstitutionGroup(name string, dict *Dictionary, fakePool [][]byte) (*SubstitutionGroup, error) {
	if len(fakePool) == 0 {
		return nil, fmt.Errorf("privacy: substitution group %q needs a fake pool", name)
	}
	secret, err := prf.NewSecret()
	if err != nil {
		return nil, fmt.Errorf("privacy: creating substitution group %q: %w", name, err)
	}
	g := &SubstitutionGroup{
		core:   newCore(SchemeSubstitution, name),
		epoch:  1,
		secret: secret,
		dict:   dict,
	}
	for _, f := range fakePool {
		g.fakes = append(g.fakes, append([]byte(nil), f...))
	}
	if err := g.deriveIndexKey(); err != nil {
		return nil, err
	}
	return g, nil
}

func (g *SubstitutionGroup) deriveIndexKey() error {
	key, err := prf.Derive(g.secret, fmt.Sprintf("godosn/substitution/%s/%d", g.name, g.epoch), symmetric.KeySize)
	if err != nil {
		return fmt.Errorf("privacy: deriving index key: %w", err)
	}
	g.indexes = key
	return nil
}

// Add implements Group (modeling sharing the tracing secret).
func (g *SubstitutionGroup) Add(member string) error { return g.add(member) }

// Remove implements Group: rotate the secret and re-place every atom at a
// fresh index so the revoked member's retained secret no longer traces the
// dictionary.
func (g *SubstitutionGroup) Remove(member string) (RevocationReport, error) {
	if err := g.remove(member); err != nil {
		return RevocationReport{}, err
	}
	secret, err := prf.NewSecret()
	if err != nil {
		return RevocationReport{}, fmt.Errorf("privacy: rotating substitution secret: %w", err)
	}
	g.secret = secret
	g.epoch++
	if err := g.deriveIndexKey(); err != nil {
		return RevocationReport{}, err
	}
	// Serial: every re-placement moves an atom in the shared dictionary.
	n, err := g.reencrypt(1, func(i int, old Envelope) (Envelope, error) {
		oldIdx := g.realAtoms[i]
		atom, ok := g.dict.Get(oldIdx)
		if !ok {
			return Envelope{}, fmt.Errorf("privacy: dictionary lost atom %d", oldIdx)
		}
		g.dict.Delete(oldIdx)
		newIdx := g.indexFor(uint64(i))
		g.dict.Put(newIdx, atom)
		g.realAtoms[i] = newIdx
		return g.sealIndex(newIdx, old.Payload.(subPayload).fake)
	})
	return RevocationReport{RekeyedMembers: len(g.members), ReencryptedEnvelopes: n}, err
}

// indexFor derives the pseudorandom dictionary index for the i-th atom at
// the current epoch.
func (g *SubstitutionGroup) indexFor(i uint64) uint64 {
	var buf [16]byte
	binary.BigEndian.PutUint64(buf[:8], g.epoch)
	binary.BigEndian.PutUint64(buf[8:], i)
	out, err := prf.Eval(g.secret, buf[:])
	if err != nil {
		// Secret is always non-empty by construction.
		return i
	}
	return binary.BigEndian.Uint64(out[:8])
}

func (g *SubstitutionGroup) sealIndex(index uint64, fake []byte) (Envelope, error) {
	var idxBytes [8]byte
	binary.BigEndian.PutUint64(idxBytes[:], index)
	sealed, err := symmetric.Seal(g.indexes, idxBytes[:], []byte(g.name))
	if err != nil {
		return Envelope{}, fmt.Errorf("privacy: sealing index: %w", err)
	}
	return g.envelope(g.epoch, subPayload{fake: append([]byte(nil), fake...), sealedIndex: sealed}), nil
}

// Encrypt implements Group: the real atom goes to the public dictionary at a
// secret-derived index; the envelope shows a plausible fake.
func (g *SubstitutionGroup) Encrypt(plaintext []byte) (Envelope, error) {
	if len(g.members) == 0 {
		return Envelope{}, ErrNoMembers
	}
	i := g.counter
	g.counter++
	idx := g.indexFor(i)
	g.dict.Put(idx, plaintext)
	fake := g.fakes[i%uint64(len(g.fakes))]
	env, err := g.sealIndex(idx, fake)
	if err != nil {
		return Envelope{}, err
	}
	g.record(env)
	g.realAtoms = append(g.realAtoms, idx)
	return env, nil
}

// Decrypt implements Group: members unseal the index and fetch the real atom
// from the public dictionary; non-members see only the fake via FakeView.
func (g *SubstitutionGroup) Decrypt(user *identity.User, env Envelope) ([]byte, error) {
	if err := g.check(env); err != nil {
		return nil, err
	}
	if err := g.checkMember(user.Name); err != nil {
		return nil, err
	}
	p, ok := env.Payload.(subPayload)
	if !ok {
		return nil, fmt.Errorf("privacy: malformed substitution payload")
	}
	if env.Epoch != g.epoch {
		return nil, fmt.Errorf("%w: envelope epoch %d, secret epoch %d", ErrStaleEpoch, env.Epoch, g.epoch)
	}
	idxBytes, err := symmetric.Open(g.indexes, p.sealedIndex, []byte(g.name))
	if err != nil {
		return nil, fmt.Errorf("privacy: opening index: %w", err)
	}
	idx := binary.BigEndian.Uint64(idxBytes)
	atom, ok := g.dict.Get(idx)
	if !ok {
		return nil, fmt.Errorf("privacy: dictionary has no atom at traced index")
	}
	return atom, nil
}

// FakeView returns what the service provider (or any outsider) sees for an
// envelope: the substituted fake value.
func FakeView(env Envelope) ([]byte, error) {
	p, ok := env.Payload.(subPayload)
	if !ok {
		return nil, fmt.Errorf("privacy: envelope is not a substitution envelope")
	}
	return append([]byte(nil), p.fake...), nil
}
