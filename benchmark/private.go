package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"godosn/internal/cache"
	"godosn/internal/crypto/abe"
	"godosn/internal/crypto/ibe"
	"godosn/internal/crypto/pubkey"
	"godosn/internal/resilience/scrub"
	"godosn/internal/social/identity"
	"godosn/internal/social/privacy"
)

const (
	privGroups   = 48
	groupMembers = 8
	keyCacheSize = 4096
	// Readers are drawn from slots 0..rotatingSlot-1, which never change;
	// each revocation removes the occupant of rotatingSlot and admits a
	// fresh member there. IBBE does not re-encrypt its archive, so only
	// members present when an envelope was sealed can open it.
	rotatingSlot   = groupMembers - 1
	republishBatch = 256
)

var privSchemes = [...]privacy.Scheme{privacy.SchemeHybrid, privacy.SchemeABE, privacy.SchemeIBBE}

// keyCached is the envelope-key cache the two-phase schemes embed.
type keyCached interface {
	SetKeyCache(cfg cache.Config)
	KeyCacheStats() cache.Stats
}

type privGroup struct {
	g       privacy.Group
	kc      keyCached
	members [groupMembers]*identity.User
	keys    []string // archive index -> overlay key of that envelope
	notices int
}

// privState is the paper's own layer on feed-private: 48 author groups over
// three Table-I schemes, users mapped onto them by index.
type privState struct {
	rng    *rand.Rand
	groups []*privGroup
	spares []*identity.User // pre-registered members admitted after revocations
	next   int              // next group to revoke from (round-robin)

	revokeNs     []int64
	reencrypted  int64
	pubkeyOps    int64
	denied       int64 // revoked-reader opens refused (must equal probes)
	probes       int64
	revokedOpens int64 // revoked-reader opens that succeeded: makes the run incorrect
}

func newPrivState(seed int64, revocations int) (*privState, error) {
	p := &privState{rng: rand.New(rand.NewSource(seed ^ 0x9e3779b9))}
	registry := identity.NewRegistry()
	newUser := func(name string) (*identity.User, error) {
		u, err := identity.NewUser(name)
		if err != nil {
			return nil, err
		}
		return u, registry.Register(u)
	}
	for gi := 0; gi < privGroups; gi++ {
		name := fmt.Sprintf("g%02d", gi)
		pg := &privGroup{}
		switch privSchemes[gi%len(privSchemes)] {
		case privacy.SchemeHybrid:
			owner, err := pubkey.NewSigningKeyPair()
			if err != nil {
				return nil, err
			}
			g, err := privacy.NewHybridGroup(name, registry, owner)
			if err != nil {
				return nil, err
			}
			pg.g, pg.kc = g, g
		case privacy.SchemeABE:
			authority, err := abe.NewAuthority()
			if err != nil {
				return nil, err
			}
			g, err := privacy.NewABEGroup(name, authority, "(member)")
			if err != nil {
				return nil, err
			}
			pg.g, pg.kc = g, g
		case privacy.SchemeIBBE:
			pkg, err := ibe.NewPKG()
			if err != nil {
				return nil, err
			}
			g := privacy.NewIBBEGroup(name, pkg)
			pg.g, pg.kc = g, g
		}
		pg.kc.SetKeyCache(cache.Config{Capacity: keyCacheSize, Seed: seed})
		for slot := range pg.members {
			u, err := newUser(fmt.Sprintf("%s-m%d", name, slot))
			if err != nil {
				return nil, err
			}
			if err := pg.g.Add(u.Name); err != nil {
				return nil, err
			}
			pg.members[slot] = u
		}
		p.groups = append(p.groups, pg)
	}
	for i := 0; i < revocations; i++ {
		u, err := newUser(fmt.Sprintf("fresh-%d", i))
		if err != nil {
			return nil, err
		}
		p.spares = append(p.spares, u)
	}
	return p, nil
}

func (p *privState) groupOf(actor int) *privGroup { return p.groups[actor%len(p.groups)] }

// encrypt is the private write's privacy layer: Group.Encrypt, then the
// wire codec.
func (p *privState) encrypt(actor int, key string, value []byte) ([]byte, error) {
	pg := p.groupOf(actor)
	env, err := pg.g.Encrypt(value)
	if err != nil {
		return nil, err
	}
	pg.keys = append(pg.keys, key)
	return privacy.Marshal(env)
}

// decrypt is the private read's privacy layer, as a seeded member.
func (p *privState) decrypt(actor int, ct []byte) ([]byte, error) {
	pg := p.groupOf(actor)
	env, err := privacy.Unmarshal(ct)
	if err != nil {
		return nil, err
	}
	return pg.g.Decrypt(pg.members[p.rng.Intn(rotatingSlot)], env)
}

func (p *privState) keyCacheStats() cache.Stats {
	var s cache.Stats
	for _, pg := range p.groups {
		st := pg.kc.KeyCacheStats()
		s.Hits += st.Hits
		s.Misses += st.Misses
	}
	return s
}

// revoke is one membership change end to end: remove a member, admit a
// fresh one, publish a post-revocation notice the revoked reader must not
// open, and republish whatever the scheme re-encrypted.
func (r *runner) revoke(c *client) {
	p := r.priv
	pg := p.groups[p.next%len(p.groups)]
	p.next++
	fresh := p.spares[len(p.spares)-1]
	p.spares = p.spares[:len(p.spares)-1]

	c.rec.nextOp()
	c.rec.begin(spRevoke)
	defer c.rec.end()
	t0 := time.Now()

	c.rec.begin(spPrivacyRevoke)
	revoked := pg.members[rotatingSlot]
	report, err := pg.g.Remove(revoked.Name)
	if err == nil {
		err = pg.g.Add(fresh.Name)
	}
	if err != nil {
		c.rec.end()
		r.fail(fmt.Errorf("revoking in %s: %w", pg.g.Name(), err))
		return
	}
	pg.members[rotatingSlot] = fresh
	p.reencrypted += int64(report.ReencryptedEnvelopes)
	p.pubkeyOps += int64(report.PublicKeyOps)

	noticeKey := fmt.Sprintf("notice/%s/%d", pg.g.Name(), pg.notices)
	pg.notices++
	notice := bytes.Repeat([]byte(noticeKey+"|"), 200/(len(noticeKey)+1)+1)[:200]
	env, err := pg.g.Encrypt(notice)
	if err != nil {
		c.rec.end()
		r.fail(fmt.Errorf("sealing %q: %w", noticeKey, err))
		return
	}
	pg.keys = append(pg.keys, noticeKey)
	p.probes++
	if _, derr := pg.g.Decrypt(revoked, env); derr == nil {
		p.revokedOpens++
		r.fail(fmt.Errorf("revoked reader %s opened %q", revoked.Name, noticeKey))
	} else {
		p.denied++
	}
	if pt, derr := pg.g.Decrypt(fresh, env); derr != nil || !bytes.Equal(pt, notice) {
		r.fail(fmt.Errorf("member %s could not open %q: %v", fresh.Name, noticeKey, derr))
	}

	// The notice is always published; the archive only when the scheme
	// re-encrypted it (IBBE revocation is free and republishes nothing).
	archive := pg.g.Archive()
	if len(archive) != len(pg.keys) {
		c.rec.end()
		r.fail(fmt.Errorf("%s: archive holds %d envelopes, harness tracked %d keys", pg.g.Name(), len(archive), len(pg.keys)))
		return
	}
	from := len(archive) - 1
	if report.ReencryptedEnvelopes > 0 {
		from = 0
	}
	wire := make([][]byte, 0, len(archive)-from)
	for _, e := range archive[from:] {
		b, err := privacy.Marshal(e)
		if err != nil {
			c.rec.end()
			r.fail(err)
			return
		}
		wire = append(wire, b)
	}
	c.rec.end()

	keys := pg.keys[from:]
	for len(keys) > 0 {
		n := min(len(keys), republishBatch)
		recs := make([][]byte, n)
		for i := range recs {
			c.rec.begin(spRecordSeal)
			recs[i] = scrub.Seal(keys[i], wire[i])
			c.rec.end()
		}
		c.rec.begin(spResilienceCall)
		errs, st, err := r.st.kv.PutBatch(c.origin, keys[:n], recs)
		c.rec.end()
		c.msgs += int64(st.Messages)
		c.bytes += int64(st.Bytes)
		if err != nil {
			r.fail(fmt.Errorf("republish: %w", err))
			return
		}
		for _, e := range errs {
			if e != nil {
				c.out.FailedWrites++
			}
		}
		keys, wire = keys[n:], wire[n:]
	}
	c.model[noticeKey] = fnv64(fnvOffset, notice)
	p.revokeNs = append(p.revokeNs, int64(time.Since(t0)))
}
