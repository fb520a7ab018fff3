package bench

import (
	"fmt"
	"time"

	"godosn/internal/social/identity"
	"godosn/internal/social/privacy"
)

// privacyFixture builds a registry with n users and one group per scheme
// with k members.
type privacyFixture struct {
	registry *identity.Registry
	users    []*identity.User
}

func newPrivacyFixture(n int) (*privacyFixture, error) {
	f := &privacyFixture{registry: identity.NewRegistry()}
	for i := 0; i < n; i++ {
		u, err := identity.NewUser(fmt.Sprintf("user-%04d", i))
		if err != nil {
			return nil, err
		}
		if err := f.registry.Register(u); err != nil {
			return nil, err
		}
		f.users = append(f.users, u)
	}
	return f, nil
}

// group builds a scheme's group through privacy.NewGroup, owned by the
// first user, with the first k users as members.
func (f *privacyFixture) group(scheme privacy.Scheme, name string, k int) (privacy.Group, error) {
	g, err := privacy.NewGroup(scheme, name, f.registry, f.users[0])
	if err != nil {
		return nil, err
	}
	for i := 0; i < k && i < len(f.users); i++ {
		if err := g.Add(f.users[i].Name); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// E1PrivacyCost measures per-message encrypt and decrypt wall time for every
// Table-I privacy scheme across message and group sizes.
func E1PrivacyCost(quick bool) (*Table, error) {
	msgSizes := []int{256, 4096, 65536}
	groupSizes := []int{8, 64}
	iters := 30
	if quick {
		msgSizes = []int{256, 4096}
		groupSizes = []int{8}
		iters = 5
	}
	maxGroup := groupSizes[len(groupSizes)-1]
	f, err := newPrivacyFixture(maxGroup)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "E1",
		Title:  "data privacy (Table I): per-message cost by scheme",
		Header: []string{"scheme", "group", "msg bytes", "encrypt/op", "decrypt/op"},
	}
	for _, scheme := range privacy.Schemes() {
		for _, k := range groupSizes {
			for _, sz := range msgSizes {
				g, err := f.group(scheme, fmt.Sprintf("e1-%s-%d-%d", scheme, k, sz), k)
				if err != nil {
					return nil, err
				}
				msg := make([]byte, sz)
				// Warm (and capture an envelope for decrypt timing).
				env, err := g.Encrypt(msg)
				if err != nil {
					return nil, err
				}
				start := time.Now()
				for i := 0; i < iters; i++ {
					if env, err = g.Encrypt(msg); err != nil {
						return nil, err
					}
				}
				encPer := time.Since(start) / time.Duration(iters)
				member := f.users[0]
				start = time.Now()
				for i := 0; i < iters; i++ {
					if _, err := g.Decrypt(member, env); err != nil {
						return nil, err
					}
				}
				decPer := time.Since(start) / time.Duration(iters)
				t.AddRow(string(scheme), fmt.Sprint(k), fmt.Sprint(sz),
					encPer.String(), decPer.String())
			}
		}
	}
	t.AddNote("paper claim: symmetric runs fastest; public-key cost grows with group; ABE costs most per message")
	return t, nil
}

// E2MembershipCost measures join and revocation cost per scheme, with a
// populated archive so re-encryption overhead is visible.
func E2MembershipCost(quick bool) (*Table, error) {
	groupSize := 32
	priorPosts := 50
	if quick {
		groupSize = 8
		priorPosts = 10
	}
	f, err := newPrivacyFixture(groupSize + 1)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "E2",
		Title:  "membership changes: join and revocation cost by scheme",
		Header: []string{"scheme", "join", "revoke", "reencrypted", "rekeyed", "free?"},
	}
	for _, scheme := range privacy.Schemes() {
		g, err := f.group(scheme, "e2-"+string(scheme), groupSize)
		if err != nil {
			return nil, err
		}
		for i := 0; i < priorPosts; i++ {
			if _, err := g.Encrypt([]byte(fmt.Sprintf("post %d", i))); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		if err := g.Add(f.users[groupSize].Name); err != nil {
			return nil, err
		}
		joinCost := time.Since(start)

		start = time.Now()
		report, err := g.Remove(f.users[0].Name)
		if err != nil {
			return nil, err
		}
		revokeCost := time.Since(start)
		t.AddRow(string(scheme), joinCost.String(), revokeCost.String(),
			fmt.Sprint(report.ReencryptedEnvelopes), fmt.Sprint(report.RekeyedMembers),
			fmt.Sprint(report.Free))
	}
	t.AddNote("paper claims: symmetric/ABE revocation re-encrypts the whole archive; IBBE and public-key removal are free")
	return t, nil
}

// E3CiphertextSize measures envelope size growth with group size: the
// marshalled envelope, the bytes a replica stores.
func E3CiphertextSize(quick bool) (*Table, error) {
	groupSizes := []int{8, 64, 256}
	if quick {
		groupSizes = []int{8, 64}
	}
	maxGroup := groupSizes[len(groupSizes)-1]
	f, err := newPrivacyFixture(maxGroup)
	if err != nil {
		return nil, err
	}
	const msgSize = 1024
	t := &Table{
		ID:     "E3",
		Title:  "ciphertext size (bytes) for a 1 KiB message vs group size",
		Header: append([]string{"scheme"}, sizesHeader(groupSizes)...),
	}
	for _, scheme := range privacy.Schemes() {
		row := []string{string(scheme)}
		for _, k := range groupSizes {
			// A fixed-width name keeps the envelope's framing the same at
			// every group size, so a flat scheme measures flat.
			g, err := f.group(scheme, fmt.Sprintf("e3-%s-%04d", scheme, k), k)
			if err != nil {
				return nil, err
			}
			env, err := g.Encrypt(make([]byte, msgSize))
			if err != nil {
				return nil, err
			}
			wire, err := privacy.Marshal(env)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprint(len(wire)))
		}
		t.AddRow(row...)
	}
	t.AddNote("paper shapes: public-key and IBBE grow linearly with members; symmetric/hybrid/substitution stay flat; ABE grows with policy, not membership")
	t.AddNote("IBBE ciphertext growth is a documented deviation from Delerablée's O(1) (DESIGN.md §2)")
	return t, nil
}

func sizesHeader(groupSizes []int) []string {
	out := make([]string, len(groupSizes))
	for i, k := range groupSizes {
		out[i] = fmt.Sprintf("group=%d", k)
	}
	return out
}
