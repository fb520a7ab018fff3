package abe

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"maps"
	"math/big"
	"strings"
	"testing"
	"unsafe"

	"godosn/internal/crypto/prf"
	"godosn/internal/crypto/pubkey"
	"godosn/internal/crypto/shamir"
	"godosn/internal/crypto/symmetric"
)

func newTestAuthority(t *testing.T) *Authority {
	t.Helper()
	a, err := NewAuthority("relative", "doctor", "painter", "friend", "colleague")
	if err != nil {
		t.Fatalf("NewAuthority: %v", err)
	}
	return a
}

func TestCPABERoundTrip(t *testing.T) {
	auth := newTestAuthority(t)
	params := auth.PublicParams()
	tests := []struct {
		name   string
		policy string
		attrs  []string
	}{
		{"single attr", "relative", []string{"relative"}},
		{"and", "(relative AND doctor)", []string{"relative", "doctor"}},
		{"or left", "(relative OR painter)", []string{"relative"}},
		{"or right", "(relative OR painter)", []string{"painter"}},
		{"threshold", "2-of(relative, doctor, painter)", []string{"doctor", "painter"}},
		{"nested", "(friend AND (relative OR doctor))", []string{"friend", "doctor"}},
		{"extra attrs", "relative", []string{"relative", "colleague", "painter"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			pol, err := ParsePolicy(tt.policy)
			if err != nil {
				t.Fatalf("ParsePolicy: %v", err)
			}
			ct, err := Encrypt(pubkey.NewSender(), params, pol, []byte("come to my party"))
			if err != nil {
				t.Fatalf("Encrypt: %v", err)
			}
			key, err := auth.IssueKey(tt.attrs)
			if err != nil {
				t.Fatalf("IssueKey: %v", err)
			}
			got, err := key.Decrypt(ct)
			if err != nil {
				t.Fatalf("Decrypt: %v", err)
			}
			if string(got) != "come to my party" {
				t.Fatalf("got %q", got)
			}
		})
	}
}

func TestCPABEUnsatisfiedFails(t *testing.T) {
	auth := newTestAuthority(t)
	params := auth.PublicParams()
	tests := []struct {
		policy string
		attrs  []string
	}{
		{"(relative AND doctor)", []string{"relative"}},
		{"(relative AND doctor)", []string{"doctor", "painter"}},
		{"relative", []string{"doctor"}},
		{"2-of(relative, doctor, painter)", []string{"relative"}},
		{"relative", nil},
	}
	for _, tt := range tests {
		pol, _ := ParsePolicy(tt.policy)
		ct, err := Encrypt(pubkey.NewSender(), params, pol, []byte("secret"))
		if err != nil {
			t.Fatalf("Encrypt: %v", err)
		}
		key, err := auth.IssueKey(tt.attrs)
		if err != nil {
			t.Fatalf("IssueKey: %v", err)
		}
		if _, err := key.Decrypt(ct); err == nil {
			t.Errorf("policy %q decrypted with attrs %v", tt.policy, tt.attrs)
		}
	}
}

func TestCPABEUnknownAttributeRejected(t *testing.T) {
	auth := newTestAuthority(t)
	params := auth.PublicParams()
	for _, text := range []string{"martian", "(relative OR (doctor AND martian))"} {
		pol, _ := ParsePolicy(text)
		_, err := Encrypt(pubkey.NewSender(), params, pol, []byte("x"))
		if !errors.Is(err, ErrUnknownAttr) || !strings.Contains(err.Error(), `"martian"`) {
			t.Fatalf("%s: Encrypt = %v, want the unknown attribute named", text, err)
		}
	}
	if _, err := auth.IssueKey([]string{"martian"}); err == nil {
		t.Fatal("issued key for unknown attribute")
	}
}

func TestRevocationBlocksNewCiphertexts(t *testing.T) {
	auth := newTestAuthority(t)
	oldParams := auth.PublicParams()
	oldKey, err := auth.IssueKey([]string{"relative"})
	if err != nil {
		t.Fatalf("IssueKey: %v", err)
	}
	pol, _ := ParsePolicy("relative")
	// One sender context across the re-key, as a group owner has: the old
	// parameter's pairwise key is warm when the new one is first wrapped to.
	sender := pubkey.NewSender()

	oldCt, err := Encrypt(sender, oldParams, pol, []byte("before revocation"))
	if err != nil {
		t.Fatalf("Encrypt: %v", err)
	}
	if _, err := oldKey.Decrypt(oldCt); err != nil {
		t.Fatalf("pre-revocation decrypt: %v", err)
	}

	if err := auth.Revoke([]string{"relative"}); err != nil {
		t.Fatalf("Revoke: %v", err)
	}
	if auth.Epoch() != oldParams.Epoch+1 {
		t.Fatalf("epoch did not advance")
	}
	newParams := auth.PublicParams()
	newCt, err := Encrypt(sender, newParams, pol, []byte("after revocation"))
	if err != nil {
		t.Fatalf("Encrypt: %v", err)
	}
	if got := sender.Agreements(); got != 2 {
		t.Fatalf("sender made %d agreements, want one per attribute parameter", got)
	}
	// The revoked key must not open post-revocation ciphertexts...
	if _, err := oldKey.Decrypt(newCt); err == nil {
		t.Fatal("revoked key decrypted new ciphertext")
	}
	// ...but prior ciphertexts remain readable until re-encrypted, which is
	// exactly the re-encryption overhead the paper attributes to ABE.
	if _, err := oldKey.Decrypt(oldCt); err != nil {
		t.Fatalf("old ciphertext became unreadable: %v", err)
	}
	// A freshly issued key works with new parameters.
	freshKey, err := auth.IssueKey([]string{"relative"})
	if err != nil {
		t.Fatalf("IssueKey: %v", err)
	}
	got, err := freshKey.Decrypt(newCt)
	if err != nil || string(got) != "after revocation" {
		t.Fatalf("fresh key decrypt: %v", err)
	}
}

func TestRevokedAttributeORBranchStillWorks(t *testing.T) {
	auth := newTestAuthority(t)
	key, err := auth.IssueKey([]string{"relative", "doctor"})
	if err != nil {
		t.Fatalf("IssueKey: %v", err)
	}
	if err := auth.Revoke([]string{"relative"}); err != nil {
		t.Fatalf("Revoke: %v", err)
	}
	// Key's doctor attribute is still valid; (relative OR doctor) under the
	// new params must decrypt via the doctor branch.
	pol, _ := ParsePolicy("(relative OR doctor)")
	ct, err := Encrypt(pubkey.NewSender(), auth.PublicParams(), pol, []byte("still visible"))
	if err != nil {
		t.Fatalf("Encrypt: %v", err)
	}
	got, err := key.Decrypt(ct)
	if err != nil || string(got) != "still visible" {
		t.Fatalf("OR branch decrypt after partial revocation: %v", err)
	}
}

func TestTamperedCiphertextFails(t *testing.T) {
	auth := newTestAuthority(t)
	pol, _ := ParsePolicy("relative")
	ct, err := Encrypt(pubkey.NewSender(), auth.PublicParams(), pol, []byte("payload"))
	if err != nil {
		t.Fatalf("Encrypt: %v", err)
	}
	key, _ := auth.IssueKey([]string{"relative"})
	ct.Body[len(ct.Body)-1] ^= 1
	if _, err := key.Decrypt(ct); err == nil {
		t.Fatal("tampered body decrypted")
	}
}

func TestAddAttributeIdempotent(t *testing.T) {
	auth := newTestAuthority(t)
	before := auth.PublicParams().Attrs["relative"]
	if err := auth.AddAttribute("relative"); err != nil {
		t.Fatalf("AddAttribute: %v", err)
	}
	after := auth.PublicParams().Attrs["relative"]
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Fatal("re-adding attribute rotated its parameter")
	}
}

// TestShortShareWrapsFullWidth: a share with leading zero bytes is wrapped as
// a 32-byte field element and still recovers the secret it encodes.
func TestShortShareWrapsFullWidth(t *testing.T) {
	auth := newTestAuthority(t)
	pol, err := ParsePolicy("relative")
	if err != nil {
		t.Fatalf("ParsePolicy: %v", err)
	}
	secret := new(big.Int).Lsh(big.NewInt(1), 247) // below 2^248: one leading zero byte
	m, err := pubkey.NewSender().NewMulti(1)
	if err != nil {
		t.Fatalf("NewMulti: %v", err)
	}
	ct := NewCiphertext(1)
	ct.Epoch, ct.PolicyText, ct.Ephemeral = auth.PublicParams().Epoch, []byte(pol.String()), m.Ephemeral()
	if err := shareTree(&m, auth.PublicParams(), pol, secret, ct, make([]byte, wrapSize())); err != nil {
		t.Fatalf("shareTree: %v", err)
	}
	key, err := auth.IssueKey([]string{"relative"})
	if err != nil {
		t.Fatalf("IssueKey: %v", err)
	}
	raw, err := key.secrets["relative"].Open(ct.Ephemeral, ct.Shares[0].Wrap)
	if err != nil {
		t.Fatalf("unwrapping the share: %v", err)
	}
	if len(raw) != fieldBytes {
		t.Fatalf("share wrapped as %d bytes, want %d", len(raw), fieldBytes)
	}
	var nextIdx uint32 = 1
	got, err := recoverTree(key, pol, ct, &nextIdx)
	if err != nil || got.Cmp(secret) != 0 {
		t.Fatalf("recovered %v, %v; want %v", got, err, secret)
	}
}

// TestCiphertextSizeIsFixed: one policy and plaintext give one ciphertext
// size, whatever the sampled seed and shares: every share wrap has the same
// length each time. Shares are uniform in
// the field, so about 1 in 256 has a leading zero byte; 200 encryptions of
// four shares each would meet one almost surely.
func TestCiphertextSizeIsFixed(t *testing.T) {
	auth := newTestAuthority(t)
	params := auth.PublicParams()
	pol, err := ParsePolicy("(relative AND doctor AND painter AND friend)")
	if err != nil {
		t.Fatalf("ParsePolicy: %v", err)
	}
	sender := pubkey.NewSender()
	pt := []byte("same payload")
	var lens map[uint32]int
	for i := 0; i < 200; i++ {
		ct, err := Encrypt(sender, params, pol, pt)
		if err != nil {
			t.Fatalf("Encrypt: %v", err)
		}
		if i == 0 {
			lens = wrapLens(ct.Shares)
		}
		if !maps.Equal(wrapLens(ct.Shares), lens) {
			t.Fatalf("encryption %d: wrap lengths %v, want %v", i, wrapLens(ct.Shares), lens)
		}
	}
}

func wrapLens(shares []WrappedShare) map[uint32]int {
	out := make(map[uint32]int, len(shares))
	for _, s := range shares {
		out[s.Index] = len(s.Wrap)
	}
	return out
}

// TestCiphertextIsOneBuffer: Encrypt writes the policy text, the share wraps
// in index order and the body into one buffer that the body ends, and a key
// holding every attribute, which opens every share, the ones sealed in place
// included, decrypts.
func TestCiphertextIsOneBuffer(t *testing.T) {
	auth := newTestAuthority(t)
	for _, text := range []string{"relative", "(relative AND doctor)", "2-of(relative, doctor, painter)", "(relative OR (friend AND doctor))"} {
		pol, err := ParsePolicy(text)
		if err != nil {
			t.Fatalf("ParsePolicy(%s): %v", text, err)
		}
		ct, err := Encrypt(pubkey.NewSender(), auth.PublicParams(), pol, []byte("one buffer"))
		if err != nil {
			t.Fatalf("%s: Encrypt: %v", text, err)
		}
		fields := [][]byte{ct.PolicyText}
		for _, s := range ct.Shares {
			fields = append(fields, s.Wrap)
		}
		fields = append(fields, ct.Body)
		for i := 1; i < len(fields); i++ {
			if got, prev := unsafe.SliceData(fields[i]), unsafe.SliceData(fields[i-1]); uintptr(unsafe.Pointer(got))-uintptr(unsafe.Pointer(prev)) != uintptr(len(fields[i-1])) {
				t.Fatalf("%s: field %d does not follow field %d in one buffer", text, i, i-1)
			}
		}
		if cap(ct.Body) != len(ct.Body) {
			t.Fatalf("%s: body len %d cap %d", text, len(ct.Body), cap(ct.Body))
		}
		key, err := auth.IssueKey([]string{"relative", "doctor", "painter", "friend"})
		if err != nil {
			t.Fatalf("IssueKey: %v", err)
		}
		if pt, err := key.Decrypt(ct); err != nil || string(pt) != "one buffer" {
			t.Fatalf("%s: Decrypt = %q, %v", text, pt, err)
		}
	}
}

// TestMinimalBytesMatchesBytes: the encoding seedToKey hashes is byte for
// byte what big.Int.Bytes returns, across the field and past it.
func TestMinimalBytesMatchesBytes(t *testing.T) {
	top := shamir.Reduce(big.NewInt(-1)) // the field's largest element
	for _, v := range []*big.Int{
		big.NewInt(0), big.NewInt(1), big.NewInt(255), big.NewInt(256),
		new(big.Int).Lsh(big.NewInt(1), 248), new(big.Int).Lsh(big.NewInt(1), 255), top,
		new(big.Int).Lsh(big.NewInt(1), 256), new(big.Int).Lsh(big.NewInt(3), 300),
	} {
		var buf [fieldBytes]byte
		if got := minimalBytes(v, &buf); !bytes.Equal(got, v.Bytes()) {
			t.Fatalf("minimalBytes(%v) = %x, Bytes = %x", v, got, v.Bytes())
		}
	}
}

// TestOversizedLeafShareOpens: attribute parameters are public, so anyone
// can seal a single-leaf ciphertext whose share lies outside the Shamir
// field. It opens under the same key derivation as before, without a panic.
func TestOversizedLeafShareOpens(t *testing.T) {
	auth := newTestAuthority(t)
	params := auth.PublicParams()
	pol, err := ParsePolicy("relative")
	if err != nil {
		t.Fatalf("ParsePolicy: %v", err)
	}
	raw := bytes.Repeat([]byte{0xff}, 40)
	share, err := pubkey.Encrypt(params.Attrs["relative"], raw)
	if err != nil {
		t.Fatalf("wrapping the share: %v", err)
	}
	h := sha256.Sum256(raw)
	key, err := prf.Derive(h[:], seedContext, symmetric.KeySize)
	if err != nil {
		t.Fatalf("Derive: %v", err)
	}
	body, err := symmetric.Seal(key, []byte("outside the field"), []byte(pol.String()))
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}
	eph, wrap := share[:pubkey.EphemeralSize], share[pubkey.EphemeralSize:]
	ct := &Ciphertext{Epoch: params.Epoch, PolicyText: []byte(pol.String()), Ephemeral: eph, Shares: []WrappedShare{{Index: 1, Wrap: wrap}}, Body: body}
	userKey, err := auth.IssueKey([]string{"relative"})
	if err != nil {
		t.Fatalf("IssueKey: %v", err)
	}
	if got, err := userKey.Decrypt(ct); err != nil || string(got) != "outside the field" {
		t.Fatalf("Decrypt = %q, %v", got, err)
	}
}

// referenceKey is the payload key as it was derived through big.Int: the
// seed's value, its Bytes, their digest, then prf.Derive.
func referenceKey(t *testing.T, seed *big.Int) symmetric.Key {
	t.Helper()
	h := sha256.Sum256(seed.Bytes())
	key, err := prf.Derive(h[:], seedContext, symmetric.KeySize)
	if err != nil {
		t.Fatalf("Derive: %v", err)
	}
	return key
}

// handWrapped seals a ciphertext of one leaf share, raw, under the policy
// text, as anyone holding the public parameters can; its body is sealed
// under the given key.
func handWrapped(t *testing.T, params *PublicParams, text string, raw []byte, key symmetric.Key) *Ciphertext {
	t.Helper()
	pol, err := ParsePolicy(text)
	if err != nil {
		t.Fatalf("ParsePolicy(%q): %v", text, err)
	}
	share, err := pubkey.Encrypt(params.Attrs["relative"], raw)
	if err != nil {
		t.Fatalf("wrapping the share: %v", err)
	}
	body, err := symmetric.Seal(key, []byte("by hand"), []byte(pol.String()))
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}
	eph, wrap := share[:pubkey.EphemeralSize], share[pubkey.EphemeralSize:]
	return &Ciphertext{Epoch: params.Epoch, PolicyText: []byte(pol.String()), Ephemeral: eph, Shares: []WrappedShare{{Index: 1, Wrap: wrap}}, Body: body}
}

// TestLeafRootRecoverKeyMatchesBigIntReference: a leaf root derives its key
// from the opened share's bytes without building a big.Int, and gets the key
// the big.Int path got, on shares with leading zero bytes, the zero share,
// short shares and TestOversizedLeafShareOpens's share outside the field.
// An in-field share under a 1-of-2 gate, which goes through the same leaf
// path and then the interpolation, yields the same key.
func TestLeafRootRecoverKeyMatchesBigIntReference(t *testing.T) {
	auth := newTestAuthority(t)
	params := auth.PublicParams()
	userKey, err := auth.IssueKey([]string{"relative"})
	if err != nil {
		t.Fatalf("IssueKey: %v", err)
	}
	leading := func(zeros, n int) []byte {
		b := bytes.Repeat([]byte{0xa5}, n)
		clear(b[:zeros])
		return b
	}
	for _, raw := range [][]byte{
		leading(0, fieldBytes), leading(1, fieldBytes), leading(2, fieldBytes),
		leading(31, fieldBytes), leading(fieldBytes, fieldBytes),
		{0x07}, {0x00, 0x07}, leading(3, 17),
		bytes.Repeat([]byte{0xff}, 40), leading(8, 40),
	} {
		v := new(big.Int).SetBytes(raw)
		want := referenceKey(t, v)
		ct := handWrapped(t, params, "relative", raw, want)
		for _, pol := range []*Policy{nil, mustParse(t, "relative")} {
			got, err := userKey.RecoverKey(ct, pol)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("share %x: RecoverKey = %x, %v; want %x", raw, got, err, want)
			}
		}
		if pt, err := userKey.Decrypt(ct); err != nil || string(pt) != "by hand" {
			t.Fatalf("share %x: Decrypt = %q, %v", raw, pt, err)
		}
		if len(raw) > fieldBytes {
			continue
		}
		gated := handWrapped(t, params, "(relative OR doctor)", raw, want)
		if got, err := userKey.RecoverKey(gated, nil); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("share %x under a 1-of-2 gate: RecoverKey = %x, %v; want %x", raw, got, err, want)
		}
	}
}

func mustParse(t *testing.T, text string) *Policy {
	t.Helper()
	pol, err := ParsePolicy(text)
	if err != nil {
		t.Fatalf("ParsePolicy(%q): %v", text, err)
	}
	return pol
}

// TestLeafRootEncryptMatchesBigIntReference opens leaf-root ciphertexts by
// hand: each share is a full field element below p, the wrap does not carry
// it in the clear (it was sealed over in place), and the key the big.Int
// path derives from it opens the body.
func TestLeafRootEncryptMatchesBigIntReference(t *testing.T) {
	auth := newTestAuthority(t)
	params := auth.PublicParams()
	userKey, err := auth.IssueKey([]string{"relative"})
	if err != nil {
		t.Fatalf("IssueKey: %v", err)
	}
	p := new(big.Int).Add(new(big.Int).SetBytes(fieldMax), big.NewInt(1))
	pol, sender := mustParse(t, "relative"), pubkey.NewSender()
	for i := 0; i < 200; i++ {
		ct, err := Encrypt(sender, params, pol, []byte("drawn in place"))
		if err != nil {
			t.Fatalf("Encrypt: %v", err)
		}
		wrap := ct.Shares[0].Wrap
		share, err := userKey.secrets["relative"].Open(ct.Ephemeral, wrap)
		if err != nil || len(share) != fieldBytes {
			t.Fatalf("opening the share: %d bytes, %v", len(share), err)
		}
		if bytes.Contains(wrap, share) {
			t.Fatalf("the wrap carries its share %x in the clear", share)
		}
		v := new(big.Int).SetBytes(share)
		if v.Cmp(p) >= 0 {
			t.Fatalf("share %x is not below p", share)
		}
		if pt, err := symmetric.Open(referenceKey(t, v), ct.Body, ct.PolicyText); err != nil || string(pt) != "drawn in place" {
			t.Fatalf("body under the reference key: %q, %v", pt, err)
		}
	}
}

// TestToFieldMatchesReduce holds the in-place seed reduction to
// shamir.Reduce on both sides of p, where a random draw never lands.
func TestToFieldMatchesReduce(t *testing.T) {
	p := new(big.Int).Add(new(big.Int).SetBytes(fieldMax), big.NewInt(1))
	for _, v := range []*big.Int{
		big.NewInt(0), big.NewInt(1), new(big.Int).Sub(p, big.NewInt(1)), p,
		new(big.Int).Add(p, big.NewInt(1)), new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 256), big.NewInt(1)),
	} {
		seed := v.FillBytes(make([]byte, fieldBytes))
		toField(seed)
		want := shamir.Reduce(new(big.Int).Set(v)).FillBytes(make([]byte, fieldBytes))
		if !bytes.Equal(seed, want) {
			t.Fatalf("toField(%x) = %x, want %x", v, seed, want)
		}
	}
}

// TestGateStopsAtItsThreshold: a gate opens children only until it holds
// its threshold of shares, and a skipped child still consumes its leaf
// indices. A reader holding both attributes of (relative OR doctor) opens
// one wrap: a ciphertext that lost the second leaf's share still opens for
// them, and a warm RecoverKey costs them what it costs a reader holding
// relative alone. Under ((relative OR doctor) AND painter) the painter leaf
// after the skipped doctor leaf still opens at its own index.
func TestGateStopsAtItsThreshold(t *testing.T) {
	auth := newTestAuthority(t)
	both, err := auth.IssueKey([]string{"relative", "doctor", "painter"})
	if err != nil {
		t.Fatalf("IssueKey: %v", err)
	}
	one, err := auth.IssueKey([]string{"relative"})
	if err != nil {
		t.Fatalf("IssueKey: %v", err)
	}
	encrypt := func(policy string) (*Policy, *Ciphertext) {
		pol, err := ParsePolicy(policy)
		if err != nil {
			t.Fatalf("ParsePolicy: %v", err)
		}
		ct, err := Encrypt(pubkey.NewSender(), auth.PublicParams(), pol, []byte("one wrap will do"))
		if err != nil {
			t.Fatalf("Encrypt: %v", err)
		}
		return pol, ct
	}

	pol, ct := encrypt("(relative OR doctor)")
	want, err := one.RecoverKey(ct, pol)
	if err != nil {
		t.Fatalf("RecoverKey(relative): %v", err)
	}
	lost := *ct
	lost.Shares = ct.Shares[:1]
	if got, err := both.RecoverKey(&lost, pol); err != nil || !bytes.Equal(got, want) {
		t.Errorf("without the doctor share: RecoverKey = %x, %v; want %x (the gate opened the second child)", got, err, want)
	}
	warm := func(k *UserKey) float64 {
		return testing.AllocsPerRun(50, func() {
			if _, err := k.RecoverKey(ct, pol); err != nil {
				t.Fatal(err)
			}
		})
	}
	b, o := warm(both), warm(one)
	if b > o {
		t.Errorf("warm RecoverKey: %v allocations holding both attributes, %v holding one", b, o)
	}
	t.Logf("warm RecoverKey under (relative OR doctor): %v allocations holding both attributes, %v holding one", b, o)

	pol, ct = encrypt("((relative OR doctor) AND painter)")
	if pt, err := both.Decrypt(ct); err != nil || string(pt) != "one wrap will do" {
		t.Errorf("((relative OR doctor) AND painter): Decrypt = %q, %v", pt, err)
	}
	if _, err := one.RecoverKey(ct, pol); !errors.Is(err, ErrNotSatisfied) {
		t.Errorf("relative alone under ((relative OR doctor) AND painter): err = %v, want ErrNotSatisfied", err)
	}
}
