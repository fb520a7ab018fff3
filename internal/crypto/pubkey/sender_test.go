package pubkey

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/ecdh"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"sync"
	"testing"
)

func newTestKeyPair(t testing.TB) *EncryptionKeyPair {
	t.Helper()
	kp, err := NewEncryptionKeyPair()
	if err != nil {
		t.Fatalf("NewEncryptionKeyPair: %v", err)
	}
	return kp
}

func mustEncrypt(t testing.TB, s *Sender, kp *EncryptionKeyPair, pt []byte) []byte {
	t.Helper()
	ct, err := s.Encrypt(kp.Public(), pt)
	if err != nil {
		t.Fatalf("Sender.Encrypt: %v", err)
	}
	return ct
}

func memoLen(kp *EncryptionKeyPair) int {
	kp.mu.Lock()
	defer kp.mu.Unlock()
	return len(kp.memo)
}

func tableLen(s *Sender) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.cur.table)
}

// referenceDecrypt opens a ciphertext from the documented wire layout with
// nothing but the standard library: 65-byte uncompressed ephemeral point ||
// 12-byte nonce || ciphertext || 16-byte tag, AES-256-GCM under
// HKDF-Expand(ECDH, context || ephemeral || recipient), the ephemeral point
// as associated data. It pins the format independently of Decrypt.
func referenceDecrypt(t *testing.T, private []byte, ct []byte) []byte {
	t.Helper()
	priv, err := ecdh.P256().NewPrivateKey(private)
	if err != nil {
		t.Fatalf("reference: private key: %v", err)
	}
	eph, err := ecdh.P256().NewPublicKey(ct[:65])
	if err != nil {
		t.Fatalf("reference: ephemeral key: %v", err)
	}
	shared, err := priv.ECDH(eph)
	if err != nil {
		t.Fatalf("reference: ECDH: %v", err)
	}
	mac := hmac.New(sha256.New, shared)
	mac.Write([]byte("godosn/pubkey/ecies-v2"))
	mac.Write(ct[:65])
	mac.Write(priv.PublicKey().Bytes())
	mac.Write([]byte{1})
	block, err := aes.NewCipher(mac.Sum(nil))
	if err != nil {
		t.Fatalf("reference: AES: %v", err)
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		t.Fatalf("reference: GCM: %v", err)
	}
	pt, err := gcm.Open(nil, ct[65:77], ct[77:], ct[:65])
	if err != nil {
		t.Fatalf("reference: open: %v", err)
	}
	return pt
}

func TestSenderRoundTripAndLayout(t *testing.T) {
	kp, s := newTestKeyPair(t), NewSender()
	for i, pt := range [][]byte{{}, []byte("x"), bytes.Repeat([]byte("m"), 10000)} {
		ct := mustEncrypt(t, s, kp, pt)
		if ct[0] != 4 || len(ct) != 65+12+len(pt)+16 || len(ct)-len(pt) != CiphertextOverhead() {
			t.Fatalf("wrap %d: lead byte %d, %d bytes for %d of plaintext", i, ct[0], len(ct), len(pt))
		}
		got, err := kp.Decrypt(ct)
		if err != nil || !bytes.Equal(got, pt) {
			t.Fatalf("wrap %d: Decrypt = %d bytes, %v", i, len(got), err)
		}
		if ref := referenceDecrypt(t, kp.private.Bytes(), ct); !bytes.Equal(ref, pt) {
			t.Fatalf("wrap %d: reference decrypt mismatch", i)
		}
	}
	if got := s.Agreements(); got != 1 {
		t.Fatalf("3 wraps to one recipient made %d agreements, want 1", got)
	}
	if got := memoLen(kp); got != 1 {
		t.Fatalf("one sender left %d memo entries, want 1", got)
	}
}

// TestWrapToAppends appends a wrap after bytes already in dst, with and
// without spare capacity: those bytes stay as they were, the appended wrap
// opens with Open, and Encrypt's own result is exactly one ciphertext long.
func TestWrapToAppends(t *testing.T) {
	kp, s := newTestKeyPair(t), NewSender()
	pt := []byte("session key")
	prefix := []byte("already here")
	for _, spare := range []int{0, WrapOverhead() + len(pt), 1000} {
		dst := append(make([]byte, 0, len(prefix)+spare), prefix...)
		m, err := s.NewMulti(1)
		if err != nil {
			t.Fatalf("spare %d: NewMulti: %v", spare, err)
		}
		out, err := m.WrapTo(dst, kp.Public(), pt)
		if err != nil {
			t.Fatalf("spare %d: WrapTo: %v", spare, err)
		}
		if !bytes.Equal(dst, prefix) || !bytes.Equal(out[:len(prefix)], prefix) {
			t.Fatalf("spare %d: WrapTo changed the bytes already in dst", spare)
		}
		if len(out) != len(prefix)+WrapOverhead()+len(pt) {
			t.Fatalf("spare %d: appended %d bytes, want %d", spare, len(out)-len(prefix), WrapOverhead()+len(pt))
		}
		if got, err := kp.Open(m.Ephemeral(), out[len(prefix):]); err != nil || !bytes.Equal(got, pt) {
			t.Fatalf("spare %d: Open = %q, %v", spare, got, err)
		}
	}
	ct := mustEncrypt(t, s, kp, pt)
	if want := CiphertextOverhead() + len(pt); len(ct) != want || cap(ct) != want {
		t.Fatalf("Encrypt: len %d cap %d, want both %d", len(ct), cap(ct), want)
	}
	if _, err := s.Encrypt(nil, pt); err != ErrNilKey {
		t.Fatalf("Encrypt to a nil key: %v", err)
	}
	m, err := s.NewMulti(1)
	if err != nil {
		t.Fatalf("NewMulti: %v", err)
	}
	if _, err := m.WrapTo(nil, nil, pt); err != ErrNilKey {
		t.Fatalf("WrapTo to a nil key: %v", err)
	}
}

// TestDecryptKnownCiphertext opens a ciphertext recorded when the v2 key
// derivation landed: a change to the layout or the KDF info fails here
// before it strands stored wraps.
func TestDecryptKnownCiphertext(t *testing.T) {
	ct, err := hex.DecodeString("047df54ba6e9ede3de8e30d8143f7c9ee72706a16d1e60b49c3344d763157baaf85acbe623e0ce46b58a488b399bb680128132d9c04f531b1a42bc8a66804a9da2d31902d6941a4e5a325ef4f7ff9d22c82e5287d6cb95e619e14e5705c2a0fcf794e41053a31a818a")
	if err != nil {
		t.Fatal(err)
	}
	kp, err := EncryptionKeyPairFromPrivateBytes(fuzzPrivate)
	if err != nil {
		t.Fatalf("EncryptionKeyPairFromPrivateBytes: %v", err)
	}
	for _, path := range []string{"memo miss", "memo hit"} {
		if got, err := kp.Decrypt(ct); err != nil || string(got) != "known answer" {
			t.Fatalf("%s: %q, %v", path, got, err)
		}
	}
}

func TestOneShotEncryptOpensThroughWarmMemo(t *testing.T) {
	kp, s := newTestKeyPair(t), NewSender()
	if _, err := kp.Decrypt(mustEncrypt(t, s, kp, []byte("warm"))); err != nil {
		t.Fatalf("warming Decrypt: %v", err)
	}
	for i := 0; i < 3; i++ {
		ct, err := Encrypt(kp.Public(), []byte("one-shot"))
		if err != nil {
			t.Fatalf("Encrypt: %v", err)
		}
		if got, err := kp.Decrypt(ct); err != nil || string(got) != "one-shot" {
			t.Fatalf("one-shot Decrypt = %q, %v", got, err)
		}
		if got, err := kp.Decrypt(mustEncrypt(t, s, kp, []byte("ctx"))); err != nil || string(got) != "ctx" {
			t.Fatalf("memoised Decrypt = %q, %v", got, err)
		}
	}
}

func TestSenderWrapsAreSeparatedByRecipient(t *testing.T) {
	a, b, s := newTestKeyPair(t), newTestKeyPair(t), NewSender()
	toA, toB := mustEncrypt(t, s, a, []byte("for a")), mustEncrypt(t, s, b, []byte("for b"))
	if !bytes.Equal(toA[:65], toB[:65]) {
		t.Fatal("one sender used two ephemeral keys")
	}
	// Cold, then with A's memo warm for this very ephemeral.
	for _, phase := range []string{"memo miss", "memo hit"} {
		if _, err := a.Decrypt(toB); err == nil {
			t.Fatalf("%s: recipient A opened recipient B's wrap", phase)
		}
		if got, err := a.Decrypt(toA); err != nil || string(got) != "for a" {
			t.Fatalf("%s: A's own wrap: %q, %v", phase, got, err)
		}
	}
	if got, err := b.Decrypt(toB); err != nil || string(got) != "for b" {
		t.Fatalf("B's own wrap: %q, %v", got, err)
	}
}

func TestDecryptRejectsTamperingOnBothPaths(t *testing.T) {
	s := NewSender()
	flips := map[string]int{"ephemeral": 10, "nonce": 65 + 3, "body": 65 + 12 + 2, "tag": -1}
	for _, warm := range []bool{false, true} {
		kp := newTestKeyPair(t)
		want := 0
		if warm {
			if _, err := kp.Decrypt(mustEncrypt(t, s, kp, []byte("warm"))); err != nil {
				t.Fatalf("warming Decrypt: %v", err)
			}
			want = 1
		}
		ct := mustEncrypt(t, s, kp, []byte("payload"))
		for part, idx := range flips {
			mutated := append([]byte(nil), ct...)
			if idx < 0 {
				idx += len(mutated)
			}
			mutated[idx] ^= 1
			if _, err := kp.Decrypt(mutated); err == nil {
				t.Fatalf("warm=%v: flipped %s bit accepted", warm, part)
			}
			if got := memoLen(kp); got != want {
				t.Fatalf("warm=%v: failed open after %s flip left %d memo entries, want %d", warm, part, got, want)
			}
		}
	}
}

func TestDecryptRefusesBadEphemeral(t *testing.T) {
	kp := newTestKeyPair(t)
	ct := mustEncrypt(t, NewSender(), kp, []byte("payload"))
	offCurve := append([]byte(nil), ct...)
	for i := 33; i < 65; i++ { // a Y the curve equation cannot hold for this X
		offCurve[i] = 0
	}
	compressed := append([]byte{2}, ct[1:]...)
	for name, bad := range map[string][]byte{
		"off-curve":  offCurve,
		"compressed": compressed,
		"infinity":   append(make([]byte, 65), ct[65:]...),
		"short":      ct[:64],
		"empty":      nil,
	} {
		if _, err := kp.Decrypt(bad); err == nil {
			t.Fatalf("%s ephemeral accepted", name)
		}
	}
	if got := memoLen(kp); got != 0 {
		t.Fatalf("refused ephemerals left %d memo entries", got)
	}
}

func TestTablesRespectTheirBounds(t *testing.T) {
	// Receiver: more authenticated senders than the memo holds.
	kp := newTestKeyPair(t)
	for i := 0; i < receiverMemoBound+8; i++ {
		ct, err := Encrypt(kp.Public(), []byte("hello"))
		if err != nil {
			t.Fatalf("Encrypt %d: %v", i, err)
		}
		if got, err := kp.Decrypt(ct); err != nil || string(got) != "hello" {
			t.Fatalf("Decrypt %d: %q, %v", i, got, err)
		}
		if got := memoLen(kp); got > receiverMemoBound {
			t.Fatalf("memo grew to %d, bound %d", got, receiverMemoBound)
		}
	}
	if got := memoLen(kp); got != receiverMemoBound {
		t.Fatalf("memo holds %d, want it full at %d", got, receiverMemoBound)
	}

	// Sender: more recipients than the table holds; every wrap still opens,
	// including to recipients evicted on the way.
	s := NewSender()
	recipients := make([]*EncryptionKeyPair, senderTableBound+8)
	for i := range recipients {
		recipients[i] = newTestKeyPair(t)
	}
	for round := 0; round < 2; round++ {
		for i, r := range recipients {
			if got, err := r.Decrypt(mustEncrypt(t, s, r, []byte("hi"))); err != nil || string(got) != "hi" {
				t.Fatalf("round %d recipient %d: %q, %v", round, i, got, err)
			}
			if got := tableLen(s); got > senderTableBound {
				t.Fatalf("table grew to %d, bound %d", got, senderTableBound)
			}
		}
	}
	if got := s.Agreements(); got < uint64(len(recipients))+8 {
		t.Fatalf("%d agreements for %d recipients over two rounds past the bound", got, len(recipients))
	}
}

func TestSenderReplacesEphemeralAtSealBudget(t *testing.T) {
	a, b, s := newTestKeyPair(t), newTestKeyPair(t), NewSender()
	s.budget = 4
	ephemerals := make(map[string]int)
	for i := 0; i < 10; i++ {
		kp := a
		if i%2 == 1 {
			kp = b
		}
		pt := []byte(fmt.Sprintf("message %d", i))
		ct := mustEncrypt(t, s, kp, pt)
		if got, err := kp.Decrypt(ct); err != nil || !bytes.Equal(got, pt) {
			t.Fatalf("wrap %d: %q, %v", i, got, err)
		}
		ephemerals[string(ct[:65])]++
	}
	if len(ephemerals) != 3 {
		t.Fatalf("10 seals at a budget of 4 used %d ephemerals, want 3", len(ephemerals))
	}
	for _, n := range ephemerals {
		if n > 4 {
			t.Fatalf("an ephemeral made %d seals, budget 4", n)
		}
	}
	// Replacement drops the table: both recipients are agreed with again
	// under each ephemeral.
	if got := s.Agreements(); got != 6 {
		t.Fatalf("%d agreements, want 2 recipients x 3 ephemerals", got)
	}
}

func TestSenderForget(t *testing.T) {
	kp, s := newTestKeyPair(t), NewSender()
	mustEncrypt(t, s, kp, []byte("one"))
	s.Forget(kp.Public())
	s.Forget(nil)
	if got := tableLen(s); got != 0 {
		t.Fatalf("Forget left %d entries", got)
	}
	if got, err := kp.Decrypt(mustEncrypt(t, s, kp, []byte("two"))); err != nil || string(got) != "two" {
		t.Fatalf("wrap after Forget: %q, %v", got, err)
	}
	if got := s.Agreements(); got != 2 {
		t.Fatalf("%d agreements, want a fresh one after Forget", got)
	}
}

// TestMultiRoundTripAndLayout: a multi-recipient ciphertext carries one
// 65-byte ephemeral and, per recipient, a wrap of nonce || sealed payload ||
// tag. Every recipient opens its own wrap through Open, cold and warm; the
// ephemeral followed by a wrap is exactly a single-recipient ciphertext.
func TestMultiRoundTripAndLayout(t *testing.T) {
	for _, n := range []int{1, 8, 64} {
		s := NewSender()
		recipients := make([]*EncryptionKeyPair, n)
		for i := range recipients {
			recipients[i] = newTestKeyPair(t)
		}
		pt := bytes.Repeat([]byte("k"), 32)
		m, err := s.NewMulti(n)
		if err != nil {
			t.Fatalf("NewMulti(%d): %v", n, err)
		}
		wraps := make([][]byte, n)
		for i, r := range recipients {
			if wraps[i], err = m.WrapTo(nil, r.Public(), pt); err != nil {
				t.Fatalf("n=%d: WrapTo %d: %v", n, i, err)
			}
			if len(wraps[i]) != WrapOverhead()+len(pt) || WrapOverhead() != 12+16 {
				t.Fatalf("n=%d: wrap %d is %d bytes for %d of plaintext", n, i, len(wraps[i]), len(pt))
			}
		}
		if _, err := m.WrapTo(nil, recipients[0].Public(), pt); err == nil {
			t.Fatalf("n=%d: a wrap past the reserved count was made", n)
		}
		eph := m.Ephemeral()
		if len(eph) != EphemeralSize || eph[0] != 4 {
			t.Fatalf("n=%d: ephemeral of %d bytes, lead byte %d", n, len(eph), eph[0])
		}
		for _, phase := range []string{"cold", "warm"} {
			for i, r := range recipients {
				if got, err := r.Open(eph, wraps[i]); err != nil || !bytes.Equal(got, pt) {
					t.Fatalf("n=%d %s: recipient %d: %q, %v", n, phase, i, got, err)
				}
			}
		}
		joined := append(bytes.Clone(eph), wraps[n-1]...)
		if got := referenceDecrypt(t, recipients[n-1].private.Bytes(), joined); !bytes.Equal(got, pt) {
			t.Fatalf("n=%d: reference decrypt of ephemeral || wrap mismatch", n)
		}
		if got := s.Agreements(); got != uint64(n) {
			t.Fatalf("n=%d: %d agreements, want one per recipient", n, got)
		}
	}
	if _, err := NewSender().NewMulti(0); err == nil {
		t.Fatal("NewMulti(0) reserved a ciphertext of no wraps")
	}
}

// TestMultiKeepsOneEphemeralPerCiphertext lowers the seal budget so that
// per-wrap accounting would replace the ephemeral in the middle of a
// ciphertext: each ciphertext still has one ephemeral, every wrap opens under
// it, and the replacements fall between ciphertexts.
func TestMultiKeepsOneEphemeralPerCiphertext(t *testing.T) {
	s := NewSender()
	s.budget = 5
	recipients := make([]*EncryptionKeyPair, 8)
	for i := range recipients {
		recipients[i] = newTestKeyPair(t)
	}
	pt := []byte("session key")
	var ephemerals []string
	for _, n := range []int{3, 3, 8, 2, 2, 1, 1} {
		m, err := s.NewMulti(n)
		if err != nil {
			t.Fatalf("NewMulti(%d): %v", n, err)
		}
		eph := bytes.Clone(m.Ephemeral())
		for i, r := range recipients[:n] {
			wrap, err := m.WrapTo(nil, r.Public(), pt)
			if err != nil {
				t.Fatalf("%d wraps: WrapTo %d: %v", n, i, err)
			}
			if !bytes.Equal(m.Ephemeral(), eph) {
				t.Fatalf("%d wraps: the ephemeral changed at wrap %d", n, i)
			}
			if got, err := r.Open(eph, wrap); err != nil || !bytes.Equal(got, pt) {
				t.Fatalf("%d wraps: recipient %d: %q, %v", n, i, got, err)
			}
		}
		ephemerals = append(ephemerals, string(eph))
	}
	// 3 | 3 (would pass 5) | 8 (over the budget: alone) | 2+2+1 | 1.
	if got, want := distinct(ephemerals), []int{0, 1, 2, 3, 3, 3, 4}; !slices.Equal(got, want) {
		t.Fatalf("ephemerals by ciphertext %v, want %v", got, want)
	}
}

// distinct numbers each ephemeral by first appearance.
func distinct(ephemerals []string) []int {
	seen := map[string]int{}
	out := make([]int, len(ephemerals))
	for i, e := range ephemerals {
		if _, ok := seen[e]; !ok {
			seen[e] = len(seen)
		}
		out[i] = seen[e]
	}
	return out
}

const hammerGoroutines = 10

// TestSenderHammer drives one Sender from ten goroutines, half wrapping to
// one shared recipient and half to their own, while another forgets the
// shared one; run under -race (make smoke).
func TestSenderHammer(t *testing.T) {
	s, shared := NewSender(), newTestKeyPair(t)
	s.budget = 64 // cross a few ephemeral replacements too
	var wg sync.WaitGroup
	for g := 0; g < hammerGoroutines; g++ {
		kp := shared
		if g%2 == 1 {
			kp = newTestKeyPair(t)
		}
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				pt := []byte(fmt.Sprintf("g%d/%d", g, i))
				ct, err := s.Encrypt(kp.Public(), pt)
				if err != nil {
					t.Errorf("g%d: Encrypt: %v", g, err)
					return
				}
				if got, err := kp.Decrypt(ct); err != nil || !bytes.Equal(got, pt) {
					t.Errorf("g%d: Decrypt = %q, %v", g, got, err)
					return
				}
				// A two-wrap ciphertext, to this goroutine's recipient and the
				// shared one, may outlive its ephemeral's replacement.
				m, err := s.NewMulti(2)
				if err != nil {
					t.Errorf("g%d: NewMulti: %v", g, err)
					return
				}
				for _, r := range []*EncryptionKeyPair{kp, shared} {
					wrap, err := m.WrapTo(nil, r.Public(), pt)
					if err != nil {
						t.Errorf("g%d: WrapTo: %v", g, err)
						return
					}
					if got, err := r.Open(m.Ephemeral(), wrap); err != nil || !bytes.Equal(got, pt) {
						t.Errorf("g%d: Open = %q, %v", g, got, err)
						return
					}
				}
				if g == 0 && i%10 == 0 {
					s.Forget(shared.Public())
				}
			}
		}(g)
	}
	wg.Wait()
	if got := s.Agreements(); got == 0 {
		t.Fatal("no agreement counted")
	}
}

// TestDecryptHammer opens wraps from several senders on one key pair from
// ten goroutines, tampered ones included; run under -race (make smoke).
func TestDecryptHammer(t *testing.T) {
	kp := newTestKeyPair(t)
	senders := []*Sender{NewSender(), NewSender(), NewSender()}
	var wg sync.WaitGroup
	for g := 0; g < hammerGoroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				pt := []byte(fmt.Sprintf("g%d/%d", g, i))
				ct, err := senders[(g+i)%len(senders)].Encrypt(kp.Public(), pt)
				if err != nil {
					t.Errorf("g%d: Encrypt: %v", g, err)
					return
				}
				if got, err := kp.Decrypt(ct); err != nil || !bytes.Equal(got, pt) {
					t.Errorf("g%d: Decrypt = %q, %v", g, got, err)
					return
				}
				ct[len(ct)-1] ^= 1
				if _, err := kp.Decrypt(ct); err == nil {
					t.Errorf("g%d: tampered wrap accepted", g)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if got := memoLen(kp); got != len(senders) {
		t.Fatalf("memo holds %d entries for %d senders", got, len(senders))
	}
}

// fuzzPrivate is a fixed P-256 scalar, so the committed corpus keeps meaning
// the same thing run after run.
var fuzzPrivate = bytes.Repeat([]byte{0x42}, 32)

// FuzzDecrypt feeds arbitrary bytes to a key pair whose memo is warm for the
// ephemeral key the seeds carry: neither the miss nor the hit path may panic,
// and anything that opens must have been sealed for this key.
func FuzzDecrypt(f *testing.F) {
	kp, err := EncryptionKeyPairFromPrivateBytes(fuzzPrivate)
	if err != nil {
		f.Fatalf("EncryptionKeyPairFromPrivateBytes: %v", err)
	}
	s := NewSender()
	warm := mustEncrypt(f, s, kp, []byte("warm"))
	if _, err := kp.Decrypt(warm); err != nil {
		f.Fatalf("warming Decrypt: %v", err)
	}
	f.Add(warm)
	f.Add(append([]byte{65}, warm...)) // split form: the same wrap, cut after its ephemeral
	f.Add(append([]byte{64}, warm...)) // split form: a 64-byte ephemeral
	f.Add(warm[:65])
	f.Add(warm[:65+12])
	f.Add(append(append([]byte(nil), warm[:65]...), bytes.Repeat([]byte{0}, 28)...))
	f.Add(append([]byte{4}, bytes.Repeat([]byte{0xff}, 100)...))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		// The split form first: the leading byte says where the ephemeral
		// ends, so Open meets ephemerals and wraps of every length.
		if len(data) > 0 {
			cut := min(int(data[0]), len(data)-1)
			eph, wrap := data[1:1+cut], data[1+cut:]
			if pt, err := kp.Open(eph, wrap); err == nil {
				if len(eph) != EphemeralSize {
					t.Fatalf("Open accepted a %d-byte ephemeral", len(eph))
				}
				joined := append(bytes.Clone(eph), wrap...)
				if ref := referenceDecrypt(t, fuzzPrivate, joined); !bytes.Equal(ref, pt) {
					t.Fatalf("Open opened %q, reference %q", pt, ref)
				}
			}
		}
		pt, err := kp.Decrypt(data)
		if err != nil {
			return
		}
		if ref := referenceDecrypt(t, fuzzPrivate, data); !bytes.Equal(ref, pt) {
			t.Fatalf("Decrypt opened %q, reference %q", pt, ref)
		}
		if got := memoLen(kp); got > receiverMemoBound {
			t.Fatalf("memo grew to %d", got)
		}
	})
}

func TestWarmPathAllocations(t *testing.T) {
	kp, s := newTestKeyPair(t), NewSender()
	pk, pt := kp.Public(), bytes.Repeat([]byte("k"), 32)
	ct := mustEncrypt(t, s, kp, pt)
	if _, err := kp.Decrypt(ct); err != nil {
		t.Fatalf("warming Decrypt: %v", err)
	}
	// One each: the ciphertext buffer, the plaintext buffer.
	if got := testing.AllocsPerRun(200, func() {
		if _, err := s.Encrypt(pk, pt); err != nil {
			t.Fatal(err)
		}
	}); got != 1 {
		t.Fatalf("warm Sender.Encrypt: %v allocs/op, want 1", got)
	}
	if got := testing.AllocsPerRun(200, func() {
		if _, err := kp.Decrypt(ct); err != nil {
			t.Fatal(err)
		}
	}); got != 1 {
		t.Fatalf("memo-hit Decrypt: %v allocs/op, want 1", got)
	}
	// A multi-recipient ciphertext's wraps with room in dst: none.
	buf := make([]byte, 0, 2*(WrapOverhead()+len(pt)))
	if got := testing.AllocsPerRun(200, func() {
		m, err := s.NewMulti(2)
		if err != nil {
			t.Fatal(err)
		}
		out := buf[:0]
		for i := 0; i < 2; i++ {
			if out, err = m.WrapTo(out, pk, pt); err != nil {
				t.Fatal(err)
			}
		}
	}); got != 0 {
		t.Fatalf("warm Multi of two wraps: %v allocs/op, want 0", got)
	}
}

var benchSink []byte

func BenchmarkSenderEncrypt(b *testing.B) {
	kp, s := newTestKeyPair(b), NewSender()
	pk, pt := kp.Public(), bytes.Repeat([]byte("k"), 32)
	b.Run("first-contact", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.Forget(pk)
			benchSink, _ = s.Encrypt(pk, pt)
		}
	})
	b.Run("warm", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchSink, _ = s.Encrypt(pk, pt)
		}
	})
}

func BenchmarkDecrypt(b *testing.B) {
	kp := newTestKeyPair(b)
	ct := mustEncrypt(b, NewSender(), kp, bytes.Repeat([]byte("k"), 32))
	b.Run("memo=miss", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			kp.mu.Lock()
			clear(kp.memo)
			kp.mu.Unlock()
			benchSink, _ = kp.Decrypt(ct)
		}
	})
	b.Run("memo=hit", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchSink, _ = kp.Decrypt(ct)
		}
	})
}
