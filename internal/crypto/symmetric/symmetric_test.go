package symmetric

import (
	"bytes"
	"testing"
	"testing/quick"
)

// testKey generates a fresh key or fails the test.
func testKey(tb testing.TB) Key {
	tb.Helper()
	k, err := NewKey()
	if err != nil {
		tb.Fatalf("NewKey: %v", err)
	}
	return k
}

func TestSealOpenRoundTrip(t *testing.T) {
	key := testKey(t)
	tests := []struct {
		name string
		pt   []byte
		ad   []byte
	}{
		{name: "empty", pt: []byte{}, ad: nil},
		{name: "short", pt: []byte("hello"), ad: nil},
		{name: "with ad", pt: []byte("hello"), ad: []byte("context")},
		{name: "binary", pt: []byte{0, 1, 2, 255, 254}, ad: []byte{9}},
		{name: "large", pt: bytes.Repeat([]byte("x"), 1<<16), ad: nil},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			ct, err := Seal(key, tt.pt, tt.ad)
			if err != nil {
				t.Fatalf("Seal: %v", err)
			}
			got, err := Open(key, ct, tt.ad)
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			if !bytes.Equal(got, tt.pt) {
				t.Fatalf("round trip mismatch: got %q want %q", got, tt.pt)
			}
		})
	}
}

func TestOpenRejectsWrongKey(t *testing.T) {
	k1, k2 := testKey(t), testKey(t)
	ct, err := Seal(k1, []byte("secret"), nil)
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}
	if _, err := Open(k2, ct, nil); err == nil {
		t.Fatal("Open with wrong key succeeded")
	}
}

func TestOpenRejectsWrongAD(t *testing.T) {
	key := testKey(t)
	ct, err := Seal(key, []byte("secret"), []byte("ad1"))
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}
	if _, err := Open(key, ct, []byte("ad2")); err == nil {
		t.Fatal("Open with wrong associated data succeeded")
	}
}

func TestOpenRejectsTampering(t *testing.T) {
	key := testKey(t)
	ct, err := Seal(key, []byte("attack at dawn"), nil)
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}
	for i := 0; i < len(ct); i += 7 {
		mutated := append([]byte(nil), ct...)
		mutated[i] ^= 0x01
		if _, err := Open(key, mutated, nil); err == nil {
			t.Fatalf("Open accepted ciphertext tampered at byte %d", i)
		}
	}
}

func TestOpenRejectsShortCiphertext(t *testing.T) {
	key := testKey(t)
	if _, err := Open(key, []byte{1, 2, 3}, nil); err == nil {
		t.Fatal("Open accepted truncated ciphertext")
	}
}

func TestInvalidKeySizes(t *testing.T) {
	for _, n := range []int{0, 1, 16, 31, 33, 64} {
		bad := make(Key, n)
		if _, err := Seal(bad, []byte("x"), nil); err == nil {
			t.Fatalf("Seal accepted %d-byte key", n)
		}
		if _, err := Open(bad, make([]byte, 64), nil); err == nil {
			t.Fatalf("Open accepted %d-byte key", n)
		}
	}
}

func TestKeyClone(t *testing.T) {
	k := testKey(t)
	c := k.Clone()
	if !bytes.Equal(k, c) {
		t.Fatal("clone differs from original")
	}
	c[0] ^= 0xFF
	if bytes.Equal(k, c) {
		t.Fatal("mutating clone affected original")
	}
}

func TestCiphertextOverheadMatches(t *testing.T) {
	key := testKey(t)
	for _, n := range []int{0, 1, 100, 4096} {
		ct, err := Seal(key, make([]byte, n), nil)
		if err != nil {
			t.Fatalf("Seal: %v", err)
		}
		if got := len(ct) - n; got != Overhead() {
			t.Fatalf("overhead for %d-byte plaintext: got %d want %d", n, got, Overhead())
		}
	}
}

func TestNonceUniqueness(t *testing.T) {
	key := testKey(t)
	seen := make(map[string]bool)
	for i := 0; i < 256; i++ {
		ct, err := Seal(key, []byte("same message"), nil)
		if err != nil {
			t.Fatalf("Seal: %v", err)
		}
		nonce := string(ct[:12])
		if seen[nonce] {
			t.Fatal("nonce repeated across Seal calls")
		}
		seen[nonce] = true
	}
}

func TestQuickRoundTrip(t *testing.T) {
	key := testKey(t)
	f := func(pt, ad []byte) bool {
		ct, err := Seal(key, pt, ad)
		if err != nil {
			return false
		}
		got, err := Open(key, ct, ad)
		if err != nil {
			return false
		}
		return bytes.Equal(got, pt)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
