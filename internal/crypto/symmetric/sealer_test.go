package symmetric

import (
	"bytes"
	"testing"
)

// A Sealer's output must interoperate with the one-shot functions both
// ways: same key, same wire format.
func TestSealerInteroperatesWithOneShot(t *testing.T) {
	key := testKey(t)
	s, err := NewSealer(key)
	if err != nil {
		t.Fatal(err)
	}
	pt, ad := []byte("the payload"), []byte("ad")

	ct, err := s.Seal(pt, ad)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Open(key, ct, ad)
	if err != nil {
		t.Fatalf("one-shot Open of Sealer output: %v", err)
	}
	if !bytes.Equal(got, pt) {
		t.Fatalf("round-trip = %q, want %q", got, pt)
	}

	ct, err = Seal(key, pt, ad)
	if err != nil {
		t.Fatal(err)
	}
	got, err = s.Open(ct, ad)
	if err != nil {
		t.Fatalf("Sealer Open of one-shot output: %v", err)
	}
	if !bytes.Equal(got, pt) {
		t.Fatalf("round-trip = %q, want %q", got, pt)
	}
}

// Sealer enforces the same failure modes as the one-shot path.
func TestSealerRejects(t *testing.T) {
	if _, err := NewSealer(Key("short")); err == nil {
		t.Fatal("NewSealer accepted a bad key")
	}
	s, err := NewSealer(testKey(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Open([]byte("tiny"), nil); err == nil {
		t.Fatal("Open accepted a ciphertext shorter than a nonce")
	}
	ct, err := s.Seal([]byte("x"), []byte("ad"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Open(ct, []byte("other-ad")); err == nil {
		t.Fatal("Open accepted a mismatched associated-data binding")
	}
}

// The pooled path: AEAD construction amortized across operations.
func BenchmarkSealerSeal(b *testing.B) {
	s, err := NewSealer(benchKey(b))
	if err != nil {
		b.Fatal(err)
	}
	pt := benchPlaintext()
	b.SetBytes(int64(len(pt)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Seal(pt, benchAD); err != nil {
			b.Fatal(err)
		}
	}
}

// Pooled AEAD plus a reused destination buffer: the zero-allocation seal.
func BenchmarkSealerSealTo(b *testing.B) {
	s, err := NewSealer(benchKey(b))
	if err != nil {
		b.Fatal(err)
	}
	pt := benchPlaintext()
	buf := make([]byte, 0, len(pt)+Overhead())
	b.SetBytes(int64(len(pt)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := s.SealTo(buf[:0], pt, benchAD)
		if err != nil {
			b.Fatal(err)
		}
		buf = out[:0]
	}
}

func BenchmarkSealerOpen(b *testing.B) {
	s, err := NewSealer(benchKey(b))
	if err != nil {
		b.Fatal(err)
	}
	pt := benchPlaintext()
	ct, err := s.Seal(pt, benchAD)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(pt)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Open(ct, benchAD); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSealerOpenTo(b *testing.B) {
	s, err := NewSealer(benchKey(b))
	if err != nil {
		b.Fatal(err)
	}
	pt := benchPlaintext()
	ct, err := s.Seal(pt, benchAD)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 0, len(pt))
	b.SetBytes(int64(len(pt)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := s.OpenTo(buf[:0], ct, benchAD)
		if err != nil {
			b.Fatal(err)
		}
		buf = out[:0]
	}
}
