package symmetric

// Microbenchmarks for the symmetric hot path. BenchmarkSealTo/reuse and
// BenchmarkOpenTo/reuse show the allocation delta bought by caller-provided
// destination buffers versus the allocating Seal/Open.

import "testing"

func benchKey(b *testing.B) Key {
	b.Helper()
	k, err := NewKey()
	if err != nil {
		b.Fatal(err)
	}
	return k
}

var benchAD = []byte("bench/ad")

func benchPlaintext() []byte {
	pt := make([]byte, 1024)
	for i := range pt {
		pt[i] = byte(i)
	}
	return pt
}

func BenchmarkSeal(b *testing.B) {
	key, pt := benchKey(b), benchPlaintext()
	b.SetBytes(int64(len(pt)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Seal(key, pt, benchAD); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSealTo(b *testing.B) {
	key, pt := benchKey(b), benchPlaintext()
	buf := make([]byte, 0, len(pt)+Overhead())
	b.SetBytes(int64(len(pt)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := SealTo(buf[:0], key, pt, benchAD)
		if err != nil {
			b.Fatal(err)
		}
		buf = out[:0]
	}
}

func BenchmarkOpen(b *testing.B) {
	key, pt := benchKey(b), benchPlaintext()
	ct, err := Seal(key, pt, benchAD)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(pt)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Open(key, ct, benchAD); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOpenTo(b *testing.B) {
	key, pt := benchKey(b), benchPlaintext()
	ct, err := Seal(key, pt, benchAD)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 0, len(pt))
	b.SetBytes(int64(len(pt)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := OpenTo(buf[:0], key, ct, benchAD)
		if err != nil {
			b.Fatal(err)
		}
		buf = out[:0]
	}
}
