package prf

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"reflect"
	"testing"
	"testing/quick"
)

func TestEvalDeterministic(t *testing.T) {
	s, err := NewSecret()
	if err != nil {
		t.Fatalf("NewSecret: %v", err)
	}
	a, err := Eval(s, []byte("input"))
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	b, err := Eval(s, []byte("input"))
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("Eval is not deterministic")
	}
	if len(a) != OutputSize {
		t.Fatalf("output size %d, want %d", len(a), OutputSize)
	}
}

func TestEvalDistinctInputs(t *testing.T) {
	s, _ := NewSecret()
	a, _ := Eval(s, []byte("x"))
	b, _ := Eval(s, []byte("y"))
	if bytes.Equal(a, b) {
		t.Fatal("distinct inputs produced equal outputs")
	}
}

func TestEvalDistinctSecrets(t *testing.T) {
	s1, _ := NewSecret()
	s2, _ := NewSecret()
	a, _ := Eval(s1, []byte("x"))
	b, _ := Eval(s2, []byte("x"))
	if bytes.Equal(a, b) {
		t.Fatal("distinct secrets produced equal outputs")
	}
}

func TestEvalEmptySecret(t *testing.T) {
	if _, err := Eval(nil, []byte("x")); err == nil {
		t.Fatal("Eval accepted empty secret")
	}
}

func TestDeriveLengths(t *testing.T) {
	seed := []byte("seed material")
	for _, n := range []int{1, 16, 32, 33, 64, 100, 255} {
		out, err := Derive(seed, "ctx", n)
		if err != nil {
			t.Fatalf("Derive(%d): %v", n, err)
		}
		if len(out) != n {
			t.Fatalf("Derive(%d) returned %d bytes", n, len(out))
		}
	}
}

func TestDeriveInvalidLength(t *testing.T) {
	for _, n := range []int{0, -1, 255*OutputSize + 1} {
		if _, err := Derive([]byte("s"), "ctx", n); err == nil {
			t.Fatalf("Derive accepted length %d", n)
		}
	}
}

// TestDeriveToMatchesDerive: DeriveTo fills dst with exactly the bytes
// Derive returns, at every length up to three outputs and one byte, for
// seeds on both sides of the 64-byte block, and rejects what Derive rejects.
func TestDeriveToMatchesDerive(t *testing.T) {
	for _, seed := range [][]byte{pattern(1, 1), pattern(32, 2), pattern(100, 3)} {
		for n := 1; n <= 3*OutputSize+1; n++ {
			want, err := Derive(seed, "ctx", n)
			if err != nil {
				t.Fatalf("Derive(%d): %v", n, err)
			}
			got := pattern(n, 9) // DeriveTo overwrites what dst held
			if err := DeriveTo(got, seed, "ctx"); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("DeriveTo(seed %d B, %d) = %x, %v; Derive = %x", len(seed), n, got, err, want)
			}
		}
	}
	for _, tc := range []struct {
		seed []byte
		n    int
	}{
		{nil, 32}, {[]byte{}, 32}, {[]byte("s"), 0}, {[]byte("s"), 255*OutputSize + 1}, {nil, 0},
	} {
		_, want := Derive(tc.seed, "ctx", tc.n)
		got := DeriveTo(make([]byte, tc.n), tc.seed, "ctx")
		if want == nil || got == nil || got.Error() != want.Error() {
			t.Fatalf("seed %d B, length %d: DeriveTo error %v, Derive error %v", len(tc.seed), tc.n, got, want)
		}
	}
}

func TestDeriveContextSeparation(t *testing.T) {
	seed := []byte("seed")
	a, _ := Derive(seed, "ctx-a", 32)
	b, _ := Derive(seed, "ctx-b", 32)
	if bytes.Equal(a, b) {
		t.Fatal("different contexts produced equal derivations")
	}
}

func TestDerivePrefixConsistency(t *testing.T) {
	// Same seed+context with different lengths must agree on the shared
	// prefix (HKDF-Expand property) so callers can extend derivations.
	seed := []byte("seed")
	short, _ := Derive(seed, "ctx", 16)
	long, _ := Derive(seed, "ctx", 48)
	if !bytes.Equal(short, long[:16]) {
		t.Fatal("derivation prefix not consistent across lengths")
	}
}

func TestQuickEvalInjectivityOnInputs(t *testing.T) {
	s, _ := NewSecret()
	f := func(x, y []byte) bool {
		if bytes.Equal(x, y) {
			return true
		}
		a, err1 := Eval(s, x)
		b, err2 := Eval(s, y)
		return err1 == nil && err2 == nil && !bytes.Equal(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// pattern returns n bytes that differ with n and tag, so no two test inputs
// of one length coincide.
func pattern(n int, tag byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = tag + byte(i*7+n)
	}
	return b
}

func TestEvalMatchesHMAC(t *testing.T) {
	for _, keyLen := range []int{1, 32, 63, 64, 65, 200} {
		for _, msgLen := range []int{0, 1, 16, 55, 56, 64, 65, 300} {
			key, msg := pattern(keyLen, 3), pattern(msgLen, 4)
			got, err := Eval(key, msg)
			if err != nil {
				t.Fatalf("Eval: %v", err)
			}
			mac := hmac.New(sha256.New, key)
			mac.Write(msg)
			if want := mac.Sum(nil); !bytes.Equal(got, want) {
				t.Fatalf("Eval(key %d B, msg %d B) differs from crypto/hmac", keyLen, msgLen)
			}
		}
	}
}

// raceEnabled is set by race_test.go.
var raceEnabled bool

func TestDeriveAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops states at random under the race detector")
	}
	seed := pattern(32, 5)
	Derive(seed, "godosn/abe/seed-v1", 32) // fill the pool
	if got := testing.AllocsPerRun(200, func() {
		if _, err := Derive(seed, "godosn/abe/seed-v1", 32); err != nil {
			t.Fatal(err)
		}
	}); got > 1 {
		t.Fatalf("Derive: %v allocs/op, want at most 1 (the output)", got)
	}
	var key [32]byte
	if got := testing.AllocsPerRun(200, func() {
		if err := DeriveTo(key[:], seed, "godosn/abe/seed-v1"); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Fatalf("DeriveTo: %v allocs/op, want 0", got)
	}
	if got := testing.AllocsPerRun(200, func() {
		if _, err := Eval(seed, seed); err != nil {
			t.Fatal(err)
		}
	}); got > 1 {
		t.Fatalf("Eval: %v allocs/op, want at most 1 (the output)", got)
	}
}

// digestBuffer reads a SHA-256 digest's block buffer by reflection; ok is
// false when the standard library's layout no longer has one named x.
func digestBuffer(h any) (buf []byte, ok bool) {
	v := reflect.ValueOf(h)
	if v.Kind() != reflect.Pointer || v.Elem().Kind() != reflect.Struct {
		return nil, false
	}
	x := v.Elem().FieldByName("x")
	if !x.IsValid() || x.Kind() != reflect.Array || x.Type().Elem().Kind() != reflect.Uint8 {
		return nil, false
	}
	for i := 0; i < x.Len(); i++ {
		buf = append(buf, byte(x.Index(i).Uint()))
	}
	return buf, true
}

// TestDeriveWipesPooledState takes states back out of the pool after Derive
// and Eval with long keys and contexts: pads, sum, message buffer and the
// digests' block buffers must hold only zeros.
func TestDeriveWipesPooledState(t *testing.T) {
	zero := func(b []byte) bool { return bytes.Count(b, []byte{0}) == len(b) }
	reused := 0
	for i := 0; i < 100 && reused < 10; i++ {
		if i%2 == 0 {
			Derive(pattern(100, byte(i)), string(pattern(150, 6)), 100)
		} else {
			Eval(pattern(40, byte(i)), pattern(90, 7))
		}
		st := states.Get().(*state)
		if !zero(st.ipad[:]) || !zero(st.opad[:]) || !zero(st.sum[:]) || !zero(st.msg[:cap(st.msg)]) {
			t.Fatalf("pooled state holds key-derived bytes: ipad %x opad %x sum %x msg %x", st.ipad, st.opad, st.sum, st.msg[:cap(st.msg)])
		}
		for name, h := range map[string]any{"inner": st.inner, "outer": st.outer} {
			if buf, ok := digestBuffer(h); ok && !zero(buf) {
				t.Fatalf("pooled %s digest's block buffer holds %x", name, buf)
			} else if !ok && i == 0 {
				t.Logf("%T has no block buffer named x; digest wipe not checked", h)
			}
		}
		if cap(st.msg) > 0 {
			reused++
		}
		states.Put(st)
	}
	if reused == 0 {
		t.Fatal("never got a used state back from the pool")
	}
}

func BenchmarkDerive(b *testing.B) {
	seed := pattern(32, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Derive(seed, "godosn/abe/seed-v1", 32); err != nil {
			b.Fatal(err)
		}
	}
}
