//go:build go1.24

package prf

// The reference tests against crypto/hkdf, which the standard library has
// had since Go 1.24; go.mod's go line is older, so they build only on a
// toolchain that has it.

import (
	"bytes"
	"crypto/hkdf"
	"crypto/hmac"
	"crypto/sha256"
	"fmt"
	"sync"
	"testing"
)

// TestDeriveMatchesHKDF pins Derive to the standard library's HKDF-Expand
// over HMAC-SHA256: seeds on both sides of the 64-byte block (longer keys are
// hashed first), contexts from empty to several blocks, and lengths up to the
// 255-block limit, which still holds.
func TestDeriveMatchesHKDF(t *testing.T) {
	for _, seedLen := range []int{1, 16, 31, 32, 33, 63, 64, 65, 100, 128, 200} {
		for _, ctxLen := range []int{0, 1, 18, 55, 56, 64, 119, 120, 300} {
			seed, context := pattern(seedLen, 1), string(pattern(ctxLen, 2))
			for _, n := range []int{1, 16, 31, 32, 33, 64, 100, 255, 1000, 255 * OutputSize} {
				got, err := Derive(seed, context, n)
				if err != nil {
					t.Fatalf("Derive(seed %d B, context %d B, %d): %v", seedLen, ctxLen, n, err)
				}
				want, err := hkdf.Expand(sha256.New, seed, context, n)
				if err != nil {
					t.Fatalf("hkdf.Expand: %v", err)
				}
				if !bytes.Equal(got, want) || len(got) != cap(got) {
					t.Fatalf("Derive(seed %d B, context %d B, %d) differs from hkdf.Expand (len %d cap %d)", seedLen, ctxLen, n, len(got), cap(got))
				}
			}
		}
	}
	if _, err := Derive([]byte("s"), "ctx", 255*OutputSize+1); err == nil {
		t.Fatalf("Derive accepted %d bytes", 255*OutputSize+1)
	}
}

// TestDeriveConcurrent runs Derive and Eval from 8 goroutines at once, as
// ABEGroup.Remove's parallel re-encryption does; run under -race.
func TestDeriveConcurrent(t *testing.T) {
	const goroutines, calls = 8, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		seed, context := pattern(20+g*10, byte(g)), fmt.Sprintf("ctx-%d", g)
		wantDerive, err := hkdf.Expand(sha256.New, seed, context, 48)
		if err != nil {
			t.Fatal(err)
		}
		mac := hmac.New(sha256.New, seed)
		mac.Write([]byte(context))
		wantEval := mac.Sum(nil)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				if got, err := Derive(seed, context, 48); err != nil || !bytes.Equal(got, wantDerive) {
					t.Errorf("%s: Derive = %x, %v", context, got, err)
					return
				}
				if got, err := Eval(seed, []byte(context)); err != nil || !bytes.Equal(got, wantEval) {
					t.Errorf("%s: Eval = %x, %v", context, got, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// FuzzDerive checks Derive against hkdf.Expand, and DeriveTo against Derive,
// for arbitrary seeds, contexts and lengths, the out-of-range ones included.
// Its seeds are the committed corpus in testdata/fuzz/FuzzDerive.
func FuzzDerive(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed []byte, context string, length uint16) {
		n := int(length)
		got, err := Derive(seed, context, n)
		to := make([]byte, n)
		errTo := DeriveTo(to, seed, context)
		if len(seed) == 0 || n == 0 || n > 255*OutputSize {
			if err == nil || errTo == nil {
				t.Fatalf("seed %d B, length %d accepted: Derive %v, DeriveTo %v", len(seed), n, err, errTo)
			}
			return
		}
		if err != nil || errTo != nil {
			t.Fatalf("Derive: %v, DeriveTo: %v", err, errTo)
		}
		if !bytes.Equal(to, got) {
			t.Fatalf("DeriveTo(%x, %q, %d) differs from Derive", seed, context, n)
		}
		want, err := hkdf.Expand(sha256.New, seed, context, n)
		if err != nil {
			t.Fatalf("hkdf.Expand: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("Derive(%x, %q, %d) differs from hkdf.Expand", seed, context, n)
		}
	})
}
