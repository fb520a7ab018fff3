package symmetric

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

// A caller that binds a string as associated data converts it on its own
// stack: the AEAD sees a copy from adSlots, so a Seal or Open allocates only
// what it returns, and SealTo/OpenTo into a destination with room allocate
// nothing. Atomic slots, unlike a sync.Pool, keep these counts under -race.
func TestAssociatedDataStaysWithCaller(t *testing.T) {
	s, err := NewSealer(testKey(t))
	if err != nil {
		t.Fatal(err)
	}
	key := "post/user-000042/17"
	pt := bytes.Repeat([]byte("p"), 200)
	ct, err := s.Seal(pt, []byte(key))
	if err != nil {
		t.Fatal(err)
	}
	sealBuf := make([]byte, 0, len(pt)+Overhead())
	openBuf := make([]byte, 0, len(pt))
	for _, c := range []struct {
		name string
		want float64
		f    func() error
	}{
		{"Seal", 1, func() error { _, err := s.Seal(pt, []byte(key)); return err }},
		{"Open", 1, func() error { _, err := s.Open(ct, []byte(key)); return err }},
		{"SealTo", 0, func() error { _, err := s.SealTo(sealBuf[:0], pt, []byte(key)); return err }},
		{"OpenTo", 0, func() error { _, err := s.OpenTo(openBuf[:0], ct, []byte(key)); return err }},
	} {
		var err error
		got := testing.AllocsPerRun(100, func() {
			if e := c.f(); e != nil {
				err = e
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got != c.want {
			t.Errorf("Sealer.%s with []byte(key) as associated data: %v allocs/op, want %v", c.name, got, c.want)
		}
	}
}

// A buffer that grew past maxKeptAD serves its call and is then dropped,
// so no slot holds more than maxKeptAD bytes of capacity.
func TestADSlotsDropLargeBuffers(t *testing.T) {
	s, err := NewSealer(testKey(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, maxKeptAD, maxKeptAD + 1, 4 * maxKeptAD} {
		ad := bytes.Repeat([]byte{byte(n)}, n)
		ct, err := s.Seal([]byte("payload"), ad)
		if err != nil {
			t.Fatalf("Seal with %d bytes of associated data: %v", n, err)
		}
		if pt, err := s.Open(ct, ad); err != nil || string(pt) != "payload" {
			t.Fatalf("Open with %d bytes of associated data = %q, %v", n, pt, err)
		}
		for i := range adSlots {
			if p := adSlots[i].Load(); p != nil && cap(*p) > maxKeptAD {
				t.Fatalf("after %d bytes of associated data, slot %d keeps a %d-byte buffer", n, i, cap(*p))
			}
		}
	}
}

// TestADSlotsHammer runs 8 goroutines on one Sealer and 8 on the one-shot
// functions, each sealing and opening its own messages under its own
// associated data, some longer than maxKeptAD. A buffer lent to two callers
// at once would bind one caller's ciphertext to the other's bytes: a round
// trip would fail, or an open under another goroutine's associated data
// would succeed. Run it with -race -count=10.
func TestADSlotsHammer(t *testing.T) {
	key := testKey(t)
	s, err := NewSealer(key)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, messages = 16, 300
	ad := func(g, i int) []byte {
		b := fmt.Appendf(nil, "g%02d/m%03d/", g, i)
		if i%50 == g%50 {
			b = append(b, bytes.Repeat([]byte{byte(g)}, maxKeptAD)...)
		}
		return b
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		seal := func(pt, ad []byte) ([]byte, error) { return s.Seal(pt, ad) }
		open := func(ct, ad []byte) ([]byte, error) { return s.Open(ct, ad) }
		if g%2 == 1 {
			seal = func(pt, ad []byte) ([]byte, error) { return Seal(key, pt, ad) }
			open = func(ct, ad []byte) ([]byte, error) { return Open(key, ct, ad) }
		}
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			other := (g + 1) % goroutines
			for i := 0; i < messages; i++ {
				pt := fmt.Appendf(nil, "plaintext %d of goroutine %d", i, g)
				ct, err := seal(pt, ad(g, i))
				if err != nil {
					t.Errorf("goroutine %d message %d: Seal: %v", g, i, err)
					return
				}
				if got, err := open(ct, ad(g, i)); err != nil || !bytes.Equal(got, pt) {
					t.Errorf("goroutine %d message %d: Open = %q, %v; want %q", g, i, got, err, pt)
					return
				}
				if _, err := open(ct, ad(other, i)); err == nil {
					t.Errorf("goroutine %d message %d opened under goroutine %d's associated data", g, i, other)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// FuzzSealOpen feeds arbitrary ciphertexts and associated data of any
// length to Sealer.Open and Open, which must not panic, then seals the
// plaintext under the associated data: the result must open under exactly
// that associated data and under no neighbour of it.
func FuzzSealOpen(f *testing.F) {
	key := Key(bytes.Repeat([]byte{7}, KeySize))
	s, err := NewSealer(key)
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{}, []byte{}, []byte("post"))
	f.Add([]byte("short"), []byte("post/user-1/0"), []byte("hello"))
	f.Add(bytes.Repeat([]byte{1}, NonceSize+16), []byte{0}, []byte{})
	f.Add(bytes.Repeat([]byte{2}, 64), bytes.Repeat([]byte("a"), maxKeptAD+1), bytes.Repeat([]byte("x"), 300))
	f.Fuzz(func(t *testing.T, ciphertext, ad, pt []byte) {
		_, _ = s.Open(ciphertext, ad)
		_, _ = Open(key, ciphertext, ad)

		ct, err := s.Seal(pt, ad)
		if err != nil {
			t.Fatalf("Seal: %v", err)
		}
		for _, open := range []func([]byte, []byte) ([]byte, error){
			s.Open,
			func(ct, ad []byte) ([]byte, error) { return Open(key, ct, ad) },
		} {
			if got, err := open(ct, ad); err != nil || !bytes.Equal(got, pt) {
				t.Fatalf("Open under the sealing associated data = %q, %v; want %q", got, err, pt)
			}
			wrong := [][]byte{append(bytes.Clone(ad), 0)}
			if len(ad) > 0 {
				flipped := bytes.Clone(ad)
				flipped[len(flipped)-1] ^= 1
				wrong = append(wrong, ad[:len(ad)-1], flipped)
			}
			for _, w := range wrong {
				if _, err := open(ct, w); err == nil {
					t.Fatalf("sealed under %q, opened under %q", ad, w)
				}
			}
		}
	})
}
