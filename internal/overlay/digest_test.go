package overlay

import (
	"bytes"
	"encoding/binary"
	"testing"

	"godosn/internal/crypto/merkle"
)

// TestDigestLeavesOnFixedInput pins the copy and nonce leaves to their
// formats (the domain tag, the key, a zero byte and the value, or the
// absent tag and the key; the nonce tag and the nonce big-endian), so
// both sides of a digest exchange keep computing the same roots, and pins
// CopyLeaf to no allocation whatever the key's length.
func TestDigestLeavesOnFixedInput(t *testing.T) {
	key := "post/user-0012/345/a-key-longer-than-a-stack-conversion-buffer"
	value := bytes.Repeat([]byte{0xab}, 300)
	if got, want := CopyLeaf(key, value, true), merkle.LeafHash([]byte(copyPresent+key+"\x00"+string(value))); got != want {
		t.Fatalf("present CopyLeaf = %x, want %x", got, want)
	}
	if got, want := CopyLeaf(key, nil, false), merkle.LeafHash([]byte(copyAbsent+key)); got != want {
		t.Fatalf("absent CopyLeaf = %x, want %x", got, want)
	}
	var nonce [8]byte
	binary.BigEndian.PutUint64(nonce[:], 42)
	if got, want := NonceLeaf(42), merkle.LeafHash([]byte(nonceDomain+string(nonce[:]))); got != want {
		t.Fatalf("NonceLeaf = %x, want %x", got, want)
	}
	var sink [32]byte
	if n := testing.AllocsPerRun(100, func() {
		sink = CopyLeaf(key, value, true)
		sink = CopyLeaf(key, nil, false)
	}); n != 0 {
		t.Fatalf("CopyLeaf allocates %v times, want 0", n)
	}
	_ = sink
}
