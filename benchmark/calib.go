package main

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"strconv"
	"time"
)

// calibRefNs is how long calibrate takes on the reference host: the 2-vCPU
// sandbox this benchmark was defined on, when nothing else runs on it.
const calibRefNs = 75e6

// calibrate runs a fixed piece of single-threaded work shaped like the data
// path (build a key, seal, hash, allocate, keep in a map larger than the
// CPU caches, look up at random) and returns how long it took. A shared
// sandbox slows down by 10 to 40 % for minutes at a time; every repetition
// calibrates before, between and after its timed chunks and scales its
// times by calibRefNs over the mean, so the bounded metrics are in seconds
// of the reference host, not of whatever the host happened to be doing. The
// raw numbers are reported beside them (harness.raw_*, harness.host_speed).
func calibrate() time.Duration {
	block, err := aes.NewCipher(make([]byte, 32))
	if err != nil {
		panic(err) // a 32-byte key is always valid
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		panic(err)
	}
	const keys = 1 << 17
	nonce := make([]byte, 12)
	store := make(map[string][]byte, keys)
	payload := make([]byte, 200)
	x := uint32(1)
	next := func() string {
		x = x*1664525 + 1013904223
		return "post/user-" + strconv.Itoa(int(x>>15)%keys) + "/0"
	}
	t0 := time.Now()
	for i := 0; i < 60000; i++ {
		ct := aead.Seal(nil, nonce, payload, nil)
		sum := sha256.Sum256(ct)
		store[next()] = append(sum[:], ct...)
		if v, ok := store[next()]; ok {
			payload[0] = v[0]
		}
	}
	return time.Since(t0)
}
