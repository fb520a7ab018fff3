package privacy

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"

	"godosn/internal/cache"
)

// envelopeKeyCache is the optional per-reader envelope-key cache embedded by
// the schemes with a two-phase decrypt (hybrid, IBBE, ABE). It memoizes the
// result of the expensive public-key phase — the unwrapped per-epoch data
// key (hybrid), the unwrapped session key (IBBE), or the recovered payload
// key (ABE) — so repeat reads pay only the symmetric phase.
//
// Coherence contract: membership (and, where applicable, epoch) checks run
// BEFORE any cache consult, and Remove bumps the cache generation, so a
// revoked member's warm cache can never open post-revocation content and a
// rekey never serves a key from a previous epoch. Cache keys additionally
// embed the reader name plus either the key epoch or a content tag of the
// ciphertext, so distinct readers and distinct envelopes never collide.
type envelopeKeyCache struct {
	keyCache *cache.Cache[[]byte]
}

// SetKeyCache installs (or, with a zero-capacity config, removes) the
// envelope-key cache. The zero value of cache.Config disables caching and
// preserves the exact uncached decrypt behavior.
func (c *envelopeKeyCache) SetKeyCache(cfg cache.Config) {
	c.keyCache = cache.New[[]byte](cfg)
}

// KeyCacheStats returns the cache's counters (zero when disabled).
func (c *envelopeKeyCache) KeyCacheStats() cache.Stats {
	return c.keyCache.Stats()
}

// The cache key of a reader's unwrapped key. Each is built in a stack buffer
// and converted to a string once; the strings themselves decide the cache's
// shard placement and eviction order, so their format is fixed:
//
//	epochKey         "<reader>/<epoch>"        hybrid: one data key per epoch
//	contentKey       "<reader>/<tag>"          IBBE: one session key per broadcast
//	epochContentKey  "<reader>/<epoch>/<tag>"  ABE: one payload key per ciphertext
//
// where <tag> is a short content address (sha256 prefix, hex) that keys the
// entry to one specific ciphertext body.

// keyBufSize holds a cache key for any reader name of ordinary length; a
// longer name spills to the heap through append.
const keyBufSize = 96

func epochKey(reader string, epoch uint64) string {
	var buf [keyBufSize]byte
	return string(strconv.AppendUint(appendReader(buf[:0], reader), epoch, 10))
}

func contentKey(reader string, body []byte) string {
	var buf [keyBufSize]byte
	return string(appendContentTag(appendReader(buf[:0], reader), body))
}

func epochContentKey(reader string, epoch uint64, body []byte) string {
	var buf [keyBufSize]byte
	b := strconv.AppendUint(appendReader(buf[:0], reader), epoch, 10)
	return string(appendContentTag(append(b, '/'), body))
}

func appendReader(b []byte, reader string) []byte {
	return append(append(b, reader...), '/')
}

func appendContentTag(b, body []byte) []byte {
	sum := sha256.Sum256(body)
	return hex.AppendEncode(b, sum[:8])
}
