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

// The cache key of a reader's unwrapped key. Each builder appends it to a
// stack buffer (keyBufSize), which the cache looks up without building a
// string; only a fill copies it into one. The key's spelling decides the
// cache's shard placement and eviction order, so its format is fixed:
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

func epochKey(buf []byte, reader string, epoch uint64) []byte {
	return strconv.AppendUint(appendReader(buf, reader), epoch, 10)
}

func contentKey(buf []byte, reader string, body []byte) []byte {
	return appendContentTag(appendReader(buf, reader), body)
}

func epochContentKey(buf []byte, reader string, epoch uint64, body []byte) []byte {
	b := strconv.AppendUint(appendReader(buf, reader), epoch, 10)
	return appendContentTag(append(b, '/'), body)
}

func appendReader(b []byte, reader string) []byte {
	return append(append(b, reader...), '/')
}

func appendContentTag(b, body []byte) []byte {
	sum := sha256.Sum256(body)
	return hex.AppendEncode(b, sum[:8])
}
