package privacy

import (
	"godosn/internal/cache"
	"godosn/internal/crypto/abe"
	"godosn/internal/crypto/ibe"
	"godosn/internal/crypto/pubkey"
	"godosn/internal/social/identity"
)

// benchmark/ is its own module that tier-1 `go test ./...` never compiles.
// Its feed-private workload (benchmark/private.go) builds the three
// two-phase groups through exactly these constructor signatures, drives
// their envelope-key caches through this method pair, and reads these two
// report fields. Asserting the same surface here makes tier-1 fail before
// `make bench-harness` does.
var (
	_ func(string, *identity.Registry, *pubkey.SigningKeyPair) (*HybridGroup, error) = NewHybridGroup
	_ func(string, *abe.Authority, string) (*ABEGroup, error)                        = NewABEGroup
	_ func(string, *ibe.PKG) *IBBEGroup                                              = NewIBBEGroup
)

type keyCached interface {
	Group
	SetKeyCache(cfg cache.Config)
	KeyCacheStats() cache.Stats
}

var (
	_ keyCached = (*HybridGroup)(nil)
	_ keyCached = (*ABEGroup)(nil)
	_ keyCached = (*IBBEGroup)(nil)
)

var _ = RevocationReport{ReencryptedEnvelopes: 0, PublicKeyOps: 0}
