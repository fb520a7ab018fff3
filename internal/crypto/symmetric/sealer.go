package symmetric

import "crypto/cipher"

// Sealer is the pooled hot-path variant of Seal/Open: the AES key schedule
// and GCM tables are computed once at construction and reused for every
// operation. The one-shot functions rebuild both per call — profiling the
// bench driver under -pprof shows that construction dominating the seal
// path's allocations (the AEAD costs more to build than a small post costs
// to encrypt). A long-lived group key should therefore be wrapped in a
// Sealer and the one-shot functions reserved for keys used once.
//
// Sealer is stateless after construction (the underlying cipher.AEAD is
// safe for concurrent use), so one instance can serve all goroutines.
type Sealer struct {
	aead cipher.AEAD
}

// NewSealer precomputes the AEAD for key. The key bytes are captured by the
// cipher's key schedule, not referenced — later mutation of the caller's
// slice does not affect the Sealer.
func NewSealer(key Key) (*Sealer, error) {
	aead, err := newAEAD(key)
	if err != nil {
		return nil, err
	}
	return &Sealer{aead: aead}, nil
}

// Seal is Seal with the precomputed AEAD.
func (s *Sealer) Seal(plaintext, associatedData []byte) ([]byte, error) {
	return s.SealTo(nil, plaintext, associatedData)
}

// SealTo is SealTo with the precomputed AEAD: zero allocations when dst has
// len(plaintext)+Overhead() spare capacity.
func (s *Sealer) SealTo(dst, plaintext, associatedData []byte) ([]byte, error) {
	return sealTo(s.aead, dst, plaintext, associatedData)
}

// Open is Open with the precomputed AEAD.
func (s *Sealer) Open(ciphertext, associatedData []byte) ([]byte, error) {
	return s.OpenTo(nil, ciphertext, associatedData)
}

// OpenTo is OpenTo with the precomputed AEAD: zero allocations when dst has
// enough spare capacity for the plaintext.
func (s *Sealer) OpenTo(dst, ciphertext, associatedData []byte) ([]byte, error) {
	return openTo(s.aead, dst, ciphertext, associatedData)
}
