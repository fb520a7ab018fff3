package core

import (
	"encoding/json"
	"fmt"
	"time"

	"godosn/internal/overlay"
	"godosn/internal/resilience/scrub"
	"godosn/internal/social/integrity"
)

// DirectMessage is an end-to-end protected private message: encrypted to
// the recipient through the key registry and carrying the full Section-IV
// integrity envelope (signed owner, content, recipient binding, validity
// window).
type DirectMessage struct {
	// From and To identify the endpoints.
	From, To string
	// Seq is the sender-side sequence number for this recipient.
	Seq uint64
	// Body is the decrypted content (only set after a successful open).
	Body []byte
	// SentAt is the message's issue time.
	SentAt time.Time
}

// dmPlain is what gets encrypted: the signed message in serialized form.
type dmPlain struct {
	Content   []byte    `json:"content"`
	IssuedAt  time.Time `json:"issued_at"`
	ExpiresAt time.Time `json:"expires_at"`
	Signature []byte    `json:"signature"`
}

// dmPrefix opens every direct-message key.
const dmPrefix = "dm/"

func dmKey(from, to string, seq uint64) string {
	return fmt.Sprintf(dmPrefix+"%s/%s/%d", to, from, seq)
}

// SendMessage sends an end-to-end encrypted, signed direct message through
// the overlay. validity bounds the message's acceptance window (historical
// integrity); use 0 for the default of 30 days.
func (nd *Node) SendMessage(to string, body []byte, validity time.Duration) (overlay.OpStats, error) {
	if _, err := nd.net.Node(to); err != nil {
		return overlay.OpStats{}, err
	}
	if validity <= 0 {
		validity = 30 * 24 * time.Hour
	}
	seq := nd.dmSeq[to]
	nd.dmSeq[to]++
	issued := time.Unix(int64(seq), 0).UTC() // deterministic simulated clock
	signed := integrity.NewSignedMessage(nd.User, to, body, issued, validity)
	plain, err := json.Marshal(dmPlain{
		Content:   signed.Content,
		IssuedAt:  signed.IssuedAt,
		ExpiresAt: signed.ExpiresAt,
		Signature: signed.Signature,
	})
	if err != nil {
		return overlay.OpStats{}, fmt.Errorf("core: encoding message: %w", err)
	}
	ct, err := nd.net.Registry.EncryptTo(to, plain)
	if err != nil {
		return overlay.OpStats{}, fmt.Errorf("core: encrypting message: %w", err)
	}
	// The key names sender, recipient and seq; the sealed payload is the
	// recipient ciphertext alone.
	key := dmKey(nd.Name(), to, seq)
	st, err := nd.net.KV.Store(nd.Name(), key, scrub.Seal(key, ct))
	if err != nil {
		return st, fmt.Errorf("core: storing message: %w", err)
	}
	return st, nil
}

// ReceiveMessage fetches, decrypts and integrity-checks one direct message
// at the given simulated read time (zero time = accept any unexpired).
func (nd *Node) ReceiveMessage(from string, seq uint64, now time.Time) (*DirectMessage, overlay.OpStats, error) {
	key := dmKey(from, nd.Name(), seq)
	record, st, err := nd.net.KV.Lookup(nd.Name(), key)
	if err != nil {
		return nil, st, fmt.Errorf("core: fetching message: %w", err)
	}
	ct, err := nd.net.openRecord(key, record)
	if err != nil {
		return nil, st, fmt.Errorf("core: opening message: %w", err)
	}
	plain, err := nd.User.Decrypt(ct)
	if err != nil {
		return nil, st, fmt.Errorf("core: decrypting message: %w", err)
	}
	var dm dmPlain
	if err := json.Unmarshal(plain, &dm); err != nil {
		return nil, st, fmt.Errorf("core: decoding message: %w", err)
	}
	signed := &integrity.SignedMessage{
		From:      from,
		To:        nd.Name(),
		Content:   dm.Content,
		IssuedAt:  dm.IssuedAt,
		ExpiresAt: dm.ExpiresAt,
		Signature: dm.Signature,
	}
	if now.IsZero() {
		now = dm.IssuedAt
	}
	if err := integrity.VerifyMessage(nd.net.Registry, signed, nd.Name(), now); err != nil {
		return nil, st, err
	}
	return &DirectMessage{
		From:   from,
		To:     nd.Name(),
		Seq:    seq,
		Body:   signed.Content,
		SentAt: dm.IssuedAt,
	}, st, nil
}
