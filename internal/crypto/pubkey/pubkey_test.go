package pubkey

import (
	"bytes"
	"crypto/ecdh"
	"testing"
	"testing/quick"
)

func TestEncryptDecryptRoundTrip(t *testing.T) {
	kp, err := NewEncryptionKeyPair()
	if err != nil {
		t.Fatalf("NewEncryptionKeyPair: %v", err)
	}
	for _, pt := range [][]byte{{}, []byte("x"), bytes.Repeat([]byte("m"), 10000)} {
		ct, err := Encrypt(kp.Public(), pt)
		if err != nil {
			t.Fatalf("Encrypt: %v", err)
		}
		got, err := kp.Decrypt(ct)
		if err != nil {
			t.Fatalf("Decrypt: %v", err)
		}
		if !bytes.Equal(got, pt) {
			t.Fatalf("round trip mismatch for %d bytes", len(pt))
		}
	}
}

func TestDecryptWrongKeyFails(t *testing.T) {
	kp1, _ := NewEncryptionKeyPair()
	kp2, _ := NewEncryptionKeyPair()
	ct, err := Encrypt(kp1.Public(), []byte("secret"))
	if err != nil {
		t.Fatalf("Encrypt: %v", err)
	}
	if _, err := kp2.Decrypt(ct); err == nil {
		t.Fatal("decryption with wrong key succeeded")
	}
}

func TestDecryptTamperedFails(t *testing.T) {
	kp, _ := NewEncryptionKeyPair()
	ct, err := Encrypt(kp.Public(), []byte("secret"))
	if err != nil {
		t.Fatalf("Encrypt: %v", err)
	}
	for _, idx := range []int{0, 64, 65, len(ct) - 1} {
		mutated := append([]byte(nil), ct...)
		mutated[idx] ^= 1
		if _, err := kp.Decrypt(mutated); err == nil {
			t.Fatalf("tampered ciphertext at byte %d accepted", idx)
		}
	}
}

func TestDecryptTruncatedFails(t *testing.T) {
	kp, _ := NewEncryptionKeyPair()
	if _, err := kp.Decrypt([]byte{1, 2, 3}); err == nil {
		t.Fatal("truncated ciphertext accepted")
	}
}

func TestEncryptNilKey(t *testing.T) {
	if _, err := Encrypt(nil, []byte("x")); err == nil {
		t.Fatal("Encrypt accepted nil key")
	}
}

func TestPublicKeySerialization(t *testing.T) {
	kp, _ := NewEncryptionKeyPair()
	pub, err := ecdh.P256().NewPublicKey(kp.Public().Bytes())
	if err != nil {
		t.Fatalf("parsing the serialized key: %v", err)
	}
	ct, err := Encrypt(&EncryptionPublicKey{public: pub}, []byte("via parsed key"))
	if err != nil {
		t.Fatalf("Encrypt: %v", err)
	}
	got, err := kp.Decrypt(ct)
	if err != nil {
		t.Fatalf("Decrypt: %v", err)
	}
	if string(got) != "via parsed key" {
		t.Fatal("round trip through serialized key failed")
	}
}

func TestPrivateBytesRoundTrip(t *testing.T) {
	kp, _ := NewEncryptionKeyPair()
	restored, err := EncryptionKeyPairFromPrivateBytes(kp.private.Bytes())
	if err != nil {
		t.Fatalf("EncryptionKeyPairFromPrivateBytes: %v", err)
	}
	ct, _ := Encrypt(kp.Public(), []byte("hello"))
	got, err := restored.Decrypt(ct)
	if err != nil || string(got) != "hello" {
		t.Fatalf("restored key failed to decrypt: %v", err)
	}
}

func TestCiphertextOverhead(t *testing.T) {
	kp, _ := NewEncryptionKeyPair()
	for _, n := range []int{0, 1, 1000} {
		ct, err := Encrypt(kp.Public(), make([]byte, n))
		if err != nil {
			t.Fatalf("Encrypt: %v", err)
		}
		if got := len(ct) - n; got != CiphertextOverhead() {
			t.Fatalf("overhead %d, want %d", got, CiphertextOverhead())
		}
	}
}

func TestSignVerify(t *testing.T) {
	kp, err := NewSigningKeyPair()
	if err != nil {
		t.Fatalf("NewSigningKeyPair: %v", err)
	}
	msg := []byte("signed message")
	sig := kp.Sign(msg)
	if len(sig) != SignatureSize {
		t.Fatalf("signature size %d, want %d", len(sig), SignatureSize)
	}
	if err := Verify(kp.Verification(), msg, sig); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestVerifyRejectsWrongMessage(t *testing.T) {
	kp, _ := NewSigningKeyPair()
	sig := kp.Sign([]byte("original"))
	if err := Verify(kp.Verification(), []byte("forged"), sig); err == nil {
		t.Fatal("verified signature over different message")
	}
}

func TestVerifyRejectsWrongKey(t *testing.T) {
	kp1, _ := NewSigningKeyPair()
	kp2, _ := NewSigningKeyPair()
	sig := kp1.Sign([]byte("msg"))
	if err := Verify(kp2.Verification(), []byte("msg"), sig); err == nil {
		t.Fatal("verified with wrong key")
	}
}

func TestVerifyRejectsBadKeyLength(t *testing.T) {
	if err := Verify(VerificationKey{1, 2}, []byte("m"), make([]byte, SignatureSize)); err == nil {
		t.Fatal("accepted malformed verification key")
	}
}

func TestQuickEncryptRoundTrip(t *testing.T) {
	kp, _ := NewEncryptionKeyPair()
	pub := kp.Public()
	f := func(pt []byte) bool {
		ct, err := Encrypt(pub, pt)
		if err != nil {
			return false
		}
		got, err := kp.Decrypt(ct)
		return err == nil && bytes.Equal(got, pt)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSignVerify(t *testing.T) {
	kp, _ := NewSigningKeyPair()
	vk := kp.Verification()
	f := func(msg []byte) bool {
		return Verify(vk, msg, kp.Sign(msg)) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
