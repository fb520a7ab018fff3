package bench

import (
	"fmt"
	"time"

	"godosn/internal/crypto/pad"
)

// E14ACLAccess measures Frientegrity's claim (Section III-F) that PAD-backed
// ACLs make membership access "possible ... in logarithmic time", against a
// linear signed-list baseline: per-lookup proof generation + verification
// cost and proof size as the ACL grows.
func E14ACLAccess(quick bool) (*Table, error) {
	sizes := []int{64, 512, 4096}
	iters := 200
	if quick {
		sizes = []int{64, 512}
		iters = 50
	}
	t := &Table{
		ID:     "E14",
		Title:  "ACL membership access: PAD (log) vs signed list scan (linear)",
		Header: []string{"ACL size", "PAD prove+verify", "PAD proof steps", "list scan"},
	}
	for _, n := range sizes {
		d := pad.New()
		for i := 0; i < n; i++ {
			d = d.Insert([]byte(fmt.Sprintf("member-%06d", i)), []byte("rw"))
		}
		root := d.Root()
		target := []byte(fmt.Sprintf("member-%06d", n/2))

		start := time.Now()
		var steps int
		for i := 0; i < iters; i++ {
			proof := d.Prove(target)
			if err := pad.VerifyProof(root, target, proof); err != nil {
				return nil, err
			}
			steps = len(proof.Steps)
		}
		padCost := time.Since(start) / time.Duration(iters)

		// Baseline: scan a plain membership list (what a non-PAD ACL does).
		list := make([]string, n)
		for i := range list {
			list[i] = fmt.Sprintf("member-%06d", i)
		}
		start = time.Now()
		found := 0
		for i := 0; i < iters; i++ {
			for _, m := range list {
				if m == string(target) {
					found++
					break
				}
			}
		}
		scanCost := time.Since(start) / time.Duration(iters)
		if found != iters {
			return nil, fmt.Errorf("bench: list scan lost the member")
		}
		t.AddRow(fmt.Sprint(n), padCost.String(), fmt.Sprint(steps), scanCost.String())
	}
	t.AddNote("PAD proof steps grow ~log n and each answer is verifiable against a signed root by an untrusted replica; the list scan is linear and unverifiable")
	return t, nil
}
