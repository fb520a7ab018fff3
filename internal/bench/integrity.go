package bench

import (
	"fmt"
	"time"

	"godosn/internal/crypto/historytree"
	"godosn/internal/crypto/merkle"
	"godosn/internal/crypto/pubkey"
	"godosn/internal/social/identity"
	"godosn/internal/social/integrity"
	"godosn/internal/social/privacy"
)

// E4IntegrityCost measures the Table-I integrity mechanisms: plain signing,
// hash-chain append/verify, history-tree append/proof, and comment-relation
// operations, across timeline lengths.
func E4IntegrityCost(quick bool) (*Table, error) {
	lengths := []int{100, 1000}
	if quick {
		lengths = []int{50}
	}
	t := &Table{
		ID:     "E4",
		Title:  "data integrity (Table I): operation cost by mechanism",
		Header: []string{"mechanism", "timeline len", "append/op", "verify"},
	}
	reg := identity.NewRegistry()
	alice, err := identity.NewUser("alice")
	if err != nil {
		return nil, err
	}
	if err := reg.Register(alice); err != nil {
		return nil, err
	}
	payload := []byte("a post payload of realistic size for a status update")

	// Owner+content integrity: plain sign/verify.
	sig := alice.Sign(payload)
	start := time.Now()
	const sigIters = 200
	for i := 0; i < sigIters; i++ {
		sig = alice.Sign(payload)
	}
	signPer := time.Since(start) / sigIters
	start = time.Now()
	for i := 0; i < sigIters; i++ {
		if err := reg.VerifySignature("alice", payload, sig); err != nil {
			return nil, err
		}
	}
	verifyPer := time.Since(start) / sigIters
	t.AddRow("signature (owner+content)", "-", signPer.String(), verifyPer.String())

	for _, n := range lengths {
		// Hash-chained timeline.
		tl := integrity.NewTimeline(alice)
		start = time.Now()
		for i := 0; i < n; i++ {
			if _, err := tl.Publish(payload); err != nil {
				return nil, err
			}
		}
		appendPer := time.Since(start) / time.Duration(n)
		entries := tl.Entries()
		start = time.Now()
		if err := integrity.VerifyTimeline(reg, "alice", entries); err != nil {
			return nil, err
		}
		verifyAll := time.Since(start)
		t.AddRow("hash chain (historical)", fmt.Sprint(n), appendPer.String(), verifyAll.String())

		// History tree wall with membership proof verification.
		storageKey, err := pubkey.NewSigningKeyPair()
		if err != nil {
			return nil, err
		}
		server := historytree.NewServer(storageKey)
		wall := integrity.NewWall("alice", server)
		start = time.Now()
		var last *historytree.Commitment
		for i := 0; i < n; i++ {
			if last, err = wall.Append(payload); err != nil {
				return nil, err
			}
		}
		appendPer = time.Since(start) / time.Duration(n)
		// Verify one membership proof at full size (log-time check).
		start = time.Now()
		op, proof, err := server.ProveMembership(wall.ObjectID, last.Version, n/2)
		if err != nil {
			return nil, err
		}
		if err := merkle.VerifyProof(last.Root, merkle.LeafHash(op), proof); err != nil {
			return nil, err
		}
		proofCost := time.Since(start)
		t.AddRow("history tree (fork-consistent)", fmt.Sprint(n), appendPer.String(), proofCost.String()+" (1 proof)")
	}

	// Comment relations (Cachet): create post with comment key, write a
	// comment, and verify the post's author binding, then the comment.
	commenters, err := privacy.NewSymmetricGroup("commenters")
	if err != nil {
		return nil, err
	}
	if err := commenters.Add("alice"); err != nil {
		return nil, err
	}
	start = time.Now()
	const ckIters = 50
	var post *integrity.CommentKeyPost
	for i := 0; i < ckIters; i++ {
		if post, err = integrity.NewCommentKeyPost(alice, payload, commenters); err != nil {
			return nil, err
		}
	}
	postPer := time.Since(start) / ckIters
	comment, err := integrity.WriteComment(alice, post, commenters, []byte("nice"))
	if err != nil {
		return nil, err
	}
	start = time.Now()
	for i := 0; i < ckIters; i++ {
		if err := integrity.VerifyPost(reg, post); err != nil {
			return nil, err
		}
		if err := integrity.VerifyComment(reg, post, comment); err != nil {
			return nil, err
		}
	}
	cvPer := time.Since(start) / ckIters
	t.AddRow("comment keys (relations)", "-", postPer.String()+" (post)", cvPer.String()+" (post + comment)")
	t.AddNote("hash-chain verification is linear in timeline length; history-tree proof checks are logarithmic")
	return t, nil
}

// E5ForkDetection measures how many reader operations pass before an
// equivocating storage provider is caught, as a function of how often
// clients cross-check (gossip) their views.
func E5ForkDetection(quick bool) (*Table, error) {
	gossipEvery := []int{1, 2, 5, 10}
	trials := 20
	if quick {
		gossipEvery = []int{1, 5}
		trials = 5
	}
	t := &Table{
		ID:     "E5",
		Title:  "fork detection: operations until detection vs cross-check rate",
		Header: []string{"cross-check every N ops", "mean ops to detect", "max"},
	}
	for _, every := range gossipEvery {
		totalOps := 0
		maxOps := 0
		for trial := 0; trial < trials; trial++ {
			ops := simulateFork(every, trial)
			totalOps += ops
			if ops > maxOps {
				maxOps = ops
			}
		}
		mean := float64(totalOps) / float64(trials)
		t.AddRow(fmt.Sprint(every), fmt.Sprintf("%.1f", mean), fmt.Sprint(maxOps))
	}
	t.AddNote("paper claim: equivocated clients discover provider misbehaviour when they communicate — detection latency scales with communication frequency")
	return t, nil
}

// simulateFork runs an equivocating provider showing bob and carol divergent
// wall histories; both keep appending/syncing and cross-check every N of
// their operations. Returns the operation count at detection.
func simulateFork(checkEvery, seed int) int {
	storageKey, _ := pubkey.NewSigningKeyPair()
	vk := storageKey.Verification()
	// Two server instances signed by the same key = one equivocating
	// provider maintaining two versions of the same object.
	forBob := historytree.NewServer(storageKey)
	forCarol := historytree.NewServer(storageKey)
	wallBob := integrity.NewWall("victim", forBob)
	wallCarol := integrity.NewWall("victim", forCarol)

	bob := wallBob.NewReader("bob", vk)
	carol := wallCarol.NewReader("carol", vk)

	ops := 0
	for round := 1; ; round++ {
		// The provider serves diverging appends (same count, different
		// content — e.g. it censors one post for carol).
		wallBob.Append([]byte(fmt.Sprintf("post-%d-%d", seed, round)))
		wallCarol.Append([]byte(fmt.Sprintf("censored-%d-%d", seed, round)))
		if err := bob.Sync(); err != nil {
			return ops
		}
		ops++
		if err := carol.Sync(); err != nil {
			return ops
		}
		ops++
		if round%checkEvery == 0 {
			if err := integrity.CrossCheck(bob, carol, vk); err != nil {
				return ops
			}
		}
		if round > 1000 {
			return ops // safety bound; detection should long have happened
		}
	}
}
