package bench

import (
	"fmt"

	"godosn/internal/centralized"
	"godosn/internal/overlay/cuckoo"
	"godosn/internal/overlay/dht"
	"godosn/internal/overlay/simnet"
	"godosn/internal/search/trustrank"
	"godosn/internal/social/graph"
	"godosn/internal/workload"
)

// E11ProviderKnowledge compares what the service provider (or a DOSN
// replica) learns about a user under each architecture/mitigation — the
// paper's core motivation quantified ("the main source of the security
// problems is the central service provider that observes users' data and
// relationships").
func E11ProviderKnowledge(quick bool) (*Table, error) {
	posts := 20
	if quick {
		posts = 5
	}
	t := &Table{
		ID:     "E11",
		Title:  "provider view of one user (20 posts, 1 deletion, 3 friends)",
		Header: []string{"architecture", "readable items", "opaque items", "retained deletes readable", "social edges"},
	}

	seedContent := func(p *centralized.Provider, mode string) error {
		switch mode {
		case "plain":
			p.Register("alice")
			for i := 0; i < posts; i++ {
				if err := p.UploadPlain("alice", fmt.Sprintf("p%d", i), fmt.Sprintf("plaintext post %d", i)); err != nil {
					return err
				}
			}
		case "vpsn":
			p.Register("alice")
			for i := 0; i < posts; i++ {
				if err := p.UploadSubstituted("alice", fmt.Sprintf("p%d", i), "innocuous decoy"); err != nil {
					return err
				}
			}
		case "flybynight":
			alice, err := centralized.NewClient(p, "alice")
			if err != nil {
				return err
			}
			for i := 0; i < posts; i++ {
				if err := alice.Post(fmt.Sprintf("p%d", i), fmt.Sprintf("encrypted post %d", i)); err != nil {
					return err
				}
			}
		}
		for i := 0; i < 3; i++ {
			friend := fmt.Sprintf("friend%d", i)
			p.Register(friend)
			if err := p.Connect("alice", friend); err != nil {
				return err
			}
		}
		p.Delete("alice", "p0")
		return nil
	}

	rows := []struct {
		label string
		mode  string
	}{
		{"centralized (plain)", "plain"},
		{"centralized + VPSN substitution", "vpsn"},
		{"centralized + flyByNight PRE", "flybynight"},
	}
	for _, r := range rows {
		p := centralized.NewProvider(false) // dishonest retention
		if err := seedContent(p, r.mode); err != nil {
			return nil, err
		}
		k := p.KnowledgeOf("alice")
		readable := k.PlaintextItems - k.FakeItems // truly-real readable items
		retainedReadable := 0
		if r.mode == "plain" && k.RetainedDeleted > 0 {
			retainedReadable = k.RetainedDeleted
		}
		note := fmt.Sprint(readable)
		if k.FakeItems > 0 {
			note = fmt.Sprintf("%d real (+%d decoys it can't distinguish)", readable, k.FakeItems)
		}
		t.AddRow(r.label, note, fmt.Sprint(k.OpaqueItems), fmt.Sprint(retainedReadable), fmt.Sprint(k.SocialEdges))
	}
	// DOSN row: any single replica holds only envelopes; it sees ciphertext
	// and whatever topology its role exposes (no global social graph).
	t.AddRow("DOSN replica (this framework)", "0", fmt.Sprint(posts), "0", "local links only")
	t.AddNote("paper: decentralization removes the global view but replicas remain 'another kind of service provider in a small scale' — they hold ciphertext, so their view is the opaque-items column")
	return t, nil
}

// E12CuckooAblation ablates the Cuckoo hybrid control overlay against pure
// DHT on a Zipf workload, reproducing the Section II-B claim that
// "unstructured lookup helps with the fast discovery of popular items".
func E12CuckooAblation(quick bool) (*Table, error) {
	n := 256
	lookups := 400
	if quick {
		n = 64
		lookups = 100
	}
	t := &Table{
		ID:     "E12",
		Title:  "Cuckoo hybrid control vs pure DHT on a Zipf workload (ablation)",
		Header: []string{"overlay", "threshold", "avg msgs/lookup", "p50 hops (popular key)"},
	}
	keys := 40

	run := func(label string, threshold int) error {
		net := simnet.New(simnet.DefaultConfig(9))
		names := make([]simnet.NodeID, n)
		for i := range names {
			names[i] = simnet.NodeID(fmt.Sprintf("node-%d", i))
		}
		var (
			store  func(origin, key string, value []byte) error
			lookup func(origin, key string) (int, int, error) // hops, msgs
		)
		if threshold < 0 {
			d, err := dht.New(net, names, dht.Config{ReplicationFactor: 2})
			if err != nil {
				return err
			}
			store = func(o, k string, v []byte) error { _, err := d.Store(o, k, v); return err }
			lookup = func(o, k string) (int, int, error) {
				_, st, err := d.Lookup(o, k)
				return st.Hops, st.Messages, err
			}
		} else {
			cfg := cuckoo.DefaultConfig()
			cfg.PopularityThreshold = threshold
			c, err := cuckoo.New(net, names, cfg)
			if err != nil {
				return err
			}
			store = func(o, k string, v []byte) error { _, err := c.Store(o, k, v); return err }
			lookup = func(o, k string) (int, int, error) {
				_, st, err := c.Lookup(o, k)
				return st.Hops, st.Messages, err
			}
		}
		for i := 0; i < keys; i++ {
			if err := store(string(names[i%n]), fmt.Sprintf("k%d", i), []byte("v")); err != nil {
				return err
			}
		}
		zipf, err := workload.NewZipf(keys, 1.5, 77)
		if err != nil {
			return err
		}
		totalMsgs := 0
		var popularHops []int
		for i := 0; i < lookups; i++ {
			keyIdx := zipf.Next()
			origin := names[(i*13+5)%n]
			hops, msgs, err := lookup(string(origin), fmt.Sprintf("k%d", keyIdx))
			if err != nil {
				continue
			}
			totalMsgs += msgs
			if keyIdx == 0 { // the hottest key
				popularHops = append(popularHops, hops)
			}
		}
		p50 := 0
		if len(popularHops) > 0 {
			sortInts(popularHops)
			p50 = popularHops[len(popularHops)/2]
		}
		thLabel := "-"
		if threshold >= 0 {
			thLabel = fmt.Sprint(threshold)
		}
		t.AddRow(label, thLabel, fmt.Sprintf("%.2f", float64(totalMsgs)/float64(lookups)), fmt.Sprint(p50))
		return nil
	}

	if err := run("structured-dht", -1); err != nil {
		return nil, err
	}
	for _, th := range []int{2, 5, 10} {
		if err := run("hybrid-control-cuckoo", th); err != nil {
			return nil, err
		}
	}
	t.AddNote("paper claim: unstructured discovery makes popular items fast; lower thresholds push sooner, driving the hot key's median hops to 0-1")
	return t, nil
}

func sortInts(s []int) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// E13SybilResistance measures the Sybil attack of Section VI against search
// ranking: an attacker creates pseudonymous identities to inflate a spam
// target's popularity. Popularity-based ranking falls for it; trust-chain
// ranking (V-D) resists, because sybil edges never connect to the honest
// searcher's trust network.
func E13SybilResistance(quick bool) (*Table, error) {
	trials := 30
	honest := 60
	if quick {
		trials = 8
		honest = 30
	}
	sybilCounts := []int{0, 10, 50, 200}
	t := &Table{
		ID:     "E13",
		Title:  "Sybil attack on search ranking: spam-in-top-1 rate",
		Header: []string{"sybils", "popularity-only ranking", "trust-chain ranking"},
	}
	for _, sybils := range sybilCounts {
		popSpam, trustSpam := 0, 0
		for trial := 0; trial < trials; trial++ {
			pTop, tTop := sybilTrial(honest, sybils, int64(trial)+1)
			if pTop {
				popSpam++
			}
			if tTop {
				trustSpam++
			}
		}
		t.AddRow(fmt.Sprint(sybils),
			fmt.Sprintf("%d%%", popSpam*100/trials),
			fmt.Sprintf("%d%%", trustSpam*100/trials))
	}
	t.AddNote("paper (VI): 'the reputation system of a network will be subverted by attacker who makes (usually multiple) pseudonymous entities' — chained trust from the searcher is the defense the V-D model provides")
	return t, nil
}

// sybilTrial returns whether the spam target topped (a) popularity-only and
// (b) trust-chain ranking.
func sybilTrial(honest, sybils int, seed int64) (popTop, trustTop bool) {
	wg, err := workload.WattsStrogatz(honest, 4, 0.2, seed)
	if err != nil {
		return false, false
	}
	trust := workload.NewTrust(wg, 0.5, seed)
	users := workload.UserNames(honest)
	g := graph.New()
	for _, u := range users {
		g.AddUser(u)
	}
	for u := 0; u < wg.N; u++ {
		for _, v := range wg.Adj[u] {
			if u < v {
				g.Befriend(users[u], users[v], trust.Trust(u, v))
			}
		}
	}
	// The spam target joins with one low-trust edge into the honest graph
	// (someone clicked "accept" on a stranger).
	g.AddUser("spam-target")
	g.Befriend(users[honest-1], "spam-target", 0.1)
	// Sybil ring: mutual max-trust edges inflating the target's popularity.
	for i := 0; i < sybils; i++ {
		s := fmt.Sprintf("sybil-%04d", i)
		g.AddUser(s)
		g.Befriend(s, "spam-target", 1.0)
	}

	searcher := users[0]
	candidates := append(g.FriendsOfFriends(searcher), "spam-target")

	// Popularity = degree (follower count), which sybils inflate directly.
	popRanker := trustrank.New(g, trustrank.Config{TrustWeight: 0.0001, PopularityWeight: 1, MaxChainLength: 8})
	trustRanker := trustrank.New(g, trustrank.Config{TrustWeight: 2, PopularityWeight: 0.5, MaxChainLength: 5})
	for _, c := range candidates {
		pop := float64(g.Degree(c))
		popRanker.SetPopularity(c, pop)
		trustRanker.SetPopularity(c, pop)
	}
	pRank := popRanker.Rank(searcher, candidates)
	tRank := trustRanker.Rank(searcher, candidates)
	return len(pRank) > 0 && pRank[0].User == "spam-target",
		len(tRank) > 0 && tRank[0].User == "spam-target"
}
