package bench

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"godosn/internal/search/blindsub"
	"godosn/internal/search/friendnet"
	"godosn/internal/search/handles"
	"godosn/internal/search/proxy"
	"godosn/internal/search/securesearch"
	"godosn/internal/search/trustrank"
	"godosn/internal/search/zkpauth"
	"godosn/internal/social/graph"
	"godosn/internal/workload"
)

// E8SearchSchemes measures the cost of each Section-V search mechanism and
// records the leakage each one exhibits (who learns the searcher identity).
func E8SearchSchemes(quick bool) (*Table, error) {
	queries := 50
	if quick {
		queries = 10
	}
	t := &Table{
		ID:     "E8",
		Title:  "secure social search (Table I): cost and leakage by mechanism",
		Header: []string{"mechanism", "avg cost/query", "searcher visible to", "content visible to"},
	}

	// Baseline: direct directory query (no protection).
	dir := proxy.NewDirectory()
	dir.Add("carol", "carol@node")
	start := time.Now()
	for i := 0; i < queries; i++ {
		if _, err := dir.Query("alice", "carol"); err != nil {
			return nil, err
		}
	}
	t.AddRow("none (direct query)", per(start, queries), "directory", "directory")

	// Proxy aliases.
	p := proxy.NewServer("p1")
	p.Register("alice")
	start = time.Now()
	for i := 0; i < queries; i++ {
		if _, err := p.Search("alice", "carol", dir); err != nil {
			return nil, err
		}
	}
	t.AddRow("proxy aliases (V-B)", per(start, queries), "proxy only (collusion risk)", "directory")

	// Friend routing over a chain graph.
	g := graph.New()
	for _, u := range []string{"alice", "f1", "f2", "carol"} {
		g.AddUser(u)
	}
	g.Befriend("alice", "f1", 0.9)
	g.Befriend("f1", "f2", 0.9)
	g.Befriend("f2", "carol", 0.9)
	fn := friendnet.New(g)
	fn.Publish("carol", "profile", "carol-data")
	start = time.Now()
	for i := 0; i < queries; i++ {
		if _, err := fn.Query("alice", "carol", "profile", 0); err != nil {
			return nil, err
		}
	}
	t.AddRow("trusted friend routing (V-B)", per(start, queries), "first relay only", "target")

	// ZKP pseudonymous access.
	owner := zkpauth.NewOwner()
	owner.Publish("carol:profile", "carol-data")
	cred, err := zkpauth.NewCredential()
	if err != nil {
		return nil, err
	}
	owner.Authorize(cred.Statement())
	start = time.Now()
	for i := 0; i < queries; i++ {
		req, err := cred.NewRequest("carol:profile")
		if err != nil {
			return nil, err
		}
		if _, err := owner.Serve(req); err != nil {
			return nil, err
		}
	}
	t.AddRow("pseudonym + ZKP (V-B)", per(start, queries), "nobody (credential image only)", "owner-authorized")

	// Resource handles.
	ix := handles.NewIndex()
	ix.Publish("carol:profile", "carol-data", func(r string) bool { return r == "alice" })
	start = time.Now()
	for i := 0; i < queries; i++ {
		ix.Search("carol")
		if _, err := ix.Dereference("alice", "carol:profile"); err != nil {
			return nil, err
		}
	}
	t.AddRow("resource handles (V-C)", per(start, queries), "owner (at dereference)", "owner-approved only")

	// Blind-signature content privacy.
	pub, err := blindsub.NewPublisher(1024)
	if err != nil {
		return nil, err
	}
	tweet, err := pub.Publish("#topic", []byte("content"))
	if err != nil {
		return nil, err
	}
	sub, err := blindsub.Subscribe(pub, "#topic")
	if err != nil {
		return nil, err
	}
	start = time.Now()
	for i := 0; i < queries; i++ {
		if _, err := sub.Open(tweet); err != nil {
			return nil, err
		}
	}
	t.AddRow("blind-sig subscription (V-A)", per(start, queries), "publisher (blinded)", "subscribers only")

	// The composed flow over the same chain graph: handle search, trust
	// ranking, friend routing and the ZKP dereference through the one
	// Engine. Its leakage cells are the audit the Engine returned.
	eng := securesearch.New(g)
	eng.Publish("carol", "profile", "carol-data")
	if err := eng.Authorize("carol", cred); err != nil {
		return nil, err
	}
	var out *securesearch.Outcome
	start = time.Now()
	for i := 0; i < queries; i++ {
		if out, err = eng.SearchAndFetch("alice", "profile", cred, 0); err != nil {
			return nil, err
		}
	}
	searcherSeenBy, contentSeenBy := composedLeakage(out, "alice")
	t.AddRow("composed flow (V-B+V-C+V-D)", per(start, queries), searcherSeenBy, contentSeenBy)
	t.AddNote("leakage columns record which party learns the searcher's identity / the content, per the mechanism's design")
	return t, nil
}

// composedLeakage renders E8's two leakage cells from a composed search's
// audit: every node that saw the request arrive from the searcher, with its
// place on the route, and where the content went — it never leaves the
// route's end point except to the identity the dereference ran under.
func composedLeakage(out *securesearch.Outcome, searcher string) (searcherSeenBy, contentSeenBy string) {
	place := make(map[string]string, len(out.RouteObservations))
	for i, obs := range out.RouteObservations {
		switch {
		case obs.ForwardedTo == "":
			place[obs.Node] = "owner"
		case i == 0:
			place[obs.Node] = "first relay"
		default:
			place[obs.Node] = fmt.Sprintf("relay %d", i+1)
		}
	}
	seen := make([]string, 0, len(out.SearcherVisibleTo))
	for _, n := range out.SearcherVisibleTo {
		seen = append(seen, fmt.Sprintf("%s (%s)", n, place[n]))
	}
	reader := "a pseudonym"
	if out.Pseudonym == searcher {
		reader = "the searcher by name"
	}
	owner := out.RouteObservations[len(out.RouteObservations)-1].Node
	return strings.Join(seen, ", "), fmt.Sprintf("%s, served to %s", owner, reader)
}

func per(start time.Time, n int) string {
	return (time.Since(start) / time.Duration(n)).String()
}

// E9TrustRanking evaluates the trust-chain ranking (V-D): how often the
// ranker's top choice matches the ground-truth best candidate, as trust
// noise increases.
func E9TrustRanking(quick bool) (*Table, error) {
	trials := 60
	n := 80
	if quick {
		trials = 15
		n = 40
	}
	noiseLevels := []float64{0, 0.1, 0.3, 0.6}
	t := &Table{
		ID:     "E9",
		Title:  "trust-chain ranking quality vs trust noise (WS graph)",
		Header: []string{"noise", "top-1 agreement", "mean rank of true best"},
	}
	for _, noise := range noiseLevels {
		agree := 0
		rankSum := 0
		for trial := 0; trial < trials; trial++ {
			a, r := rankingTrial(n, noise, int64(trial)+1)
			if a {
				agree++
			}
			rankSum += r
		}
		t.AddRow(fmt.Sprintf("%.1f", noise),
			fmt.Sprintf("%d%%", agree*100/trials),
			fmt.Sprintf("%.1f", float64(rankSum)/float64(trials)))
	}
	t.AddNote("ground truth = ranking by true chain trust; the ranker sees noisy per-edge trust — agreement degrades smoothly with noise")
	return t, nil
}

// rankingTrial builds a graph, computes ground truth with clean trust,
// perturbs trust by the noise level, and asks the ranker.
func rankingTrial(n int, noise float64, seed int64) (topAgree bool, trueBestRank int) {
	wg, err := workload.WattsStrogatz(n, 4, 0.2, seed)
	if err != nil {
		return false, n
	}
	trust := workload.NewTrust(wg, 0.4, seed)
	users := workload.UserNames(n)
	clean := graph.New()
	noisy := graph.New()
	for _, u := range users {
		clean.AddUser(u)
		noisy.AddUser(u)
	}
	rng := rand.New(rand.NewSource(seed * 31))
	for u := 0; u < wg.N; u++ {
		for _, v := range wg.Adj[u] {
			if u >= v {
				continue
			}
			tr := trust.Trust(u, v)
			clean.Befriend(users[u], users[v], tr)
			perturbed := tr + (rng.Float64()*2-1)*noise
			if perturbed < 0.05 {
				perturbed = 0.05
			}
			if perturbed > 1 {
				perturbed = 1
			}
			noisy.Befriend(users[u], users[v], perturbed)
		}
	}
	searcher := users[0]
	candidates := clean.FriendsOfFriends(searcher)
	if len(candidates) < 2 {
		return true, 1
	}
	cfg := trustrank.Config{TrustWeight: 1, PopularityWeight: 0, MaxChainLength: 4}
	truth := trustrank.New(clean, cfg).Rank(searcher, candidates)
	got := trustrank.New(noisy, cfg).Rank(searcher, candidates)
	trueBest := truth[0].User
	for i, c := range got {
		if c.User == trueBest {
			return i == 0, i + 1
		}
	}
	return false, len(got)
}

// E10Hummingbird measures the Hummingbird flows: blind-signature subscribe
// cost, OPRF dissemination cost, and stream-filtering throughput.
func E10Hummingbird(quick bool) (*Table, error) {
	tweets := 500
	subs := []int{1, 16, 64}
	if quick {
		tweets = 100
		subs = []int{1, 8}
	}
	t := &Table{
		ID:     "E10",
		Title:  "Hummingbird flows: subscription and filtering cost",
		Header: []string{"flow", "param", "cost"},
	}
	pub, err := blindsub.NewPublisher(1024)
	if err != nil {
		return nil, err
	}
	// Blind-signature subscription cost.
	for _, k := range subs {
		start := time.Now()
		for i := 0; i < k; i++ {
			if _, err := blindsub.Subscribe(pub, fmt.Sprintf("#tag-%d", i)); err != nil {
				return nil, err
			}
		}
		t.AddRow("blind-sig subscribe", fmt.Sprintf("%d subs", k), per(start, k)+"/sub")
	}
	// OPRF dissemination cost.
	owner, err := blindsub.NewOPRFKeyOwner()
	if err != nil {
		return nil, err
	}
	for _, k := range subs {
		start := time.Now()
		for i := 0; i < k; i++ {
			if _, err := blindsub.SubscribeOPRF(owner, fmt.Sprintf("#tag-%d", i)); err != nil {
				return nil, err
			}
		}
		t.AddRow("OPRF dissemination", fmt.Sprintf("%d subs", k), per(start, k)+"/sub")
	}
	// Stream filtering: publish N tweets across 10 hashtags, filter with
	// one subscription.
	stream := make([]*blindsub.Tweet, 0, tweets)
	for i := 0; i < tweets; i++ {
		tw, err := pub.Publish(fmt.Sprintf("#tag-%d", i%10), []byte(fmt.Sprintf("tweet %d", i)))
		if err != nil {
			return nil, err
		}
		stream = append(stream, tw)
	}
	sub, err := blindsub.Subscribe(pub, "#tag-3")
	if err != nil {
		return nil, err
	}
	start := time.Now()
	matched := 0
	for _, tw := range stream {
		if sub.Matches(tw) {
			if _, err := sub.Open(tw); err != nil {
				return nil, err
			}
			matched++
		}
	}
	t.AddRow("stream filter+decrypt", fmt.Sprintf("%d tweets, %d matched", tweets, matched), per(start, tweets)+"/tweet")
	t.AddNote("matching uses constant-time tag comparison; neither hashtags nor content are visible to the store")
	return t, nil
}
