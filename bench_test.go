package godosn

// bench_test.go holds the testing.B benchmarks behind the experiment tables
// of DESIGN.md / EXPERIMENTS.md — one benchmark family per experiment:
//
//	E1  BenchmarkPrivacyEncrypt / BenchmarkPrivacyDecrypt
//	E2  BenchmarkMembershipJoin / BenchmarkMembershipRevoke
//	E3  (sizes: reported by dosnbench -exp e3; no timing dimension)
//	E4  BenchmarkIntegrity*
//	E5  BenchmarkForkDetection
//	E6  BenchmarkLookup*
//	E7  BenchmarkAvailabilityTrial, in internal/bench: it drives the
//	    unexported placement world E7 and E16 share (one draw, one probe per op)
//	E8  BenchmarkSearch*
//	E9  BenchmarkTrustRank
//	E10 BenchmarkHummingbird*
//	E26 BenchmarkScrub (batched vs per-key anti-entropy, 1k/10k/100k keys)
//
// `go test -bench=. -benchmem` prints the machine-specific numbers;
// `go run ./cmd/dosnbench` prints the digested experiment tables.

import (
	"fmt"
	"strings"
	"testing"

	"godosn/internal/crypto/historytree"
	"godosn/internal/crypto/pubkey"
	"godosn/internal/overlay"
	"godosn/internal/overlay/dht"
	"godosn/internal/overlay/federation"
	"godosn/internal/overlay/gossip"
	"godosn/internal/overlay/simnet"
	"godosn/internal/overlay/superpeer"
	"godosn/internal/resilience/scrub"
	"godosn/internal/search/blindsub"
	"godosn/internal/search/trustrank"
	"godosn/internal/search/zkpauth"
	"godosn/internal/social/graph"
	"godosn/internal/social/identity"
	"godosn/internal/social/integrity"
	"godosn/internal/social/privacy"
	"godosn/internal/workload"
)

// --- shared fixtures -------------------------------------------------------

func benchRegistry(b *testing.B, n int) (*identity.Registry, []*identity.User) {
	b.Helper()
	reg := identity.NewRegistry()
	users := make([]*identity.User, n)
	for i := range users {
		u, err := identity.NewUser(fmt.Sprintf("user-%04d", i))
		if err != nil {
			b.Fatal(err)
		}
		if err := reg.Register(u); err != nil {
			b.Fatal(err)
		}
		users[i] = u
	}
	return reg, users
}

func benchGroup(b *testing.B, scheme privacy.Scheme, reg *identity.Registry, users []*identity.User, k int) privacy.Group {
	b.Helper()
	g, err := privacy.NewGroup(scheme, "bench", reg, users[0])
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < k; i++ {
		if err := g.Add(users[i].Name); err != nil {
			b.Fatal(err)
		}
	}
	return g
}

// --- E1: privacy encrypt/decrypt -------------------------------------------

func BenchmarkPrivacyEncrypt(b *testing.B) {
	reg, users := benchRegistry(b, 32)
	msg := make([]byte, 4096)
	for _, scheme := range privacy.Schemes() {
		for _, k := range []int{8, 32} {
			b.Run(fmt.Sprintf("%s/group=%d", scheme, k), func(b *testing.B) {
				g := benchGroup(b, scheme, reg, users, k)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := g.Encrypt(msg); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkPrivacyDecrypt(b *testing.B) {
	reg, users := benchRegistry(b, 32)
	msg := make([]byte, 4096)
	for _, scheme := range privacy.Schemes() {
		b.Run(string(scheme), func(b *testing.B) {
			g := benchGroup(b, scheme, reg, users, 8)
			env, err := g.Encrypt(msg)
			if err != nil {
				b.Fatal(err)
			}
			member := users[0]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := g.Decrypt(member, env); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E2: membership churn ---------------------------------------------------

func BenchmarkMembershipJoin(b *testing.B) {
	reg, users := benchRegistry(b, 600)
	for _, scheme := range privacy.Schemes() {
		b.Run(string(scheme), func(b *testing.B) {
			g := benchGroup(b, scheme, reg, users, 8)
			joined := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if joined == 500 {
					// Member pool exhausted: rebuild untimed and continue.
					b.StopTimer()
					g = benchGroup(b, scheme, reg, users, 8)
					joined = 0
					b.StartTimer()
				}
				if err := g.Add(users[8+joined].Name); err != nil {
					b.Fatal(err)
				}
				joined++
			}
		})
	}
}

func BenchmarkMembershipRevoke(b *testing.B) {
	reg, users := benchRegistry(b, 64)
	const priorPosts = 20
	for _, scheme := range privacy.Schemes() {
		b.Run(fmt.Sprintf("%s/archive=%d", scheme, priorPosts), func(b *testing.B) {
			g := benchGroup(b, scheme, reg, users, 16)
			for p := 0; p < priorPosts; p++ {
				if _, err := g.Encrypt([]byte("post")); err != nil {
					b.Fatal(err)
				}
			}
			victim := users[0].Name
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := g.Remove(victim); err != nil {
					b.Fatal(err)
				}
				// Untimed re-admission restores the group for the next
				// revocation; the re-encrypting schemes re-encrypt the same
				// 20-envelope archive on every timed Remove.
				b.StopTimer()
				if err := g.Add(victim); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}

// --- E4: integrity mechanisms -----------------------------------------------

func BenchmarkIntegritySign(b *testing.B) {
	_, users := benchRegistry(b, 1)
	payload := make([]byte, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		users[0].Sign(payload)
	}
}

func BenchmarkIntegrityTimelineAppend(b *testing.B) {
	_, users := benchRegistry(b, 1)
	tl := integrity.NewTimeline(users[0])
	payload := make([]byte, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tl.Publish(payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIntegrityTimelineVerify(b *testing.B) {
	reg, users := benchRegistry(b, 1)
	tl := integrity.NewTimeline(users[0])
	for i := 0; i < 1000; i++ {
		tl.Publish([]byte("post"))
	}
	entries := tl.Entries()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := integrity.VerifyTimeline(reg, users[0].Name, entries); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIntegrityWallAppend(b *testing.B) {
	key, err := pubkey.NewSigningKeyPair()
	if err != nil {
		b.Fatal(err)
	}
	wall := integrity.NewWall("alice", historytree.NewServer(key))
	payload := make([]byte, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wall.Append(payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIntegrityCommentRoundTrip(b *testing.B) {
	reg, users := benchRegistry(b, 2)
	commenters, err := privacy.NewSymmetricGroup("c")
	if err != nil {
		b.Fatal(err)
	}
	commenters.Add(users[0].Name)
	commenters.Add(users[1].Name)
	post, err := integrity.NewCommentKeyPost(users[0], []byte("post"), commenters)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := integrity.WriteComment(users[1], post, commenters, []byte("hi"))
		if err != nil {
			b.Fatal(err)
		}
		if err := integrity.VerifyComment(reg, post, c); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E5: fork detection ------------------------------------------------------

func BenchmarkForkDetection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		key, err := pubkey.NewSigningKeyPair()
		if err != nil {
			b.Fatal(err)
		}
		vk := key.Verification()
		forX := historytree.NewServer(key)
		forY := historytree.NewServer(key)
		wx := integrity.NewWall("v", forX)
		wy := integrity.NewWall("v", forY)
		wx.Append([]byte("real"))
		wy.Append([]byte("fake"))
		x := wx.NewReader("x", vk)
		y := wy.NewReader("y", vk)
		if err := x.Sync(); err != nil {
			b.Fatal(err)
		}
		if err := y.Sync(); err != nil {
			b.Fatal(err)
		}
		if err := integrity.CrossCheck(x, y, vk); err == nil {
			b.Fatal("fork undetected")
		}
	}
}

// --- E6: overlay lookups -----------------------------------------------------

// lookupBench drives lookups through an overlay. tolerateMisses allows
// overlays with bounded recall (TTL-limited flooding) to report misses as
// data rather than failures; a fully-miss run still fails.
func lookupBench(b *testing.B, kv overlay.KV, names []simnet.NodeID, tolerateMisses bool) {
	b.Helper()
	for i := 0; i < 32; i++ {
		if _, err := kv.Store(string(names[i%len(names)]), fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			b.Fatal(err)
		}
	}
	misses := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		origin := names[(i*31+7)%len(names)]
		if _, _, err := kv.Lookup(string(origin), fmt.Sprintf("k%d", i%32)); err != nil {
			if !tolerateMisses {
				b.Fatal(err)
			}
			misses++
		}
	}
	if tolerateMisses {
		if misses == b.N {
			b.Fatal("every lookup missed")
		}
		b.ReportMetric(float64(misses)/float64(b.N)*100, "miss%")
	}
}

func benchNames(n int) []simnet.NodeID {
	names := make([]simnet.NodeID, n)
	for i := range names {
		names[i] = simnet.NodeID(fmt.Sprintf("node-%d", i))
	}
	return names
}

func BenchmarkLookupDHT(b *testing.B) {
	for _, n := range []int{64, 512} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			net := simnet.New(simnet.Config{Seed: 1})
			names := benchNames(n)
			kv, err := dht.New(net, names, dht.Config{ReplicationFactor: 2})
			if err != nil {
				b.Fatal(err)
			}
			lookupBench(b, kv, names, false)
		})
	}
}

func BenchmarkLookupGossip(b *testing.B) {
	for _, n := range []int{64, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			net := simnet.New(simnet.Config{Seed: 1})
			names := benchNames(n)
			kv, err := gossip.New(net, names, gossip.Config{Degree: 4, TTL: 12})
			if err != nil {
				b.Fatal(err)
			}
			lookupBench(b, kv, names, true)
		})
	}
}

func BenchmarkLookupSuperPeer(b *testing.B) {
	net := simnet.New(simnet.Config{Seed: 1})
	names := benchNames(256)
	kv, err := superpeer.New(net, names, superpeer.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	lookupBench(b, kv, names, false)
}

func BenchmarkLookupFederation(b *testing.B) {
	net := simnet.New(simnet.Config{Seed: 1})
	names := benchNames(256)
	kv, err := federation.New(net, names, federation.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	lookupBench(b, kv, names, false)
}

// --- E8/E9: search ------------------------------------------------------------

func BenchmarkSearchZKPRequest(b *testing.B) {
	cred, err := zkpauth.NewCredential()
	if err != nil {
		b.Fatal(err)
	}
	owner := zkpauth.NewOwner()
	owner.Publish("r", "v")
	owner.Authorize(cred.Statement())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req, err := cred.NewRequest("r")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := owner.Serve(req); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTrustRank(b *testing.B) {
	wg, err := workload.WattsStrogatz(200, 6, 0.2, 1)
	if err != nil {
		b.Fatal(err)
	}
	trust := workload.NewTrust(wg, 0.4, 1)
	users := workload.UserNames(200)
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
	r := trustrank.New(g, trustrank.DefaultConfig())
	candidates := g.FriendsOfFriends(users[0])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Rank(users[0], candidates)
	}
}

// --- E10: Hummingbird -----------------------------------------------------------

func BenchmarkHummingbirdSubscribe(b *testing.B) {
	pub, err := blindsub.NewPublisher(1024)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := blindsub.Subscribe(pub, fmt.Sprintf("#tag-%d", i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHummingbirdOPRFSubscribe(b *testing.B) {
	owner, err := blindsub.NewOPRFKeyOwner()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := blindsub.SubscribeOPRF(owner, fmt.Sprintf("#tag-%d", i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHummingbirdFilter(b *testing.B) {
	pub, err := blindsub.NewPublisher(1024)
	if err != nil {
		b.Fatal(err)
	}
	tweets := make([]*blindsub.Tweet, 200)
	for i := range tweets {
		tw, err := pub.Publish(fmt.Sprintf("#tag-%d", i%10), []byte("content"))
		if err != nil {
			b.Fatal(err)
		}
		tweets[i] = tw
	}
	sub, err := blindsub.Subscribe(pub, "#tag-3")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, tw := range tweets {
			if sub.Matches(tw) {
				if _, err := sub.Open(tw); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// benchScrub measures one anti-entropy pass over a DHT keyspace with 10%
// of keys carrying one silently corrupted copy, at either maintenance-RPC
// granularity. Corruption is re-injected off the clock before every pass,
// so each iteration scrubs (and repairs) the same damage; allocs/op counts
// the pass alone. The custom msgs/key metric is the number E26 pins:
// batched must come in >= 3x under per-key.
func benchScrub(b *testing.B, keys int, perKey bool) {
	const peers = 40
	net := simnet.New(simnet.DefaultConfig(2602))
	names := make([]simnet.NodeID, peers)
	for i := range names {
		names[i] = simnet.NodeID(fmt.Sprintf("node-%d", i))
	}
	d, err := dht.New(net, names, dht.Config{ReplicationFactor: 3})
	if err != nil {
		b.Fatal(err)
	}
	client := string(names[0])
	allKeys := make([]string, keys)
	for i := range allKeys {
		key := fmt.Sprintf("post-%06d", i)
		allKeys[i] = key
		if _, err := d.Store(client, key, scrub.Seal(key, []byte(fmt.Sprintf("body-%06d", i)))); err != nil {
			b.Fatal(err)
		}
	}
	// Group formation from local placement state, as the sweep scheduler
	// plans chunks — network-free, so the timed region is maintenance RPCs.
	var groups []scrub.Group
	index := make(map[string]int)
	for _, key := range allKeys {
		plan := d.PlanReplicas(key)
		sig := strings.Join(plan, "\x00")
		gi, ok := index[sig]
		if !ok {
			gi = len(groups)
			index[sig] = gi
			groups = append(groups, scrub.Group{Replicas: plan})
		}
		groups[gi].Keys = append(groups[gi].Keys, key)
	}
	cfg := scrub.DefaultConfig(client)
	cfg.PerKey = perKey
	scr := scrub.New(d, cfg)

	totalMsgs := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j := 0; j < keys; j += 10 {
			key := allKeys[j]
			for _, name := range d.PlanReplicas(key) {
				if d.CorruptStored(name, key, func(v []byte) []byte {
					v[len(v)/2] ^= 0x40
					return v
				}) {
					break
				}
			}
		}
		b.StartTimer()
		rep, err := scr.ScrubResolved(groups)
		if err != nil {
			b.Fatal(err)
		}
		if rep.CorruptCopies == 0 || rep.RepairedWrites != rep.CorruptCopies {
			b.Fatalf("pass found %d corrupt, repaired %d — injection or repair broken", rep.CorruptCopies, rep.RepairedWrites)
		}
		totalMsgs += rep.Stats.Messages
	}
	b.ReportMetric(float64(totalMsgs)/float64(b.N)/float64(keys), "msgs/key")
}

func BenchmarkScrub(b *testing.B) {
	for _, size := range []int{1_000, 10_000, 100_000} {
		if size > 10_000 && testing.Short() {
			continue
		}
		for _, arm := range []struct {
			name   string
			perKey bool
		}{{"per-key", true}, {"batched", false}} {
			b.Run(fmt.Sprintf("%s/keys=%d", arm.name, size), func(b *testing.B) {
				benchScrub(b, size, arm.perKey)
			})
		}
	}
}
