package bench

import (
	"fmt"

	"godosn/internal/overlay"
	"godosn/internal/overlay/dht"
	"godosn/internal/overlay/federation"
	"godosn/internal/overlay/gossip"
	"godosn/internal/overlay/hybrid"
	"godosn/internal/overlay/simnet"
	"godosn/internal/overlay/superpeer"
	"godosn/internal/workload"
)

// buildKV constructs one overlay over a fresh simnet.
func buildKV(kind string, n int, seed int64) (overlay.KV, *simnet.Network, []simnet.NodeID, error) {
	net := simnet.New(simnet.DefaultConfig(seed))
	names := make([]simnet.NodeID, n)
	for i := range names {
		names[i] = simnet.NodeID(fmt.Sprintf("node-%d", i))
	}
	var (
		kv  overlay.KV
		err error
	)
	switch kind {
	case "dht":
		kv, err = dht.New(net, names, dht.Config{ReplicationFactor: 2})
	case "gossip":
		kv, err = gossip.New(net, names, gossip.Config{Degree: 4, TTL: 12})
	case "superpeer":
		kv, err = superpeer.New(net, names, superpeer.DefaultConfig())
	case "hybrid":
		// Ring-of-friends social edges for the cache layer.
		friends := make(map[simnet.NodeID][]simnet.NodeID, n)
		for i, name := range names {
			friends[name] = []simnet.NodeID{
				names[(i+1)%n], names[(i+2)%n], names[(i+n-1)%n],
			}
		}
		kv, err = hybrid.New(net, names, friends, dht.Config{ReplicationFactor: 2})
	case "federation":
		kv, err = federation.New(net, names, federation.DefaultConfig())
	default:
		err = fmt.Errorf("bench: unknown overlay %q", kind)
	}
	if err != nil {
		return nil, nil, nil, err
	}
	return kv, net, names, nil
}

// E6OverlayLookup compares lookup hops and messages across the Section II-B
// architectures and network sizes.
func E6OverlayLookup(quick bool) (*Table, error) {
	sizes := []int{64, 256, 1024}
	lookups := 60
	if quick {
		sizes = []int{64, 256}
		lookups = 20
	}
	kinds := []string{"dht", "gossip", "superpeer", "hybrid", "federation"}
	t := &Table{
		ID:     "E6",
		Title:  "overlay architectures (Section II-B): lookup cost",
		Header: []string{"overlay", "n", "avg hops", "avg msgs", "found%"},
	}
	for _, kind := range kinds {
		for _, n := range sizes {
			kv, _, names, err := buildKV(kind, n, int64(n))
			if err != nil {
				return nil, err
			}
			zipf, err := workload.NewZipf(lookups, 1.2, int64(n)+1)
			if err != nil {
				return nil, err
			}
			// Store keys spread over owners.
			for i := 0; i < lookups; i++ {
				owner := names[(i*17)%len(names)]
				if _, err := kv.Store(string(owner), fmt.Sprintf("k%d", i), []byte("v")); err != nil {
					return nil, err
				}
			}
			var hops, msgs, found int
			for i := 0; i < lookups; i++ {
				key := fmt.Sprintf("k%d", zipf.Next())
				origin := names[(i*31+7)%len(names)]
				_, st, err := kv.Lookup(string(origin), key)
				hops += st.Hops
				msgs += st.Messages
				if err == nil {
					found++
				}
			}
			t.AddRow(kv.Name(), fmt.Sprint(n),
				fmt.Sprintf("%.2f", float64(hops)/float64(lookups)),
				fmt.Sprintf("%.1f", float64(msgs)/float64(lookups)),
				fmt.Sprintf("%d", found*100/lookups))
		}
	}
	t.AddNote("paper shapes: structured resolves in O(log n) steps; flooding messages grow with n; super-peer and federation are constant-hop; hybrid amortizes via caching")
	return t, nil
}
