package bench

import (
	"fmt"

	"godosn/internal/storage/replication"
	"godosn/internal/storage/store"
)

// E16PlacementAblation ablates replica placement policy (random peers vs the
// owner's friends vs dedicated proxies) — the paper's "users, their friends,
// or other peers need to be online for better availability. Also, proxy
// nodes can be used" (Section I) as a design-choice comparison.
func E16PlacementAblation(quick bool) (*Table, error) {
	trials := 400
	peers := 60
	friends := 5
	if quick {
		trials = 100
		peers = 30
	}
	uptimes := []float64{0.3, 0.5, 0.7}
	t := &Table{
		ID:     "E16",
		Title:  "replica placement ablation: availability by policy (k=3)",
		Header: append([]string{"placement"}, uptimeHeader(uptimes)...),
	}
	const k = 3

	run := func(label string, policy replication.PlacementPolicy, proxies int) error {
		row := []string{label}
		for _, up := range uptimes {
			m := replication.NewManager(int64(up*1000) + int64(proxies))
			for i := 0; i < peers; i++ {
				m.AddPeer(fmt.Sprintf("p%d", i))
			}
			var friendNames []string
			for i := 1; i <= friends; i++ {
				friendNames = append(friendNames, fmt.Sprintf("p%d", i))
			}
			m.SetFriends("p0", friendNames)
			for i := 0; i < proxies; i++ {
				m.AddProxy(fmt.Sprintf("proxy-%d", i))
			}
			obj := store.NewObject([]byte("content"))
			if _, err := m.Place("p0", obj, k, policy); err != nil {
				return err
			}
			row = append(row, fmt.Sprintf("%.2f", m.Availability(obj.Ref, up, trials)))
		}
		t.AddRow(row...)
		return nil
	}
	if err := run("random peers", replication.RandomPeers, 0); err != nil {
		return nil, err
	}
	if err := run(fmt.Sprintf("friends (%d available)", friends), replication.FriendPeers, 0); err != nil {
		return nil, err
	}
	if err := run("proxies", replication.ProxyPeers, 3); err != nil {
		return nil, err
	}
	t.AddNote("with uniform churn, friend placement matches random at equal k but is capped by friend count; proxies dominate (always on). Friend placement's real-world advantage — correlated online times and trust — is a social property the simulator does not model")
	return t, nil
}
