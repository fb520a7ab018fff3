package bench

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"godosn/internal/overlay/simnet"
	"godosn/internal/resilience/scrub"
	"godosn/internal/stack"
)

// E7Availability sweeps replication factor against node uptime and reports
// retrieval success — the paper's core availability claim for DOSNs.
func E7Availability(quick bool) (*Table, error) {
	replicas := []int{1, 2, 3, 5}
	uptimes := []float64{0.3, 0.5, 0.7, 0.9}
	trials, peers := 400, 60
	if quick {
		replicas = []int{1, 3}
		uptimes = []float64{0.3, 0.7}
		trials, peers = 100, 30
	}
	t := &Table{
		ID:     "E7",
		Title:  "availability vs replication factor and uptime (random placement)",
		Header: append([]string{"replicas"}, uptimeHeader(uptimes)...),
	}
	w, err := newAvailWorld(7, peers, 1)
	if err != nil {
		return nil, err
	}
	random, err := w.place(w.others, replicas[len(replicas)-1])
	if err != nil {
		return nil, err
	}
	// Proxy placement row: the paper's "proxy nodes can be used for storing
	// users' data and keeping them available".
	proxy, err := w.place(w.proxies, 1)
	if err != nil {
		return nil, err
	}
	var rows []availRow
	for _, k := range replicas {
		rows = append(rows, availRow{label: fmt.Sprint(k), policy: "random", holders: random[:1+k]})
	}
	rows = append(rows, availRow{label: "1 proxy", policy: "proxies", holders: proxy})
	if err := w.fill(t, rows, uptimes, trials); err != nil {
		return nil, err
	}
	t.AddNote("paper claim: replication and caching ensure availability; proxies give availability independent of peer uptime")
	t.AddNote("sealed record on the owner + k holders through the DHT; a trial is served when some online holder returns a copy that passes scrub.Check; every cell reuses the same per-peer draws, so availability cannot fall as k or uptime grows")
	return t, nil
}

// E16PlacementAblation ablates replica placement policy (random peers vs the
// owner's friends vs dedicated proxies) — the paper's "users, their friends,
// or other peers need to be online for better availability. Also, proxy
// nodes can be used" (Section I) as a design-choice comparison.
func E16PlacementAblation(quick bool) (*Table, error) {
	trials, peers := 400, 60
	if quick {
		trials, peers = 100, 30
	}
	uptimes := []float64{0.3, 0.5, 0.7}
	const k, proxies = 3, 3
	t := &Table{
		ID:     "E16",
		Title:  fmt.Sprintf("replica placement ablation: availability by policy (k=%d)", k),
		Header: append([]string{"placement"}, uptimeHeader(uptimes)...),
	}
	w, err := newAvailWorld(16, peers, proxies)
	if err != nil {
		return nil, err
	}
	var rows []availRow
	for _, p := range []struct {
		label, policy string
		candidates    []simnet.NodeID
	}{
		{"random peers", "random", w.others},
		{fmt.Sprintf("friends (%d available)", ownerFriends), "friends", w.friends},
		{"proxies", "proxies", w.proxies},
	} {
		holders, err := w.place(p.candidates, k)
		if err != nil {
			return nil, err
		}
		rows = append(rows, availRow{label: p.label, policy: p.policy, holders: holders})
	}
	if err := w.fill(t, rows, uptimes, trials); err != nil {
		return nil, err
	}
	t.AddNote("with uniform churn, friend placement matches random at equal k but is capped by friend count; proxies dominate (always on). Friend placement's real-world advantage — correlated online times and trust — is a social property the simulator does not model")
	return t, nil
}

func uptimeHeader(uptimes []float64) []string {
	out := make([]string, len(uptimes))
	for i, u := range uptimes {
		out[i] = fmt.Sprintf("uptime=%.0f%%", u*100)
	}
	return out
}

// availKey names the one record an availability world places.
const availKey = "profile/node-1"

// ownerFriends is the length of the owner's friend list.
const ownerFriends = 5

// availWorld is E7/E16's world on the composed stack. node-0 is the reader:
// the stack's client, which never churns (as in E17). node-1 owns one sealed
// record; node-1 … node-peers are the peers, which churn; the last names are
// proxies, which never churn. Copies live in the DHT nodes' own stores.
type availWorld struct {
	st      *stack.Stack
	rng     *rand.Rand
	peers   []simnet.NodeID // node-1 (the owner) … node-peers
	others  []simnet.NodeID // every peer but the owner: random placement's candidates
	friends []simnet.NodeID // the owner's friend list
	proxies []simnet.NodeID
}

func newAvailWorld(seed int64, peers, proxies int) (*availWorld, error) {
	names := stack.NodeNames("node-%d", 1+peers+proxies)
	st, err := stack.Build(stack.Spec{Names: names, Net: simnet.DefaultConfig(seed)})
	if err != nil {
		return nil, err
	}
	w := &availWorld{st: st, rng: rand.New(rand.NewSource(seed)), peers: names[1 : 1+peers], proxies: names[1+peers:]}
	w.others = w.peers[1:]
	w.friends = w.others[:min(ownerFriends, len(w.others))]
	return w, nil
}

// place writes the sealed record to the owner and to k of candidates, picked
// by a seeded shuffle, and returns the holders in probe order, owner first.
// Placing once per policy and slicing keeps a smaller k a prefix of a larger
// one. Place before any trial: a trial leaves peers offline.
func (w *availWorld) place(candidates []simnet.NodeID, k int) ([]string, error) {
	pick := append([]simnet.NodeID(nil), candidates...)
	w.rng.Shuffle(len(pick), func(i, j int) { pick[i], pick[j] = pick[j], pick[i] })
	holders := []string{string(w.peers[0])}
	for _, n := range pick[:min(k, len(pick))] {
		holders = append(holders, string(n))
	}
	rec := scrub.Seal(availKey, []byte("content"))
	for _, h := range holders {
		if _, err := w.st.DHT.StoreTo(w.st.Client, availKey, rec, h); err != nil {
			return nil, fmt.Errorf("bench: placing on %s: %w", h, err)
		}
	}
	return holders, nil
}

// draw is one trial's uniform number per peer.
func (w *availWorld) draw() []float64 {
	d := make([]float64, len(w.peers))
	for i := range d {
		d[i] = w.rng.Float64()
	}
	return d
}

// trial sets each peer online when its draw is below uptime, then asks the
// holders in order and reports whether one returned a copy that passes
// scrub.Check. An offline holder costs a real (failing) RPC.
func (w *availWorld) trial(holders []string, draw []float64, uptime float64) bool {
	for i, p := range w.peers {
		_ = w.st.Net.SetOnline(p, draw[i] < uptime) // fails only for an unregistered name
	}
	for _, h := range holders {
		if v, _, err := w.st.DHT.LookupFrom(w.st.Client, availKey, h); err == nil && scrub.Check(availKey, v) == nil {
			return true
		}
	}
	return false
}

// availRow is one table row: a placement's holders, probe order.
type availRow struct {
	label   string
	policy  string // random, friends or proxies
	holders []string
}

// fill measures every row at every uptime over one shared set of trial
// draws, adds the rows to t, and fails on a broken invariant: random and
// friend cells within 4σ + 0.01 of 1−(1−u)^holders, every row
// non-decreasing in uptime, every run of same-policy rows non-decreasing
// down a column, proxy rows ≥ 0.99.
func (w *availWorld) fill(t *Table, rows []availRow, uptimes []float64, trials int) error {
	draws := make([][]float64, trials)
	for i := range draws {
		draws[i] = w.draw()
	}
	var above []float64
	for ri, row := range rows {
		cells := []string{row.label}
		got := make([]float64, len(uptimes))
		for ui, up := range uptimes {
			served := 0
			for _, d := range draws {
				if w.trial(row.holders, d, up) {
					served++
				}
			}
			a := float64(served) / float64(trials)
			got[ui] = a
			cells = append(cells, fmt.Sprintf("%.2f", a))

			fail := func(format string, args ...any) error {
				return fmt.Errorf("bench: %s invariant violated: row %q at uptime %.0f%% served %.2f: %s",
					strings.ToLower(t.ID), row.label, up*100, a, fmt.Sprintf(format, args...))
			}
			if row.policy == "proxies" {
				if a < 0.99 {
					return fail("proxy placement below 0.99")
				}
			} else {
				p := 1 - math.Pow(1-up, float64(len(row.holders)))
				if tol := 4*math.Sqrt(p*(1-p)/float64(trials)) + 0.01; math.Abs(a-p) > tol {
					return fail("closed form %.3f ± %.3f", p, tol)
				}
			}
			if ui > 0 && a < got[ui-1] {
				return fail("below %.2f at the lower uptime", got[ui-1])
			}
			if ri > 0 && rows[ri-1].policy == row.policy && a < above[ui] {
				return fail("below %.2f with fewer replicas", above[ui])
			}
		}
		t.AddRow(cells...)
		above = got
	}
	return nil
}
