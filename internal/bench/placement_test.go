package bench

import (
	"slices"
	"testing"

	"godosn/internal/overlay/simnet"
	"godosn/internal/resilience/scrub"
)

// placeChecked places the record on k of candidates and checks the holders:
// the owner first, then want distinct candidates, each holding a copy.
func placeChecked(t *testing.T, w *availWorld, candidates []simnet.NodeID, k, want int) []string {
	t.Helper()
	holders, err := w.place(candidates, k)
	if err != nil {
		t.Fatal(err)
	}
	if len(holders) != 1+want || holders[0] != "node-1" {
		t.Fatalf("holders %v, want node-1 and %d candidates", holders, want)
	}
	for i, h := range holders[1:] {
		if !slices.Contains(candidates, simnet.NodeID(h)) || slices.Contains(holders[:1+i], h) {
			t.Errorf("holder %s is not a fresh candidate of %v", h, candidates)
		}
	}
	for _, h := range holders {
		if !w.st.DHT.Holds(h, availKey) {
			t.Errorf("holder %s has no copy", h)
		}
	}
	return holders
}

// drawOffline is a trial draw that puts the named peers offline and every
// other peer online at any uptime strictly between 0 and 1.
func drawOffline(w *availWorld, offline ...string) []float64 {
	d := make([]float64, len(w.peers))
	for i, p := range w.peers {
		if slices.Contains(offline, string(p)) {
			d[i] = 1
		}
	}
	return d
}

// servedOf counts the trials of draws that holders serve at uptime.
func servedOf(w *availWorld, holders []string, draws [][]float64, uptime float64) int {
	n := 0
	for _, d := range draws {
		if w.trial(holders, d, uptime) {
			n++
		}
	}
	return n
}

// Random placement puts the owner and k other peers on the record, and a
// reader gets the sealed payload back from the owner.
func TestPlaceAndRetrieve(t *testing.T) {
	w, err := newAvailWorld(5, 12, 2)
	if err != nil {
		t.Fatal(err)
	}
	holders := placeChecked(t, w, w.others, 3, 3)
	if !w.trial(holders, w.draw(), 1.0) {
		t.Fatal("every holder online: trial not served")
	}
	v, _, err := w.st.DHT.LookupFrom(w.st.Client, availKey, holders[0])
	if err != nil {
		t.Fatalf("LookupFrom owner: %v", err)
	}
	if got, err := scrub.Open(availKey, v); err != nil || string(got) != "content" {
		t.Fatalf("owner's copy opens to %q, %v; want %q", got, err, "content")
	}
}

// With the owner offline a replica serves; with every holder offline
// nothing does.
func TestRetrieveFallsBackToReplicas(t *testing.T) {
	w, err := newAvailWorld(5, 12, 0)
	if err != nil {
		t.Fatal(err)
	}
	holders := placeChecked(t, w, w.others, 3, 3)
	if !w.trial(holders, drawOffline(w, holders[0]), 0.5) {
		t.Fatal("owner offline, replicas online: trial not served")
	}
	if _, _, err := w.st.DHT.LookupFrom(w.st.Client, availKey, holders[0]); err == nil {
		t.Fatal("offline owner answered")
	}
	if w.trial(holders, drawOffline(w, holders...), 0.5) {
		t.Fatal("every holder offline: trial served")
	}
}

// Friend placement picks only the owner's friends, however large k is.
func TestFriendPlacement(t *testing.T) {
	w, err := newAvailWorld(5, 12, 2)
	if err != nil {
		t.Fatal(err)
	}
	placeChecked(t, w, w.friends, 8, ownerFriends)
}

// Proxy placement picks only proxies, and proxies serve when every peer,
// the owner included, is offline.
func TestProxyPlacement(t *testing.T) {
	w, err := newAvailWorld(5, 12, 2)
	if err != nil {
		t.Fatal(err)
	}
	holders := placeChecked(t, w, w.proxies, 3, 2)
	if !w.trial(holders, w.draw(), 0) {
		t.Fatal("every peer offline: proxies did not serve")
	}
}

// E7's core shape on one set of draws: four replicas serve more trials
// than one, and near 1−0.5^5 ≈ 0.97 at 50% uptime.
func TestAvailabilityIncreasesWithReplication(t *testing.T) {
	w, err := newAvailWorld(42, 50, 0)
	if err != nil {
		t.Fatal(err)
	}
	holders, err := w.place(w.others, 4)
	if err != nil {
		t.Fatal(err)
	}
	draws := make([][]float64, 400)
	for i := range draws {
		draws[i] = w.draw()
	}
	a1 := float64(servedOf(w, holders[:2], draws, 0.5)) / 400
	a4 := float64(servedOf(w, holders, draws, 0.5)) / 400
	if a4 <= a1 {
		t.Fatalf("availability did not increase with replication: k=1 %.2f, k=4 %.2f", a1, a4)
	}
	if a4 < 0.85 {
		t.Fatalf("k=4 at 50%% uptime should be ~0.97, got %.2f", a4)
	}
}

// On one set of draws, the same placement serves more trials at 90% uptime
// than at 20%.
func TestAvailabilityIncreasesWithUptime(t *testing.T) {
	w, err := newAvailWorld(43, 50, 0)
	if err != nil {
		t.Fatal(err)
	}
	holders, err := w.place(w.others, 2)
	if err != nil {
		t.Fatal(err)
	}
	draws := make([][]float64, 300)
	for i := range draws {
		draws[i] = w.draw()
	}
	if low, high := servedOf(w, holders, draws, 0.2), servedOf(w, holders, draws, 0.9); high <= low {
		t.Fatalf("availability did not increase with uptime: %d vs %d of 300", low, high)
	}
}

// A record tampered with before it is written is never served, from any
// holder; writing a clean copy to one holder makes it served again.
func TestPutRejectsCorruptedObject(t *testing.T) {
	w, err := newAvailWorld(5, 12, 0)
	if err != nil {
		t.Fatal(err)
	}
	holders := placeChecked(t, w, w.others, 3, 3)
	bad := scrub.Seal(availKey, []byte("content"))
	bad[len(bad)-1] ^= 0x01
	for _, h := range holders {
		if _, err := w.st.DHT.StoreTo(w.st.Client, availKey, bad, h); err != nil {
			t.Fatalf("StoreTo %s: %v", h, err)
		}
	}
	if w.trial(holders, w.draw(), 1.0) {
		t.Fatal("every holder has a tampered copy: trial served")
	}
	last := holders[len(holders)-1]
	if _, err := w.st.DHT.StoreTo(w.st.Client, availKey, scrub.Seal(availKey, []byte("content")), last); err != nil {
		t.Fatalf("StoreTo %s: %v", last, err)
	}
	if !w.trial(holders, w.draw(), 1.0) {
		t.Fatalf("clean copy on %s: trial not served", last)
	}
}

// Table I's "tampered record never served" holds for placed copies too: a
// holder that returns bytes failing scrub.Check does not count, and the
// probe moves on to the next holder.
func TestAvailabilityServesOnlyVerifiedCopies(t *testing.T) {
	w, err := newAvailWorld(3, 12, 0)
	if err != nil {
		t.Fatal(err)
	}
	holders, err := w.place(w.others, 3)
	if err != nil {
		t.Fatal(err)
	}
	rot := func(h string) {
		t.Helper()
		if !w.st.DHT.CorruptStored(h, availKey, func(b []byte) []byte {
			b[len(b)-1] ^= 0x01
			return b
		}) {
			t.Fatalf("%s holds no copy", h)
		}
	}
	served := func() int {
		n := 0
		for i := 0; i < 20; i++ {
			if w.trial(holders, w.draw(), 1.0) {
				n++
			}
		}
		return n
	}

	last := holders[len(holders)-1]
	for _, h := range holders[:len(holders)-1] {
		rot(h)
	}
	if n := served(); n != 20 {
		t.Fatalf("one clean holder (%s) left: %d of 20 trials served, want 20", last, n)
	}
	rot(last)
	if n := served(); n != 0 {
		t.Fatalf("every holder tampered: %d of 20 trials served, want 0", n)
	}
}

var availSink bool

// BenchmarkAvailabilityTrial is E7's unit of work: one draw (a uniform number
// per peer, applied as its online state) and one probe of a k=3 random
// placement over 60 peers at 50% uptime.
func BenchmarkAvailabilityTrial(b *testing.B) {
	w, err := newAvailWorld(11, 60, 0)
	if err != nil {
		b.Fatal(err)
	}
	holders, err := w.place(w.others, 3)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		availSink = w.trial(holders, w.draw(), 0.5)
	}
}
