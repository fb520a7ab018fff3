package dht

// Microbenchmarks for the DHT hot path: Put (Store) and Get (Lookup) on a
// lossless simulated network, and the anti-entropy pass (Heal) over a
// loaded ring.

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"godosn/internal/cache"
	"godosn/internal/overlay/simnet"
)

const (
	benchNodes    = 64
	benchReplicas = 3
	benchPreload  = 256
)

func newBenchDHT(b *testing.B) (*DHT, []simnet.NodeID) {
	b.Helper()
	net := simnet.New(simnet.DefaultConfig(4242))
	names := make([]simnet.NodeID, benchNodes)
	for i := range names {
		names[i] = simnet.NodeID(fmt.Sprintf("node-%d", i))
	}
	d, err := New(net, names, Config{ReplicationFactor: benchReplicas})
	if err != nil {
		b.Fatal(err)
	}
	return d, names
}

func BenchmarkDHTPut(b *testing.B) {
	d, names := newBenchDHT(b)
	client := string(names[0])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Store(client, fmt.Sprintf("k%d", i), []byte("benchmark value payload")); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDHTGet(b *testing.B) {
	d, names := newBenchDHT(b)
	client := string(names[0])
	for i := 0; i < benchPreload; i++ {
		if _, err := d.Store(client, fmt.Sprintf("k%d", i), []byte("benchmark value payload")); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := d.Lookup(client, fmt.Sprintf("k%d", i%benchPreload)); err != nil {
			b.Fatal(err)
		}
	}
}

// singleKeyRing is the benchmark harness's per-key shape: 48 nodes, k=3 and
// a 4096-entry route cache under 100 k keys, so nearly every operation
// walks the ring and fills the cache. Keys are built outside the timer.
func singleKeyRing(b *testing.B) (*DHT, string, []string) {
	b.Helper()
	net := simnet.New(simnet.DefaultConfig(4242))
	names := make([]simnet.NodeID, 48)
	for i := range names {
		names[i] = simnet.NodeID(fmt.Sprintf("node-%d", i))
	}
	d, err := New(net, names, Config{ReplicationFactor: benchReplicas, RouteCache: cache.Config{Capacity: 4096}})
	if err != nil {
		b.Fatal(err)
	}
	keys := make([]string, 100_000)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i)
	}
	return d, string(names[0]), keys
}

func BenchmarkSingleKeyStore(b *testing.B) {
	d, client, keys := singleKeyRing(b)
	value := []byte("benchmark value payload")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Store(client, keys[i%len(keys)], value); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSingleKeyLookup(b *testing.B) {
	d, client, keys := singleKeyRing(b)
	for _, key := range keys {
		if _, err := d.Store(client, key, []byte("benchmark value payload")); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := d.Lookup(client, keys[i%len(keys)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkResolveRoot times one single-key resolution (resolveRoot) in
// the benchmark harness's shape: 48 nodes, one 4096-entry route-cache
// shard, callers at different origins. "hit" resolves keys the cache holds;
// "evicting-miss" cycles 100 k keys, so every call walks the ring and
// displaces the least-recently-used route. With 2 goroutines both share
// the one shard.
func BenchmarkResolveRoot(b *testing.B) {
	for _, tc := range []struct {
		name string
		keys int
	}{{"hit", 1024}, {"evicting-miss", 100_000}} {
		for _, goroutines := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/goroutines=%d", tc.name, goroutines), func(b *testing.B) {
				net := simnet.New(simnet.DefaultConfig(4242))
				names := make([]simnet.NodeID, 48)
				for i := range names {
					names[i] = simnet.NodeID(fmt.Sprintf("node-%d", i))
				}
				d, err := New(net, names, Config{
					ReplicationFactor: benchReplicas,
					RouteCache:        cache.Config{Capacity: 4096, Shards: 1, Seed: 4242},
				})
				if err != nil {
					b.Fatal(err)
				}
				keys := make([]string, tc.keys)
				kids := make([]uint64, tc.keys)
				for i := range keys {
					keys[i] = fmt.Sprintf("k%d", i)
					kids[i] = hashID(keys[i])
				}
				// Each caller keeps one frame and clears only its trace, so
				// the frame pool's cost stays out of the numbers.
				resolve := func(f *opFrame, origin simnet.NodeID, i int) {
					f.tr = simnet.Trace{}
					if _, err := d.resolveRoot(f, nil, origin, keys[i], kids[i], false); err != nil {
						b.Error(err)
					}
				}
				f := borrowFrame()
				for i := range keys[:min(len(keys), 4096)] {
					resolve(f, names[0], i)
				}
				returnFrame(f)
				b.ReportAllocs()
				b.ResetTimer()
				var wg sync.WaitGroup
				for g := 0; g < goroutines; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						f := borrowFrame()
						defer returnFrame(f)
						for i := g; i < b.N; i += goroutines {
							resolve(f, names[g], (i*7919)%len(keys))
						}
					}(g)
				}
				wg.Wait()
			})
		}
	}
}

// healRing builds a 48-node k=3 ring holding keys fully replicated keys,
// written straight into the placement's stores (no routing cost in set-up).
func healRing(tb testing.TB, keys int) (*DHT, []simnet.NodeID) {
	tb.Helper()
	net := simnet.New(simnet.DefaultConfig(4242))
	names := make([]simnet.NodeID, 48)
	for i := range names {
		names[i] = simnet.NodeID(fmt.Sprintf("node-%d", i))
	}
	d, err := New(net, names, Config{ReplicationFactor: benchReplicas})
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("k%d", i)
		kid := hashID(key)
		for _, rid := range d.view().successorsOf(nil, kid, d.replica) {
			d.view().byID[rid].data.put(key, idTop(kid), []byte("benchmark value payload"))
		}
	}
	return d, names
}

// BenchmarkHeal measures one anti-entropy pass over a 48-node ring: with
// nothing to repair, as a full scan (the memo forgotten before every pass)
// and as a pass over a ring unchanged since the last clean one; and with
// three nodes that each missed every sixth key they should hold — about 3 %
// of all keys short of one copy, the shape of a heal after three offline
// nodes return. Those removals move the stores' generations, so every
// returning pass is a full one.
func BenchmarkHeal(b *testing.B) {
	for _, keys := range []int{10_000, 100_000} {
		for _, forget := range []bool{true, false} {
			name := "full"
			if !forget {
				name = "unchanged"
			}
			b.Run(fmt.Sprintf("keys=%d/%s", keys, name), func(b *testing.B) {
				d, _ := healRing(b, keys)
				if _, err := d.Heal(); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if forget {
						forgetHealMemo(d)
					}
					if report, err := d.Heal(); err != nil || report.Repaired != 0 {
						b.Fatalf("heal: %+v %v", report, err)
					}
				}
			})
		}
		b.Run(fmt.Sprintf("keys=%d/returning=3", keys), func(b *testing.B) {
			d, names := healRing(b, keys)
			returning := []*node{d.view().names[names[7]], d.view().names[names[19]], d.view().names[names[31]]}
			missed := make([][]string, len(returning))
			for i, n := range returning {
				held := make([]string, 0, n.data.len())
				n.data.each(func(key string, _ uint32, _ []byte) { held = append(held, key) })
				sort.Strings(held)
				for j := 0; j < len(held); j += 6 {
					missed[i] = append(missed[i], held[j])
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				want := 0
				for j, n := range returning {
					for _, key := range missed[j] {
						if n.data.del(key) {
							want++
						}
					}
				}
				b.StartTimer()
				if report, err := d.Heal(); err != nil || report.Repaired != want {
					b.Fatalf("heal: %+v %v, want %d repaired", report, err, want)
				}
			}
		})
	}
}
