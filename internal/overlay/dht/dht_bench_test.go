package dht

// Microbenchmarks for the DHT hot path: Put (Store) and Get (Lookup) on a
// lossless simulated network.

import (
	"fmt"
	"testing"

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
