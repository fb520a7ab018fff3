package main

import (
	"fmt"
	"sync"
	"time"

	"godosn/internal/overlay/simnet"
)

// probeRPCs is how many echo RPCs each probe arm sends.
const probeRPCs = 200_000

// probeSimnet measures the transport on a side network of the same size as
// the ring: the mean wall time of one echo RPC (two messages, each admitted
// under the network-wide mutex) as one caller sees it, with callers
// goroutines issuing RPCs at once. simnet cannot be wrapped from outside
// the program, so this probe stands in for spans inside it.
func probeSimnet(seed int64, callers int) (float64, error) {
	net := simnet.New(simnet.Config{Seed: seed, BaseLatency: 10 * time.Millisecond})
	echo := simnet.HandlerFunc(func(_ *simnet.Trace, _ simnet.NodeID, msg simnet.Message) (simnet.Message, error) {
		return msg, nil
	})
	nodes := make([]simnet.NodeID, ringNodes)
	for i := range nodes {
		nodes[i] = simnet.NodeID(fmt.Sprintf("node-%d", i))
		if err := net.Register(nodes[i], echo); err != nil {
			return 0, err
		}
	}
	per := probeRPCs / callers
	errs := make([]error, callers)
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tr := &simnet.Trace{}
			msg := simnet.Message{Kind: "echo", Size: 64}
			for i := 0; i < per; i++ {
				if _, err := net.RPC(tr, nodes[c], nodes[1+(c+i)%(ringNodes-1)], msg); err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(t0)
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return float64(wall) / float64(per), nil
}

// timerCost is the cost of one time.Now/time.Since pair, which every client
// call pays even untraced.
func timerCost() float64 {
	const n = 200_000
	var sink time.Duration
	t0 := time.Now()
	for i := 0; i < n; i++ {
		sink += time.Since(time.Now())
	}
	_ = sink
	return float64(time.Since(t0)) / n
}
