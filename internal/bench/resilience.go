package bench

import (
	"fmt"
	"time"

	"godosn/internal/overlay/dht"
	"godosn/internal/overlay/simnet"
	"godosn/internal/resilience"
	"godosn/internal/stack"
)

// E17Resilience measures what the recovery layer buys: the same DHT, the
// same seeded fault schedule (message loss + node churn), once bare and
// once wrapped in resilience.KV (typed-fault retries, hedged replica
// reads, circuit breaking) with an anti-entropy heal pass running between
// operations. Availability and the recovery overhead (messages, simulated
// latency) are reported side by side.
func E17Resilience(quick bool) (*Table, error) {
	type cell struct {
		loss   float64
		uptime float64
	}
	cells := []cell{
		{0, 0.7}, {0.05, 0.7}, {0.10, 0.7}, {0.20, 0.7},
		{0.10, 0.9}, {0.10, 1.0},
	}
	peers, keys, ops := 60, 80, 300
	if quick {
		cells = []cell{{0.10, 0.7}, {0.10, 1.0}}
		peers, keys, ops = 40, 30, 100
	}
	const replicas = 3

	t := &Table{
		ID:     "E17",
		Title:  "resilience layer: availability and cost under loss + churn (DHT, k=3)",
		Header: []string{"loss", "uptime", "bare ok%", "resil ok%", "msg/op bare→resil", "lat/op bare→resil"},
	}
	for _, c := range cells {
		bareOK, bareMsg, bareLat, err := runE17Cell(c.loss, c.uptime, peers, keys, ops, replicas, false)
		if err != nil {
			return nil, err
		}
		resOK, resMsg, resLat, err := runE17Cell(c.loss, c.uptime, peers, keys, ops, replicas, true)
		if err != nil {
			return nil, err
		}
		t.AddRow(
			fmt.Sprintf("%.0f%%", c.loss*100),
			fmt.Sprintf("%.0f%%", c.uptime*100),
			fmt.Sprintf("%.1f", bareOK*100),
			fmt.Sprintf("%.1f", resOK*100),
			fmt.Sprintf("%.1f→%.1f", bareMsg, resMsg),
			fmt.Sprintf("%.0fms→%.0fms", bareLat, resLat),
		)
	}
	t.AddNote("resilient = retry (≤5 attempts, exp backoff + seeded jitter), hedged reads over the replica set, circuit breaker, anti-entropy heal each tick; heal messages are charged to msg/op")
	t.AddNote("both systems face the same seeded fault schedule; node-0 is the client and is exempt from churn")
	t.AddNote("paper claim (I, II-B): replication keeps churned profiles reachable — but only with a recovery discipline; the bare DHT under-states every surveyed system")
	return t, nil
}

// runE17Cell runs one (loss, uptime) configuration and returns the lookup
// success rate, messages per operation, and simulated latency (ms) per
// operation.
func runE17Cell(loss, uptime float64, peers, keys, ops, replicas int, resilient bool) (float64, float64, float64, error) {
	seed := int64(911) + int64(loss*1000) + int64(uptime*10)
	spec := stack.Spec{
		Names: benchNames(peers),
		Net:   simnet.DefaultConfig(seed),
		DHT:   dht.Config{ReplicationFactor: replicas},
	}
	if resilient {
		rcfg := resilience.DefaultConfig(seed)
		spec.Resilience = &rcfg
	}
	st, err := stack.Build(spec)
	if err != nil {
		return 0, 0, 0, err
	}
	// Loss from the first lookup on, churn over everyone but the client; no
	// rot and no scrubber — the sweep isolates read-path recovery.
	res, err := soak{name: "e17", seed: seed, keys: keys, ops: ops, loss: loss, uptime: uptime}.run(st)
	if err != nil {
		return 0, 0, 0, err
	}
	latPerOp := float64(res.total.Latency) / float64(ops) / float64(time.Millisecond)
	return res.okRate(ops), res.msgPerOp(ops), latPerOp, nil
}
