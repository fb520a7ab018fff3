package dht

import "godosn/internal/overlay"

// benchmark/ is its own module that tier-1 `go test ./...` never compiles.
// Its tracedDHT decorator embeds *DHT and must satisfy every overlay
// capability below (benchmark/harness_test.go), or resilience.Wrap and
// scrub.New would silently take a fallback path in traced runs. Asserting
// the same set here makes tier-1 fail before the harness does. embedsDHT
// declares no methods, so its method set is exactly *DHT's: each line
// asserts the capability of both.
type embedsDHT struct{ *DHT }

var (
	_ overlay.BatchKV             = embedsDHT{}
	_ overlay.ReplicaKV           = embedsDHT{}
	_ overlay.RepairKV            = embedsDHT{}
	_ overlay.DigestKV            = embedsDHT{}
	_ overlay.BatchRepairKV       = embedsDHT{}
	_ overlay.BatchDigestKV       = embedsDHT{}
	_ overlay.Healer              = embedsDHT{}
	_ overlay.PlacementFilterable = embedsDHT{}
	_ overlay.ReplicaRankable     = embedsDHT{}
	_ overlay.SpanKV              = embedsDHT{}
	_ overlay.SpanHealer          = embedsDHT{}
	_ overlay.RouteCached         = embedsDHT{}
	_ overlay.Ticker              = embedsDHT{}
)
