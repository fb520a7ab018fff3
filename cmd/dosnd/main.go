// Command dosnd boots a simulated DOSN deployment end-to-end and prints a
// session transcript: users join, befriend, form groups under different
// privacy schemes, publish, read feeds, sync fork-consistent walls, and run
// a trust-ranked friend search.
//
// Usage:
//
//	dosnd -users 20 -overlay dht -seed 7
//	dosnd -users 20 -overlay dht -resilient -loss 0.15
//	dosnd -users 20 -resilient -loss 0.15 -metrics
//	dosnd -users 20 -resilient -pprof localhost:6060
//	dosnd -users 20 -trace-out session.jsonl        # JSONL trace of the session
//	dosnd -users 20 -trace-out otlp+tcp://host:4318 # stream OTLP-shaped JSON
//
// The session advances the deployment's tick clock once per phase (boot,
// groups, publish, wall-sync, revocation, search), so -metrics can also
// show the last phase's windowed telemetry deltas and -trace-out carries
// the whole per-phase time-series.
package main

import (
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"

	"godosn/internal/core"
	"godosn/internal/resilience"
	"godosn/internal/social/privacy"
	"godosn/internal/telemetry"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		usersFlag   = flag.Int("users", 12, "number of users")
		overlayFlag = flag.String("overlay", "dht", "overlay: dht|gossip|superpeer|hybrid|federation")
		seedFlag    = flag.Int64("seed", 7, "deterministic seed")
		resilFlag   = flag.Bool("resilient", false, "wrap the overlay in the resilience layer (retries, hedged reads, breaker)")
		lossFlag    = flag.Float64("loss", 0, "message loss rate injected after boot (0..1)")
		metricsFlag = flag.Bool("metrics", false, "dump the deployment's telemetry registry (plain-text /metrics style) after the session")
		pprofFlag   = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) and keep the process alive after the session")
		traceFlag   = flag.String("trace-out", "", "emit the session's telemetry: file path, tcp://host:port, unix:///path, optional otlp+ prefix")
	)
	flag.Parse()
	if *lossFlag < 0 || *lossFlag >= 1 {
		fmt.Fprintln(os.Stderr, "dosnd: -loss must be in [0,1)")
		return 2
	}

	kind, ok := map[string]core.OverlayKind{
		"dht":        core.OverlayDHT,
		"gossip":     core.OverlayGossip,
		"superpeer":  core.OverlaySuperPeer,
		"hybrid":     core.OverlayHybrid,
		"federation": core.OverlayFederation,
	}[*overlayFlag]
	if !ok {
		fmt.Fprintf(os.Stderr, "dosnd: unknown overlay %q\n", *overlayFlag)
		return 2
	}
	if *usersFlag < 4 {
		fmt.Fprintln(os.Stderr, "dosnd: need at least 4 users")
		return 2
	}

	users := make([]string, *usersFlag)
	for i := range users {
		users[i] = fmt.Sprintf("user-%02d", i)
	}
	var friendships []core.Friendship
	for i := range users {
		friendships = append(friendships, core.Friendship{
			A: users[i], B: users[(i+1)%len(users)], Trust: 0.85,
		})
		if i%3 == 0 {
			friendships = append(friendships, core.Friendship{
				A: users[i], B: users[(i+5)%len(users)], Trust: 0.6,
			})
		}
	}
	cfg := core.Config{
		Seed:        *seedFlag,
		Overlay:     kind,
		Users:       users,
		Friendships: friendships,
	}
	if *resilFlag {
		rcfg := resilience.DefaultConfig(0) // 0: inherit the network seed
		cfg.Resilience = &rcfg
	}
	net, err := core.NewNetwork(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dosnd: building network: %v\n", err)
		return 1
	}
	if *pprofFlag != "" {
		// The default mux already carries the /debug/pprof handlers via the
		// pprof import's side effect.
		go func() {
			if err := http.ListenAndServe(*pprofFlag, nil); err != nil {
				fmt.Fprintf(os.Stderr, "dosnd: pprof server: %v\n", err)
			}
		}()
		fmt.Printf("pprof serving on http://%s/debug/pprof/\n", *pprofFlag)
	}
	// Streaming telemetry: attach the chosen sink to the registry's event
	// log, and ride the simnet tick clock for windowed deltas — the session
	// advances one tick per phase, so each window is one phase's worth of
	// registry movement.
	var sink *telemetry.Sink // nil (no -trace-out) is inert
	if *traceFlag != "" {
		var err error
		if sink, err = telemetry.OpenSink(*traceFlag); err != nil {
			fmt.Fprintf(os.Stderr, "dosnd: trace sink: %v\n", err)
			return 2
		}
		// dosnd has no determinism contract, so drop accounting may live in
		// the registry where -metrics will show it.
		sink.SetTelemetry(net.Telemetry)
		telemetry.AttachLog(net.Telemetry.Events(), sink)
	}
	win := telemetry.NewWindows(net.Telemetry, telemetry.WindowsConfig{Width: 1, Retain: 16})
	net.Sim.OnTick(func(int) { win.Tick() })
	phase := func(name string) {
		net.Sim.TickCapacity() // advance the shared tick clock: close a window
		sink.Note("phase", telemetry.A("name", name))
	}

	fmt.Printf("booted %d-user DOSN on %s overlay (kv: %s)\n", len(users), net.OverlayKind(), net.KV.Name())
	if *lossFlag > 0 {
		net.Sim.SetLossRate(*lossFlag)
		fmt.Printf("injected %.0f%% message loss\n", *lossFlag*100)
	}
	phase("boot")

	alice, bob, carol := net.MustNode(users[0]), net.MustNode(users[1]), net.MustNode(users[2])

	// Group formation: one hybrid group holding bob and carol.
	friends, err := alice.CreateGroup("friends", privacy.SchemeHybrid)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dosnd: %v\n", err)
		return 1
	}
	for _, member := range []*core.Node{bob, carol} {
		if err := friends.Add(member.Name()); err != nil {
			fmt.Fprintf(os.Stderr, "dosnd: group: %v\n", err)
			return 1
		}
		if err := alice.ShareGroup("friends", member); err != nil {
			fmt.Fprintf(os.Stderr, "dosnd: group: %v\n", err)
			return 1
		}
	}
	fmt.Printf("%s created group %q (%s) with members %v\n",
		alice.Name(), friends.Name(), friends.Scheme(), friends.Members())
	phase("groups")

	// Publish and read through the overlay.
	if _, st, err := alice.Publish("friends", []byte("hello, distributed world")); err != nil {
		fmt.Fprintf(os.Stderr, "dosnd: publish: %v\n", err)
		return 1
	} else {
		fmt.Printf("%s published post 0 (store: %d msgs, %d hops)\n", alice.Name(), st.Messages, st.Hops)
	}
	body, st, err := bob.ReadPost(alice.Name(), 0)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dosnd: read: %v\n", err)
		return 1
	}
	fmt.Printf("%s read it via overlay (%d msgs, %d hops): %q\n", bob.Name(), st.Messages, st.Hops, body)
	phase("publish-read")

	// Fork-consistent wall views.
	if err := bob.SyncWall(alice.Name()); err != nil {
		fmt.Fprintf(os.Stderr, "dosnd: wall sync: %v\n", err)
		return 1
	}
	if err := carol.SyncWall(alice.Name()); err != nil {
		fmt.Fprintf(os.Stderr, "dosnd: wall sync: %v\n", err)
		return 1
	}
	if err := bob.CrossCheckWall(alice.Name(), carol); err != nil {
		fmt.Printf("wall cross-check: MISBEHAVIOUR: %v\n", err)
	} else {
		fmt.Printf("%s and %s cross-checked %s's wall: consistent at version %d\n",
			bob.Name(), carol.Name(), alice.Name(), bob.WallReader(alice.Name()).Commitment().Version)
	}
	phase("wall-sync")

	// Revocation.
	report, err := friends.Remove(carol.Name())
	if err != nil {
		fmt.Fprintf(os.Stderr, "dosnd: revoke: %v\n", err)
		return 1
	}
	fmt.Printf("%s revoked %s: re-encrypted %d envelopes, re-keyed %d members\n",
		alice.Name(), carol.Name(), report.ReencryptedEnvelopes, report.RekeyedMembers)
	if _, _, err := carol.ReadPost(alice.Name(), 0); err != nil {
		fmt.Printf("%s can no longer read the archive: OK\n", carol.Name())
	}
	// The overlay still holds the old-epoch ciphertext: re-store the
	// re-encrypted archive as a new signed timeline entry.
	if _, err := alice.RepublishArchive("friends", []uint64{0}); err != nil {
		fmt.Fprintf(os.Stderr, "dosnd: republish: %v\n", err)
		return 1
	}
	if _, _, err := carol.ReadPost(alice.Name(), 0); err == nil {
		fmt.Fprintf(os.Stderr, "dosnd: revoked %s read the republished post\n", carol.Name())
		return 1
	}
	// A social cache that holds the old copy keeps serving it (the hybrid
	// overlay never invalidates on a re-store), so that read is reported.
	if body, _, err := bob.ReadPost(alice.Name(), 0); err != nil {
		fmt.Printf("%s republished post 0: %s cannot read it yet (%v), %s still cannot\n", alice.Name(), bob.Name(), err, carol.Name())
	} else {
		fmt.Printf("%s republished post 0: %s reads %q, %s still cannot\n", alice.Name(), bob.Name(), body, carol.Name())
	}
	phase("revocation")

	// Trust-ranked friend search.
	found := alice.FindUsers()
	limit := 5
	if len(found) < limit {
		limit = len(found)
	}
	fmt.Printf("%s searched for new friends (trust-ranked): %v\n", alice.Name(), found[:limit])
	phase("search")

	if m, ok := net.ResilienceMetrics(); ok {
		fmt.Printf("resilience: %d ops, %d retries, %d hedges, %d breaker skips, %d failures\n",
			m.Ops, m.Retries, m.Hedges, m.BreakerSkips, m.Failures)
	}
	win.CloseFinal()
	if sink != nil {
		sink.Windows(win.Snapshot())
		sink.Snapshot(net.Telemetry.Snapshot())
		records, dropped := sink.Records(), sink.Dropped()
		if err := sink.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "dosnd: trace sink: %v\n", err)
			return 1
		}
		if dropped > 0 {
			fmt.Printf("trace: %s (%d records, %d dropped)\n", *traceFlag, records, dropped)
		} else {
			fmt.Printf("trace: %s (%d records)\n", *traceFlag, records)
		}
	}
	fmt.Println("session complete")
	if *metricsFlag {
		fmt.Println("\n--- telemetry ---")
		net.Telemetry.WriteText(os.Stdout)
		if last, ok := win.Latest(); ok {
			fmt.Printf("\n--- last window (ticks [%d,%d)) ---\n", last.FromTick, last.ToTick)
			telemetry.WindowsSnapshot{
				Width:    win.Width(),
				FromTick: last.FromTick,
				ToTick:   last.ToTick,
				Windows:  []telemetry.WindowDelta{last},
			}.WriteText(os.Stdout)
		}
	}
	if *pprofFlag != "" {
		fmt.Println("session done; pprof endpoint stays up (Ctrl-C to exit)")
		select {}
	}
	return 0
}
