package main

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/distiller"
	"repro/internal/manager"
	"repro/internal/media"
	"repro/internal/san"
	"repro/internal/search"
	"repro/internal/stub"
	"repro/internal/tacc"
	"repro/internal/trace"
)

// nullWorker is a no-op TACC worker for control-plane experiments.
type nullWorker struct{ class string }

func (w nullWorker) Class() string { return w.class }
func (w nullWorker) Process(ctx context.Context, task *tacc.Task) (tacc.Blob, error) {
	return task.Input, nil
}

// runMgrCap reproduces the §4.6 manager capacity experiment: 900
// distillers send a load announcement every half second (1800
// announcements/s); the manager must absorb them. With each distiller
// worth >20 req/s of service capacity, the manager is three orders of
// magnitude away from being the bottleneck.
func runMgrCap(seed int64) {
	const (
		workers        = 900
		reportInterval = 500 * time.Millisecond
		measureFor     = 4 * time.Second
	)
	net := san.NewNetwork(seed, stub.WireCodec{})
	m := manager.New(manager.Config{
		Node:           "mgr",
		Net:            net,
		BeaconInterval: reportInterval,
		WorkerTTL:      time.Hour,
		Policy:         manager.Policy{SpawnThreshold: 1e18, Damping: time.Hour, ReapThreshold: -1},
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go m.Run(ctx)

	fmt.Printf("spawning %d worker stubs reporting every %s...\n", workers, reportInterval)
	for i := 0; i < workers; i++ {
		ws := stub.NewWorkerStub(fmt.Sprintf("d%d", i), fmt.Sprintf("n%d", i%64),
			nullWorker{class: "distill"}, net,
			stub.WorkerConfig{ReportInterval: reportInterval})
		go ws.Run(ctx)
	}
	// Let registrations settle.
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) && m.Stats().Workers < workers {
		time.Sleep(20 * time.Millisecond)
	}
	fmt.Printf("registered: %d workers\n", m.Stats().Workers)

	before := m.Stats().ReportsHandled
	start := time.Now()
	time.Sleep(measureFor)
	elapsed := time.Since(start).Seconds()
	handled := float64(m.Stats().ReportsHandled-before) / elapsed

	fmt.Printf("load announcements handled: %.0f/s (offered %.0f/s)\n",
		handled, float64(workers)/reportInterval.Seconds())
	perDistiller := 20.0
	fmt.Printf("equivalent service capacity represented: %.0f req/s (paper: ~18000 req/s,\n",
		float64(workers)*perDistiller)
	fmt.Println("~3 orders of magnitude above the Berkeley modem pool's peak load)")
	if handled > 1700 {
		fmt.Println("PASS: manager sustained the paper's 1800 announcements/s without loss")
	} else {
		fmt.Printf("NOTE: handled %.0f/s on this host\n", handled)
	}
}

// runFaults demonstrates the §3.1.3 process-peer matrix on the live
// system: worker crash, manager crash, front-end crash — each detected
// and repaired while requests keep flowing.
func runFaults(seed int64) {
	registry := tacc.NewRegistry()
	distiller.RegisterAll(registry)
	sys, err := core.Start(core.Config{
		Seed:           seed,
		DedicatedNodes: 6,
		FrontEnds:      1,
		CacheParts:     2,
		Workers:        map[string]int{distiller.ClassSJPG: 2},
		Registry:       registry,
		Rules:          distiller.TranSendRules(),
		BeaconInterval: 50 * time.Millisecond,
		ReportInterval: 50 * time.Millisecond,
		Policy:         manager.Policy{SpawnThreshold: 1e9, Damping: time.Hour, ReapThreshold: -1},
	})
	if err != nil {
		fmt.Println("start:", err)
		return
	}
	defer sys.Stop()
	if !sys.WaitReady(10 * time.Second) {
		fmt.Println("system did not come up")
		return
	}
	ctx := context.Background()
	probe := func() (string, error) {
		r, err := sys.Request(ctx, trace.ObjectURL(rand.Int()%100000, media.MIMESJPG), "u")
		if err != nil {
			return "", err
		}
		return r.Source, nil
	}

	fmt.Println("--- worker crash ---")
	victim := ""
	wait := time.Now().Add(5 * time.Second)
	for victim == "" && time.Now().Before(wait) {
		for _, w := range sys.FrontEnds()[0].ManagerStub().Workers(distiller.ClassSJPG) {
			victim = w.ID
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	t0 := time.Now()
	sys.Kill(victim)
	fmt.Printf("t=0       killed %s (no deregistration — crash)\n", victim)
	src, err := probe()
	fmt.Printf("t=%-7s request served via %q (err=%v)\n", time.Since(t0).Round(time.Millisecond), src, err)
	for time.Now().Before(t0.Add(10 * time.Second)) {
		if sys.Manager().Stats().Spawns > 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	fmt.Printf("t=%-7s manager inferred the loss by timeout and spawned a replacement\n",
		time.Since(t0).Round(time.Millisecond))

	fmt.Println("--- manager crash ---")
	old := sys.Manager()
	t0 = time.Now()
	sys.KillManager()
	src, err = probe()
	fmt.Printf("t=%-7s request served via %q off cached beacons (err=%v)\n",
		time.Since(t0).Round(time.Millisecond), src, err)
	for time.Now().Before(t0.Add(10 * time.Second)) {
		if sys.Manager() != old && sys.Manager().Stats().Workers >= 2 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	fmt.Printf("t=%-7s front-end watchdog restarted the manager; %d workers re-registered\n",
		time.Since(t0).Round(time.Millisecond), sys.Manager().Stats().Workers)

	fmt.Println("--- front-end crash ---")
	t0 = time.Now()
	sys.Kill("fe0")
	for time.Now().Before(t0.Add(10 * time.Second)) {
		fes := sys.FrontEnds()
		if len(fes) == 1 && fes[0].Running() {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	src, err = probe()
	fmt.Printf("t=%-7s manager restarted fe0; request served via %q (err=%v)\n",
		time.Since(t0).Round(time.Millisecond), src, err)
	fmt.Println("\npaper §3.1.3: manager, distillers and front ends are process peers; soft")
	fmt.Println("state rebuilt from beacons means no recovery protocol anywhere")
}

// runHotBot reproduces the §3.2 behaviours: parallel fan-out latency,
// graceful degradation under node loss (fast-restart), and 100%
// availability with cross-mounted replicas.
func runHotBot(seed int64) {
	rng := rand.New(rand.NewSource(seed))
	const docsN = 54000 // 54M documents at 1:1000 scale
	fmt.Printf("corpus: %d docs (54M at 1:1000 scale), 26 partitions as in HotBot\n\n", docsN)
	docs := search.GenerateCorpus(rng, docsN, 5000)

	for _, mode := range []search.FailureMode{search.FastRestart, search.CrossMount} {
		net := san.NewNetwork(seed, search.WireCodec{})
		cl := cluster.New(net)
		for i := 0; i < 26; i++ {
			cl.AddNode(fmt.Sprintf("n%d", i), false)
		}
		engine, err := search.Deploy(search.Config{
			Net: net, Cluster: cl, Partitions: 26, Mode: mode, Seed: seed,
		}, docs)
		if err != nil {
			fmt.Println("deploy:", err)
			return
		}
		ctx := context.Background()

		start := time.Now()
		res := engine.Query(ctx, "ba de ka", 10)
		lat := time.Since(start)
		fmt.Printf("[%s] query over %d shards: %d hits, %v, full corpus (%d docs)\n",
			mode, res.ShardsAsked, len(res.Hits), lat.Round(time.Microsecond), res.DocsSearched)

		cl.KillNode("n7")
		res = engine.Query(ctx, "bi du", 10)
		fmt.Printf("[%s] after losing 1 of 26 nodes: %d of %d docs searched (%.1f%%), partial=%v\n",
			mode, res.DocsSearched, res.TotalDocs,
			100*float64(res.DocsSearched)/float64(res.TotalDocs), res.Partial)
		if mode == search.FastRestart {
			fmt.Printf("    paper: 54M -> ~51M documents, 'still significantly larger than\n")
			fmt.Printf("    other search engines (Alta Vista at 30M)'\n")
		} else {
			fmt.Printf("    paper (original Inktomi): cross-mounted databases kept 100%% data\n")
			fmt.Printf("    availability with graceful performance degradation (fallbacks=%d)\n",
				engine.Stats().ReplicaFallbacks)
		}
		cl.StopAll()
		fmt.Println()
	}
}

// runTable1 verifies Table 1's structural comparison by inspecting the
// two live implementations.
func runTable1(seed int64) {
	rows := []struct{ component, transend, hotbot string }{
		{"Load balancing", "dynamic, by queue lengths at workers (lottery over beacon hints)", "static partitioning of read-only data; every query to all workers"},
		{"Application layer", "composable TACC workers (internal/distiller via internal/tacc)", "fixed search application (internal/search)"},
		{"Service layer", "worker dispatch rules in the front end (distiller.TranSendRules)", "dynamic result-page generation (search.RenderResults)"},
		{"Failure management", "centralized, fault-tolerant manager with process peers", "distributed per node: replicas or fast restart (FailureMode)"},
		{"Worker placement", "workers run anywhere; FEs and caches bound to nodes", "all workers bound to their partitions' nodes"},
		{"Profile database", "WAL-backed store with FE read caches (internal/profiledb)", "parallel commercial DB (same ACID island, scaled)"},
		{"Caching", "pre- and post-transformation web data (internal/vcache)", "recent searches for incremental delivery (search result cache)"},
	}
	fmt.Printf("%-20s %-55s %s\n", "Component", "TranSend", "HotBot")
	fmt.Println(strings.Repeat("-", 140))
	for _, r := range rows {
		fmt.Printf("%-20s %-55s %s\n", r.component, r.transend, r.hotbot)
	}

	// Live verification of the two headline differences.
	fmt.Println("\nverifying structural claims against the implementations:")
	// (1) TranSend dispatch is dynamic: two identical workers share
	// load via the lottery.
	registry := tacc.NewRegistry()
	distiller.RegisterAll(registry)
	sys, err := core.Start(core.Config{
		Seed: seed, FrontEnds: 1, CacheParts: 1,
		Workers:        map[string]int{distiller.ClassSJPG: 2},
		Registry:       registry,
		Rules:          distiller.TranSendRules(),
		BeaconInterval: 30 * time.Millisecond,
		ReportInterval: 30 * time.Millisecond,
		Policy:         manager.Policy{SpawnThreshold: 1e9, Damping: time.Hour, ReapThreshold: -1},
	})
	if err == nil && sys.WaitReady(10*time.Second) {
		ctx := context.Background()
		for i := 0; i < 30; i++ {
			sys.Request(ctx, trace.ObjectURL(200000+i, media.MIMESJPG), "u")
		}
		fmt.Printf("  TranSend: %d interchangeable sjpg workers served 30 requests dynamically\n",
			len(sys.FrontEnds()[0].ManagerStub().Workers(distiller.ClassSJPG)))
		sys.Stop()
	}
	// (2) HotBot fan-out is static: every query touches all shards.
	rng := rand.New(rand.NewSource(seed))
	net := san.NewNetwork(seed, search.WireCodec{})
	cl := cluster.New(net)
	for i := 0; i < 4; i++ {
		cl.AddNode(fmt.Sprintf("n%d", i), false)
	}
	engine, err := search.Deploy(search.Config{Net: net, Cluster: cl, Partitions: 4, Seed: seed},
		search.GenerateCorpus(rng, 2000, 500))
	if err == nil {
		res := engine.Query(context.Background(), "ba", 5)
		fmt.Printf("  HotBot: query fanned out to %d/%d statically placed shards\n",
			res.ShardsAlive, res.ShardsAsked)
		cl.StopAll()
	}
}
