package core

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/distiller"
	"repro/internal/manager"
	"repro/internal/monitor"
	"repro/internal/tacc"
)

// startPair boots a two-process cluster in one test binary: process B
// hosts the manager, the workers, and the cache partitions; process A
// hosts the front ends and the monitor. They share nothing but
// loopback TCP — each has its own san.Network, cluster, and profile
// store, spliced by a transport.Bridge pair, exactly what two cmd/node
// processes run.
func startPair(t *testing.T, mutate func(a, b *Config)) (feSide, mgrSide *System) {
	t.Helper()
	reg := tacc.NewRegistry()
	distiller.RegisterAll(reg)
	workers := map[string]int{
		distiller.ClassSGIF: 1,
		distiller.ClassSJPG: 1,
		distiller.ClassHTML: 1,
	}
	policy := manager.Policy{SpawnThreshold: 1e9, Damping: time.Hour, ReapThreshold: -1}

	cfgB := Config{
		Seed:           2,
		Roles:          Roles{Manager: true, Workers: true, Caches: true},
		NodePrefix:     "b-",
		Transport:      TransportConfig{Listen: "tcp:127.0.0.1:0"},
		DedicatedNodes: 6,
		CacheParts:     2,
		Workers:        workers,
		Registry:       reg,
		Rules:          distiller.TranSendRules(),
		ProfileDir:     t.TempDir(),
		BeaconInterval: tick,
		ReportInterval: tick,
		CallTimeout:    2 * time.Second,
		Policy:         policy,
	}
	cfgA := Config{
		Seed:           1,
		Roles:          Roles{FrontEnds: true, Monitor: true},
		NodePrefix:     "a-",
		DedicatedNodes: 4,
		FrontEnds:      1,
		RemoteCaches:   CacheAddrs("b-", cfgB.CacheParts, cfgB.DedicatedNodes),
		Workers:        workers, // readiness expectation only (no worker role)
		Registry:       reg,
		Rules:          distiller.TranSendRules(),
		ProfileDir:     t.TempDir(),
		BeaconInterval: tick,
		ReportInterval: tick,
		CallTimeout:    2 * time.Second,
		Policy:         policy,
	}
	if mutate != nil {
		mutate(&cfgA, &cfgB)
	}

	sysB, err := Start(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sysB.Stop)

	cfgA.Transport = TransportConfig{Listen: "tcp:127.0.0.1:0", Join: []string{sysB.Bridge.Advertise()}}
	sysA, err := Start(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sysA.Stop)

	if !sysA.Bridge.WaitPeers(1, 10*time.Second) {
		t.Fatal("bridges never met")
	}
	if !sysB.WaitReady(15*time.Second) || !sysA.WaitReady(15*time.Second) {
		t.Fatalf("split cluster not ready: A peers=%v B peers=%v",
			sysA.Bridge.Peers(), sysB.Bridge.Peers())
	}
	return sysA, sysB
}

// TestMultiProcessEndToEnd is the acceptance test for the transport
// tentpole run in-binary: a TranSend cluster split across two
// processes over loopback serves a workload with zero failed requests
// and zero wire errors on either side, with the batching writer
// packing multiple frames per write under the burst.
func TestMultiProcessEndToEnd(t *testing.T) {
	sysA, sysB := startPair(t, nil)

	ctx := context.Background()
	const requests = 120
	for i := 0; i < requests; i++ {
		url := fmt.Sprintf("http://origin%d.example/obj%d.sjpg", i%4, i%24)
		rctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		resp, err := sysA.Request(rctx, url, fmt.Sprintf("user%d", i%8))
		cancel()
		if err != nil {
			t.Fatalf("request %d (%s) failed: %v", i, url, err)
		}
		if len(resp.Blob.Data) == 0 {
			t.Fatalf("request %d returned empty body (source %s)", i, resp.Source)
		}
	}

	// Every hop crossed the wire cleanly.
	for name, sys := range map[string]*System{"A": sysA, "B": sysB} {
		if st := sys.Net.Stats(); st.WireErrors != 0 {
			t.Fatalf("process %s: WireErrors=%d", name, st.WireErrors)
		}
		if st := sys.Bridge.Stats(); st.FrameErrors != 0 {
			t.Fatalf("process %s: FrameErrors=%d", name, st.FrameErrors)
		}
	}

	// Distillation really happened across the boundary (tasks went
	// B-ward, results came back), and the cache on B served A.
	feStats := sysA.FrontEnds()[0].Stats()
	if feStats.Distilled+feStats.CacheDistilled == 0 {
		t.Fatalf("nothing distilled across processes: %+v", feStats)
	}
	if feStats.Fallbacks == requests {
		t.Fatal("every request fell back: workers were never reachable")
	}
	abr, bbr := sysA.Bridge.Stats(), sysB.Bridge.Stats()
	if abr.FramesOut == 0 || bbr.FramesOut == 0 {
		t.Fatalf("traffic did not flow both ways: A out=%d B out=%d", abr.FramesOut, bbr.FramesOut)
	}
	t.Logf("A: %d frames out in %d batches; B: %d frames out in %d batches",
		abr.FramesOut, abr.Batches, bbr.FramesOut, bbr.Batches)
}

// TestMultiProcessSupervisedRestart is the acceptance test for the
// supervisor tentpole: a front end in process A is killed; the manager
// in process B infers the death from heartbeat silence, resolves A's
// supervisor from its hello table, and delegates the restart over the
// SAN — the process-peer duty made location-transparent. Service
// resumes with zero failed requests and zero wire errors on both
// sides.
func TestMultiProcessSupervisedRestart(t *testing.T) {
	sysA, sysB := startPair(t, nil)
	ctx := context.Background()

	// The manager must know A's supervisor before the kill, or the
	// restart would have nowhere to go.
	waitFor(t, "cross-process supervisor hello", func() bool {
		sup, ok := sysB.Manager().SupervisorFor("a-node0")
		return ok && sup.Prefix == "a-"
	})

	if err := sysA.Kill("fe0"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "delegated FE restart", func() bool {
		st := sysB.Manager().Stats()
		return st.Delegated >= 1 && st.FERestarts >= 1
	})
	waitFor(t, "front end serving again", func() bool {
		fes := sysA.FrontEnds()
		return len(fes) > 0 && fes[0].Running()
	})

	for i := 0; i < 40; i++ {
		url := fmt.Sprintf("http://origin%d.example/obj%d.sjpg", i%4, i%16)
		rctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		_, err := sysA.Request(rctx, url, "carol")
		cancel()
		if err != nil {
			t.Fatalf("request %d after supervised restart failed: %v", i, err)
		}
	}
	for name, sys := range map[string]*System{"A": sysA, "B": sysB} {
		if st := sys.Net.Stats(); st.WireErrors != 0 {
			t.Fatalf("process %s: WireErrors=%d", name, st.WireErrors)
		}
	}
}

// TestMultiProcessRollingUpgradeWave: the ROADMAP's "upgrade waves"
// scenario made real across OS process boundaries. Both processes
// host SJPG workers (ids prefix-qualified, so the replicated role is
// safe); the monitor in process A rolls a disable -> supervisor
// restart -> enable wave over all of them — one at a time, each via
// its own process's supervisor — while a foreground load keeps
// hitting the SJPG pipeline. Zero failed requests, zero wire errors.
func TestMultiProcessRollingUpgradeWave(t *testing.T) {
	sysA, sysB := startPair(t, func(a, b *Config) {
		a.Roles = Roles{FrontEnds: true, Monitor: true, Workers: true}
	})
	ctx := context.Background()

	// The wave driver needs the full inventory: one SJPG worker per
	// process, plus both supervisors.
	waitFor(t, "beacon inventory spans both processes", func() bool {
		ws := sysA.Mon.WorkersOf(distiller.ClassSJPG)
		if len(ws) != 2 {
			return false
		}
		for _, w := range ws {
			if _, ok := sysA.Mon.SupervisorFor(w.Node); !ok {
				return false
			}
		}
		return true
	})
	before := sysA.Mon.WorkersOf(distiller.ClassSJPG)

	// Foreground load across the wave: every request exercises the
	// SJPG worker pipeline being upgraded under it.
	stopLoad := make(chan struct{})
	done := make(chan struct{})
	var failures atomic.Int64
	var issued atomic.Int64
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stopLoad:
				return
			default:
			}
			url := fmt.Sprintf("http://origin%d.example/wave%d.sjpg", i%4, i%32)
			rctx, cancel := context.WithTimeout(ctx, 10*time.Second)
			_, err := sysA.Request(rctx, url, "dave")
			cancel()
			issued.Add(1)
			if err != nil {
				failures.Add(1)
			}
		}
	}()

	wctx, wcancel := context.WithTimeout(ctx, 60*time.Second)
	rep, err := sysA.Mon.UpgradeWave(wctx, distiller.ClassSJPG, monitor.WaveOptions{
		Drain:          5 * tick,
		CommandTimeout: 5 * time.Second,
	})
	wcancel()
	close(stopLoad)
	<-done
	if err != nil {
		t.Fatalf("upgrade wave: %v (report %+v)", err, rep)
	}
	if len(rep.Upgraded) != 2 || len(rep.Failed) != 0 {
		t.Fatalf("wave report %+v, want both workers upgraded", rep)
	}
	for i, id := range rep.Upgraded {
		if id != before[i].ID {
			t.Fatalf("wave order %v != inventory %v", rep.Upgraded, before)
		}
	}
	if issued.Load() == 0 {
		t.Fatal("load generator issued nothing")
	}
	if f := failures.Load(); f != 0 {
		t.Fatalf("%d of %d requests failed during the rolling upgrade", f, issued.Load())
	}
	for name, sys := range map[string]*System{"A": sysA, "B": sysB} {
		if st := sys.Net.Stats(); st.WireErrors != 0 {
			t.Fatalf("process %s: WireErrors=%d", name, st.WireErrors)
		}
	}
	t.Logf("wave upgraded %v under %d requests, 0 failures", rep.Upgraded, issued.Load())
}

// TestMultiProcessCacheHit: an object distilled once is served from
// the remote cache partition on the second request — the cross-
// process cache protocol (Call/Respond over the bridge) works end to
// end.
func TestMultiProcessCacheHit(t *testing.T) {
	sysA, _ := startPair(t, nil)
	ctx := context.Background()

	const url = "http://origin1.example/obj7.sjpg"
	if _, err := sysA.Request(ctx, url, "alice"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "cache-distilled hit", func() bool {
		resp, err := sysA.Request(ctx, url, "alice")
		return err == nil && resp.Source == "cache-distilled"
	})
}
