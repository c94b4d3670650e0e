package core

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/distiller"
	"repro/internal/manager"
	"repro/internal/media"
	"repro/internal/tacc"
	"repro/internal/trace"
)

const tick = 15 * time.Millisecond

// startTranSend boots a small TranSend deployment with compressed
// timers suitable for tests.
func startTranSend(t *testing.T, mutate func(*Config)) *System {
	t.Helper()
	reg := tacc.NewRegistry()
	distiller.RegisterAll(reg)
	cfg := Config{
		Seed:           1,
		DedicatedNodes: 6,
		OverflowNodes:  2,
		FrontEnds:      1,
		CacheParts:     2,
		Workers: map[string]int{
			distiller.ClassSGIF: 1,
			distiller.ClassSJPG: 1,
			distiller.ClassHTML: 1,
		},
		Registry:       reg,
		Rules:          distiller.TranSendRules(),
		ProfileDir:     t.TempDir(),
		BeaconInterval: tick,
		ReportInterval: tick,
		CallTimeout:    2 * time.Second,
		Policy: manager.Policy{
			SpawnThreshold: 1e9, // no autoscaling unless a test wants it
			Damping:        time.Hour,
			ReapThreshold:  -1,
		},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Stop)
	return s
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(3 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func waitForWorkers(t *testing.T, s *System, n int) {
	t.Helper()
	waitFor(t, fmt.Sprintf("%d workers registered", n), func() bool {
		return s.Manager().Stats().Workers >= n
	})
	// Front ends learn about workers from beacons, and the manager
	// must be tracking the front ends (process-peer coverage).
	waitFor(t, "front ends see workers", func() bool {
		for _, fe := range s.FrontEnds() {
			if fe.ManagerStub().Stats().BeaconsSeen == 0 {
				return false
			}
		}
		return s.Manager().Stats().FrontEnds >= len(s.FrontEnds())
	})
}

func TestEndToEndDistillation(t *testing.T) {
	s := startTranSend(t, nil)
	waitForWorkers(t, s, 3)
	ctx := context.Background()

	// A large JPEG gets distilled.
	url := trace.ObjectURL(42, media.MIMESJPG)
	var resp = mustRequest(t, s, url, "user1")
	if resp.Source != "distilled" {
		t.Fatalf("source = %s, want distilled", resp.Source)
	}
	orig, err := s.cfg.Origin.Fetch(ctx, url)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Blob.Size() >= orig.Size() {
		t.Fatalf("distilled %d >= original %d", resp.Blob.Size(), orig.Size())
	}

	// Same request again: served from the cache as a distilled hit.
	resp2 := mustRequest(t, s, url, "user1")
	if resp2.Source != "cache-distilled" {
		t.Fatalf("second source = %s, want cache-distilled", resp2.Source)
	}
	if string(resp2.Blob.Data) != string(resp.Blob.Data) {
		t.Fatal("cache returned different bytes")
	}
}

func mustRequest(t *testing.T, s *System, url, user string) (resp frontendResponse) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	r, err := s.Request(ctx, url, user)
	if err != nil {
		t.Fatalf("request %s: %v", url, err)
	}
	return frontendResponse{Blob: r.Blob, Source: r.Source}
}

// frontendResponse avoids importing frontend in every assertion.
type frontendResponse struct {
	Blob   tacc.Blob
	Source string
}

func TestHTMLGetsMungedWithProfile(t *testing.T) {
	s := startTranSend(t, nil)
	waitForWorkers(t, s, 3)
	if err := s.SetProfile("alice", "quality", "10"); err != nil {
		t.Fatal(err)
	}
	url := trace.ObjectURL(7, media.MIMEHTML)
	resp := mustRequest(t, s, url, "alice")
	if resp.Source != "distilled" {
		t.Fatalf("source = %s", resp.Source)
	}
	body := string(resp.Blob.Data)
	if !strings.Contains(body, "transend-toolbar") {
		t.Fatal("toolbar missing from munged page")
	}
	if !strings.Contains(body, "quality=10") {
		t.Fatal("profile quality not propagated into munged links")
	}
}

func TestSmallContentPassesThrough(t *testing.T) {
	s := startTranSend(t, func(cfg *Config) {
		cfg.MinDistillSize = 1 << 20 // everything is "small"
	})
	waitForWorkers(t, s, 3)
	url := trace.ObjectURL(42, media.MIMESJPG)
	resp := mustRequest(t, s, url, "u")
	if resp.Source != "original" {
		t.Fatalf("source = %s, want original (1KB threshold)", resp.Source)
	}
}

func TestWorkerCrashFallsBackThenRecovers(t *testing.T) {
	s := startTranSend(t, nil)
	waitForWorkers(t, s, 3)

	// Find and crash the SJPG distiller.
	victim := stubAddrOf(t, s, distiller.ClassSJPG).Proc
	if err := s.Kill(victim); err != nil {
		t.Fatal(err)
	}

	// Immediately after the crash the dispatch may fail over or
	// fall back to the original — but the user always gets bytes.
	url := trace.ObjectURL(1001, media.MIMESJPG)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	resp, err := s.Request(ctx, url, "u")
	if err != nil {
		t.Fatalf("request during failure: %v", err)
	}
	if resp.Blob.Size() == 0 {
		t.Fatal("empty response during failure")
	}

	// The manager replaces the crashed worker (TTL + replica floor).
	waitFor(t, "replacement worker", func() bool {
		for _, fe := range s.FrontEnds() {
			if len(fe.ManagerStub().Workers(distiller.ClassSJPG)) >= 1 {
				return true
			}
		}
		return false
	})
	// And distillation works again.
	waitFor(t, "distillation recovers", func() bool {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		r, err := s.Request(ctx, trace.ObjectURL(2002, media.MIMESJPG), "u")
		return err == nil && r.Source == "distilled"
	})
}

func TestManagerCrashIsMaskedAndRepaired(t *testing.T) {
	s := startTranSend(t, nil)
	waitForWorkers(t, s, 3)

	epoch0 := s.Manager()
	if err := s.KillManager(); err != nil {
		t.Fatal(err)
	}

	// Requests keep working off cached beacon state while the
	// manager is dead (§3.1.8 stale load-balancing data).
	resp := mustRequest(t, s, trace.ObjectURL(55, media.MIMESJPG), "u")
	if resp.Blob.Size() == 0 {
		t.Fatal("no answer while manager down")
	}

	// The front end's watchdog restarts the manager; workers
	// re-register with the new epoch.
	waitFor(t, "manager restarted", func() bool {
		m := s.Manager()
		return m != epoch0 && m.Stats().Workers >= 3
	})
}

func TestFrontEndCrashIsRestartedByManager(t *testing.T) {
	s := startTranSend(t, nil)
	waitForWorkers(t, s, 3)
	if err := s.Kill("fe0"); err != nil {
		t.Fatal(err)
	}
	// The manager's FE TTL expires and it respawns fe0.
	waitFor(t, "front end restarted", func() bool {
		fes := s.FrontEnds()
		return len(fes) == 1 && fes[0].Running()
	})
	resp := mustRequest(t, s, trace.ObjectURL(9, media.MIMESJPG), "u")
	if resp.Blob.Size() == 0 {
		t.Fatal("restarted front end served nothing")
	}
}

func TestAutoscaleUnderLoadAndOverflow(t *testing.T) {
	s := startTranSend(t, func(cfg *Config) {
		cfg.DedicatedNodes = 2 // tiny dedicated pool
		cfg.OverflowNodes = 2
		cfg.ProcsPerNode = 4
		cfg.Workers = map[string]int{distiller.ClassSJPG: 1}
		cfg.Policy = manager.Policy{
			SpawnThreshold: 2,
			Damping:        5 * tick,
			ReapThreshold:  -1, // no reaping during the ramp
		}
		cfg.FEThreads = 64
	})
	waitForWorkers(t, s, 1)

	// Hammer with concurrent requests for distinct URLs (no cache
	// hits) so distiller queues grow.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for g := 0; g < 32; g++ {
		g := g
		go func() {
			for i := 0; ctx.Err() == nil; i++ {
				url := trace.ObjectURL(10000+g*10000+i, media.MIMESJPG)
				rctx, rcancel := context.WithTimeout(ctx, 5*time.Second)
				s.Request(rctx, url, "u")
				rcancel()
			}
		}()
	}
	waitFor(t, "autoscale spawn", func() bool {
		return s.Manager().Stats().Spawns >= 2
	})
	cancel()
}

func TestMonitorSeesComponentsAndAlertsOnSilence(t *testing.T) {
	s := startTranSend(t, nil)
	waitForWorkers(t, s, 3)
	waitFor(t, "monitor sees components", func() bool {
		snap := s.Mon.Snapshot()
		kinds := map[string]int{}
		for _, c := range snap {
			kinds[c.Kind]++
		}
		return kinds["worker"] >= 3 && kinds["frontend"] >= 1 && kinds["manager"] >= 1
	})
	if !strings.Contains(s.Mon.RenderTable(), "COMPONENT") {
		t.Fatal("render table broken")
	}

	// Crash a worker: the monitor alerts on its silence.
	victim := stubAddrOf(t, s, distiller.ClassHTML).Proc
	if err := s.Kill(victim); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "silence alert", func() bool {
		for _, a := range s.Mon.Alerts() {
			if a.Component == victim {
				return true
			}
		}
		return false
	})
}

func TestHotUpgradeDisableEnableWorker(t *testing.T) {
	s := startTranSend(t, func(cfg *Config) {
		cfg.Workers = map[string]int{distiller.ClassSJPG: 2}
	})
	waitForWorkers(t, s, 2)

	// Disable one SJPG worker via the monitor; service continues on
	// the other.
	var addr = stubAddrOf(t, s, distiller.ClassSJPG)
	if err := s.Mon.Disable(addr); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "worker deregisters", func() bool {
		return s.Manager().Stats().Workers == 1
	})
	// Service continues on the remaining worker. A fallback is
	// acceptable in the brief window before the front end's cached
	// table drops the disabled instance; distillation must resume.
	waitFor(t, "distillation on remaining worker", func() bool {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		r, err := s.Request(ctx, trace.ObjectURL(77, media.MIMESJPG), "u")
		return err == nil && (r.Source == "distilled" || r.Source == "cache-distilled")
	})
	// Re-enable: both workers back.
	if err := s.Mon.Enable(addr); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "worker re-registers", func() bool {
		return s.Manager().Stats().Workers == 2
	})
}

func stubAddrOf(t *testing.T, s *System, class string) (addr sanAddr) {
	t.Helper()
	for _, id := range s.Workers() {
		if a, ok := s.Addr(id); ok && strings.HasPrefix(id, class) {
			return a
		}
	}
	t.Fatalf("no worker of class %s", class)
	return
}

// sanAddr aliases san.Addr to keep the test imports tight.
type sanAddr = struct{ Node, Proc string }

func TestUnknownWorkerClassFailsGracefully(t *testing.T) {
	s := startTranSend(t, func(cfg *Config) {
		cfg.Rules = func(url, mime string, profile map[string]string) tacc.Pipeline {
			return tacc.Pipeline{{Class: "no-such-class"}}
		}
	})
	waitFor(t, "beacons", func() bool {
		fes := s.FrontEnds()
		return len(fes) == 1 && fes[0].ManagerStub().Stats().BeaconsSeen > 0
	})
	// Dispatch fails (no worker, spawn fails), so the front end
	// falls back to the original: the user still gets bytes.
	resp := mustRequest(t, s, trace.ObjectURL(5, media.MIMESJPG), "u")
	if resp.Source != "fallback-original" {
		t.Fatalf("source = %s, want fallback-original", resp.Source)
	}
}

func TestProfilePersistsAcrossSystemRestart(t *testing.T) {
	dir := t.TempDir()
	s1 := startTranSend(t, func(cfg *Config) { cfg.ProfileDir = dir })
	if err := s1.SetProfile("bob", "scale", "4"); err != nil {
		t.Fatal(err)
	}
	s1.Stop()

	s2 := startTranSend(t, func(cfg *Config) { cfg.ProfileDir = dir })
	if got := s2.Profile.Get("bob")["scale"]; got != "4" {
		t.Fatalf("profile after restart = %q, want 4 (ACID durability)", got)
	}
}

func TestSANPartitionWorkerRestartedOnVisibleSide(t *testing.T) {
	// §2.2.4: "if workers lost because of a SAN partition can be
	// restarted on still-visible nodes, the manager performs the
	// necessary actions."
	s := startTranSend(t, func(cfg *Config) {
		cfg.Workers = map[string]int{distiller.ClassSJPG: 1}
	})
	waitForWorkers(t, s, 1)

	node := stubAddrOf(t, s, distiller.ClassSJPG).Node

	// Cut the worker's node off from the rest of the cluster. Its
	// reports stop arriving; the manager infers the loss by timeout
	// and restarts the worker on a still-visible node.
	s.Net.Partition(map[string]int{node: 1})
	waitFor(t, "replacement on visible side", func() bool {
		st := s.Manager().Stats()
		return st.Spawns >= 1 && st.Workers >= 1
	})
	waitFor(t, "distillation resumes", func() bool {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		r, err := s.Request(ctx, trace.ObjectURL(4040, media.MIMESJPG), "u")
		return err == nil && (r.Source == "distilled" || r.Source == "cache-distilled")
	})

	// Heal: the marooned original is still alive and re-registers on
	// the next beacon it hears — no recovery protocol required.
	before := s.Manager().Stats().Workers
	s.Net.Heal()
	waitFor(t, "partitioned worker re-registers", func() bool {
		return s.Manager().Stats().Workers > before
	})
}

func TestAggregationThroughPlatform(t *testing.T) {
	// Aggregation workers (multiple inputs) ride the same dispatch
	// path as transformations: §2.3's composable building blocks.
	s := startTranSend(t, func(cfg *Config) {
		cfg.Workers = map[string]int{distiller.ClassSearch: 1}
	})
	waitForWorkers(t, s, 1)
	fe := s.FrontEnds()[0]
	waitFor(t, "aggregator visible", func() bool {
		return len(fe.ManagerStub().Workers(distiller.ClassSearch)) == 1
	})
	task := &tacc.Task{
		Key: "meta:q",
		Inputs: []tacc.Blob{
			{MIME: media.MIMEHTML, Data: []byte(`<li><a href="http://a/1">one</a></li>`)},
			{MIME: media.MIMEHTML, Data: []byte(`<li><a href="http://b/2">two</a></li>`)},
		},
		Params: map[string]string{"query": "q"},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	out, err := fe.ManagerStub().Dispatch(ctx, distiller.ClassSearch, task)
	if err != nil {
		t.Fatal(err)
	}
	if out.Meta["results"] != "2" {
		t.Fatalf("collated %s results, want 2", out.Meta["results"])
	}
}
