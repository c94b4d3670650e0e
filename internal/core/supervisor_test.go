package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/supervisor"
)

// TestSupervisorWiredIntoEveryRoleSet: a plain single-process system
// runs a supervisor daemon, the manager tracks its hello, and the
// Addr resolves every locally hosted component kind.
func TestSupervisorWiredIntoEveryRoleSet(t *testing.T) {
	s := startTranSend(t, nil)

	sup := s.Supervisor()
	if sup == nil {
		t.Fatal("no supervisor daemon")
	}
	if sup.Prefix() != "" {
		t.Fatalf("single-process supervisor prefix %q", sup.Prefix())
	}
	waitFor(t, "manager tracks the supervisor", func() bool {
		return s.Manager().Stats().Supervisors >= 1
	})
	hb, ok := s.Manager().SupervisorFor("node0")
	if !ok || hb.Addr != sup.Addr() {
		t.Fatalf("SupervisorFor(node0) = %+v ok=%v, want %v", hb, ok, sup.Addr())
	}
	if sups := s.Manager().Supervisors(); len(sups) != 1 || sups[0].Addr != sup.Addr() {
		t.Fatalf("Supervisors() = %v", sups)
	}

	// Addr covers workers, front ends, caches, the manager.
	workers := s.Workers()
	if len(workers) == 0 {
		t.Fatal("no workers")
	}
	for _, name := range []string{workers[0], "fe0", "cache0", "manager"} {
		if addr, ok := s.Addr(name); !ok || addr.Proc != name {
			t.Fatalf("Addr(%s) = %v ok=%v", name, addr, ok)
		}
	}
	if _, ok := s.Addr("nonesuch"); ok {
		t.Fatal("unknown component resolved")
	}
}

// TestKillComponentByName: Kill crashes every locally hosted component
// kind by name, after which Addr no longer resolves it; unknown names
// refuse.
func TestKillComponentByName(t *testing.T) {
	s := startTranSend(t, func(c *Config) {
		c.Seed = 2
		c.Managers = 2 // the standby is the manager victim; the primary keeps supervising
	})
	waitForWorkers(t, s, 3)
	// Supervision must be live before the kill: the manager can only
	// infer the death of a component it has heard from.
	waitFor(t, "cache supervision live", func() bool {
		return s.Manager().Stats().Caches >= 2
	})

	for _, tc := range []struct{ kind, name string }{
		{"worker", s.Workers()[0]},
		{"cache", "cache0"},
		{"front end", "fe0"},
		{"manager replica", "manager-r1"},
	} {
		if _, ok := s.Addr(tc.name); !ok {
			t.Fatalf("%s %s does not resolve before the kill", tc.kind, tc.name)
		}
		if err := s.Kill(tc.name); err != nil {
			t.Fatalf("kill %s %s: %v", tc.kind, tc.name, err)
		}
		if addr, ok := s.Addr(tc.name); ok {
			t.Fatalf("killed %s %s still resolves to %v", tc.kind, tc.name, addr)
		}
	}
	if err := s.Kill("nonesuch"); err == nil {
		t.Fatal("killed a component that does not exist")
	}
	// The manager's process-peer duty brings the cache back (local
	// path — no delegation in one process).
	waitFor(t, "cache respawned", func() bool {
		return s.Manager().Stats().CacheRestarts >= 1
	})
}

// TestSupervisorRespawnedByWatchdog: the supervisor is not the one
// component nobody supervises — killing it brings a replacement at
// the same address.
func TestSupervisorRespawnedByWatchdog(t *testing.T) {
	s := startTranSend(t, func(c *Config) { c.Seed = 3 })
	// The daemon must be live (heartbeating) before the crash, or the
	// drop races its startup re-registration.
	waitFor(t, "supervisor heartbeating", func() bool {
		return s.Manager().Stats().Supervisors >= 1 && s.Supervisor().Stats().Hellos >= 1
	})
	sup := s.Supervisor()
	addr := sup.Addr()
	s.Net.Drop(addr) // crash: endpoint gone, Run exits on closed inbox
	waitFor(t, "supervisor respawned", func() bool {
		cur := s.Supervisor()
		return cur != sup && s.Net.Lookup(addr)
	})
	if got := s.Supervisor().Addr(); got != addr {
		t.Fatalf("respawned supervisor moved: %v != %v", got, addr)
	}
	// The replacement serves commands: the full circle.
	waitFor(t, "replacement heartbeating", func() bool {
		return s.Supervisor().Stats().Hellos >= 1
	})
}

// TestRestartWorkerKeepsIdentity: the hot-upgrade restart respawns the
// same worker id (fresh stub, same address) and the worker returns to
// service — the per-worker step UpgradeWave is built from.
func TestRestartWorkerKeepsIdentity(t *testing.T) {
	s := startTranSend(t, func(c *Config) { c.Seed = 4 })
	sup := s.Supervisor()
	waitForWorkers(t, s, 3)

	victim := s.Workers()[0]
	before := s.WorkerStub(victim)
	addr, _ := s.Addr(victim)
	hb, _ := s.Manager().SupervisorFor(addr.Node)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	ack, err := sup.Invoke(ctx, hb.Addr, supervisor.Command{
		Op: supervisor.OpRestart, Target: victim,
	})
	if err != nil || !ack.OK {
		t.Fatalf("restart: ack=%+v err=%v", ack, err)
	}
	after := s.WorkerStub(victim)
	if after == nil || after == before {
		t.Fatal("worker was not replaced by a fresh stub")
	}
	if after.Addr() != before.Addr() {
		t.Fatalf("restart moved the worker: %v != %v", after.Addr(), before.Addr())
	}
	waitForWorkers(t, s, 3) // the upgraded instance re-registers
}
