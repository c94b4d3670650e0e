package monitor

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/san"
	"repro/internal/stub"
)

func startMonitor(t *testing.T, net *san.Network, silence time.Duration) (*Monitor, *atomic.Int32) {
	t.Helper()
	var alerts atomic.Int32
	m := New(Config{
		Node:         "mon",
		Net:          net,
		SilenceAfter: silence,
		OnAlert:      func(Alert) { alerts.Add(1) },
	})
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go m.Run(ctx)
	return m, &alerts
}

func report(ep *san.Endpoint, component, kind string) {
	ep.Multicast(stub.GroupReports, stub.MsgMonReport, stub.StatusReport{
		Component: component,
		Kind:      kind,
		Node:      "n1",
		Metrics:   map[string]float64{"qlen": 3},
	})
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestMonitorTracksReports(t *testing.T) {
	net := san.NewNetwork(1, stub.WireCodec{})
	m, _ := startMonitor(t, net, time.Hour)
	ep := net.Endpoint(san.Addr{Node: "n1", Proc: "w0"}, 16)
	waitFor(t, "component visible", func() bool {
		report(ep, "w0", "worker")
		snap := m.Snapshot()
		return len(snap) == 1 && snap[0].Component == "w0" && snap[0].Kind == "worker"
	})
	snap := m.Snapshot()
	if snap[0].Metrics["qlen"] != 3 || snap[0].Silent {
		t.Fatalf("status = %+v", snap[0])
	}
}

func TestMonitorSilenceAlertAndRecovery(t *testing.T) {
	net := san.NewNetwork(1, stub.WireCodec{})
	m, alerts := startMonitor(t, net, 40*time.Millisecond)
	ep := net.Endpoint(san.Addr{Node: "n1", Proc: "w0"}, 16)
	waitFor(t, "component visible", func() bool {
		report(ep, "w0", "worker")
		return len(m.Snapshot()) == 1
	})
	// Go silent: alert fires and the component is marked SILENT.
	waitFor(t, "silence alert", func() bool { return alerts.Load() >= 1 })
	waitFor(t, "marked silent", func() bool {
		snap := m.Snapshot()
		return len(snap) == 1 && snap[0].Silent
	})
	if !strings.Contains(m.RenderTable(), "SILENT") {
		t.Fatal("render does not show silent state")
	}
	// Duplicate alerts are suppressed while still silent.
	n := alerts.Load()
	time.Sleep(100 * time.Millisecond)
	if alerts.Load() > n+1 {
		t.Fatalf("alert storm: %d alerts", alerts.Load())
	}
	// Recovery: a fresh report clears the state and emits a
	// recovery alert.
	before := len(m.Alerts())
	waitFor(t, "recovery", func() bool {
		report(ep, "w0", "worker")
		snap := m.Snapshot()
		return len(snap) == 1 && !snap[0].Silent
	})
	found := false
	for _, a := range m.Alerts()[before:] {
		if strings.Contains(a.Message, "recovered") {
			found = true
		}
	}
	if !found {
		t.Fatal("no recovery alert")
	}
}

func TestMonitorSeesManagerBeacons(t *testing.T) {
	net := san.NewNetwork(1, stub.WireCodec{})
	m, _ := startMonitor(t, net, time.Hour)
	mgr := net.Endpoint(san.Addr{Node: "m", Proc: "manager"}, 16)
	waitFor(t, "manager visible", func() bool {
		mgr.Multicast(stub.GroupControl, stub.MsgBeacon, stub.Beacon{
			Manager: mgr.Addr(),
			Workers: []stub.WorkerInfo{{ID: "w0"}},
		})
		snap := m.Snapshot()
		return len(snap) == 1 && snap[0].Kind == "manager" && snap[0].Metrics["workers"] == 1
	})
}

func TestMonitorDisableEnable(t *testing.T) {
	net := san.NewNetwork(1, stub.WireCodec{})
	m, _ := startMonitor(t, net, time.Hour)
	target := net.Endpoint(san.Addr{Node: "n1", Proc: "w0"}, 16)
	if err := m.Disable(target.Addr()); err != nil {
		t.Fatal(err)
	}
	msg := <-target.Inbox()
	if msg.Kind != stub.MsgDisable {
		t.Fatalf("got %s", msg.Kind)
	}
	if err := m.Enable(target.Addr()); err != nil {
		t.Fatal(err)
	}
	msg = <-target.Inbox()
	if msg.Kind != stub.MsgEnable {
		t.Fatalf("got %s", msg.Kind)
	}
}

func TestRenderTableFormatting(t *testing.T) {
	net := san.NewNetwork(1, stub.WireCodec{})
	m, _ := startMonitor(t, net, time.Hour)
	ep := net.Endpoint(san.Addr{Node: "n1", Proc: "a-worker"}, 16)
	waitFor(t, "component", func() bool {
		report(ep, "a-worker", "worker")
		return len(m.Snapshot()) == 1
	})
	out := m.RenderTable()
	if !strings.Contains(out, "a-worker") || !strings.Contains(out, "qlen=3.0") {
		t.Fatalf("render = %q", out)
	}
}

func TestDisabledList(t *testing.T) {
	net := san.NewNetwork(1, stub.WireCodec{})
	m, _ := startMonitor(t, net, time.Hour)
	a := net.Endpoint(san.Addr{Node: "n1", Proc: "w0"}, 16)
	b := net.Endpoint(san.Addr{Node: "n2", Proc: "w1"}, 16)
	if err := m.Disable(b.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := m.Disable(a.Addr()); err != nil {
		t.Fatal(err)
	}
	got := m.Disabled()
	if len(got) != 2 || got[0] != a.Addr() || got[1] != b.Addr() {
		t.Fatalf("Disabled() = %v, want sorted [n1/w0 n2/w1]", got)
	}
	if err := m.Enable(a.Addr()); err != nil {
		t.Fatal(err)
	}
	got = m.Disabled()
	if len(got) != 1 || got[0] != b.Addr() {
		t.Fatalf("Disabled() after enable = %v", got)
	}
}

// TestMonitorCopiesMetricsOnIngest: the monitor's view must not alias
// the reporter's map — a sender mutating its map after the multicast
// must not change (or race with) what the monitor displays.
func TestMonitorCopiesMetricsOnIngest(t *testing.T) {
	net := san.NewNetwork(1, stub.WireCodec{})
	m, _ := startMonitor(t, net, time.Hour)
	ep := net.Endpoint(san.Addr{Node: "n1", Proc: "w0"}, 16)

	// Warm up until the monitor has joined the report group, then send
	// the report under test exactly once.
	waitFor(t, "monitor joined", func() bool {
		report(ep, "warmup", "worker")
		return len(m.Snapshot()) >= 1
	})
	metrics := map[string]float64{"qlen": 3}
	ep.Multicast(stub.GroupReports, stub.MsgMonReport, stub.StatusReport{
		Component: "w0", Kind: "worker", Node: "n1", Metrics: metrics,
	})
	waitFor(t, "component visible", func() bool {
		for _, st := range m.Snapshot() {
			if st.Component == "w0" {
				return true
			}
		}
		return false
	})

	metrics["qlen"] = 99 // sender reuses its map for the next report
	for _, st := range m.Snapshot() {
		if st.Component == "w0" && st.Metrics["qlen"] != 3 {
			t.Fatalf("monitor aliased the reporter's metrics map: qlen=%v", st.Metrics["qlen"])
		}
	}
}

// TestMonitorHopBreakdown: span digests on the report group aggregate
// into per-hop count/avg/max across distinct processes.
func TestMonitorHopBreakdown(t *testing.T) {
	net := san.NewNetwork(1, stub.WireCodec{})
	m, _ := startMonitor(t, net, time.Hour)
	ep := net.Endpoint(san.Addr{Node: "n1", Proc: "w0"}, 16)

	waitFor(t, "monitor joined", func() bool {
		report(ep, "warmup", "worker")
		return len(m.Snapshot()) >= 1
	})
	ep.Multicast(stub.GroupReports, stub.MsgSpanDigest, stub.SpanDigest{
		Spans: []obs.Span{
			{Trace: 3, Proc: "a", Hop: "worker.service", Dur: int64(10 * time.Millisecond)},
			{Trace: 3, Proc: "b", Hop: "worker.service", Dur: int64(30 * time.Millisecond)},
			{Trace: 3, Proc: "a", Hop: "fe.request", Dur: int64(50 * time.Millisecond)},
		},
	})
	waitFor(t, "hops aggregated", func() bool { return len(m.HopBreakdown()) == 2 })

	hops := m.HopBreakdown()
	if hops[0].Hop != "fe.request" || hops[1].Hop != "worker.service" {
		t.Fatalf("hop order: %+v", hops)
	}
	ws := hops[1]
	if ws.Count != 2 || ws.Avg != 20*time.Millisecond || ws.Max != 30*time.Millisecond || ws.Procs != 2 {
		t.Fatalf("worker.service agg: %+v", ws)
	}
	if !strings.Contains(m.RenderTable(), "worker.service") {
		t.Fatal("RenderTable missing per-hop section")
	}
}
