package monitor

import (
	"testing"
	"time"

	"repro/internal/san"
	"repro/internal/stub"
)

// TestMonitorOverWire feeds the monitor status reports and manager
// beacons through the SAN's codec: the reports group traffic it
// watches — including the metrics maps — must survive the codec, and
// the disable/enable control signals (body-less kinds) must still be
// deliverable.
func TestMonitorOverWire(t *testing.T) {
	net := san.NewNetwork(1, stub.WireCodec{})
	m, _ := startMonitor(t, net, time.Hour)
	ep := net.Endpoint(san.Addr{Node: "n1", Proc: "w0"}, 16)
	waitFor(t, "component visible over wire", func() bool {
		report(ep, "w0", "worker")
		snap := m.Snapshot()
		return len(snap) == 1 && snap[0].Component == "w0"
	})
	if snap := m.Snapshot(); snap[0].Metrics["qlen"] != 3 {
		t.Fatalf("metrics map lost in transit: %+v", snap[0].Metrics)
	}

	// Disable: a nil-body control message over the wire path.
	if err := m.Disable(ep.Addr()); err != nil {
		t.Fatal(err)
	}
	msg := <-ep.Inbox()
	if msg.Kind != stub.MsgDisable || msg.Body != nil {
		t.Fatalf("disable arrived as %q body=%#v", msg.Kind, msg.Body)
	}

	st := net.Stats()
	if st.WireErrors != 0 {
		t.Fatalf("%d monitor messages failed serialization", st.WireErrors)
	}
	if st.WireEncodes == 0 {
		t.Fatalf("codec never ran: %+v", st)
	}
}
