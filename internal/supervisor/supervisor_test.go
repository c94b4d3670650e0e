package supervisor

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/san"
	"repro/internal/san/santest"
)

// fakeHost records every action; failures are switchable per op.
type fakeHost struct {
	mu        sync.Mutex
	restarts  map[string]int // op+":"+target -> count
	failNext  map[string]error
	compAddrs map[string]san.Addr
}

func newFakeHost() *fakeHost {
	return &fakeHost{
		restarts:  make(map[string]int),
		failNext:  make(map[string]error),
		compAddrs: make(map[string]san.Addr),
	}
}

func (h *fakeHost) act(op, target string) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	key := op + ":" + target
	if err := h.failNext[key]; err != nil {
		return err
	}
	h.restarts[key]++
	return nil
}

func (h *fakeHost) count(op, target string) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.restarts[op+":"+target]
}

func (h *fakeHost) Restart(name string) error { return h.act(OpRestart, name) }
func (h *fakeHost) Kill(name string) error    { return h.act(OpKill, name) }
func (h *fakeHost) SpawnWorker(class string, overflow bool) error {
	return h.act(OpSpawnWorker, class)
}
func (h *fakeHost) Addr(name string) (san.Addr, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	a, ok := h.compAddrs[name]
	return a, ok
}

// startSup boots a supervisor on a fresh network and returns it plus a
// client endpoint for issuing commands.
func startSup(t *testing.T, host Host) (*Supervisor, *san.Endpoint) {
	t.Helper()
	net := san.NewNetwork(1, &santest.Codec{})
	sup := New(Config{
		Name: "sup", Node: "n0", Net: net, Prefix: "b-", Host: host,
		HeartbeatGroup: "ctl", HeartbeatInterval: 5 * time.Millisecond,
		DisableKind: "ctl.disable", EnableKind: "ctl.enable",
	})
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go sup.Run(ctx)

	client := net.Endpoint(san.Addr{Node: "c0", Proc: "client"}, 64)
	go func() {
		for msg := range client.Inbox() {
			client.DeliverReply(msg)
		}
	}()
	return sup, client
}

func call(t *testing.T, client *san.Endpoint, to san.Addr, cmd Command) Ack {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	resp, err := client.Call(ctx, to, MsgCmd, cmd)
	if err != nil {
		t.Fatalf("command %+v: %v", cmd, err)
	}
	ack, ok := resp.Body.(Ack)
	if !ok {
		t.Fatalf("reply body %T", resp.Body)
	}
	return ack
}

// TestCommandsExecuteThroughHost: every restart/spawn/kill op reaches
// the host exactly once and acks OK.
func TestCommandsExecuteThroughHost(t *testing.T) {
	host := newFakeHost()
	sup, client := startSup(t, host)

	ops := []struct{ op, target string }{
		{OpRestart, "fe0"},
		{OpRestart, "cache1"},
		{OpRestart, "echo.3"},
		{OpSpawnWorker, "echo"},
		{OpKill, "cache0"},
	}
	for i, c := range ops {
		ack := call(t, client, sup.Addr(), Command{ID: uint64(i + 1), Origin: "t", Op: c.op, Target: c.target})
		if !ack.OK || ack.ID != uint64(i+1) {
			t.Fatalf("%s: ack %+v", c.op, ack)
		}
		if host.count(c.op, c.target) != 1 {
			t.Fatalf("%s executed %d times", c.op, host.count(c.op, c.target))
		}
	}
}

// TestDuplicateCommandIsIdempotent: redelivering a command (same
// origin and id) returns the cached ack without re-executing — the
// property that makes retry-after-lost-ack safe.
func TestDuplicateCommandIsIdempotent(t *testing.T) {
	host := newFakeHost()
	sup, client := startSup(t, host)

	cmd := Command{ID: 7, Origin: "mgr/a", Op: OpRestart, Target: "fe0"}
	first := call(t, client, sup.Addr(), cmd)
	second := call(t, client, sup.Addr(), cmd)
	if !first.OK || !second.OK {
		t.Fatalf("acks: %+v / %+v", first, second)
	}
	if got := host.count(OpRestart, "fe0"); got != 1 {
		t.Fatalf("duplicate delivery executed the restart %d times", got)
	}
	if st := sup.Stats(); st.Dupes != 1 || st.Commands != 1 {
		t.Fatalf("stats %+v, want 1 command + 1 dupe", st)
	}

	// A different id from the same origin is a new incident.
	third := call(t, client, sup.Addr(), Command{ID: 8, Origin: "mgr/a", Op: OpRestart, Target: "fe0"})
	if !third.OK || host.count(OpRestart, "fe0") != 2 {
		t.Fatalf("new incident not executed (count %d)", host.count(OpRestart, "fe0"))
	}
}

// TestFailedCommandAcksError: a host error comes back in the ack, and
// failures are NOT cached — a retry with the same id re-executes, so
// a transient refusal cannot be pinned against the incident's id.
func TestFailedCommandAcksError(t *testing.T) {
	host := newFakeHost()
	host.failNext[OpRestart+":cache0"] = fmt.Errorf("node is down")
	sup, client := startSup(t, host)

	ack := call(t, client, sup.Addr(), Command{ID: 1, Origin: "t", Op: OpRestart, Target: "cache0"})
	if ack.OK || ack.Err == "" {
		t.Fatalf("ack %+v, want error", ack)
	}
	if st := sup.Stats(); st.Failures != 1 {
		t.Fatalf("stats %+v", st)
	}
	// The transient condition clears; the SAME command id must now
	// execute for real instead of replaying the cached refusal.
	host.mu.Lock()
	delete(host.failNext, OpRestart+":cache0")
	host.mu.Unlock()
	ack = call(t, client, sup.Addr(), Command{ID: 1, Origin: "t", Op: OpRestart, Target: "cache0"})
	if !ack.OK {
		t.Fatalf("retry after transient failure replayed the refusal: %+v", ack)
	}
	if got := host.count(OpRestart, "cache0"); got != 1 {
		t.Fatalf("retry executed %d times, want 1", got)
	}
	// Unknown op also errors cleanly.
	ack = call(t, client, sup.Addr(), Command{ID: 2, Origin: "t", Op: "frobnicate", Target: "x"})
	if ack.OK {
		t.Fatalf("unknown op acked OK")
	}
}

// TestDisableEnableForwarded: OpDisable/OpEnable resolve the component
// address through the host and forward the configured control kinds.
func TestDisableEnableForwarded(t *testing.T) {
	host := newFakeHost()
	sup, client := startSup(t, host)

	comp := client // reuse the client's network
	compEp := sup.cfg.Net.Endpoint(san.Addr{Node: "n1", Proc: "w0"}, 8)
	host.mu.Lock()
	host.compAddrs["w0"] = compEp.Addr()
	host.mu.Unlock()
	_ = comp

	if ack := call(t, client, sup.Addr(), Command{ID: 1, Origin: "t", Op: OpDisable, Target: "w0"}); !ack.OK {
		t.Fatalf("disable ack %+v", ack)
	}
	select {
	case msg := <-compEp.Inbox():
		if msg.Kind != "ctl.disable" {
			t.Fatalf("component got kind %q", msg.Kind)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("disable never reached the component")
	}
	if ack := call(t, client, sup.Addr(), Command{ID: 2, Origin: "t", Op: OpEnable, Target: "w0"}); !ack.OK {
		t.Fatalf("enable ack %+v", ack)
	}
	select {
	case msg := <-compEp.Inbox():
		if msg.Kind != "ctl.enable" {
			t.Fatalf("component got kind %q", msg.Kind)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("enable never reached the component")
	}
	// Unknown component refuses.
	if ack := call(t, client, sup.Addr(), Command{ID: 3, Origin: "t", Op: OpDisable, Target: "nope"}); ack.OK {
		t.Fatal("disable of unknown component acked OK")
	}
}

// TestHeartbeatsAnnouncePrefix: hellos carry the address and prefix a
// manager needs for ownership resolution.
func TestHeartbeatsAnnouncePrefix(t *testing.T) {
	host := newFakeHost()
	sup, client := startSup(t, host)

	watcher := sup.cfg.Net.Endpoint(san.Addr{Node: "w", Proc: "watch"}, 64)
	watcher.Join("ctl")
	_ = client

	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case msg := <-watcher.Inbox():
			if msg.Kind != MsgHello {
				continue
			}
			hb, ok := msg.Body.(HelloMsg)
			if !ok {
				t.Fatalf("hello body %T", msg.Body)
			}
			if hb.Addr != sup.Addr() || hb.Prefix != "b-" || hb.Name != "sup" {
				t.Fatalf("hello %+v", hb)
			}
			return
		case <-time.After(20 * time.Millisecond):
		}
	}
	t.Fatal("no hello heartbeat observed")
}

// TestInvoke: the client helper round-trips a command through a peer
// supervisor, minting ids and origin automatically.
func TestInvoke(t *testing.T) {
	hostA, hostB := newFakeHost(), newFakeHost()
	net := san.NewNetwork(3, &santest.Codec{})
	supA := New(Config{Name: "supA", Node: "a0", Net: net, Prefix: "a-", Host: hostA})
	supB := New(Config{Name: "supB", Node: "b0", Net: net, Prefix: "b-", Host: hostB})
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go supA.Run(ctx)
	go supB.Run(ctx)

	cctx, ccancel := context.WithTimeout(ctx, 2*time.Second)
	defer ccancel()
	ack, err := supA.Invoke(cctx, supB.Addr(), Command{Op: OpKill, Target: "cache0"})
	if err != nil || !ack.OK {
		t.Fatalf("invoke: ack=%+v err=%v", ack, err)
	}
	if hostB.count(OpKill, "cache0") != 1 {
		t.Fatal("kill did not reach the peer host")
	}
	if hostA.count(OpKill, "cache0") != 0 {
		t.Fatal("kill executed on the wrong process")
	}
}

// TestResultCacheRetentionUnderRetryStorm: a storm of distinct
// commands overflowing the cache's soft capacity must NOT evict
// results still inside their retry window — redelivering any of them
// has to answer from the cache instead of re-executing (the
// double-restart bug age-gated eviction exists to prevent). Only the
// hard cap, and results past their retention age, may be shed.
func TestResultCacheRetentionUnderRetryStorm(t *testing.T) {
	host := newFakeHost()
	net := san.NewNetwork(1, &santest.Codec{})
	sup := New(Config{
		Name: "sup", Node: "n0", Net: net, Prefix: "n", Host: host,
		ResultCacheCap:  4,
		ResultRetention: time.Hour, // nothing ages out during the test
	})
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go sup.Run(ctx)
	client := net.Endpoint(san.Addr{Node: "c0", Proc: "client"}, 64)
	go func() {
		for msg := range client.Inbox() {
			client.DeliverReply(msg)
		}
	}()

	// 10 distinct incidents: 2.5x the soft cap, well under the hard cap.
	const storm = 10
	for i := 1; i <= storm; i++ {
		target := fmt.Sprintf("w%d", i)
		if ack := call(t, client, sup.Addr(), Command{ID: uint64(i), Origin: "mgr/a", Op: OpRestart, Target: target}); !ack.OK {
			t.Fatalf("command %d: %+v", i, ack)
		}
	}
	// Every incident — including the very first, which pure-FIFO
	// eviction at cap 4 would have discarded six commands ago — must
	// still answer idempotently.
	for i := 1; i <= storm; i++ {
		target := fmt.Sprintf("w%d", i)
		ack := call(t, client, sup.Addr(), Command{ID: uint64(i), Origin: "mgr/a", Op: OpRestart, Target: target})
		if !ack.OK {
			t.Fatalf("redelivery %d refused: %+v", i, ack)
		}
		if got := host.count(OpRestart, target); got != 1 {
			t.Fatalf("redelivery of in-retention command %d re-executed the restart (%d times)", i, got)
		}
	}
	if st := sup.Stats(); st.Dupes != storm || st.Commands != storm {
		t.Fatalf("stats %+v, want %d commands + %d dupes", st, storm, storm)
	}

	// The hard cap still bounds memory when age cannot: push past
	// cap*hardFactor and verify the cache sheds down to it.
	hard := sup.cfg.ResultCacheCap * resultCacheHardFactor
	for i := storm + 1; i <= hard+20; i++ {
		target := fmt.Sprintf("w%d", i)
		if ack := call(t, client, sup.Addr(), Command{ID: uint64(i), Origin: "mgr/a", Op: OpRestart, Target: target}); !ack.OK {
			t.Fatalf("command %d: %+v", i, ack)
		}
	}
	sup.mu.Lock()
	cached := len(sup.order)
	sup.mu.Unlock()
	if cached > hard {
		t.Fatalf("result cache holds %d entries, hard cap is %d", cached, hard)
	}
}

// TestResultCacheAgedEvictionRestoresCapacity: once results age past
// their retention window the soft cap reasserts itself, and a
// redelivery of an aged-out command re-executes — acceptable, because
// an origin still retrying after the retention window has violated
// the retry contract the window encodes.
func TestResultCacheAgedEvictionRestoresCapacity(t *testing.T) {
	host := newFakeHost()
	net := san.NewNetwork(2, &santest.Codec{})
	sup := New(Config{
		Name: "sup", Node: "n0", Net: net, Prefix: "n", Host: host,
		ResultCacheCap:  4,
		ResultRetention: 10 * time.Millisecond,
	})
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go sup.Run(ctx)
	client := net.Endpoint(san.Addr{Node: "c0", Proc: "client"}, 64)
	go func() {
		for msg := range client.Inbox() {
			client.DeliverReply(msg)
		}
	}()

	for i := 1; i <= 10; i++ {
		call(t, client, sup.Addr(), Command{ID: uint64(i), Origin: "mgr/a", Op: OpRestart, Target: fmt.Sprintf("w%d", i)})
	}
	time.Sleep(25 * time.Millisecond) // everything ages out of retention
	// The next completion triggers eviction down to the soft cap.
	call(t, client, sup.Addr(), Command{ID: 11, Origin: "mgr/a", Op: OpRestart, Target: "w11"})
	sup.mu.Lock()
	cached := len(sup.order)
	sup.mu.Unlock()
	if cached > sup.cfg.ResultCacheCap {
		t.Fatalf("aged results not evicted: %d cached, soft cap %d", cached, sup.cfg.ResultCacheCap)
	}
	// An aged-out incident re-executes on redelivery — exactly once more.
	call(t, client, sup.Addr(), Command{ID: 1, Origin: "mgr/a", Op: OpRestart, Target: "w1"})
	if got := host.count(OpRestart, "w1"); got != 2 {
		t.Fatalf("aged redelivery executed %d times total, want 2", got)
	}
}

// TestStaleEpochCommandFenced: the supervisor refuses commands stamped
// with an epoch older than the highest it has observed — from commands
// or from group traffic via EpochFrom — so a deposed primary can never
// double-restart a component. Epoch 0 stays unfenced for operator
// tooling.
func TestStaleEpochCommandFenced(t *testing.T) {
	host := newFakeHost()
	net := san.NewNetwork(3, &santest.Codec{})
	sup := New(Config{
		Name: "sup", Node: "n0", Net: net, Prefix: "n", Host: host,
		HeartbeatGroup: "ctl", HeartbeatInterval: 5 * time.Millisecond,
		EpochFrom: func(kind string, body any) (uint64, bool) {
			if kind != "test.beacon" {
				return 0, false
			}
			e, ok := body.(uint64)
			return e, ok
		},
	})
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go sup.Run(ctx)
	client := net.Endpoint(san.Addr{Node: "c0", Proc: "client"}, 64)
	go func() {
		for msg := range client.Inbox() {
			client.DeliverReply(msg)
		}
	}()

	// Epoch 3 command executes and raises the watermark.
	if ack := call(t, client, sup.Addr(), Command{ID: 1, Origin: "mgr/a", Op: OpRestart, Target: "w0", Epoch: 3}); !ack.OK {
		t.Fatalf("epoch-3 command refused: %+v", ack)
	}
	// A deposed primary's epoch-2 command is fenced: refused, never
	// executed.
	ack := call(t, client, sup.Addr(), Command{ID: 9, Origin: "mgr/b", Op: OpRestart, Target: "w0", Epoch: 2})
	if ack.OK {
		t.Fatal("stale-epoch command executed")
	}
	if got := host.count(OpRestart, "w0"); got != 1 {
		t.Fatalf("stale-epoch command reached the host (%d executions)", got)
	}
	if st := sup.Stats(); st.StaleEpoch != 1 {
		t.Fatalf("stats %+v, want 1 stale-epoch refusal", st)
	}
	// Epoch 0 is no election claim at all: always accepted.
	if ack := call(t, client, sup.Addr(), Command{ID: 10, Origin: "op/cli", Op: OpRestart, Target: "w1", Epoch: 0}); !ack.OK {
		t.Fatalf("unfenced command refused: %+v", ack)
	}

	// Beacons on the heartbeat group raise the watermark without any
	// command: an epoch-7 beacon fences even the regime that was valid a
	// moment ago.
	beaconer := net.Endpoint(san.Addr{Node: "m0", Proc: "mgr"}, 16)
	beaconer.Multicast("ctl", "test.beacon", uint64(7))
	waitFor := time.Now().Add(2 * time.Second)
	for sup.Epoch() < 7 && time.Now().Before(waitFor) {
		time.Sleep(time.Millisecond)
	}
	if sup.Epoch() != 7 {
		t.Fatalf("beacon-observed epoch = %d, want 7", sup.Epoch())
	}
	ack = call(t, client, sup.Addr(), Command{ID: 11, Origin: "mgr/a", Op: OpRestart, Target: "w0", Epoch: 3})
	if ack.OK {
		t.Fatal("command from a beacon-deposed epoch executed")
	}
}
