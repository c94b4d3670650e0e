package san

import (
	"context"
	"sync"
	"testing"
	"time"
)

func addr(node, proc string) Addr { return Addr{Node: node, Proc: proc} }

func TestPointToPoint(t *testing.T) {
	n := NewNetwork(1, &countingCodec{})
	a := n.Endpoint(addr("n1", "a"), 8)
	b := n.Endpoint(addr("n2", "b"), 8)
	if err := a.Send(b.Addr(), "ping", "hello"); err != nil {
		t.Fatal(err)
	}
	msg := <-b.Inbox()
	if msg.Kind != "ping" || msg.Body.(string) != "hello" || msg.From != a.Addr() {
		t.Fatalf("bad message: %+v", msg)
	}
	s := n.Stats()
	if s.Sent != 1 || s.Bytes != 5 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestSendUnknownAddr(t *testing.T) {
	n := NewNetwork(1, &countingCodec{})
	a := n.Endpoint(addr("n1", "a"), 8)
	err := a.Send(addr("nx", "ghost"), "ping", nil)
	if err == nil {
		t.Fatal("expected ErrUnknownAddr")
	}
}

func TestMulticast(t *testing.T) {
	n := NewNetwork(1, &countingCodec{})
	a := n.Endpoint(addr("n1", "a"), 8)
	b := n.Endpoint(addr("n2", "b"), 8)
	c := n.Endpoint(addr("n3", "c"), 8)
	b.Join("ctl")
	c.Join("ctl")
	a.Join("ctl") // sender should not receive its own multicast
	if got := a.Multicast("ctl", "beacon", 7); got != 2 {
		t.Fatalf("delivered = %d, want 2", got)
	}
	for _, ep := range []*Endpoint{b, c} {
		msg := <-ep.Inbox()
		if msg.Group != "ctl" || msg.Kind != "beacon" || msg.Body.(int) != 7 {
			t.Fatalf("bad multicast: %+v", msg)
		}
	}
	select {
	case m := <-a.Inbox():
		t.Fatalf("sender received own multicast: %+v", m)
	default:
	}
}

func TestLeaveGroup(t *testing.T) {
	n := NewNetwork(1, &countingCodec{})
	a := n.Endpoint(addr("n1", "a"), 8)
	b := n.Endpoint(addr("n2", "b"), 8)
	b.Join("ctl")
	b.Leave("ctl")
	if got := a.Multicast("ctl", "x", nil); got != 0 {
		t.Fatalf("delivered after leave = %d", got)
	}
}

func TestPartitionDropsTraffic(t *testing.T) {
	n := NewNetwork(1, &countingCodec{})
	a := n.Endpoint(addr("n1", "a"), 8)
	b := n.Endpoint(addr("n2", "b"), 8)
	b.Join("ctl")
	n.Partition(map[string]int{"n1": 0, "n2": 1})
	if err := a.Send(b.Addr(), "ping", nil); err != nil {
		t.Fatal(err) // silent drop, not an error
	}
	a.Multicast("ctl", "beacon", nil)
	select {
	case m := <-b.Inbox():
		t.Fatalf("message crossed partition: %+v", m)
	case <-time.After(10 * time.Millisecond):
	}
	n.Heal()
	if err := a.Send(b.Addr(), "ping", nil); err != nil {
		t.Fatal(err)
	}
	if msg := <-b.Inbox(); msg.Kind != "ping" {
		t.Fatalf("bad message after heal: %+v", msg)
	}
}

func TestLoss(t *testing.T) {
	n := NewNetwork(42, &countingCodec{})
	a := n.Endpoint(addr("n1", "a"), 4096)
	b := n.Endpoint(addr("n2", "b"), 4096)
	n.SetLoss(0.5, 0)
	const total = 2000
	for i := 0; i < total; i++ {
		if err := a.Send(b.Addr(), "d", i); err != nil {
			t.Fatal(err)
		}
	}
	got := len(b.Inbox())
	if got < total/3 || got > 2*total/3 {
		t.Fatalf("with 50%% loss, delivered %d/%d", got, total)
	}
}

func TestMulticastLoss(t *testing.T) {
	n := NewNetwork(42, &countingCodec{})
	a := n.Endpoint(addr("n1", "a"), 8)
	b := n.Endpoint(addr("n2", "b"), 4096)
	b.Join("ctl")
	n.SetLoss(0, 1.0)
	if got := a.Multicast("ctl", "x", nil); got != 0 {
		t.Fatalf("delivered %d with 100%% mcast loss", got)
	}
	if n.Stats().McastDropped == 0 {
		t.Fatal("expected multicast drops counted")
	}
}

func TestCallRespond(t *testing.T) {
	n := NewNetwork(1, &countingCodec{})
	client := n.Endpoint(addr("n1", "client"), 8)
	server := n.Endpoint(addr("n2", "server"), 8)

	done := make(chan struct{})
	go func() {
		defer close(done)
		for msg := range server.Inbox() {
			if msg.Kind == "add" {
				server.Respond(msg, "sum", msg.Body.(int)+1)
				return
			}
		}
	}()
	// The client receive loop routes replies.
	go func() {
		for msg := range client.Inbox() {
			client.DeliverReply(msg)
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	resp, err := client.Call(ctx, server.Addr(), "add", 41)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Kind != "sum" || resp.Body.(int) != 42 {
		t.Fatalf("bad reply: %+v", resp)
	}
	<-done
}

func TestCallTimeout(t *testing.T) {
	n := NewNetwork(1, &countingCodec{})
	client := n.Endpoint(addr("n1", "client"), 8)
	n.Endpoint(addr("n2", "server"), 8) // never answers
	go func() {
		for msg := range client.Inbox() {
			client.DeliverReply(msg)
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := client.Call(ctx, addr("n2", "server"), "add", 1)
	if err == nil {
		t.Fatal("expected timeout")
	}
}

func TestCallToDeadEndpoint(t *testing.T) {
	n := NewNetwork(1, &countingCodec{})
	client := n.Endpoint(addr("n1", "client"), 8)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := client.Call(ctx, addr("nx", "ghost"), "add", 1)
	if err == nil {
		t.Fatal("expected error calling unknown address")
	}
}

func TestLateReplyIsConsumedQuietly(t *testing.T) {
	n := NewNetwork(1, &countingCodec{})
	client := n.Endpoint(addr("n1", "client"), 8)
	server := n.Endpoint(addr("n2", "server"), 8)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	go func() {
		for msg := range client.Inbox() {
			if !client.DeliverReply(msg) {
				t.Error("late reply not consumed")
			}
		}
	}()
	_, err := client.Call(ctx, server.Addr(), "slow", nil)
	if err == nil {
		t.Fatal("expected timeout")
	}
	// Server answers after the caller gave up.
	req := <-server.Inbox()
	if err := server.Respond(req, "late", nil); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
}

func TestDropNode(t *testing.T) {
	n := NewNetwork(1, &countingCodec{})
	a := n.Endpoint(addr("n1", "a"), 8)
	b := n.Endpoint(addr("n2", "b"), 8)
	b.Join("ctl")
	n.DropNode("n2")
	if n.Lookup(b.Addr()) {
		t.Fatal("endpoint survived node drop")
	}
	if err := a.Send(b.Addr(), "ping", nil); err == nil {
		t.Fatal("expected unknown-address error after node drop")
	}
	if got := a.Multicast("ctl", "x", nil); got != 0 {
		t.Fatalf("multicast reached dropped node: %d", got)
	}
	// The dropped endpoint's inbox is closed.
	if _, ok := <-b.Inbox(); ok {
		t.Fatal("inbox not closed after node drop")
	}
}

func TestReRegisterReplacesEndpoint(t *testing.T) {
	n := NewNetwork(1, &countingCodec{})
	old := n.Endpoint(addr("n1", "p"), 8)
	nu := n.Endpoint(addr("n1", "p"), 8)
	if _, ok := <-old.Inbox(); ok {
		t.Fatal("old endpoint not closed on re-register")
	}
	src := n.Endpoint(addr("n2", "src"), 8)
	if err := src.Send(addr("n1", "p"), "ping", nil); err != nil {
		t.Fatal(err)
	}
	if msg := <-nu.Inbox(); msg.Kind != "ping" {
		t.Fatalf("new endpoint missed message: %+v", msg)
	}
}

func TestFullInboxDrops(t *testing.T) {
	n := NewNetwork(1, &countingCodec{})
	a := n.Endpoint(addr("n1", "a"), 8)
	b := n.Endpoint(addr("n2", "b"), 1)
	if err := a.Send(b.Addr(), "one", nil); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(b.Addr(), "two", nil); err != nil {
		t.Fatal(err) // silently dropped
	}
	if n.Stats().Dropped != 1 {
		t.Fatalf("dropped = %d, want 1", n.Stats().Dropped)
	}
}

func TestLatency(t *testing.T) {
	n := NewNetwork(1, &countingCodec{})
	n.SetLatency(func() time.Duration { return 10 * time.Millisecond })
	a := n.Endpoint(addr("n1", "a"), 8)
	b := n.Endpoint(addr("n2", "b"), 8)
	start := time.Now()
	if err := a.Send(b.Addr(), "ping", nil); err != nil {
		t.Fatal(err)
	}
	<-b.Inbox()
	if elapsed := time.Since(start); elapsed < 8*time.Millisecond {
		t.Fatalf("latency not applied: %v", elapsed)
	}
}

func TestConcurrentSendersRace(t *testing.T) {
	n := NewNetwork(1, &countingCodec{})
	dst := n.Endpoint(addr("n0", "sink"), 100000)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			ep := n.Endpoint(Addr{Node: "n1", Proc: "p" + string(rune('a'+g))}, 8)
			for i := 0; i < 500; i++ {
				_ = ep.Send(dst.Addr(), "d", i)
			}
		}()
	}
	wg.Wait()
	if got := len(dst.Inbox()); got != 16*500 {
		t.Fatalf("received %d, want %d", got, 16*500)
	}
}

func TestCloseFailsPendingCalls(t *testing.T) {
	n := NewNetwork(1, &countingCodec{})
	client := n.Endpoint(addr("n1", "client"), 8)
	server := n.Endpoint(addr("n2", "server"), 8)
	errc := make(chan error, 1)
	go func() {
		ctx := context.Background()
		_, err := client.Call(ctx, server.Addr(), "never", nil)
		errc <- err
	}()
	time.Sleep(5 * time.Millisecond)
	client.Close()
	if err := <-errc; err == nil {
		t.Fatal("pending call survived endpoint close")
	}
}

func TestAddrString(t *testing.T) {
	a := Addr{Node: "n1", Proc: "fe0"}
	if a.String() != "n1/fe0" {
		t.Fatalf("String = %q", a.String())
	}
	if a.IsZero() || (Addr{}).IsZero() == false {
		t.Fatal("IsZero broken")
	}
}

func TestLossBurstRestoresPriorLoss(t *testing.T) {
	n := NewNetwork(1, &countingCodec{})
	a := n.Endpoint(addr("n1", "a"), 256)
	b := n.Endpoint(addr("n2", "b"), 256)

	n.SetLoss(0, 0)
	n.LossBurst(1, 1, 30*time.Millisecond) // drop everything briefly
	if err := a.Send(b.Addr(), "k", nil); err != nil {
		t.Fatal(err)
	}
	if got := n.Stats().Dropped; got != 1 {
		t.Fatalf("dropped = %d during burst", got)
	}
	// After the burst the pre-burst (lossless) config returns.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if err := a.Send(b.Addr(), "k", nil); err != nil {
			t.Fatal(err)
		}
		select {
		case <-b.Inbox():
			return // delivered: loss restored to 0
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("loss never restored after burst")
		}
	}
}

func TestPartitionForHeals(t *testing.T) {
	n := NewNetwork(1, &countingCodec{})
	a := n.Endpoint(addr("n1", "a"), 256)
	b := n.Endpoint(addr("n2", "b"), 256)

	n.PartitionFor(map[string]int{"n2": 1}, 30*time.Millisecond)
	if err := a.Send(b.Addr(), "k", nil); err != nil {
		t.Fatal(err)
	}
	if got := n.Stats().Dropped; got != 1 {
		t.Fatalf("dropped = %d across partition", got)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if err := a.Send(b.Addr(), "k", nil); err != nil {
			t.Fatal(err)
		}
		select {
		case <-b.Inbox():
			return // healed
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("partition never healed")
		}
	}
}
