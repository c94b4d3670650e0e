package san

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// countingCodec is the package tests' wire codec: a non-empty string
// body encodes as its bytes, an int body as a zero byte plus a varint
// (nil bodies never reach a codec). It counts every encode and decode
// call — the instrument behind the encode-once fan-out assertions.
type countingCodec struct {
	encodes atomic.Int64
	decodes atomic.Int64
}

var errBadBody = errors.New("countingCodec: body is neither a string nor an int")

func (c *countingCodec) AppendBody(dst []byte, kind string, body any) ([]byte, error) {
	c.encodes.Add(1)
	switch v := body.(type) {
	case string:
		return append(dst, v...), nil
	case int:
		return binary.AppendVarint(append(dst, 0), int64(v)), nil
	}
	return nil, errBadBody
}

func (c *countingCodec) DecodeBodyView(kind string, data []byte) (any, bool, error) {
	c.decodes.Add(1)
	if data[0] != 0 {
		return string(data), false, nil
	}
	if v, n := binary.Varint(data[1:]); n > 0 {
		return int(v), false, nil
	}
	return nil, false, errBadBody
}

func wireNet(t *testing.T) (*Network, *countingCodec) {
	t.Helper()
	c := &countingCodec{}
	return NewNetwork(1, c), c
}

// TestWireSendRoundTrip: a point-to-point send crosses the SAN as
// bytes and the receiver gets an equal, independent value.
func TestWireSendRoundTrip(t *testing.T) {
	n, c := wireNet(t)
	a := n.Endpoint(Addr{Node: "n1", Proc: "a"}, 4)
	b := n.Endpoint(Addr{Node: "n2", Proc: "b"}, 4)
	if err := a.Send(b.Addr(), "ping", "hello"); err != nil {
		t.Fatal(err)
	}
	msg := <-b.Inbox()
	if msg.Body != "hello" {
		t.Fatalf("body = %#v, want %q", msg.Body, "hello")
	}
	if msg.Size != 5 {
		t.Fatalf("size = %d, want the encoded length 5", msg.Size)
	}
	if c.encodes.Load() != 1 || c.decodes.Load() != 1 {
		t.Fatalf("encodes=%d decodes=%d, want 1/1", c.encodes.Load(), c.decodes.Load())
	}
	st := n.Stats()
	if st.WireEncodes != 1 || st.WireDecodes != 1 || st.WireErrors != 0 {
		t.Fatalf("wire stats = %+v", st)
	}
	if st.Bytes != 5 {
		t.Fatalf("bytes = %d, want actual wire bytes 5", st.Bytes)
	}
}

// TestWireMulticastEncodesOnce is the acceptance-criterion assertion:
// one Multicast encodes the body exactly once regardless of group
// size, and decodes once per actual delivery.
func TestWireMulticastEncodesOnce(t *testing.T) {
	n, c := wireNet(t)
	const members = 9
	src := n.Endpoint(Addr{Node: "s", Proc: "src"}, 4)
	src.Join("grp")
	var sinks []*Endpoint
	for i := 0; i < members; i++ {
		ep := n.Endpoint(Addr{Node: "m", Proc: fmt.Sprintf("p%d", i)}, 16)
		ep.Join("grp")
		sinks = append(sinks, ep)
	}
	if got := src.Multicast("grp", "beacon", "payload"); got != members {
		t.Fatalf("delivered %d, want %d", got, members)
	}
	if c.encodes.Load() != 1 {
		t.Fatalf("encodes = %d, want exactly 1 for the whole fanout", c.encodes.Load())
	}
	if c.decodes.Load() != members {
		t.Fatalf("decodes = %d, want one per delivery (%d)", c.decodes.Load(), members)
	}
	for _, ep := range sinks {
		msg := <-ep.Inbox()
		if msg.Body != "payload" {
			t.Fatalf("member got %#v", msg.Body)
		}
	}
	// A second fanout encodes once more — the count scales with calls,
	// not with group size.
	src.Multicast("grp", "beacon", "again")
	if c.encodes.Load() != 2 {
		t.Fatalf("encodes after 2nd multicast = %d, want 2", c.encodes.Load())
	}
}

// TestWireMulticastLostDeliveriesNotDecoded: a datagram the network
// drops never reaches a decoder (receivers cannot parse packets they
// never saw).
func TestWireMulticastLostDeliveriesNotDecoded(t *testing.T) {
	n, c := wireNet(t)
	src := n.Endpoint(Addr{Node: "s", Proc: "src"}, 4)
	for i := 0; i < 4; i++ {
		ep := n.Endpoint(Addr{Node: "m", Proc: fmt.Sprintf("p%d", i)}, 16)
		ep.Join("grp")
	}
	n.SetLoss(0, 1.0) // every multicast delivery is lost
	if got := src.Multicast("grp", "beacon", "x"); got != 0 {
		t.Fatalf("delivered %d under total loss", got)
	}
	if c.encodes.Load() != 1 {
		t.Fatalf("encodes = %d, want 1 (sender still pays serialization)", c.encodes.Load())
	}
	if c.decodes.Load() != 0 {
		t.Fatalf("decodes = %d, want 0 for all-lost fanout", c.decodes.Load())
	}
}

// TestWireSendLostDeliveriesNotDecoded: the point-to-point twin of
// the multicast assertion — a dropped datagram still costs the sender
// its encode, but is never decoded.
func TestWireSendLostDeliveriesNotDecoded(t *testing.T) {
	n, c := wireNet(t)
	a := n.Endpoint(Addr{Node: "n1", Proc: "a"}, 4)
	b := n.Endpoint(Addr{Node: "n2", Proc: "b"}, 16)
	n.SetLoss(1.0, 0) // every p2p delivery is lost
	const sends = 10
	for i := 0; i < sends; i++ {
		if err := a.Send(b.Addr(), "ping", "x"); err != nil {
			t.Fatal(err)
		}
	}
	if c.encodes.Load() != sends {
		t.Fatalf("encodes = %d, want %d (sender pays serialization before the drop)", c.encodes.Load(), sends)
	}
	if c.decodes.Load() != 0 {
		t.Fatalf("decodes = %d, want 0 for all-lost sends", c.decodes.Load())
	}
	if st := n.Stats(); st.Dropped != sends || st.WireDecodes != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestWireEncodeErrors: an unencodable body fails the send with
// ErrCodec, reaches nobody, and is counted.
func TestWireEncodeErrors(t *testing.T) {
	n, _ := wireNet(t)
	a := n.Endpoint(Addr{Node: "n1", Proc: "a"}, 4)
	b := n.Endpoint(Addr{Node: "n1", Proc: "b"}, 4)
	b.Join("grp")
	if err := a.Send(b.Addr(), "k", 4.2); !errors.Is(err, ErrCodec) {
		t.Fatalf("send err = %v, want ErrCodec", err)
	}
	if got := a.Multicast("grp", "k", 4.2); got != 0 {
		t.Fatalf("multicast delivered %d with unencodable body", got)
	}
	st := n.Stats()
	if st.WireErrors != 2 {
		t.Fatalf("wire errors = %d, want 2", st.WireErrors)
	}
	if st.Sent != 0 || st.McastSent != 0 {
		t.Fatalf("unencodable body leaked into delivery stats: %+v", st)
	}
	select {
	case msg := <-b.Inbox():
		t.Fatalf("receiver got %#v", msg)
	default:
	}
}

// TestWireCallRoundTrip: the request/response convention works
// unchanged over the byte path (Call and Respond both transit the
// codec).
func TestWireCallRoundTrip(t *testing.T) {
	n, c := wireNet(t)
	client := n.Endpoint(Addr{Node: "n1", Proc: "client"}, 16)
	server := n.Endpoint(Addr{Node: "n2", Proc: "server"}, 16)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for msg := range server.Inbox() {
			if msg.Kind == "add" {
				server.Respond(msg, "sum", msg.Body.(string)+"!")
				return
			}
		}
	}()
	go func() {
		for msg := range client.Inbox() {
			client.DeliverReply(msg)
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	resp, err := client.Call(ctx, server.Addr(), "add", "41")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Body != "41!" {
		t.Fatalf("reply body = %#v", resp.Body)
	}
	<-done
	if c.encodes.Load() != 2 || c.decodes.Load() != 2 {
		t.Fatalf("encodes=%d decodes=%d, want 2/2 (request + reply)", c.encodes.Load(), c.decodes.Load())
	}
}

// TestWireBufferReuseIsSafe: pooled encode buffers never leak one
// message's bytes into another's body, even under concurrency.
func TestWireBufferReuseIsSafe(t *testing.T) {
	n, _ := wireNet(t)
	const senders, msgs = 4, 200
	sinks := make([]*Endpoint, senders)
	for i := range sinks {
		sinks[i] = n.Endpoint(Addr{Node: "sink", Proc: fmt.Sprintf("d%d", i)}, msgs)
	}
	done := make(chan error, senders)
	for i := 0; i < senders; i++ {
		go func(i int) {
			src := n.Endpoint(Addr{Node: "src", Proc: fmt.Sprintf("s%d", i)}, 4)
			for j := 0; j < msgs; j++ {
				if err := src.Send(sinks[i].Addr(), "d", fmt.Sprintf("s%d-m%d", i, j)); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(i)
	}
	for i := 0; i < senders; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	for i, sink := range sinks {
		for j := 0; j < msgs; j++ {
			msg := <-sink.Inbox()
			want := fmt.Sprintf("s%d-m%d", i, j)
			if msg.Body != want {
				t.Fatalf("sink %d msg %d: body %#v, want %q", i, j, msg.Body, want)
			}
		}
	}
}
