package vcache_test

// View-mode equivalence over a SAN running the production codec
// (external test package: the codec lives in stub, which itself
// imports vcache).
// Get and GetView must be observationally identical — same data, mime,
// and hit/miss verdicts — and the copy-on-retain discipline must hold:
// bytes a caller keeps past release stay stable while the zero-copy
// pool churns underneath.

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"repro/internal/san"
	"repro/internal/stub"
	"repro/internal/vcache"
)

func startViewCache(t *testing.T) *vcache.Client {
	t.Helper()
	// WireCodec decodes byte fields as views: cache responses arrive
	// as leased buffers, exactly as in production.
	net := san.NewNetwork(1, stub.WireCodec{})
	t.Cleanup(net.Close)
	svc := vcache.NewService("cache0", net, "cnode", vcache.NewPartition(1<<20, nil))
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go func() { _ = svc.Run(ctx) }()

	ep := net.Endpoint(san.Addr{Node: "fe", Proc: "client"}, 256)
	go func() {
		for msg := range ep.Inbox() {
			ep.DeliverReply(msg)
		}
	}()
	client := vcache.NewClient(ep)
	client.AddNode("cache0", svc.Addr())
	return client
}

// TestGetViewEquivalence: for every key, Get (owning) and GetView
// (zero-copy) agree byte for byte, on hits and on misses.
func TestGetViewEquivalence(t *testing.T) {
	client := startViewCache(t)
	ctx := context.Background()
	for i := 0; i < 32; i++ {
		key := fmt.Sprintf("obj-%d", i)
		payload := bytes.Repeat([]byte{byte(i)}, 16+i*37)
		client.Put(ctx, key, payload, "image/sjpg", 0)
	}
	for i := 0; i < 32; i++ {
		key := fmt.Sprintf("obj-%d", i)
		owned, mimeA, okA := client.Get(ctx, key)
		view, mimeB, release, okB := client.GetView(ctx, key)
		if okA != okB || mimeA != mimeB {
			t.Fatalf("%s: Get (%v,%q) vs GetView (%v,%q)", key, okA, mimeA, okB, mimeB)
		}
		if !okA {
			t.Fatalf("%s: stored object missed", key)
		}
		if !bytes.Equal(owned, view) {
			t.Fatalf("%s: Get returned %d bytes, GetView %d", key, len(owned), len(view))
		}
		if release != nil {
			release()
		}
	}
	if _, _, ok := client.Get(ctx, "absent"); ok {
		t.Fatal("Get hit on an absent key")
	}
	if _, _, release, ok := client.GetView(ctx, "absent"); ok || release != nil {
		t.Fatal("GetView hit (or leaked a release) on an absent key")
	}
}

// TestGetViewCopyOnRetain: bytes kept past release — whether from the
// owning Get or cloned out of a view — must not change while heavy
// traffic recycles the underlying lease buffers.
func TestGetViewCopyOnRetain(t *testing.T) {
	client := startViewCache(t)
	ctx := context.Background()
	want := bytes.Repeat([]byte{0x42}, 4096)
	client.Put(ctx, "keep", want, "image/gif", 0)

	owned, _, ok := client.Get(ctx, "keep")
	if !ok {
		t.Fatal("owned get missed")
	}
	view, _, release, ok := client.GetView(ctx, "keep")
	if !ok {
		t.Fatal("view get missed")
	}
	cloned := san.CloneBytes(view)
	if release != nil {
		release()
	}

	// Churn: overwrite the key and push enough distinct payloads
	// through the same wire path that the released buffers get reused
	// and refilled many times over.
	client.Put(ctx, "keep", bytes.Repeat([]byte{0x99}, 4096), "image/gif", 0)
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("churn-%d", i%8)
		client.Put(ctx, key, bytes.Repeat([]byte{byte(i)}, 4096), "x", 0)
		if _, _, rel, ok := client.GetView(ctx, key); ok && rel != nil {
			rel()
		}
	}

	if !bytes.Equal(owned, want) {
		t.Fatal("bytes from the owning Get changed under pool churn")
	}
	if !bytes.Equal(cloned, want) {
		t.Fatal("bytes cloned from a view changed under pool churn")
	}
}
