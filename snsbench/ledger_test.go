package main

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/obs"
)

func sumNs(m map[string]int64) int64 {
	var s int64
	for _, v := range m {
		s += v
	}
	return s
}

func TestSelfTimesNested(t *testing.T) {
	got := selfTimes([]ispan{
		{hop: "root", start: 0, end: 100},
		{hop: "fe", start: 10, end: 90},
		{hop: "probe", start: 20, end: 40},
		{hop: "serve", start: 25, end: 35},
		{hop: "flush", start: 80, end: 120}, // overhangs fe: clipped to 90
		{hop: "late", start: 130, end: 140}, // after the root: dropped
	})
	want := map[string]int64{"root": 20, "fe": 50, "probe": 10, "serve": 10, "flush": 10}
	for hop, ns := range want {
		if got[hop] != ns {
			t.Errorf("self(%s) = %d, want %d (all: %v)", hop, got[hop], ns, got)
		}
	}
	if _, ok := got["late"]; ok {
		t.Errorf("span outside the root was attributed: %v", got)
	}
}

func TestSelfTimesOverlappingSiblings(t *testing.T) {
	// b starts while a is open, so it nests under a and is clipped to
	// a's end; the sum still equals the root.
	got := selfTimes([]ispan{
		{hop: "root", start: 0, end: 100},
		{hop: "a", start: 10, end: 50},
		{hop: "b", start: 40, end: 70},
	})
	want := map[string]int64{"root": 60, "a": 30, "b": 10}
	for hop, ns := range want {
		if got[hop] != ns {
			t.Errorf("self(%s) = %d, want %d (all: %v)", hop, got[hop], ns, got)
		}
	}
}

func TestSelfTimesSumToRoot(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		spans := []ispan{{hop: "root", start: 1000, end: 2000}}
		for i := 0; i < 1+rng.Intn(12); i++ {
			s := int64(1000 + rng.Intn(1200))
			spans = append(spans, ispan{hop: string(rune('a' + i)), start: s, end: s + int64(rng.Intn(600))})
		}
		if got := sumNs(selfTimes(spans)); got != 1000 {
			t.Fatalf("trial %d: self times sum to %d, want the root's 1000", trial, got)
		}
	}
}

func TestJoinRequestLedgerAddsUp(t *testing.T) {
	base := time.Unix(1_700_000_000, 0)
	at := func(us int) time.Time { return base.Add(time.Duration(us) * time.Microsecond) }
	ns := func(us int) int64 { return at(us).UnixNano() }
	r := tracedReq{due: at(0), send: at(50), rtStart: at(60), rtEnd: at(950), recv: at(1000)}
	prog := []obs.Span{
		{Hop: obs.RootHop, Start: ns(100), Dur: 800e3},
		{Hop: "fe.admit", Start: ns(100), Dur: 5e3},
		{Hop: "fe.cache", Start: ns(150), Dur: 100e3},
		{Hop: "cache.serve", Start: ns(180), Dur: 20e3},
		{Hop: "dispatch", Start: ns(300), Dur: 500e3},
		{Hop: "worker.queue", Start: ns(350), Dur: 50e3},
		{Hop: "worker.service", Start: ns(400), Dur: 300e3},
		{Hop: "transport.flush", Start: ns(720), Dur: 30e3},
	}
	for _, viaEdge := range []bool{false, true} {
		e, ok := joinRequest(r, prog, viaEdge)
		if !ok {
			t.Fatal("root span present but join failed")
		}
		if e.e2e != 1000e3 {
			t.Fatalf("e2e = %d ns, want 1 ms", e.e2e)
		}
		if got := sumNs(e.layers); got != e.e2e {
			t.Fatalf("layers sum to %d ns, want e2e %d (%v)", got, e.e2e, e.layers)
		}
		// fe.request's 800 µs less fe.cache (100) and dispatch (500).
		want := map[string]int64{
			layerLoadgen:   50e3,
			layerFrontend:  200e3,
			layerProbe:     80e3,
			layerServe:     20e3,
			layerDispatch:  120e3,
			layerQueue:     50e3,
			layerDistiller: 300e3,
			layerTransport: 30e3,
		}
		// The client's round trip outside fe.request (60→100, 900→950)
		// is the edge's only for edge traffic; the client span's own
		// time (50→60, 950→1000) is always unattributed.
		outside := int64(40e3 + 50e3)
		rootSelf := int64(10e3 + 50e3)
		if viaEdge {
			want[layerEdge] = outside
			want[layerUnattributed] = rootSelf
		} else {
			want[layerUnattributed] = outside + rootSelf
		}
		for layer, v := range want {
			if e.layers[layer] != v {
				t.Errorf("viaEdge=%v: layer %s = %d, want %d (all: %v)", viaEdge, layer, e.layers[layer], v, e.layers)
			}
		}
	}
	if _, ok := joinRequest(r, prog[1:], false); ok {
		t.Fatal("join succeeded without the front end's root span")
	}
}

func TestDedupeSpans(t *testing.T) {
	a := obs.Span{Trace: 3, Proc: "b-", Hop: "cache.serve", Start: 1, Dur: 2}
	b := obs.Span{Trace: 3, Proc: "a-", Hop: obs.RootHop, Start: 0, Dur: 9}
	got := dedupeSpans([]obs.Span{b, a}, []obs.Span{a})
	if len(got) != 2 {
		t.Fatalf("dedupe kept %d spans, want 2: %v", len(got), got)
	}
}
