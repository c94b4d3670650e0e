package stub

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/san"
	"repro/internal/supervisor"
	"repro/internal/tacc"
	"repro/internal/vcache"
)

// wireSamples are representative protocol messages — the values the
// existing stub/manager tests pass over the in-process SAN — used
// both as the round-trip unit corpus and as fuzz seeds.
func wireSamples() map[string]any {
	w0 := WorkerInfo{
		ID: "w0", Class: "echo",
		Addr: san.Addr{Node: "n1", Proc: "w0"}, Node: "n1",
		QLen: 2.5,
	}
	ovf := WorkerInfo{
		ID: "sjpg.3", Class: "distill-sjpg",
		Addr: san.Addr{Node: "ovf0", Proc: "sjpg.3"}, Node: "ovf0",
		QLen: 17.25, Overflow: true,
	}
	return map[string]any{
		MsgBeacon: Beacon{
			Manager: san.Addr{Node: "mgr", Proc: "manager"},
			Seq:     42,
			Workers: []WorkerInfo{w0, ovf},
		},
		MsgRegister:   RegisterMsg{Info: w0},
		MsgDeregister: DeregisterMsg{ID: "w0"},
		MsgLoadReport: LoadReport{
			ID: "w0", Class: "echo", QLen: 10, CostMs: 3.75,
			Done: 100, Errors: 2, Crashes: 1, Info: w0,
		},
		MsgTask: TaskMsg{Task: tacc.Task{
			Key:   "http://origin1.example/obj42.sjpg",
			Input: tacc.Blob{MIME: "image/sjpg", Data: []byte("payload"), Meta: map[string]string{"orig": "1024"}},
			Inputs: []tacc.Blob{
				{MIME: "text/html", Data: []byte("<p>hi</p>")},
				{MIME: "image/sgif", Data: []byte{0, 1, 2}},
			},
			Profile: map[string]string{"quality": "low", "width": "320"},
			Params:  map[string]string{"minsize": "0"},
		},
			// Deadline rides the wire so remote workers can drop
			// expired work (unix nanos); Trace is the distributed
			// tracing id (sampled bit set).
			Deadline: 1700000000123456789,
			Trace:    0x1d2c3b4a59687f01 | 1,
		},
		MsgResult: ResultMsg{
			Blob: tacc.Blob{MIME: "image/sjpg", Data: []byte("distilled")},
			Err:  "",
		},
		MsgFEHello: FEHeartbeat{
			Name: "fe0", Addr: san.Addr{Node: "fe", Proc: "fe0"}, Node: "fe",
			HTTPAddr: "127.0.0.1:39201", Draining: true,
		},
		MsgSpawnReq: SpawnReq{Class: "echo"},
		MsgMonReport: StatusReport{
			Component: "w0", Kind: "worker", Node: "n1",
			Metrics: map[string]float64{"qlen": 3, "costMs": 1.5, "done": 7},
		},
		MsgSpanDigest: SpanDigest{Spans: []obs.Span{
			{
				Trace: 0x1d2c3b4a59687f01 | 1, Proc: "b-", Comp: "w0",
				Hop: "worker.service", Note: "distill-sjpg",
				Start: 1700000000123456789, Dur: 1250000,
			},
			{
				Trace: 0x1d2c3b4a59687f01 | 1, Proc: "b-", Comp: "w0",
				Hop: "worker.queue", Start: 1700000000123000000, Dur: 456789,
			},
			{
				Trace: 42, Proc: "a-", Comp: "fe0",
				Hop: "fe.admit", Note: "shed", Start: 1700000001000000000, Dur: 0,
			},
		}},
		vcache.MsgGet: vcache.GetReq{Key: "http://origin1.example/obj42.sjpg#distilled", Stale: true},
		vcache.MsgHello: vcache.HelloMsg{
			Name: "cache0", Addr: san.Addr{Node: "node0", Proc: "cache0"}, Node: "node0",
		},
		vcache.MsgGot: vcache.GetResp{Found: true, Data: []byte("cached bytes"), MIME: "image/sjpg", Stale: true},
		vcache.MsgPut: vcache.PutReq{
			Key: "http://origin1.example/obj42.sjpg", Data: []byte("original"),
			MIME: "image/sjpg", TTL: 90 * time.Second,
		},
		vcache.MsgInject: vcache.PutReq{
			Key: "http://origin1.example/obj42.sjpg#distilled", Data: []byte{9, 8, 7},
			MIME: "image/sjpg", TTL: 0,
		},
		vcache.MsgStatsR: vcache.Stats{
			Hits: 101, Misses: 17, Puts: 40, Injects: 12,
			Evictions: 3, Expired: 1, Used: 1 << 20, Objects: 49,
		},
		supervisor.MsgHello: supervisor.HelloMsg{
			Name: "sup", Addr: san.Addr{Node: "b-node0", Proc: "sup"},
			Node: "b-node0", Prefix: "b-",
		},
		supervisor.MsgCmd: supervisor.Command{
			ID: 9, Origin: "a-node1/manager", Op: supervisor.OpRestart, Target: "cache0",
		},
		supervisor.MsgAck: supervisor.Ack{ID: 9, OK: false, Err: "cache0 is not hosted here"},
	}
}

// TestWireRoundTrip: encode -> decode restores every sample exactly.
func TestWireRoundTrip(t *testing.T) {
	for kind, body := range wireSamples() {
		data, err := EncodeBody(kind, body)
		if err != nil {
			t.Fatalf("%s: encode: %v", kind, err)
		}
		got, err := DecodeBody(kind, data)
		if err != nil {
			t.Fatalf("%s: decode: %v", kind, err)
		}
		if !reflect.DeepEqual(got, body) {
			t.Fatalf("%s: round trip mismatch:\n got %#v\nwant %#v", kind, got, body)
		}
	}
}

// TestWireSamplesCoverEveryKind keeps the corpus honest: every kind
// the codec registers has a seed sample.
func TestWireSamplesCoverEveryKind(t *testing.T) {
	samples := wireSamples()
	for _, kind := range WireKinds() {
		if _, ok := samples[kind]; !ok {
			t.Errorf("no wire sample for kind %q", kind)
		}
	}
	if len(samples) != len(WireKinds()) {
		t.Errorf("%d samples for %d kinds", len(samples), len(WireKinds()))
	}
}

// TestEncodeBodyAppend: the append-style entry point preserves the
// destination prefix, produces bytes identical to EncodeBody, and
// reuses the destination's capacity instead of allocating.
func TestEncodeBodyAppend(t *testing.T) {
	for kind, body := range wireSamples() {
		want, err := EncodeBody(kind, body)
		if err != nil {
			t.Fatalf("%s: encode: %v", kind, err)
		}
		prefix := []byte("frame-header:")
		buf := make([]byte, len(prefix), len(prefix)+len(want)+64)
		copy(buf, prefix)
		got, err := EncodeBodyAppend(buf, kind, body)
		if err != nil {
			t.Fatalf("%s: append encode: %v", kind, err)
		}
		if !bytes.HasPrefix(got, prefix) {
			t.Fatalf("%s: append clobbered the destination prefix", kind)
		}
		if !bytes.Equal(got[len(prefix):], want) {
			t.Fatalf("%s: append encoding differs from EncodeBody", kind)
		}
		if &got[0] != &buf[0] {
			t.Fatalf("%s: append reallocated despite sufficient capacity", kind)
		}
	}
}

// TestWireDeterministic: equal values encode to equal bytes (maps are
// emitted in sorted order).
func TestWireDeterministic(t *testing.T) {
	for kind, body := range wireSamples() {
		a, _ := EncodeBody(kind, body)
		b, _ := EncodeBody(kind, body)
		if string(a) != string(b) {
			t.Fatalf("%s: nondeterministic encoding", kind)
		}
	}
}

// TestWireRejectsWrongType and truncation: the codec errors cleanly.
func TestWireRejects(t *testing.T) {
	if _, err := EncodeBody(MsgBeacon, DeregisterMsg{}); err == nil {
		t.Fatal("encode accepted a mismatched body type")
	}
	data, err := EncodeBody(MsgBeacon, wireSamples()[MsgBeacon])
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(data); cut++ {
		if _, err := DecodeBody(MsgBeacon, data[:cut]); err == nil {
			t.Fatalf("decode accepted truncation at %d/%d bytes", cut, len(data))
		}
	}
	if _, err := DecodeBody(MsgBeacon, append(append([]byte{}, data...), 0)); err == nil {
		t.Fatal("decode accepted trailing garbage")
	}
	if _, err := DecodeBody(MsgShutdown, []byte{1}); err == nil {
		t.Fatal("decode accepted a body for a body-less kind")
	}
}

// TestFEHeartbeatOldFormatDecodes pins wire compatibility for the
// HTTPAddr/Draining extension: a frame laid out the pre-extension way
// (Name, Addr, Node only) must still decode, with the new fields
// zero-valued — a mixed-version cluster's old front ends keep
// heartbeating through new managers and edges.
func TestFEHeartbeatOldFormatDecodes(t *testing.T) {
	full := wireSamples()[MsgFEHello].(FEHeartbeat)
	old := struct {
		name, node string
		addr       san.Addr
	}{full.Name, full.Node, full.Addr}

	// Hand-build the old frame with the writer primitives the original
	// encoder used: str(Name), addr(Addr), str(Node), nothing after.
	w := &wireWriter{}
	w.str(old.name)
	w.addr(old.addr)
	w.str(old.node)

	got, err := DecodeBody(MsgFEHello, w.buf)
	if err != nil {
		t.Fatalf("old-format frame rejected: %v", err)
	}
	want := FEHeartbeat{Name: old.name, Addr: old.addr, Node: old.node}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("old-format decode:\n got %#v\nwant %#v", got, want)
	}
}

// FuzzWireRoundTrip fuzzes DecodeBody across every message kind
// (including the cache protocol): arbitrary bytes must never panic or
// over-allocate, and any input that decodes successfully must
// re-encode and re-decode to the same value (the codec is canonical on
// its own output). The re-encode runs through EncodeBodyAppend into a
// dirty recycled buffer, so the fuzzer also hammers the pooled
// append path the SAN uses.
func FuzzWireRoundTrip(f *testing.F) {
	kinds := WireKinds()
	for i, kind := range kinds {
		data, err := EncodeBody(kind, wireSamples()[kind])
		if err != nil {
			f.Fatalf("%s: seed encode: %v", kind, err)
		}
		f.Add(i, data)
	}
	f.Add(0, []byte{})
	f.Add(1, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})

	f.Fuzz(func(t *testing.T, kindIdx int, data []byte) {
		if kindIdx < 0 {
			kindIdx = -kindIdx
		}
		kind := kinds[kindIdx%len(kinds)]
		body, err := DecodeBody(kind, data)
		if err != nil {
			return // malformed input rejected cleanly: fine
		}
		// Re-encode into a recycled buffer holding stale garbage, as
		// the SAN's pool hands out.
		scratch := bytes.Repeat([]byte{0xa5}, 16)
		re, err := EncodeBodyAppend(scratch[:0], kind, body)
		if err != nil {
			t.Fatalf("%s: value %#v decoded but failed to re-encode: %v", kind, body, err)
		}
		if direct, err2 := EncodeBody(kind, body); err2 != nil || !bytes.Equal(re, direct) {
			t.Fatalf("%s: append encoding diverges from EncodeBody (err=%v)", kind, err2)
		}
		body2, err := DecodeBody(kind, re)
		if err != nil {
			t.Fatalf("%s: re-encoded bytes failed to decode: %v", kind, err)
		}
		if !reflect.DeepEqual(body, body2) {
			t.Fatalf("%s: canonical round trip mismatch:\n got %#v\nwant %#v", kind, body2, body)
		}
		// View-mode equivalence: the zero-copy decoder must produce the
		// same value as the owning decoder for every input the owning
		// decoder accepts — aliasing is a lifetime difference, never a
		// value difference.
		vbuf := append([]byte{}, re...)
		view, aliased, err := WireCodec{}.DecodeBodyView(kind, vbuf)
		if err != nil {
			t.Fatalf("%s: owning decode succeeded but view decode failed: %v", kind, err)
		}
		if !reflect.DeepEqual(view, body2) {
			t.Fatalf("%s: view decode diverges from DecodeBody:\n got %#v\nwant %#v", kind, view, body2)
		}
		if !aliased {
			// aliased=false promises the result shares no memory with
			// the input; dirtying the buffer must not touch it.
			for i := range vbuf {
				vbuf[i] ^= 0xFF
			}
			if !reflect.DeepEqual(view, body2) {
				t.Fatalf("%s: aliased=false but the view changed when its buffer was dirtied", kind)
			}
		}
	})
}

// TestDecodeBodyViewAliasing pins the aliasing contract on a kind with
// a bulk payload: the view's Data field aliases the wire buffer (a
// mutation shows through), and CloneBytes taken before the mutation is
// the copy-on-retain escape hatch that stays stable.
func TestDecodeBodyViewAliasing(t *testing.T) {
	want := wireSamples()[MsgResult].(ResultMsg)
	wire, err := EncodeBody(MsgResult, want)
	if err != nil {
		t.Fatal(err)
	}
	body, aliased, err := WireCodec{}.DecodeBodyView(MsgResult, wire)
	if err != nil {
		t.Fatal(err)
	}
	if !aliased {
		t.Fatal("MsgResult carries blob bytes but view decode reported aliased=false")
	}
	got := body.(ResultMsg)
	if !bytes.Equal(got.Blob.Data, want.Blob.Data) {
		t.Fatalf("view data mismatch: %q", got.Blob.Data)
	}

	// A consumer that must outlive the buffer clones before the
	// producer recycles it.
	kept := CloneBytes(got.Blob.Data)

	// Simulate buffer recycling: scribble over the wire bytes. The
	// live view changes with them (it aliases); the clone does not.
	for i := range wire {
		wire[i] = 0xEE
	}
	if bytes.Equal(got.Blob.Data, want.Blob.Data) {
		t.Fatal("view did not alias the wire buffer (copied despite view mode)")
	}
	if !bytes.Equal(kept, want.Blob.Data) {
		t.Fatalf("copy-on-retain clone changed with the buffer: %q", kept)
	}
}
