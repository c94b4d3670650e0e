package frontend

import (
	"context"
	"testing"

	"repro/internal/media"
	"repro/internal/san"
	"repro/internal/stub"
	"repro/internal/tacc"
)

// TestFrontEndCachePathOverWire drives the front end's origin + cache
// path through the SAN's codec: the vcache get/put protocol (byte
// payloads included) must round-trip without a serialization error,
// and repeated requests must hit the cache.
func TestFrontEndCachePathOverWire(t *testing.T) {
	net := san.NewNetwork(1, stub.WireCodec{})
	fe, _, static := startFEOn(t, net, nil)
	static.Put("http://a/x.bin", tacc.Blob{MIME: media.MIMEOther, Data: make([]byte, 5000)})
	ctx := context.Background()

	resp, err := fe.Do(ctx, Request{URL: "http://a/x.bin", User: "u"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Source != "original" || resp.Blob.Size() != 5000 {
		t.Fatalf("resp = %+v", resp)
	}
	if _, err := fe.Do(ctx, Request{URL: "http://a/x.bin", User: "u"}); err != nil {
		t.Fatal(err)
	}
	st := fe.Stats()
	if st.OriginFetches != 1 {
		t.Fatalf("origin fetches = %d, want 1 (cache must absorb the repeat over wire)", st.OriginFetches)
	}
	if st.CacheOriginal != 1 {
		t.Fatalf("cache-original hits = %d", st.CacheOriginal)
	}

	ns := net.Stats()
	if ns.WireEncodes == 0 || ns.WireDecodes == 0 {
		t.Fatalf("codec never ran: %+v", ns)
	}
	if ns.WireErrors != 0 {
		t.Fatalf("%d front-end messages failed serialization", ns.WireErrors)
	}
}
