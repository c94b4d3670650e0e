package frontend

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/media"
	"repro/internal/origin"
	"repro/internal/profiledb"
	"repro/internal/san"
	"repro/internal/stub"
	"repro/internal/tacc"
	"repro/internal/vcache"
)

// startFE boots a front end with a static origin, optional cache
// nodes, and no manager (pass-through paths only unless a rules+worker
// harness is added by the test).
func startFE(t *testing.T, mutate func(*Config)) (*FrontEnd, *cluster.Cluster, *origin.Static) {
	t.Helper()
	return startFEOn(t, san.NewNetwork(1, stub.WireCodec{}), mutate)
}

// startFEOn is startFE over a caller-built network (e.g. one with the
// wire codec installed).
func startFEOn(t *testing.T, net *san.Network, mutate func(*Config)) (*FrontEnd, *cluster.Cluster, *origin.Static) {
	t.Helper()
	cl := cluster.New(net)
	cl.AddNode("fe-node", false)
	cl.AddNode("c-node", false)

	static := origin.NewStatic()
	db, err := profiledb.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })

	// One cache partition.
	svc := vcache.NewService("cache0", net, "c-node", vcache.NewPartition(1<<20, nil))
	if _, err := cl.Spawn("c-node", svc); err != nil {
		t.Fatal(err)
	}

	cfg := Config{
		Name:           "fe0",
		Node:           "fe-node",
		Net:            net,
		Profiles:       profiledb.NewReadCache(db),
		Origin:         static,
		CacheNodes:     map[string]san.Addr{"cache0": svc.Addr()},
		Threads:        8,
		MinDistillSize: 100,
		ManagerStub:    stub.ManagerStubConfig{CallTimeout: 50 * time.Millisecond},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	fe := New(cfg)
	if _, err := cl.Spawn("fe-node", fe); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.StopAll)
	waitFor(t, "fe running", fe.Running)
	return fe, cl, static
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

func TestPassThroughAndOriginCaching(t *testing.T) {
	fe, _, static := startFE(t, nil)
	static.Put("http://a/x.bin", tacc.Blob{MIME: media.MIMEOther, Data: make([]byte, 5000)})
	ctx := context.Background()

	resp, err := fe.Do(ctx, Request{URL: "http://a/x.bin", User: "u"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Source != "original" || resp.Blob.Size() != 5000 {
		t.Fatalf("resp = %+v", resp)
	}
	// Second request: original served from the virtual cache.
	resp2, err := fe.Do(ctx, Request{URL: "http://a/x.bin", User: "u"})
	if err != nil {
		t.Fatal(err)
	}
	if resp2.Source != "original" {
		t.Fatalf("source = %s", resp2.Source)
	}
	st := fe.Stats()
	if st.OriginFetches != 1 {
		t.Fatalf("origin fetches = %d, want 1 (cache absorbed the repeat)", st.OriginFetches)
	}
	if st.CacheOriginal != 1 {
		t.Fatalf("cache-original hits = %d", st.CacheOriginal)
	}
}

func TestOriginErrorSurfaces(t *testing.T) {
	fe, _, _ := startFE(t, nil)
	_, err := fe.Do(context.Background(), Request{URL: "http://missing/x.bin", User: "u"})
	if err == nil || !strings.Contains(err.Error(), "not found") {
		t.Fatalf("err = %v", err)
	}
	if fe.Stats().Errors != 1 {
		t.Fatalf("errors = %d", fe.Stats().Errors)
	}
}

func TestFallbackWhenNoWorkers(t *testing.T) {
	// Rules demand distillation but there is no manager and no
	// workers: the front end returns the original (approximate
	// answer), not an error.
	fe, _, static := startFE(t, func(cfg *Config) {
		cfg.Rules = func(url, mime string, profile map[string]string) tacc.Pipeline {
			return tacc.Pipeline{{Class: "distill-sjpg"}}
		}
	})
	static.Put("http://a/big.sjpg", tacc.Blob{MIME: media.MIMESJPG, Data: make([]byte, 9000)})
	resp, err := fe.Do(context.Background(), Request{URL: "http://a/big.sjpg", User: "u"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Source != "fallback-original" {
		t.Fatalf("source = %s", resp.Source)
	}
	if resp.Blob.Meta["degraded"] == "" {
		t.Fatal("degraded marker missing")
	}
	if fe.Stats().Fallbacks != 1 {
		t.Fatalf("fallbacks = %d", fe.Stats().Fallbacks)
	}
}

func TestRawBypassesRules(t *testing.T) {
	called := false
	fe, _, static := startFE(t, func(cfg *Config) {
		cfg.Rules = func(url, mime string, profile map[string]string) tacc.Pipeline {
			called = true
			return tacc.Pipeline{{Class: "x"}}
		}
	})
	static.Put("http://a/p.html", tacc.Blob{MIME: media.MIMEHTML, Data: make([]byte, 3000)})
	resp, err := fe.Do(context.Background(), Request{URL: "http://a/p.html", User: "u", Raw: true})
	if err != nil {
		t.Fatal(err)
	}
	if called {
		t.Fatal("rules consulted for a raw request")
	}
	if resp.Source != "original" {
		t.Fatalf("source = %s", resp.Source)
	}
}

func TestSmallContentSkipsDistillation(t *testing.T) {
	fe, _, static := startFE(t, func(cfg *Config) {
		cfg.MinDistillSize = 1024
		cfg.Rules = func(url, mime string, profile map[string]string) tacc.Pipeline {
			return tacc.Pipeline{{Class: "never-exists"}}
		}
	})
	static.Put("http://a/icon.sgif", tacc.Blob{MIME: media.MIMESGIF, Data: make([]byte, 300)})
	resp, err := fe.Do(context.Background(), Request{URL: "http://a/icon.sgif", User: "u"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Source != "original" {
		t.Fatalf("source = %s (1KB threshold must bypass the pipeline)", resp.Source)
	}
	if fe.Stats().Fallbacks != 0 {
		t.Fatal("threshold bypass went through dispatch")
	}
}

// slowFetcher wraps a Fetcher with a fixed delay, standing in for the
// wide-area miss penalty.
type slowFetcher struct {
	inner origin.Fetcher
	delay time.Duration
}

func (s slowFetcher) Fetch(ctx context.Context, url string) (tacc.Blob, error) {
	select {
	case <-time.After(s.delay):
	case <-ctx.Done():
		return tacc.Blob{}, ctx.Err()
	}
	return s.inner.Fetch(ctx, url)
}

func TestOverload(t *testing.T) {
	// A tiny pool with a slow origin: fill both admission slots with
	// slow fetches, and the front end sheds further load instead of
	// blocking forever. MaxInflight defaults to Threads+QueueCap = 2.
	static := origin.NewStatic()
	fe, _, _ := startFE(t, func(cfg *Config) {
		cfg.Threads = 1
		cfg.QueueCap = 1
		cfg.Origin = slowFetcher{inner: static, delay: time.Second}
	})
	for i := 0; i < 3; i++ {
		static.Put(fmt.Sprintf("http://a/x%d.bin", i),
			tacc.Blob{MIME: media.MIMEOther, Data: make([]byte, 200)})
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Occupy both inflight slots: one request on the worker thread,
	// one in the queue, each pinned to the origin for a full second.
	done := make(chan struct{}, 2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			fe.Do(ctx, Request{URL: fmt.Sprintf("http://a/x%d.bin", i), User: "u"})
			done <- struct{}{}
		}(i)
	}
	waitFor(t, "both admission slots held", func() bool {
		return fe.inflight.Load() >= 2
	})
	// A saturated front end degrades to whatever the cache holds
	// before shedding, so only a never-cached probe is guaranteed to
	// reach the shed rung — and it must be the typed refusal, fast,
	// not a queued request waiting out the origin delay.
	if _, err := fe.Do(ctx, Request{URL: "http://a/x2.bin"}); err != ErrOverloaded {
		t.Fatalf("saturated probe: err = %v, want ErrOverloaded", err)
	}
	if st := fe.Stats(); st.Shed == 0 {
		t.Fatalf("stats = %+v, want Shed > 0", st)
	}
	cancel() // release the pinned requests
	<-done
	<-done
}

func TestDisabledFrontEndRejects(t *testing.T) {
	fe, _, static := startFE(t, nil)
	static.Put("http://a/x.bin", tacc.Blob{MIME: media.MIMEOther, Data: make([]byte, 200)})
	mon := fe.cfg.Net.Endpoint(san.Addr{Node: "m", Proc: "mon"}, 8)
	if err := mon.Send(fe.Addr(), stub.MsgDisable, nil); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "disabled", func() bool {
		_, err := fe.Do(context.Background(), Request{URL: "http://a/x.bin"})
		return err == ErrDisabled
	})
	if err := mon.Send(fe.Addr(), stub.MsgEnable, nil); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "re-enabled", func() bool {
		_, err := fe.Do(context.Background(), Request{URL: "http://a/x.bin"})
		return err == nil
	})
}

func TestProfilePairing(t *testing.T) {
	var gotProfile map[string]string
	fe, _, static := startFE(t, func(cfg *Config) {
		cfg.Rules = func(url, mime string, profile map[string]string) tacc.Pipeline {
			gotProfile = profile
			return nil
		}
	})
	if err := fe.cfg.Profiles.Set("alice", "quality", "10"); err != nil {
		t.Fatal(err)
	}
	static.Put("http://a/x.html", tacc.Blob{MIME: media.MIMEHTML, Data: make([]byte, 2000)})
	if _, err := fe.Do(context.Background(), Request{URL: "http://a/x.html", User: "alice"}); err != nil {
		t.Fatal(err)
	}
	if gotProfile["quality"] != "10" {
		t.Fatalf("profile not paired with request: %v", gotProfile)
	}
}

func TestMimeHint(t *testing.T) {
	cases := map[string]string{
		"http://x/a.sgif": "image/sgif",
		"http://x/a.sjpg": "image/sjpg",
		"http://x/a.html": "text/html",
		"http://x/dir/":   "text/html",
		"http://x/a.zip":  "application/octet-stream",
	}
	for url, want := range cases {
		if got := mimeHint(url); got != want {
			t.Fatalf("mimeHint(%s) = %s, want %s", url, got, want)
		}
	}
}

func TestDoOnStoppedFrontEnd(t *testing.T) {
	fe, cl, _ := startFE(t, nil)
	cl.StopAll()
	waitFor(t, "stopped", func() bool { return !fe.Running() })
	if _, err := fe.Do(context.Background(), Request{URL: "http://a/x"}); err == nil {
		t.Fatal("Do succeeded on stopped front end")
	}
}
