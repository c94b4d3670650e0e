package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/distiller"
	"repro/internal/edge"
	"repro/internal/manager"
	"repro/internal/obs"
	"repro/internal/origin"
	"repro/internal/tacc"
)

// workerClasses are the classes the TranSend rules dispatch to; the
// service runs one worker of each.
var workerClasses = []string{distiller.ClassSGIF, distiller.ClassSJPG, distiller.ClassHTML}

// deployment is a booted TranSend service: one core.System, or two
// joined by transport bridges over loopback TCP.
type deployment struct {
	front *core.System   // hosts the front end (and the edge)
	all   []*core.System // every process, front first
	tgt   target
	http  *http.Transport
}

// boot starts the service for a workload and waits until it is
// serviceable, returning the set-up time: core.Start to WaitReady, with
// both bridges peered for a split deployment. Timing starts at the
// first core.Start.
func boot(w *workload, seed int64, reg *tacc.Registry, org origin.Fetcher, dir string, conc int) (*deployment, time.Duration, error) {
	workers := make(map[string]int, len(workerClasses))
	for _, c := range workerClasses {
		workers[c] = 1
	}
	base := core.Config{
		Seed:            seed,
		WireMode:        true,
		CacheParts:      2,
		CacheBudget:     w.cacheBudget,
		Workers:         workers,
		Registry:        reg,
		Rules:           distiller.TranSendRules(),
		Origin:          org,
		Policy:          manager.Policy{SpawnThreshold: 1e9, Damping: time.Hour, ReapThreshold: -1},
		FrontEnds:       1,
		TraceSampleRate: -1,
	}
	profileDir := func(name string) (string, error) {
		return os.MkdirTemp(dir, "profiles-"+name+"-")
	}
	d := &deployment{}
	start := time.Now()
	if !w.split {
		cfg := base
		if w.edge {
			cfg.EdgeListen = "127.0.0.1:0"
			cfg.FEHTTP = "127.0.0.1"
		}
		var err error
		if cfg.ProfileDir, err = profileDir("single"); err != nil {
			return nil, 0, err
		}
		sys, err := core.Start(cfg)
		if err != nil {
			return nil, 0, fmt.Errorf("boot: %w", err)
		}
		d.front, d.all = sys, []*core.System{sys}
		if !sys.WaitReady(15 * time.Second) {
			d.stop()
			return nil, 0, fmt.Errorf("boot: service not ready")
		}
	} else {
		// Process B: manager, workers and caches. Process A: front end
		// and monitor, reaching B's caches and workers over the bridge.
		cfgB := base
		cfgB.Roles = core.Roles{Manager: true, Workers: true, Caches: true}
		cfgB.NodePrefix = "b-"
		cfgB.DedicatedNodes = 6
		cfgB.Transport = core.TransportConfig{Listen: "tcp:127.0.0.1:0"}
		var err error
		if cfgB.ProfileDir, err = profileDir("b"); err != nil {
			return nil, 0, err
		}
		sysB, err := core.Start(cfgB)
		if err != nil {
			return nil, 0, fmt.Errorf("boot B: %w", err)
		}
		cfgA := base
		cfgA.Seed = seed + 1
		cfgA.Roles = core.Roles{FrontEnds: true, Monitor: true}
		cfgA.NodePrefix = "a-"
		cfgA.DedicatedNodes = 4
		cfgA.RemoteCaches = core.CacheAddrs("b-", cfgB.CacheParts, cfgB.DedicatedNodes)
		cfgA.Transport = core.TransportConfig{Listen: "tcp:127.0.0.1:0", Join: []string{sysB.Bridge.Advertise()}}
		if cfgA.ProfileDir, err = profileDir("a"); err != nil {
			sysB.Stop()
			return nil, 0, err
		}
		sysA, err := core.Start(cfgA)
		if err != nil {
			sysB.Stop()
			return nil, 0, fmt.Errorf("boot A: %w", err)
		}
		d.front, d.all = sysA, []*core.System{sysA, sysB}
		if !sysA.Bridge.WaitPeers(1, 10*time.Second) || !sysB.Bridge.WaitPeers(1, 10*time.Second) ||
			!sysB.WaitReady(15*time.Second) || !sysA.WaitReady(15*time.Second) {
			d.stop()
			return nil, 0, fmt.Errorf("boot: split service not ready")
		}
	}
	setup := time.Since(start)
	if w.edge {
		d.http = &http.Transport{MaxConnsPerHost: conc, MaxIdleConnsPerHost: conc, DisableCompression: true}
		d.tgt = &edgeTarget{
			client: &http.Client{Transport: d.http},
			base:   "http://" + d.front.Edge().HTTPAddr() + "/fetch?url=",
		}
	} else {
		d.tgt = &systemTarget{sys: d.front}
	}
	return d, setup, nil
}

func (d *deployment) stop() {
	if d.http != nil {
		d.http.CloseIdleConnections()
	}
	for _, s := range d.all {
		s.Stop()
	}
}

// spans returns the program's spans for one trace from every process's
// tracer.
func (d *deployment) spans(id obs.TraceID) []obs.Span {
	lists := make([][]obs.Span, 0, len(d.all))
	for _, s := range d.all {
		lists = append(lists, s.Tracer().Spans(id))
	}
	return dedupeSpans(lists...)
}

// snapshot is every process's metrics registry, merged by summing
// values of the same name.
func (d *deployment) snapshot() map[string]float64 {
	out := make(map[string]float64)
	for _, s := range d.all {
		for k, v := range s.Registry().Snapshot() {
			out[k] += v
		}
	}
	return out
}

// systemTarget calls System.Request in process.
type systemTarget struct{ sys *core.System }

func (t *systemTarget) do(ctx context.Context, u, user string, _ *bytes.Buffer) reply {
	ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	resp, err := t.sys.Request(ctx, u, user)
	if err != nil {
		return reply{err: err}
	}
	return reply{source: resp.Source, degraded: resp.Degraded, body: resp.Blob.Data, trace: resp.Trace, release: resp.Release}
}

// edgeTarget sends HTTP GETs through the edge front door.
type edgeTarget struct {
	client *http.Client
	base   string
}

func (t *edgeTarget) do(ctx context.Context, u, user string, buf *bytes.Buffer) reply {
	ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, t.base+url.QueryEscape(u)+"&user="+user, nil)
	if err != nil {
		return reply{err: err}
	}
	t0 := time.Now()
	resp, err := t.client.Do(req)
	if err != nil {
		return reply{err: err}
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	t1 := time.Now()
	if err != nil {
		return reply{err: err}
	}
	if resp.StatusCode != http.StatusOK {
		return reply{err: fmt.Errorf("edge: status %d (%s)", resp.StatusCode, resp.Header.Get(edge.HeaderError))}
	}
	r := reply{
		source:   resp.Header.Get(edge.HeaderSource),
		degraded: resp.Header.Get(edge.HeaderDegraded) == "1",
		body:     buf.Bytes(),
		rtStart:  t0,
		rtEnd:    t1,
	}
	if h := resp.Header.Get(edge.HeaderTraceID); h != "" {
		if id, err := obs.ParseTraceID(h); err == nil {
			r.trace = id
		}
	}
	return r
}

// workDir is the benchmark's scratch directory inside the checkout.
func workDir() (string, error) {
	dir := filepath.Join(".bench_build", "run")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(dir, "snsbench-")
}
