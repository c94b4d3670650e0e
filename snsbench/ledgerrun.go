package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/edge"
	"repro/internal/frontend"
	"repro/internal/stub"
)

// counts is a snapshot of the counters the program exports.
type counts struct {
	snap    map[string]float64
	fe      frontend.Stats
	ms      stub.ManagerStubStats
	edge    edge.Stats
	fetches uint64
	mem     runtime.MemStats
	at      time.Time
}

func (r *run) counts() counts {
	c := counts{snap: r.dep.snapshot(), fetches: r.org.fetches.Load(), at: time.Now()}
	for _, fe := range r.dep.front.FrontEnds() {
		st := fe.Stats()
		c.fe.Requests += st.Requests
		c.fe.CacheDistilled += st.CacheDistilled
		c.fe.CacheOriginal += st.CacheOriginal
		c.fe.CoalescedOrigin += st.CoalescedOrigin
		c.fe.CoalescedDistill += st.CoalescedDistill
		c.fe.Shed += st.Shed
		ms := fe.ManagerStub().Stats()
		c.ms.Retries += ms.Retries
		c.ms.Failovers += ms.Failovers
	}
	if eg := r.dep.front.Edge(); eg != nil {
		c.edge = eg.Stats()
	}
	runtime.ReadMemStats(&c.mem)
	return c
}

// sum adds the snapshot values whose names start with prefix and end
// with suffix.
func (c counts) sum(prefix, suffix string) float64 {
	s := 0.0
	for k, v := range c.snap {
		if strings.HasPrefix(k, prefix) && strings.HasSuffix(k, suffix) {
			s += v
		}
	}
	return s
}

// kneeShare is the knee phase's offered rate as a share of the
// service's peak rate measured just before it. A rate fixed in requests
// per second would load the service at a different share of its
// capacity each time the shared host's speed drifts, and queueing makes
// latency at a fixed rate swing far more than the speed does; at a
// fixed share of capacity latency follows the speed. The requests do
// not depend on the rate: the same seed makes the same requests with
// the same gaps, scaled (see generator.arrivals).
const kneeShare = 0.4

// ledgerRun is the traced run: a closed-loop phase for the CPU cost per
// answer, counters over an untraced knee phase, an untraced low phase
// for the tracing overhead, a traced low phase whose requests are
// joined with the program's spans, and the slo_rps ladder. The latency
// figures (p50_ms.*, p99_ms.*, slo_rps) and the CPU cost are reported
// here, with no bound, because on a shared 2-CPU host their spread from
// run to run is wider than any bound a gate could use.
func (r *run) ledgerRun() (*result, error) {
	if err := r.prepare(); err != nil {
		return nil, err
	}
	if _, err := r.start(0); err != nil {
		return nil, err
	}
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	// A closed-loop phase gives the CPU cost per answer and the peak
	// rate the knee rate is a share of.
	cpu0 := cpuTime()
	peak := r.gen.closed("peak", r.share(0.1))
	cpu := cpuTime() - cpu0
	r.account(peak)
	put("cpu_us_per_req", float64(cpu.Nanoseconds())/1e3/math.Max(1, float64(peak.ok+peak.degraded)), "us")

	// Counters over the knee phase.
	stopQ := make(chan struct{})
	qdone := make(chan float64)
	go func() {
		qmax := 0.0
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stopQ:
				qdone <- qmax
				return
			case <-t.C:
				for _, s := range r.dep.all {
					snap := s.Registry().Snapshot()
					for k, v := range snap {
						if strings.HasPrefix(k, "fe.") && strings.HasSuffix(k, ".queue") && v > qmax {
							qmax = v
						}
					}
				}
			}
		}
	}()
	c0 := r.counts()
	knee, err := r.openPhase("knee", kneeShare*peak.completedRate(), r.share(0.15))
	c1 := r.counts()
	close(stopQ)
	qmax := <-qdone
	if err != nil {
		return nil, err
	}
	r.account(knee)
	req := math.Max(1, float64(knee.ok+knee.degraded))
	d := func(prefix, suffix string) float64 { return c1.sum(prefix, suffix) - c0.sum(prefix, suffix) }
	secs := c1.at.Sub(c0.at).Seconds()

	put("edge.retries", float64(c1.edge.Retries-c0.edge.Retries), "count")
	put("edge.upstream_errors", float64(c1.edge.UpstreamErrors-c0.edge.UpstreamErrors), "count")
	feReq := float64(c1.fe.Requests - c0.fe.Requests)
	coalesced := float64(c1.fe.CoalescedOrigin + c1.fe.CoalescedDistill - c0.fe.CoalescedOrigin - c0.fe.CoalescedDistill)
	put("frontend.queue_max", qmax, "count")
	put("frontend.coalesced_share", coalesced/math.Max(1, feReq), "ratio")
	put("frontend.shed", float64(c1.fe.Shed-c0.fe.Shed), "count")
	hits, misses := d("cache.", ".hits"), d("cache.", ".misses")
	put("vcache.hit_share", hits/math.Max(1, hits+misses), "ratio")
	put("vcache.puts_per_req", d("cache.", ".puts")/req, "count")
	put("vcache.injects_per_req", d("cache.", ".injects")/req, "count")
	put("vcache.evictions_per_req", d("cache.", ".evictions")/req, "count")
	put("stub.retries", float64(c1.ms.Retries-c0.ms.Retries), "count")
	put("stub.failovers", float64(c1.ms.Failovers-c0.ms.Failovers), "count")
	for _, class := range workerClasses {
		us, in, out := r.timers[class].take()
		short := strings.TrimPrefix(strings.TrimPrefix(class, "distill-"), "munge-")
		put("distiller."+short+".service_us.p50", percentile(us, 0.5), "us")
		put("distiller."+short+".service_us.p99", percentile(us, 0.99), "us")
		put("distiller."+short+".out_in_ratio", float64(out)/math.Max(1, float64(in)), "ratio")
	}
	missed := float64((c1.fe.Requests - c1.fe.CacheDistilled - c1.fe.CacheOriginal) -
		(c0.fe.Requests - c0.fe.CacheDistilled - c0.fe.CacheOriginal))
	fetchesPerMiss := 0.0
	if missed > 0 {
		fetchesPerMiss = float64(c1.fetches-c0.fetches) / missed
	}
	put("origin.fetches_per_miss", fetchesPerMiss, "ratio")
	put("san.msgs_per_req", (c1.snap["san.sent"]-c0.snap["san.sent"])/req, "count")
	put("san.bytes_per_req", (c1.snap["san.bytes"]-c0.snap["san.bytes"])/req, "B")
	put("san.dropped", d("san.", "dropped"), "count")
	frames, batches := d("bridge.", "frames_out"), d("bridge.", "batches")
	put("transport.frames_per_batch", frames/math.Max(1, batches), "ratio")
	put("transport.frames_per_req", frames/req, "count")
	put("transport.backpressure", d("bridge.", "backpressure"), "count")
	put("transport.frame_errors", c1.sum("bridge.", "frame_errors"), "count")
	put("manager.mcast_per_s", (c1.snap["san.mcast_sent"]-c0.snap["san.mcast_sent"])/secs, "1/s")
	put("runtime.allocs_per_req", float64(c1.mem.Mallocs-c0.mem.Mallocs)/req, "count")
	put("runtime.alloc_bytes_per_req", float64(c1.mem.TotalAlloc-c0.mem.TotalAlloc)/req, "B")
	put("runtime.gc_per_kreq", 1000*float64(c1.mem.NumGC-c0.mem.NumGC)/req, "count")
	put("loadgen.late_ms.p99", knee.lateP99()/1e3, "ms")
	put("loadgen.inflight_max", float64(knee.inflightMax), "count")

	// Untraced, then traced, at the low rate.
	plain, err := r.openPhase("low", r.w.lowRate, r.share(0.15))
	if err != nil {
		return nil, err
	}
	r.account(plain)
	entries, dropped, tracedPhase, err := r.tracedPhase(r.share(0.3))
	if err != nil {
		return nil, err
	}
	r.account(tracedPhase)
	put("trace.overhead_us", tracedPhase.p(0.5)-plain.p(0.5), "us")
	put("p50_ms.low", finite(plain.p(0.5)/1e3), "ms")
	put("p99_ms.low", finite(plain.p(0.99)/1e3), "ms")
	put("p50_ms.knee", finite(knee.p(0.5)/1e3), "ms")
	put("p99_ms.knee", finite(knee.p(0.99)/1e3), "ms")
	slo, err := r.sloRPS(0.3)
	if err != nil {
		return nil, err
	}
	put("slo_rps", slo, "1/s")

	ok := r.addLedger(put, entries, dropped)
	put("fail_share", ratio(r.failed, r.attempted), "ratio")
	put("degraded_share", ratio(r.degraded, r.attempted), "ratio")
	return &result{Correct: r.wrong == 0 && ok, Attempted: r.attempted, Failed: r.failed, Metrics: m}, nil
}

// tracedPhase runs the low-rate phase with every request traced and
// joins each answer with the program's spans a little after it
// arrives, once the worker-side and flush spans have landed.
func (r *run) tracedPhase(dur time.Duration) ([]ledgerEntry, int, *phase, error) {
	for _, s := range r.dep.all {
		s.Tracer().SetSampleRate(1)
	}
	defer func() {
		for _, s := range r.dep.all {
			s.Tracer().SetSampleRate(0)
		}
	}()
	const settle = 50 * time.Millisecond
	var mu sync.Mutex
	var pending []tracedReq
	r.gen.onTraced = func(t tracedReq) {
		mu.Lock()
		pending = append(pending, t)
		mu.Unlock()
	}
	var entries []ledgerEntry
	dropped := 0
	join := func(all bool) {
		mu.Lock()
		cut := time.Now().Add(-settle)
		n := 0
		for n < len(pending) && (all || pending[n].recv.Before(cut)) {
			n++
		}
		batch := append([]tracedReq(nil), pending[:n]...)
		pending = pending[n:]
		mu.Unlock()
		for _, t := range batch {
			if t.verdict != vOK && t.verdict != vDegraded {
				continue
			}
			if e, ok := joinRequest(t, r.dep.spans(t.trace), r.w.edge); ok {
				entries = append(entries, e)
			} else {
				dropped++
			}
		}
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(25 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				join(false)
			}
		}
	}()
	p, err := r.openPhase("low-traced", r.w.lowRate, dur)
	close(stop)
	<-done
	r.gen.onTraced = nil
	time.Sleep(2 * settle)
	join(true)
	return entries, dropped, p, err
}

// addLedger reports the per-layer times of the traced requests and
// checks that the layers and the unattributed rest add up to the
// end-to-end time.
func (r *run) addLedger(put func(string, float64, string), entries []ledgerEntry, dropped int) bool {
	per := func(layer string) []float64 {
		xs := make([]float64, len(entries))
		for i, e := range entries {
			xs[i] = float64(e.layers[layer]) / 1e3
		}
		return xs
	}
	spanDurs := func(hop string) []float64 {
		var xs []float64
		for _, e := range entries {
			for _, sp := range e.spans {
				if sp.Hop == hop {
					xs = append(xs, float64(sp.Dur)/1e3)
				}
			}
		}
		return xs
	}
	pp := func(name string, xs []float64) {
		sorted := append([]float64(nil), xs...)
		put(name+".p50", percentile(sorted, 0.5), "us")
		put(name+".p99", sortedPercentile(sorted, 0.99), "us")
	}
	pp("edge.proxy_us", per(layerEdge))
	pp("frontend.self_us", per(layerFrontend))
	pp("vcache.probe_us", spanDurs("fe.cache"))
	pp("vcache.serve_us", spanDurs("cache.serve"))
	pp("stub.dispatch_us", spanDurs("dispatch"))
	pp("stub.worker_queue_us", spanDurs("worker.queue"))
	pp("transport.flush_us", spanDurs("transport.flush"))

	e2e := make([]float64, len(entries))
	for i, e := range entries {
		e2e[i] = float64(e.e2e) / 1e3
	}
	sum := 0.0
	for _, layer := range ledgerLayers {
		v := mean(per(layer))
		sum += v
		if layer == layerUnattributed {
			put("e2e.unattributed_us", v, "us")
		} else {
			put("ledger."+layer+"_us", v, "us")
		}
	}
	put("ledger.e2e_us", mean(e2e), "us")
	put("ledger.requests", float64(len(entries)), "count")
	put("ledger.dropped", float64(dropped), "count")
	if len(entries) == 0 {
		fmt.Fprintln(os.Stderr, "snsbench: no traced request could be joined with its spans")
		return false
	}
	if diff := math.Abs(sum - mean(e2e)); diff > 1e-6*math.Max(1, mean(e2e)) {
		fmt.Fprintf(os.Stderr, "snsbench: ledger does not add up: layers %.3f us, end to end %.3f us\n", sum, mean(e2e))
		return false
	}
	return true
}
