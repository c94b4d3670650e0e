// Package frontend implements the SNS front end (paper §3.1.1): the
// component that presents the service interface to the outside world,
// shepherds each request — pair it with the user's profile, probe the
// virtual cache, dispatch a distiller pipeline via the manager stub,
// fall back to originals when workers fail — and sustains throughput
// with a large worker pool despite long blocking operations.
//
// The front end also hosts the service's control decisions: dispatch
// rules live here ("the behavior of the service as a whole [is]
// defined almost entirely in the front end"), workers stay simple.
package frontend

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/origin"
	"repro/internal/profiledb"
	"repro/internal/san"
	"repro/internal/stub"
	"repro/internal/tacc"
	"repro/internal/vcache"
)

// Request is one client request entering the front end.
type Request struct {
	URL  string
	User string
	// Raw bypasses distillation (the munger's "view original" link).
	Raw bool
}

// Response is what goes back to the client.
type Response struct {
	Blob tacc.Blob
	// Source records how the response was produced: "cache-distilled",
	// "cache-original", "distilled", "original", "fallback-original",
	// "fallback-stale".
	Source string
	// Degraded marks a BASE harvest reduction: the front end answered
	// from whatever it had on hand (a stale or undistilled cache
	// entry) instead of doing the full work, because doing the full
	// work would have missed the deadline or deepened an overload.
	// "An approximate answer delivered quickly is more useful than the
	// exact answer delivered slowly" (§3.1.8).
	Degraded bool
	// Trace is the request's end-to-end trace id, minted at admission.
	// HTTP adapters surface it (X-Trace-Id) so an operator can pull the
	// span tree from /trace?id= on any node that saw the request.
	Trace obs.TraceID

	// release, when non-nil, returns Blob.Data's backing buffer to the
	// SAN's receive pool: the cache-hit serve path is zero-copy, so the
	// bytes alias a pooled buffer instead of being cloned per request.
	release func()
}

// Release returns the response's backing buffer (if any) to the
// receive-buffer pool. Call it after the response body has been
// written out; Blob.Data must not be touched afterwards. Forgetting to
// call it never corrupts anything — the buffer just falls to the GC
// instead of recycling — and calling it on a copied (non-view)
// response is a no-op.
func (r *Response) Release() {
	if r.release != nil {
		r.release()
		r.release = nil
	}
}

// Config assembles a front end.
type Config struct {
	Name string
	Node string
	Net  *san.Network

	// Rules is the service's dispatch logic.
	Rules tacc.DispatchRule
	// Profiles is the write-through cache over the ACID profile DB.
	Profiles *profiledb.ReadCache
	// Origin fetches content on cache misses.
	Origin origin.Fetcher
	// CacheNodes maps cache partition names to their addresses.
	CacheNodes map[string]san.Addr

	// Threads is the worker-pool size (the paper's production front
	// end ran ~400 threads). Default 64.
	Threads int
	// QueueCap bounds the pending-request queue. Default 4*Threads.
	QueueCap int
	// CacheTTL is the TTL for objects we cache. Zero = no expiry.
	CacheTTL time.Duration
	// FetchTimeout bounds one origin fetch. Coalesced fetches run
	// detached from the leader's request context (one departing
	// client must not fail the whole flight), so only this timeout
	// and the front end's own lifecycle bound them. Default
	// 2 minutes — past the paper's observed 100 s worst-case miss
	// penalty (§4.4).
	FetchTimeout time.Duration
	// HeartbeatInterval paces FE heartbeats to the manager.
	HeartbeatInterval time.Duration
	// HTTPAddr is the host:port of this front end's HTTP adapter
	// (edge.FEServer). It rides every heartbeat so the edge can route
	// to the replica; empty means the FE is not HTTP-reachable and the
	// edge ignores it.
	HTTPAddr string
	// CacheTimeout bounds one virtual-cache round trip; an
	// unreachable cache partition reads as a miss after this long
	// (BASE: the cache is never a correctness dependency). Zero
	// keeps the vcache client default (2 s). Chaos scenarios that
	// partition the cache group tighten it so fallback-to-origin is
	// fast.
	CacheTimeout time.Duration
	// MinDistillSize: objects at or below this bypass distillation
	// (1 KB threshold, §4.1).
	MinDistillSize int
	// ManagerStub configures dispatch behavior.
	ManagerStub stub.ManagerStubConfig

	// RequestDeadline, when positive, is the end-to-end latency budget
	// stamped onto every request that arrives without its own context
	// deadline. It propagates with the request — through the cache
	// probes, into dispatch (TaskMsg.Deadline), down to the worker's
	// inbox — so every hop can drop work nobody awaits anymore instead
	// of executing it. Zero leaves requests unbounded (the caller's
	// context still applies).
	RequestDeadline time.Duration
	// MaxInflight bounds concurrently admitted requests (queued plus
	// executing). Requests beyond it take the degraded path — a stale
	// cache answer when one exists, a fast typed ErrOverloaded reply
	// otherwise — rather than queueing into a deadline they cannot
	// meet. Zero defaults to Threads+QueueCap (the pool's natural
	// capacity); negative disables the check.
	MaxInflight int
	// QueueHighWater, when positive, sheds on the lottery estimator's
	// queue-delta signal: if even the least-loaded worker's estimated
	// queue (ManagerStub.QueueEstimate) is at or past this depth, new
	// work would only age in worker inboxes, so it degrades or sheds
	// at admission instead. Zero disables the signal.
	QueueHighWater float64
	// BackpressureFn, when set, reports the cumulative count of sends
	// the transport refused for backpressure (e.g. the Backpressure
	// field of transport.Bridge stats). Growth between admission
	// checks marks the fabric saturated — remote congestion sheds
	// upstream here instead of piling more frames onto a stalled
	// peer.
	BackpressureFn func() uint64
}

func (c Config) withDefaults() Config {
	if c.Threads <= 0 {
		c.Threads = 64
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 4 * c.Threads
	}
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = stub.DefaultBeaconInterval
	}
	if c.MinDistillSize <= 0 {
		c.MinDistillSize = 1024
	}
	if c.FetchTimeout <= 0 {
		c.FetchTimeout = 2 * time.Minute
	}
	if c.MaxInflight == 0 {
		c.MaxInflight = c.Threads + c.QueueCap
	}
	return c
}

// Stats counts front-end activity.
type Stats struct {
	Requests       uint64
	CacheDistilled uint64 // served a cached post-transform object
	CacheOriginal  uint64 // original found in cache, then distilled
	OriginFetches  uint64
	Distilled      uint64
	PassedThrough  uint64
	Fallbacks      uint64 // distillation failed; original returned
	Errors         uint64

	// CoalescedOrigin counts requests that waited on another
	// request's in-flight origin fetch instead of stampeding the
	// origin; CoalescedDistill the same for distillation dispatch.
	CoalescedOrigin  uint64
	CoalescedDistill uint64

	// Shed counts requests refused outright at admission (typed
	// ErrOverloaded, no degraded answer existed); DegradedServes
	// counts saturated requests answered from stale/undistilled cache
	// data instead; Expired counts queued requests dropped at dequeue
	// because their deadline had already passed.
	Shed           uint64
	DegradedServes uint64
	Expired        uint64
}

type job struct {
	ctx  context.Context
	req  Request
	resp chan Response
	err  chan error
}

// FrontEnd implements cluster.Process.
type FrontEnd struct {
	cfg Config
	ep  *san.Endpoint

	mstub *stub.ManagerStub
	cache *vcache.Client
	jobs  chan job

	// Miss coalescing: concurrent requests for one original (or one
	// distilled variant) share a single origin fetch (or dispatch).
	origFlight    stub.FlightGroup[tacc.Blob]
	distillFlight stub.FlightGroup[tacc.Blob]

	running  atomic.Bool
	runDone  atomic.Pointer[chan struct{}] // closed when the current Run exits
	inflight atomic.Int64                  // admitted requests currently queued or executing
	lastBP   atomic.Uint64                 // last BackpressureFn sample (delta = congestion)
	stats    struct {
		requests, cacheDistilled, cacheOriginal, originFetches atomic.Uint64
		distilled, passedThrough, fallbacks, errors            atomic.Uint64
		coalescedOrigin, coalescedDistill                      atomic.Uint64
		shed, degradedServes, expired                          atomic.Uint64
	}

	mu       sync.Mutex
	disabled bool
}

// New creates a front end and eagerly registers its endpoint.
func New(cfg Config) *FrontEnd {
	cfg = cfg.withDefaults()
	fe := &FrontEnd{cfg: cfg, jobs: make(chan job, cfg.QueueCap)}
	fe.ep = cfg.Net.Endpoint(fe.addr(), 4096)
	fe.mstub = stub.NewManagerStub(fe.ep, cfg.ManagerStub)
	fe.cache = fe.newCacheClient()
	return fe
}

func (fe *FrontEnd) newCacheClient() *vcache.Client {
	c := vcache.NewClient(fe.ep)
	if fe.cfg.CacheTimeout > 0 {
		c.Timeout = fe.cfg.CacheTimeout
	}
	for name, addr := range fe.cfg.CacheNodes {
		c.AddNode(name, addr)
	}
	return c
}

func (fe *FrontEnd) addr() san.Addr { return san.Addr{Node: fe.cfg.Node, Proc: fe.cfg.Name} }

// Addr returns the front end's SAN address.
func (fe *FrontEnd) Addr() san.Addr { return fe.addr() }

// ID implements cluster.Process.
func (fe *FrontEnd) ID() string { return fe.cfg.Name }

// ManagerStub exposes the stub (for stats and tests).
func (fe *FrontEnd) ManagerStub() *stub.ManagerStub { return fe.mstub }

// Cache exposes the virtual-cache client (for membership changes).
func (fe *FrontEnd) Cache() *vcache.Client { return fe.cache }

// Stats returns a snapshot of counters.
func (fe *FrontEnd) Stats() Stats {
	return Stats{
		Requests:       fe.stats.requests.Load(),
		CacheDistilled: fe.stats.cacheDistilled.Load(),
		CacheOriginal:  fe.stats.cacheOriginal.Load(),
		OriginFetches:  fe.stats.originFetches.Load(),
		Distilled:      fe.stats.distilled.Load(),
		PassedThrough:  fe.stats.passedThrough.Load(),
		Fallbacks:      fe.stats.fallbacks.Load(),
		Errors:         fe.stats.errors.Load(),

		CoalescedOrigin:  fe.stats.coalescedOrigin.Load(),
		CoalescedDistill: fe.stats.coalescedDistill.Load(),

		Shed:           fe.stats.shed.Load(),
		DegradedServes: fe.stats.degradedServes.Load(),
		Expired:        fe.stats.expired.Load(),
	}
}

// Running reports whether the front end's Run loop is live.
func (fe *FrontEnd) Running() bool { return fe.running.Load() }

// Run implements cluster.Process: receive loop plus worker pool.
func (fe *FrontEnd) Run(ctx context.Context) error {
	if fe.ep == nil || !fe.cfg.Net.Lookup(fe.addr()) {
		fe.ep = fe.cfg.Net.Endpoint(fe.addr(), 4096)
		fe.mstub = stub.NewManagerStub(fe.ep, fe.cfg.ManagerStub)
		fe.cache = fe.newCacheClient()
	}
	ep := fe.ep
	defer ep.Close()
	defer fe.mstub.Stop()
	ep.Join(stub.GroupControl)

	fe.running.Store(true)
	defer fe.running.Store(false)
	// Closed on exit so Do calls whose job is still queued when the FE
	// dies fail fast instead of waiting on a worker that will never
	// answer (the caller may hold no deadline — e.g. the edge's HTTP
	// adapter — and a killed FE must read as an error, not a hang).
	done := make(chan struct{})
	fe.runDone.Store(&done)
	defer close(done)
	fe.cfg.Net.Registry().SetCollector("fe."+fe.cfg.Name, func(emit func(string, float64)) {
		st := fe.Stats()
		emit("requests", float64(st.Requests))
		emit("cache_distilled", float64(st.CacheDistilled))
		emit("cache_original", float64(st.CacheOriginal))
		emit("origin_fetches", float64(st.OriginFetches))
		emit("distilled", float64(st.Distilled))
		emit("fallbacks", float64(st.Fallbacks))
		emit("errors", float64(st.Errors))
		emit("shed", float64(st.Shed))
		emit("degraded", float64(st.DegradedServes))
		emit("expired", float64(st.Expired))
		emit("queue", float64(len(fe.jobs)))
		emit("inflight", float64(fe.inflight.Load()))
	})

	var wg sync.WaitGroup
	wctx, wcancel := context.WithCancel(ctx)
	defer wcancel()
	for i := 0; i < fe.cfg.Threads; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-wctx.Done():
					return
				case j := <-fe.jobs:
					resp, err := fe.handle(j.ctx, wctx, j.req)
					if err != nil {
						j.err <- err
					} else {
						j.resp <- resp
					}
				}
			}
		}()
	}

	hb := time.NewTicker(fe.cfg.HeartbeatInterval)
	defer hb.Stop()
	fe.heartbeat(ep)

	var greeted san.Addr
	for {
		select {
		case <-ctx.Done():
			wcancel()
			wg.Wait()
			return nil
		case <-hb.C:
			fe.heartbeat(ep)
		case msg, ok := <-ep.Inbox():
			if !ok {
				wcancel()
				wg.Wait()
				return fmt.Errorf("frontend: %s endpoint closed", fe.cfg.Name)
			}
			if fe.mstub.HandleMessage(msg) {
				// Greet a newly discovered (or restarted) manager at
				// once, so the process-peer watch covers this front
				// end from its very first beacon — not a heartbeat
				// tick later.
				if mgr := fe.mstub.Manager(); !mgr.IsZero() && mgr != greeted {
					greeted = mgr
					fe.heartbeat(ep)
				}
				continue
			}
			switch msg.Kind {
			case stub.MsgDisable:
				fe.mu.Lock()
				fe.disabled = true
				fe.mu.Unlock()
				// Announce the drain at once — the edge must stop
				// routing here now, not a heartbeat tick later.
				fe.heartbeat(ep)
			case stub.MsgEnable:
				fe.mu.Lock()
				fe.disabled = false
				fe.mu.Unlock()
				fe.heartbeat(ep)
			}
		}
	}
}

func (fe *FrontEnd) heartbeat(ep *san.Endpoint) {
	// The liveness heartbeat is multicast on the control group, not
	// unicast to the primary: every standby manager replica mirrors the
	// front-end inventory from the same stream, so a freshly elected
	// primary takes over the FE process-peer watch with no
	// re-registration round (symmetric with cache and supervisor
	// hellos).
	fe.mu.Lock()
	draining := fe.disabled
	fe.mu.Unlock()
	ep.Multicast(stub.GroupControl, stub.MsgFEHello, stub.FEHeartbeat{
		Name:     fe.cfg.Name,
		Addr:     fe.addr(),
		Node:     fe.cfg.Node,
		HTTPAddr: fe.cfg.HTTPAddr,
		Draining: draining,
	})
	st := fe.Stats()
	ep.Multicast(stub.GroupReports, stub.MsgMonReport, stub.StatusReport{
		Component: fe.cfg.Name,
		Kind:      "frontend",
		Node:      fe.cfg.Node,
		Metrics: map[string]float64{
			"requests":  float64(st.Requests),
			"fallbacks": float64(st.Fallbacks),
			"errors":    float64(st.Errors),
			"queue":     float64(len(fe.jobs)),
			"shed":      float64(st.Shed),
			"degraded":  float64(st.DegradedServes),
		},
	})
}

// ErrDisabled is returned while the front end is disabled for a hot
// upgrade.
var ErrDisabled = fmt.Errorf("frontend: disabled for upgrade")

// ErrOverloaded is the typed overload reply: the front end shed the
// request at admission (saturated, and not even a degraded answer
// existed) or found its queue full. It is deliberately fast — no
// worker capacity, origin fetch, or dispatch retry was spent before
// returning it.
var ErrOverloaded = fmt.Errorf("frontend: request queue full")

// saturated is the admission-control estimator: it combines the local
// in-flight count, the lottery scheduler's queue-delta extrapolation
// for the worker pool, and the transport's backpressure counter into
// one question — would accepting this request plausibly meet its
// deadline, or only deepen the overload?
func (fe *FrontEnd) saturated() bool {
	if fe.cfg.MaxInflight > 0 && fe.inflight.Load() >= int64(fe.cfg.MaxInflight) {
		return true
	}
	if fn := fe.cfg.BackpressureFn; fn != nil {
		cur := fn()
		if last := fe.lastBP.Swap(cur); cur > last {
			// The transport refused sends since the last admission
			// check: a peer's reader is stalled. Piling more work on
			// only grows the refused-frame count.
			return true
		}
	}
	if hw := fe.cfg.QueueHighWater; hw > 0 {
		if est, known := fe.mstub.QueueEstimate(""); known && est >= hw {
			return true
		}
	}
	return false
}

// Do submits a request and waits for the response — the programmatic
// equivalent of an HTTP arrival (cmd/node adapts net/http onto
// this). Under saturation it degrades before shedding: a stale cache
// entry past its TTL (Response.Degraded) beats a refusal, and a
// refusal (ErrOverloaded, fast and typed) beats a queued request that
// will miss its deadline anyway.
func (fe *FrontEnd) Do(ctx context.Context, req Request) (Response, error) {
	fe.mu.Lock()
	disabled := fe.disabled
	fe.mu.Unlock()
	if disabled {
		return Response{}, ErrDisabled
	}
	if !fe.running.Load() {
		return Response{}, fmt.Errorf("frontend: %s not running", fe.cfg.Name)
	}
	// The current run's death signal: if the FE is killed after this
	// job lands in the queue, no worker will ever answer it.
	var done chan struct{}
	if p := fe.runDone.Load(); p != nil {
		done = *p
	}
	if fe.cfg.RequestDeadline > 0 {
		if _, has := ctx.Deadline(); !has {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, fe.cfg.RequestDeadline)
			defer cancel()
		}
	}

	// Mint the request's trace id at admission (or adopt one the caller
	// already attached) — it rides the ctx through cache probes and
	// dispatch, crosses process boundaries on the wire, and keys the
	// span tree an operator pulls from /trace?id=.
	tracer := fe.cfg.Net.Tracer()
	trace := obs.TraceFrom(ctx)
	if !trace.Valid() {
		trace = tracer.NewTrace()
		ctx = obs.WithTrace(ctx, trace)
	}
	start := time.Now()
	// finish closes the root span. Forced outcomes (shed, degraded,
	// expired) record regardless of sampling — the requests that went
	// wrong are exactly the ones worth a trace.
	finish := func(note string, forced bool) {
		dur := time.Since(start)
		fe.cfg.Net.Registry().Histogram("fe."+fe.cfg.Name+".latency_ns", nil).Observe(float64(dur))
		sp := obs.Span{
			Trace: trace, Comp: fe.cfg.Name, Hop: obs.RootHop, Note: note,
			Start: start.UnixNano(), Dur: int64(dur),
		}
		if forced {
			tracer.ForceRecord(sp)
		} else {
			tracer.Record(sp)
		}
	}

	if !fe.saturated() {
		j := job{ctx: ctx, req: req, resp: make(chan Response, 1), err: make(chan error, 1)}
		select {
		case fe.jobs <- j:
			if trace.Sampled() {
				tracer.Record(obs.Span{
					Trace: trace, Comp: fe.cfg.Name, Hop: "fe.admit", Note: "ok",
					Start: start.UnixNano(), Dur: int64(time.Since(start)),
				})
			}
			fe.inflight.Add(1)
			defer fe.inflight.Add(-1)
			select {
			case resp := <-j.resp:
				resp.Trace = trace
				finish(resp.Source, false)
				return resp, nil
			case err := <-j.err:
				finish("error", false)
				return Response{}, err
			case <-ctx.Done():
				finish("expired", true)
				return Response{}, ctx.Err()
			case <-done:
				// The run exited — but a worker may have answered just
				// before it did, so prefer a buffered result over the
				// death signal.
				select {
				case resp := <-j.resp:
					resp.Trace = trace
					finish(resp.Source, false)
					return resp, nil
				case err := <-j.err:
					finish("error", false)
					return Response{}, err
				default:
					fe.stats.errors.Add(1)
					finish("stopped", true)
					return Response{}, fmt.Errorf("frontend: %s stopped", fe.cfg.Name)
				}
			}
		default:
			// Queue full is saturation by definition: fall through to
			// the degraded path.
		}
	}
	if resp, ok := fe.degradedServe(ctx, req); ok {
		tracer.ForceRecord(obs.Span{
			Trace: trace, Comp: fe.cfg.Name, Hop: "fe.admit", Note: "degraded",
			Start: start.UnixNano(),
		})
		resp.Trace = trace
		finish(resp.Source, true)
		return resp, nil
	}
	fe.stats.shed.Add(1)
	fe.stats.errors.Add(1)
	tracer.ForceRecord(obs.Span{
		Trace: trace, Comp: fe.cfg.Name, Hop: "fe.admit", Note: "shed",
		Start: start.UnixNano(),
	})
	finish("shed", true)
	return Response{}, ErrOverloaded
}

// degradedServe is the BASE harvest reduction an overloaded front end
// applies before refusing a request: answer from whatever the cache
// holds — the distilled variant or the original, fresh or past its TTL
// — without consuming a worker-pool slot, an origin fetch, or a
// dispatch. A fresh distilled hit is a full-quality answer and not
// marked Degraded (the cache probe is cheap either way); anything
// else served here is.
func (fe *FrontEnd) degradedServe(ctx context.Context, req Request) (Response, bool) {
	pipeline, profile := fe.plan(req)
	if len(pipeline) > 0 {
		key := pipeline.CacheKey(req.URL, profile)
		if data, mime, stale, release, ok := fe.cache.GetStaleView(ctx, key); ok {
			fe.stats.degradedServes.Add(1)
			resp := Response{
				Blob:    tacc.Blob{MIME: mime, Data: data},
				Source:  "cache-distilled",
				release: release,
			}
			if stale {
				resp.Source = "fallback-stale"
				resp.Degraded = true
			}
			return resp, true
		}
	}
	if data, mime, stale, release, ok := fe.cache.GetStaleView(ctx, "orig|"+req.URL); ok {
		fe.stats.degradedServes.Add(1)
		resp := Response{
			Blob:     tacc.Blob{MIME: mime, Data: data},
			Source:   "original",
			Degraded: len(pipeline) > 0, // undistilled when distillation was asked for
			release:  release,
		}
		if stale {
			resp.Source = "fallback-stale"
			resp.Degraded = true
		}
		return resp, true
	}
	return Response{}, false
}

// handle shepherds one request end to end. life is the front end's
// own lifecycle context: coalesced flights detach from the individual
// request's ctx (one departing client must not fail the whole flight)
// but still die with the process.
func (fe *FrontEnd) handle(ctx, life context.Context, req Request) (Response, error) {
	fe.stats.requests.Add(1)
	tracer := fe.cfg.Net.Tracer()
	trace := obs.TraceFrom(ctx)

	// 0. Drop expired work at dequeue: a request whose deadline passed
	// while it aged in the job queue has nobody awaiting it — the same
	// rule the workers apply to their inboxes.
	if err := ctx.Err(); err != nil {
		fe.stats.expired.Add(1)
		tracer.ForceRecord(obs.Span{
			Trace: trace, Comp: fe.cfg.Name, Hop: "fe.expired",
			Start: time.Now().UnixNano(),
		})
		return Response{}, err
	}

	// 1+2. Pair the request with the user's profile and let the
	// service-specific dispatch logic decide the pipeline.
	pipeline, profile := fe.plan(req)
	distillKey := pipeline.CacheKey(req.URL, profile)
	origKey := "orig|" + req.URL

	// 3. Distilled variant already cached? This is the steady-state
	// hot path, so it serves the view directly — the bytes stay in the
	// pooled receive buffer until the caller's Response.Release.
	if len(pipeline) > 0 {
		cstart := time.Now()
		data, mime, release, ok := fe.cache.GetView(ctx, distillKey)
		if trace.Sampled() {
			note := "miss"
			if ok {
				note = "hit"
			}
			tracer.Record(obs.Span{
				Trace: trace, Comp: fe.cfg.Name, Hop: "fe.cache", Note: note,
				Start: cstart.UnixNano(), Dur: int64(time.Since(cstart)),
			})
		}
		if ok {
			fe.stats.cacheDistilled.Add(1)
			return Response{
				Blob:    tacc.Blob{MIME: mime, Data: data},
				Source:  "cache-distilled",
				release: release,
			}, nil
		}
	}

	// 4. Fetch the original (cache first, then origin). Concurrent
	// misses on one URL coalesce into a single origin fetch: the
	// leader fetches and populates the cache, followers share the
	// result instead of stampeding the origin.
	var orig tacc.Blob
	if data, mime, ok := fe.cache.Get(ctx, origKey); ok {
		fe.stats.cacheOriginal.Add(1)
		orig = tacc.Blob{MIME: mime, Data: data}
	} else {
		if fe.cfg.Origin == nil {
			fe.stats.errors.Add(1)
			return Response{}, fmt.Errorf("frontend: no origin configured for %s", req.URL)
		}
		fetched, err, shared := fe.origFlight.Do(ctx, origKey, func() (tacc.Blob, error) {
			fctx, cancel := context.WithTimeout(life, fe.cfg.FetchTimeout)
			defer cancel()
			blob, err := fe.cfg.Origin.Fetch(fctx, req.URL)
			if err != nil {
				return tacc.Blob{}, err
			}
			fe.stats.originFetches.Add(1)
			fe.cache.Put(fctx, origKey, blob.Data, blob.MIME, fe.cfg.CacheTTL)
			return blob, nil
		})
		if shared {
			fe.stats.coalescedOrigin.Add(1)
		}
		if err != nil {
			fe.stats.errors.Add(1)
			return Response{}, fmt.Errorf("frontend: fetch %s: %w", req.URL, err)
		}
		orig = fetched
	}

	// 5. Pass small or rule-less content through unmodified.
	if len(pipeline) == 0 || orig.Size() <= fe.cfg.MinDistillSize {
		fe.stats.passedThrough.Add(1)
		return Response{Blob: orig, Source: "original"}, nil
	}

	// 6. Dispatch the pipeline, coalescing concurrent requests for
	// the same distilled variant into one dispatch (and one inject).
	// Failure means a degraded but fast answer, never an error page
	// with nothing in it: "in all cases, an approximate answer
	// delivered quickly is more useful than the exact answer
	// delivered slowly" (§3.1.8).
	out, err, shared := fe.distillFlight.Do(ctx, distillKey, func() (tacc.Blob, error) {
		// Detached like the origin flight; dispatch is already
		// bounded by the stub's per-attempt CallTimeout and retry
		// budget. The flight leader's deadline still rides along so
		// the stub stamps it into TaskMsg and workers can drop the
		// task once nobody awaits it — and so does its trace id, so
		// the dispatch and worker hops join the leader's span tree.
		dctx := life
		if trace.Valid() {
			dctx = obs.WithTrace(dctx, trace)
		}
		if dl, ok := ctx.Deadline(); ok {
			var cancel context.CancelFunc
			dctx, cancel = context.WithDeadline(dctx, dl)
			defer cancel()
		}
		task := &tacc.Task{Key: req.URL, Input: orig, Profile: profile}
		blob, err := fe.mstub.DispatchPipeline(dctx, pipeline, task)
		if err != nil {
			return tacc.Blob{}, err
		}
		// 7. Inject the distilled variant for future hits.
		fe.cache.Inject(dctx, distillKey, blob.Data, blob.MIME, fe.cfg.CacheTTL)
		return blob, nil
	})
	if shared {
		fe.stats.coalescedDistill.Add(1)
	}
	if err != nil {
		fe.stats.fallbacks.Add(1)
		return Response{
			Blob:   orig.WithMeta("degraded", err.Error()),
			Source: "fallback-original",
		}, nil
	}
	fe.stats.distilled.Add(1)
	return Response{Blob: out, Source: "distilled"}, nil
}

// plan pairs a request with its user profile and lets the dispatch
// rules pick the pipeline — the first two steps of every request,
// shared by the full handle path and the degraded-serve path.
func (fe *FrontEnd) plan(req Request) (tacc.Pipeline, map[string]string) {
	var profile map[string]string
	if fe.cfg.Profiles != nil && req.User != "" {
		profile = fe.cfg.Profiles.Get(req.User)
	}
	var pipeline tacc.Pipeline
	if fe.cfg.Rules != nil && !req.Raw {
		pipeline = fe.cfg.Rules(req.URL, mimeHint(req.URL), profile)
	}
	return pipeline, profile
}

// mimeHint guesses the MIME type from the URL extension so dispatch
// rules can run before the content arrives; rules that need certainty
// can re-check after fetch (our distillers verify magic bytes anyway).
func mimeHint(url string) string {
	switch {
	case strings.HasSuffix(url, ".sgif"):
		return "image/sgif"
	case strings.HasSuffix(url, ".sjpg"):
		return "image/sjpg"
	case strings.HasSuffix(url, ".html"), strings.HasSuffix(url, "/"):
		return "text/html"
	default:
		return "application/octet-stream"
	}
}
