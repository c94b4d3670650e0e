package stub

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/san"
	"repro/internal/tacc"
)

// WorkerConfig tunes a worker stub.
type WorkerConfig struct {
	// QueueCap bounds the request queue; beyond it the stub rejects
	// tasks so front ends retry elsewhere. Default 64.
	QueueCap int
	// ReportInterval is the load-report period. Default 500 ms.
	ReportInterval time.Duration
	// SurvivePanic converts worker panics into task errors instead
	// of killing the stub process. The default (false) is the
	// paper's model: distillers crash freely on pathological input
	// and the SNS layer restarts them.
	SurvivePanic bool
	// Overflow marks this stub as running on an overflow-pool node.
	Overflow bool
}

func (c WorkerConfig) withDefaults() WorkerConfig {
	if c.QueueCap <= 0 {
		c.QueueCap = 64
	}
	if c.ReportInterval <= 0 {
		c.ReportInterval = DefaultReportInterval
	}
	return c
}

// WorkerStub wraps a tacc.Worker into an SNS citizen: it queues tasks,
// reports load, registers with whatever manager is beaconing, survives
// (or deliberately propagates) worker crashes, and honors hot-upgrade
// disable/enable. It implements cluster.Process.
//
// The worker code itself "need not be thread-safe" (§2.2.5): the stub
// executes tasks strictly serially.
type WorkerStub struct {
	name   string
	node   string
	class  string
	worker tacc.Worker
	net    *san.Network
	cfg    WorkerConfig

	ep      *san.Endpoint
	queue   chan queuedTask
	qlen    atomic.Int64
	done    atomic.Uint64
	errs    atomic.Uint64
	crashes atomic.Uint64
	expired atomic.Uint64 // tasks dropped unrun: deadline passed in queue
	costMs  atomic.Uint64 // EWMA of task cost, microseconds, stored *1

	// Fault injection (chaos testing): an artificial per-task delay
	// and a hang switch, both honored by the process loop. A hung
	// worker keeps queueing tasks and reporting load (its queue
	// visibly grows) but completes nothing — the gray-failure mode
	// timeouts must catch, distinct from a crash.
	slowdown atomic.Int64 // nanoseconds added to every task
	hung     atomic.Bool

	mu        sync.Mutex
	manager   san.Addr
	lastEpoch uint64
	disabled  bool
}

// InjectSlowdown adds d to every subsequent task execution (zero
// removes the fault). Chaos harness knob.
func (s *WorkerStub) InjectSlowdown(d time.Duration) { s.slowdown.Store(int64(d)) }

// InjectHang stops (true) or resumes (false) task completion without
// killing the process. Chaos harness knob.
func (s *WorkerStub) InjectHang(h bool) { s.hung.Store(h) }

// NewWorkerStub creates a stub and eagerly registers its SAN endpoint.
func NewWorkerStub(name, node string, w tacc.Worker, net *san.Network, cfg WorkerConfig) *WorkerStub {
	cfg = cfg.withDefaults()
	s := &WorkerStub{
		name:   name,
		node:   node,
		class:  w.Class(),
		worker: w,
		net:    net,
		cfg:    cfg,
		queue:  make(chan queuedTask, cfg.QueueCap),
	}
	s.ep = net.Endpoint(s.addr(), cfg.QueueCap*2+64)
	return s
}

func (s *WorkerStub) addr() san.Addr { return san.Addr{Node: s.node, Proc: s.name} }

// Addr returns the stub's SAN address.
func (s *WorkerStub) Addr() san.Addr { return s.addr() }

// ID implements cluster.Process.
func (s *WorkerStub) ID() string { return s.name }

// Info describes this worker for registration.
func (s *WorkerStub) Info() WorkerInfo {
	return WorkerInfo{
		ID:       s.name,
		Class:    s.class,
		Addr:     s.addr(),
		Node:     s.node,
		Overflow: s.cfg.Overflow,
	}
}

// QueueLen returns the current queue length (pending + in service).
func (s *WorkerStub) QueueLen() int { return int(s.qlen.Load()) }

// ExpiredDrops returns how many queued tasks this stub dropped unrun
// because their deadline had already passed.
func (s *WorkerStub) ExpiredDrops() uint64 { return s.expired.Load() }

// TasksDone returns how many tasks this stub completed successfully —
// the per-worker share counter the gray-failure scenarios compare to
// show the lottery shifting load away from an impaired worker.
func (s *WorkerStub) TasksDone() uint64 { return s.done.Load() }

// errWorkerCrash marks a stub exit caused by a worker panic.
type errWorkerCrash struct{ cause any }

func (e errWorkerCrash) Error() string {
	return fmt.Sprintf("stub: worker crashed: %v", e.cause)
}

// Run implements cluster.Process.
func (s *WorkerStub) Run(ctx context.Context) error {
	if s.ep == nil || !s.net.Lookup(s.addr()) {
		s.ep = s.net.Endpoint(s.addr(), s.cfg.QueueCap*2+64)
	}
	ep := s.ep
	defer ep.Close()
	ep.Join(GroupControl)
	// Replace-by-name keeps restarts idempotent: a respawned stub with
	// the same name takes over its metric slot.
	s.net.Registry().SetCollector("worker."+s.name, func(emit func(string, float64)) {
		emit("qlen", float64(s.qlen.Load()))
		emit("done", float64(s.done.Load()))
		emit("errors", float64(s.errs.Load()))
		emit("crashes", float64(s.crashes.Load()))
		emit("expired", float64(s.expired.Load()))
		emit("cost_ms", float64(s.costMs.Load())/1000)
	})

	crashed := make(chan any, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	pctx, pcancel := context.WithCancel(ctx)
	defer pcancel()
	go func() {
		defer wg.Done()
		s.processLoop(pctx, crashed)
	}()

	ticker := time.NewTicker(s.cfg.ReportInterval)
	defer ticker.Stop()

	for {
		select {
		case <-ctx.Done():
			// Clean shutdown: tell the manager we are leaving so it
			// does not spawn a replacement. A crash (below) sends
			// nothing — a dead process cannot deregister, and the
			// manager must discover the loss by timeout (§3.1.3).
			s.deregister()
			pcancel()
			wg.Wait()
			return nil
		case cause := <-crashed:
			pcancel()
			wg.Wait()
			return errWorkerCrash{cause: cause}
		case <-ticker.C:
			s.reportLoad(ep)
		case msg, ok := <-ep.Inbox():
			if !ok {
				pcancel()
				wg.Wait()
				return fmt.Errorf("stub: %s endpoint closed", s.name)
			}
			s.handle(ctx, ep, msg)
		}
	}
}

func (s *WorkerStub) handle(ctx context.Context, ep *san.Endpoint, msg san.Message) {
	switch msg.Kind {
	case MsgBeacon:
		b, ok := msg.Body.(Beacon)
		if !ok {
			return
		}
		s.mu.Lock()
		if b.Epoch < s.lastEpoch {
			// Stale-epoch straggler from a deposed primary: following
			// it would re-anchor the stub on a manager that no longer
			// owns anything.
			s.mu.Unlock()
			return
		}
		s.lastEpoch = b.Epoch
		known := s.manager == b.Manager
		disabled := s.disabled
		s.manager = b.Manager
		s.mu.Unlock()
		if !known && !disabled {
			// New manager (first sight or restarted): re-register.
			// This is the §3.1.3 recovery path — "if the manager
			// crashes and restarts, the distillers detect beacons
			// from the new manager and re-register themselves".
			_ = ep.Send(b.Manager, MsgRegister, RegisterMsg{Info: s.Info()})
		}
	case MsgTask:
		s.mu.Lock()
		disabled := s.disabled
		s.mu.Unlock()
		if disabled {
			_ = ep.Respond(msg, MsgResult, ResultMsg{Err: "worker disabled"})
			return
		}
		select {
		case s.queue <- queuedTask{msg: msg, at: time.Now()}:
			s.qlen.Add(1)
		default:
			_ = ep.Respond(msg, MsgResult, ResultMsg{Err: "queue full"})
		}
	case MsgShutdown:
		// Graceful reap: de-register, then crash out cleanly; the
		// cluster reaps the process.
		s.deregister()
		s.mu.Lock()
		s.disabled = true
		s.mu.Unlock()
	case MsgDisable:
		s.mu.Lock()
		s.disabled = true
		s.mu.Unlock()
		s.deregister()
	case MsgEnable:
		s.mu.Lock()
		s.disabled = false
		mgr := s.manager
		s.mu.Unlock()
		if !mgr.IsZero() {
			_ = ep.Send(mgr, MsgRegister, RegisterMsg{Info: s.Info()})
		}
	}
}

// queuedTask pairs a task with its enqueue instant so the process
// loop can decompose latency into queue-wait vs service time — the
// split the trace plane and the slow-request log report per hop.
type queuedTask struct {
	msg san.Message
	at  time.Time
}

// processLoop serially executes queued tasks.
func (s *WorkerStub) processLoop(ctx context.Context, crashed chan<- any) {
	tracer := s.net.Tracer()
	for {
		select {
		case <-ctx.Done():
			return
		case qt := <-s.queue:
			msg := qt.msg
			for s.hung.Load() {
				select {
				case <-ctx.Done():
					return
				case <-time.After(2 * time.Millisecond):
				}
			}
			if d := time.Duration(s.slowdown.Load()); d > 0 {
				select {
				case <-ctx.Done():
					return
				case <-time.After(d):
				}
			}
			trace := taskTrace(msg)
			if trace.Sampled() {
				tracer.Record(obs.Span{
					Trace: trace, Comp: s.name, Hop: "worker.queue",
					Start: qt.at.UnixNano(), Dur: int64(time.Since(qt.at)),
				})
			}
			if dl := taskDeadline(msg); !dl.IsZero() && time.Now().After(dl) {
				// The request expired while queued (or while this stub
				// hung): nobody awaits the answer, so don't burn capacity
				// computing it — the deadline-propagation half of graceful
				// degradation under overload.
				s.expired.Add(1)
				s.qlen.Add(-1)
				// Expired drops record unconditionally: a shed request is
				// exactly the one an operator wants a trace of.
				tracer.ForceRecord(obs.Span{
					Trace: trace, Comp: s.name, Hop: "worker.expired",
					Start: qt.at.UnixNano(), Dur: int64(time.Since(qt.at)),
				})
				_ = s.ep.Respond(msg, MsgResult, ResultMsg{Err: ErrTaskExpired})
				msg.Release()
				continue
			}
			start := time.Now()
			blob, err, panicked := s.runTask(ctx, msg)
			s.qlen.Add(-1)
			cost := time.Since(start)
			s.observeCost(cost)
			if trace.Sampled() {
				tracer.Record(obs.Span{
					Trace: trace, Comp: s.name, Hop: "worker.service", Note: s.class,
					Start: start.UnixNano(), Dur: int64(cost),
				})
			}
			if panicked != nil {
				s.crashes.Add(1)
				_ = s.ep.Respond(msg, MsgResult, ResultMsg{Err: fmt.Sprintf("worker panic: %v", panicked)})
				msg.Release()
				if !s.cfg.SurvivePanic {
					select {
					case crashed <- panicked:
					default:
					}
					return
				}
				continue
			}
			if err != nil {
				s.errs.Add(1)
				_ = s.ep.Respond(msg, MsgResult, ResultMsg{Err: err.Error()})
				msg.Release()
				continue
			}
			s.done.Add(1)
			_ = s.ep.Respond(msg, MsgResult, ResultMsg{Blob: blob})
			// Release after Respond: the result blob may alias the
			// task's input (identity transforms), and Respond has
			// finished encoding it by the time it returns.
			msg.Release()
		}
	}
}

// ErrTaskExpired is the ResultMsg.Err a worker answers with when it
// drops a task whose deadline passed before execution. Dispatch treats
// it as terminal — retrying work that is already too late only amplifies
// the overload that delayed it.
const ErrTaskExpired = "expired"

// taskDeadline extracts the effective deadline of a queued task: the
// SAN delivery deadline (in-process hops) or the one embedded in the
// TaskMsg body (which is how it crosses process boundaries), whichever
// is present.
func taskDeadline(msg san.Message) time.Time {
	if !msg.Deadline.IsZero() {
		return msg.Deadline
	}
	if tm, ok := msg.Body.(TaskMsg); ok && tm.Deadline != 0 {
		return time.Unix(0, tm.Deadline)
	}
	return time.Time{}
}

// taskTrace extracts the trace id of a queued task, mirroring
// taskDeadline: the SAN delivery metadata (in-process hops) or the
// copy embedded in the TaskMsg body (cross-process belt and braces).
func taskTrace(msg san.Message) obs.TraceID {
	if msg.Trace.Valid() {
		return msg.Trace
	}
	if tm, ok := msg.Body.(TaskMsg); ok {
		return obs.TraceID(tm.Trace)
	}
	return 0
}

// runTask executes the worker with panic isolation.
func (s *WorkerStub) runTask(ctx context.Context, msg san.Message) (blob tacc.Blob, err error, panicked any) {
	tm, ok := msg.Body.(TaskMsg)
	if !ok {
		return tacc.Blob{}, fmt.Errorf("stub: malformed task"), nil
	}
	defer func() {
		if r := recover(); r != nil {
			panicked = r
		}
	}()
	blob, err = s.worker.Process(ctx, &tm.Task)
	return blob, err, nil
}

func (s *WorkerStub) observeCost(d time.Duration) {
	us := uint64(d.Microseconds())
	old := s.costMs.Load()
	if old == 0 {
		s.costMs.Store(us)
		return
	}
	s.costMs.Store((old*7 + us*3) / 10) // EWMA alpha 0.3
}

// reportLoad sends the periodic load report to the manager and a
// status report to the monitor group.
func (s *WorkerStub) reportLoad(ep *san.Endpoint) {
	s.mu.Lock()
	mgr := s.manager
	disabled := s.disabled
	s.mu.Unlock()
	report := LoadReport{
		ID:      s.name,
		Class:   s.class,
		QLen:    int(s.qlen.Load()),
		CostMs:  float64(s.costMs.Load()) / 1000,
		Done:    s.done.Load(),
		Errors:  s.errs.Load(),
		Crashes: s.crashes.Load(),
		Info:    s.Info(),
	}
	if !mgr.IsZero() && !disabled {
		_ = ep.Send(mgr, MsgLoadReport, report)
	}
	ep.Multicast(GroupReports, MsgMonReport, StatusReport{
		Component: s.name,
		Kind:      "worker",
		Node:      s.node,
		Metrics: map[string]float64{
			"qlen":    float64(report.QLen),
			"costMs":  report.CostMs,
			"done":    float64(report.Done),
			"errors":  float64(report.Errors),
			"expired": float64(s.expired.Load()),
		},
	})
}

func (s *WorkerStub) deregister() {
	s.mu.Lock()
	mgr := s.manager
	s.mu.Unlock()
	if !mgr.IsZero() {
		_ = s.ep.Send(mgr, MsgDeregister, DeregisterMsg{ID: s.name})
	}
}
