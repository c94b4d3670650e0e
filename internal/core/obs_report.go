package core

import (
	"context"
	"fmt"
	"os"
	"time"

	"repro/internal/obs"
	"repro/internal/san"
	"repro/internal/stub"
)

// obsReporter is the per-process glue between the local obs plane and
// the cluster: every interval it drains the tracer's newly recorded
// local spans and multicasts them as a digest on the report group (the
// same channel the §3.1.7 monitor already subscribes to), and it
// ingests the digests peer processes publish so /trace?id= on any node
// can render the cluster-wide span tree. It implements
// cluster.Process.
type obsReporter struct {
	name     string
	node     string
	net      *san.Network
	interval time.Duration
}

// spanDigestBatch bounds one digest's span count; anything beyond it
// waits for the next tick (the ring already bounds total backlog).
const spanDigestBatch = 256

func (r *obsReporter) ID() string { return r.name }

func (r *obsReporter) Run(ctx context.Context) error {
	ep := r.net.Endpoint(san.Addr{Node: r.node, Proc: r.name}, 1024)
	defer ep.Close()
	ep.Join(stub.GroupReports)
	tracer := r.net.Tracer()

	tick := time.NewTicker(r.interval)
	defer tick.Stop()
	flush := func() {
		if spans := tracer.TakeNew(spanDigestBatch); len(spans) > 0 {
			ep.Multicast(stub.GroupReports, stub.MsgSpanDigest,
				stub.SpanDigest{Spans: spans})
		}
	}
	for {
		select {
		case <-ctx.Done():
			flush() // last gasp: publish what the ring still holds
			return nil
		case <-tick.C:
			flush()
		case msg, ok := <-ep.Inbox():
			if !ok {
				return fmt.Errorf("core: obs reporter endpoint closed")
			}
			if msg.Kind == stub.MsgSpanDigest {
				if d, isDigest := msg.Body.(stub.SpanDigest); isDigest {
					tracer.Ingest(d.Spans)
				}
			}
			msg.Release()
		}
	}
}

// configureObs points the process's tracer and registry at this
// deployment: proc label, sampling rate, slow-request logging, and the
// collectors for components that don't own a Run loop of their own
// (manager replicas, the supervisor).
func (s *System) configureObs() {
	tr := s.Net.Tracer()
	proc := s.cfg.NodePrefix
	if proc == "" {
		proc = "local"
	}
	tr.SetProc(proc)
	switch {
	case s.cfg.TraceSampleRate > 0:
		tr.SetSampleRate(s.cfg.TraceSampleRate)
	case s.cfg.TraceSampleRate < 0:
		tr.SetSampleRate(0) // tracing off: forced spans still record
	}
	if s.cfg.TraceSlowThreshold > 0 {
		tr.SetSlowThreshold(s.cfg.TraceSlowThreshold)
		tr.SetLogf(func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "[slow-request] "+format+"\n", args...)
		})
	}

	reg := s.Net.Registry()
	reg.SetCollector("manager", func(emit func(string, float64)) {
		m := s.PrimaryManager()
		if m == nil {
			return
		}
		st := m.Stats()
		emit("workers", float64(st.Workers))
		emit("frontends", float64(st.FrontEnds))
		emit("caches", float64(st.Caches))
		emit("spawns", float64(st.Spawns))
		emit("reaps", float64(st.Reaps))
		emit("fe_restarts", float64(st.FERestarts))
		emit("cache_restarts", float64(st.CacheRestarts))
		emit("beacons_sent", float64(st.BeaconsSent))
		emit("registrations", float64(st.Registrations))
		emit("epoch", float64(st.Epoch))
	})
	reg.SetCollector("supervisor", func(emit func(string, float64)) {
		sup := s.Supervisor()
		if sup == nil {
			return
		}
		st := sup.Stats()
		emit("commands", float64(st.Commands))
		emit("dupes", float64(st.Dupes))
		emit("failures", float64(st.Failures))
		emit("hellos", float64(st.Hellos))
		emit("stale_epoch", float64(st.StaleEpoch))
	})
}

// Tracer exposes the process-wide tracer (operator surface: /trace).
func (s *System) Tracer() *obs.Tracer { return s.Net.Tracer() }

// Registry exposes the process-wide metrics registry (operator
// surface: /metrics, /status).
func (s *System) Registry() *obs.Registry { return s.Net.Registry() }
