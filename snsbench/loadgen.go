package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// reply is what one request returned, in the terms the oracle checks.
type reply struct {
	source   string
	degraded bool
	body     []byte
	trace    obs.TraceID
	err      error
	release  func() // returns a pooled body buffer; may be nil
	rtStart  time.Time
	rtEnd    time.Time
}

// target sends one request into the service. buf is the caller's
// scratch space for a body that has to be copied out of a connection.
type target interface {
	do(ctx context.Context, url, user string, buf *bytes.Buffer) reply
}

// phase is the record of one timed stretch of traffic.
type phase struct {
	name     string
	rate     float64 // offered rate; 0 for a closed loop
	elapsed  time.Duration
	lat      []float64 // µs from due time to answer; +Inf for a failed or abandoned request
	late     []float64 // µs the dispatcher woke after the due time (open loop)
	attempts int
	ok       int
	degraded int
	failed   int
	wrong    int
	// abandoned counts arrivals still queued in the generator when the
	// phase's grace period ran out; they were never sent.
	abandoned   int
	backlogMid  int
	backlogEnd  int
	inflightMax int
	// invalid names the generator self-check the phase failed, if any.
	invalid string
}

// windowSamples is the smallest window a phase's percentiles are taken
// over; see phase.p.
const windowSamples = 500

// p returns the q-quantile of the phase's latencies in µs: the median,
// over consecutive windows of at least windowSamples requests in the
// order they were due, of each window's quantile. A stall of the host
// then raises the tail of the window it falls in, not of the phase; a
// phase of fewer than two windows is one window.
func (p *phase) p(q float64) float64 {
	return windowed(p.lat, q)
}

func windowed(lat []float64, q float64) float64 {
	w := len(lat) / windowSamples
	if w < 2 {
		return percentile(append([]float64(nil), lat...), q)
	}
	vals := make([]float64, w)
	for k := range vals {
		c := append([]float64(nil), lat[k*len(lat)/w:(k+1)*len(lat)/w]...)
		vals[k] = percentile(c, q)
	}
	return median(vals)
}

// failShare is errors, refusals and wrong bodies over attempts.
func (p *phase) failShare() float64 {
	if p.attempts == 0 {
		return 0
	}
	return float64(p.failed) / float64(p.attempts)
}

// completedRate is correct answers per second.
func (p *phase) completedRate() float64 {
	return float64(p.ok+p.degraded) / p.elapsed.Seconds()
}

// traced receives every answered request of a phase whose trace is
// joined with the program's spans.
type tracedReq struct {
	idx     int
	trace   obs.TraceID
	due     time.Time
	send    time.Time
	rtStart time.Time
	rtEnd   time.Time
	recv    time.Time
	verdict verdict
}

// generator drives one workload's traffic: the i-th request of a phase
// is a pure function of (seed, phase, i), and at most conc requests are
// in flight.
type generator struct {
	seed  int64
	u     *universe
	pop   *popularity
	users int
	tgt   target
	conc  int
	// onTraced, when set, sees every answered request (traced phases).
	onTraced func(tracedReq)
}

// request returns the object index and user of request i of a stream.
func (g *generator) request(stream string, i uint64) (int, string) {
	idx := g.pop.draw(g.seed, stream, i)
	user := fmt.Sprintf("u%d", splitmix(uint64(g.seed)^strHash(stream)^0x05e7, i)%uint64(g.users))
	return idx, user
}

// sendRec is one sender's record of a phase, merged when it ends.
type sendRec struct {
	lat                                 []sample
	attempts, ok, degraded, failed, bad int // bad: wrong bytes, also counted in failed
}

// sample is one request's latency, keyed by when it was due.
type sample struct {
	due int64   // unix ns
	us  float64 // +Inf for a failure
}

// send issues one request and records the verdict.
func (g *generator) send(ctx context.Context, idx int, user string, due time.Time, buf *bytes.Buffer, rec *sendRec) {
	send := time.Now()
	r := g.tgt.do(ctx, g.u.objs[idx].url, user, buf)
	recv := time.Now()
	v := vFail
	if r.err == nil {
		v = g.u.check(idx, r.source, r.degraded, r.body)
	}
	if r.release != nil {
		r.release()
	}
	rec.attempts++
	switch v {
	case vOK:
		rec.ok++
	case vDegraded:
		rec.degraded++
	case vWrong:
		rec.failed++
		rec.bad++
	default:
		rec.failed++
	}
	us := math.Inf(1)
	if v == vOK || v == vDegraded {
		us = float64(recv.Sub(due).Nanoseconds()) / 1e3
	}
	rec.lat = append(rec.lat, sample{due: due.UnixNano(), us: us})
	if g.onTraced != nil && r.trace.Valid() {
		rt0, rt1 := r.rtStart, r.rtEnd
		if rt0.IsZero() {
			rt0, rt1 = send, recv
		}
		g.onTraced(tracedReq{trace: r.trace, due: due, send: send, rtStart: rt0, rtEnd: rt1,
			recv: recv, verdict: v})
	}
}

// merge adds the senders' records to the phase, latencies in the order
// the requests were due.
func (p *phase) merge(recs []*sendRec) {
	var all []sample
	for _, r := range recs {
		all = append(all, r.lat...)
		p.attempts += r.attempts
		p.ok += r.ok
		p.degraded += r.degraded
		p.failed += r.failed
		p.wrong += r.bad
	}
	sort.Slice(all, func(i, j int) bool { return all[i].due < all[j].due })
	for _, x := range all {
		p.lat = append(p.lat, x.us)
	}
}

// closed runs conc clients that each send their next request as soon
// as the previous one is answered, for dur. Latency is measured from
// the send.
func (g *generator) closed(name string, dur time.Duration) *phase {
	p := &phase{name: name}
	var next atomic.Uint64
	recs := make([]*sendRec, g.conc)
	start := time.Now()
	end := start.Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < g.conc; c++ {
		recs[c] = &sendRec{}
		wg.Add(1)
		go func(rec *sendRec) {
			defer wg.Done()
			var buf bytes.Buffer
			for time.Now().Before(end) {
				idx, user := g.request(name, next.Add(1)-1)
				g.send(context.Background(), idx, user, time.Now(), &buf, rec)
			}
		}(recs[c])
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	p.inflightMax = g.conc
	p.merge(recs)
	return p
}

// sweep requests the given objects once each, in order, with conc
// clients.
func (g *generator) sweep(order []int) *phase {
	p := &phase{name: "sweep"}
	var next atomic.Int64
	recs := make([]*sendRec, g.conc)
	start := time.Now()
	var wg sync.WaitGroup
	for c := range recs {
		recs[c] = &sendRec{}
		wg.Add(1)
		go func(rec *sendRec) {
			defer wg.Done()
			var buf bytes.Buffer
			for k := int(next.Add(1)) - 1; k < len(order); k = int(next.Add(1)) - 1 {
				g.send(context.Background(), order[k], "u0", time.Now(), &buf, rec)
			}
		}(recs[c])
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	p.merge(recs)
	return p
}

type arrival struct {
	i   uint64
	due time.Time // when the dispatcher released it
}

// open offers seeded Poisson arrivals at rate for dur. A dispatcher
// releases each arrival into a queue at its due time; conc senders
// take them in order, so a slow service builds a backlog in the
// generator and its wait counts in the latency.
// Arrivals still queued grace after the last one was due are
// abandoned and count as failed the latency limit.
func (g *generator) open(name string, rate float64, dur, grace time.Duration) *phase {
	offsets := g.arrivals(name, rate, dur)
	p := &phase{name: name, rate: rate}
	// Sized to every arrival of the phase so the dispatcher never
	// blocks: the backlog lives here, not in the dispatcher's timing.
	queue := make(chan arrival, len(offsets))
	var inflight, inflightMax atomic.Int64
	start := time.Now()
	cutoff := start.Add(dur + grace)
	recs := make([]*sendRec, g.conc)
	var wg sync.WaitGroup
	var abandoned atomic.Int64
	for c := 0; c < g.conc; c++ {
		recs[c] = &sendRec{}
		wg.Add(1)
		go func(rec *sendRec) {
			defer wg.Done()
			var buf bytes.Buffer
			for a := range queue {
				if time.Now().After(cutoff) {
					abandoned.Add(1)
					continue
				}
				n := inflight.Add(1)
				for {
					m := inflightMax.Load()
					if n <= m || inflightMax.CompareAndSwap(m, n) {
						break
					}
				}
				idx, user := g.request(name, a.i)
				g.send(context.Background(), idx, user, a.due, &buf, rec)
				inflight.Add(-1)
			}
		}(recs[c])
	}
	late := make([]float64, 0, len(offsets))
	for i, off := range offsets {
		due := start.Add(off)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		// Latency runs from the release, not the due time: on an idle
		// host a sub-millisecond sleep oversleeps by up to a
		// millisecond, an artifact of the generator's timer, not of the
		// service. The lag is reported as loadgen.late_ms and a phase
		// whose lag is large is invalid; a backlog behind busy senders
		// is still counted, since it builds after the release.
		released := time.Now()
		late = append(late, float64(released.Sub(due).Nanoseconds())/1e3)
		queue <- arrival{i: uint64(i), due: released}
		if i == len(offsets)/2 {
			p.backlogMid = len(queue)
		}
	}
	p.backlogEnd = len(queue)
	close(queue)
	wg.Wait()
	p.elapsed = dur
	p.late = late
	p.inflightMax = int(inflightMax.Load())
	p.merge(recs)
	p.abandoned = int(abandoned.Load())
	for i := 0; i < p.abandoned; i++ {
		p.lat = append(p.lat, math.Inf(1))
	}
	return p
}

// arrivals returns the seeded Poisson arrival times of an open-loop
// phase, from its start, up to dur. They depend on the seed and the
// phase's name only through unit-rate gaps divided by rate, so the
// same phase at another rate has the same arrivals, scaled in time.
func (g *generator) arrivals(name string, rate float64, dur time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(g.seed ^ int64(strHash(name))))
	var offsets []time.Duration
	for t := 0.0; ; {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= dur {
			return offsets
		}
		offsets = append(offsets, d)
	}
}

// backlogGrew reports whether the generator's queue grew over the
// phase: it ended with more than conc requests waiting beyond where it
// stood at the midpoint, and more than 1% of the phase's arrivals.
func (p *phase) backlogGrew(conc int) bool {
	n := len(p.late)
	return p.abandoned > 0 || (p.backlogEnd > p.backlogMid+conc && float64(p.backlogEnd) > 0.01*float64(n))
}

// checkGenerator marks the phase invalid when the generator itself
// fell behind its schedule. On a shared host the whole process stalls
// now and then, which delays the dispatcher and the service alike and
// shows only in the tail of the lateness; a generator that cannot keep
// up instead lags more and more, so it shows in the lateness of the
// phase's last arrivals. The phase is invalid when the median lateness
// of its last tenth exceeds limitMS/2, or when a single stall pushes
// the p99 lateness past ten times limitMS.
func (p *phase) checkGenerator(limitMS float64) {
	n := len(p.late)
	if n == 0 {
		return
	}
	tail := append([]float64(nil), p.late[n-n/10-1:]...)
	if l := percentile(tail, 0.5) / 1e3; l > limitMS/2 {
		p.invalid = fmt.Sprintf("generator fell behind: median lateness of the last arrivals %.2f ms > %.2f ms", l, limitMS/2)
	} else if l := p.lateP99() / 1e3; l > 10*limitMS {
		p.invalid = fmt.Sprintf("generator stalled: late p99 %.2f ms > %.2f ms", l, 10*limitMS)
	}
}

func (p *phase) lateP99() float64 {
	c := append([]float64(nil), p.late...)
	return percentile(c, 0.99)
}
