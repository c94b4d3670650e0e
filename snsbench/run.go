package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/tacc"
)

// run is one benchmark invocation.
type run struct {
	w      *workload
	seed   int64
	budget time.Duration // measured traffic time
	conc   int
	host   hostInfo

	u      *universe
	org    *fetcher
	reg    *tacc.Registry
	timers map[string]*classTimer
	dep    *deployment
	gen    *generator
	dir    string

	report    []phaseReport
	ladder    []rungReport
	stolen    float64 // steal share of the peak phases
	attempted int
	failed    int
	degraded  int
	wrong     int
}

type phaseReport struct {
	Name      string  `json:"name"`
	Rate      float64 `json:"rate,omitempty"`
	Seconds   float64 `json:"seconds"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Degraded  int     `json:"degraded"`
	Samples   int     `json:"samples"`
	P50MS     float64 `json:"p50_ms"`
	P99MS     float64 `json:"p99_ms"`
	LateP99MS float64 `json:"late_p99_ms"`
	Backlog   int     `json:"backlog_end"`
	Abandoned int     `json:"abandoned"`
}

type rungReport struct {
	Rate  float64 `json:"rate"`
	P99MS float64 `json:"p99_ms"`
	Fail  float64 `json:"fail_share"`
	Grew  bool    `json:"backlog_grew"`
	Pass  bool    `json:"pass"`
}

// account adds a phase to the run's totals and its report.
func (r *run) account(p *phase) {
	r.attempted += p.attempts
	r.failed += p.failed
	r.degraded += p.degraded
	r.wrong += p.wrong
	r.report = append(r.report, phaseReport{
		Name: p.name, Rate: p.rate, Seconds: p.elapsed.Seconds(), Attempted: p.attempts,
		Failed: p.failed, Degraded: p.degraded, Samples: len(p.lat),
		P50MS: finite(p.p(0.5) / 1e3), P99MS: finite(p.p(0.99) / 1e3), LateP99MS: p.lateP99() / 1e3,
		Backlog: p.backlogEnd, Abandoned: p.abandoned,
	})
}

// finite clamps an infinite latency (a failed request) for JSON.
func finite(v float64) float64 {
	if math.IsInf(v, 1) {
		return 1e9
	}
	return v
}

func (r *run) share(d float64) time.Duration {
	return time.Duration(d * float64(r.budget))
}

// prepare builds the universe and the generator that draws from it.
func (r *run) prepare() error {
	t0 := time.Now()
	var err error
	if r.dir, err = workDir(); err != nil {
		return err
	}
	r.reg, r.timers = timedRegistry()
	if r.u, err = newUniverse(r.w.objects, r.reg); err != nil {
		return err
	}
	if r.w.cacheShare > 0 {
		r.w.cacheBudget = int64(float64(r.u.bytes)*r.w.cacheShare) / 2
	}
	r.org = &fetcher{u: r.u}
	sizes := make([]int, len(r.u.objs))
	for i, o := range r.u.objs {
		sizes[i] = o.blob.Size()
	}
	r.gen = &generator{seed: r.seed, u: r.u, pop: newPopularity(r.seed, sizes, r.w.zipf), users: 16, conc: r.conc}
	logf("universe: %d objects, %.1f MB, in %.1fs", len(r.u.objs), float64(r.u.bytes)/(1<<20), time.Since(t0).Seconds())
	return nil
}

// start boots the service, the i-th time in this run, and warms it. It
// returns the set-up time.
func (r *run) start(i int) (float64, error) {
	runtime.GC()
	dep, setup, err := boot(r.w, r.seed, r.reg, r.org, r.dir, r.conc)
	if err != nil {
		return 0, err
	}
	r.dep, r.gen.tgt = dep, dep.tgt
	// Warm-up: a Zipf workload first requests every object once, least
	// popular first, so the cache's LRU starts out holding the most
	// popular objects it has room for, as it does in its steady state;
	// then every workload runs closed-loop for a while.
	if r.w.zipf > 0 {
		order := make([]int, len(r.gen.pop.perm))
		for k := range order {
			order[k] = r.gen.pop.perm[len(order)-1-k]
		}
		r.wrong += r.gen.sweep(order).wrong
	}
	warm := r.gen.closed(fmt.Sprintf("warm-%d", i), r.w.warm)
	r.wrong += warm.wrong
	logf("boot %d: set-up %.3f s; warm: %d requests at %.0f/s", i, setup.Seconds(), warm.attempts, warm.completedRate())
	if r.wrong > 0 {
		return 0, fmt.Errorf("oracle: %d wrong bodies during warm-up", r.wrong)
	}
	for _, t := range r.timers {
		t.take() // drop the oracle's and the warm-up's distillations
	}
	return setup.Seconds(), nil
}

// stop shuts the running service down.
func (r *run) stop() {
	if r.dep != nil {
		r.dep.stop()
		r.dep = nil
	}
}

// logf reports progress on standard error; standard output carries
// only the results.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "snsbench: %5.1fs "+format+"\n", append([]any{time.Since(started).Seconds()}, args...)...)
}

var started = time.Now()

func (r *run) cleanup() {
	r.stop()
	if r.dir != "" {
		_ = os.RemoveAll(r.dir)
	}
}

// openPhase runs an open-loop phase, retrying if the generator itself
// fell behind (see checkGenerator). A phase that fails the self-check
// three times is an error, never a reported number.
func (r *run) openPhase(name string, rate float64, dur time.Duration) (*phase, error) {
	for attempt := 0; ; attempt++ {
		stream := name
		if attempt > 0 {
			stream = fmt.Sprintf("%s.retry%d", name, attempt)
		}
		p := r.gen.open(stream, rate, dur, 200*time.Millisecond)
		p.checkGenerator(r.w.limitMS)
		if p.invalid == "" {
			return p, nil
		}
		if attempt == 2 {
			return nil, fmt.Errorf("phase %s invalid: %s", name, p.invalid)
		}
		logf("phase %s invalid (%s); retrying", name, p.invalid)
	}
}

func (r *run) execute(traced bool) (*result, error) {
	defer r.cleanup()
	if traced {
		return r.ledgerRun()
	}
	return r.scorecardRun()
}

// A scorecard run boots the service boots times and runs rounds
// closed-loop peak phases on each, so that a burst of host noise lands
// in a part of the figure rather than in all of it. Each boot starts
// from a fresh service and its own warm-up: after its warm-up
// distill_churn settles into one of two steady states whose peak rates
// are about a quarter apart, and which one appears to depend on the
// warm-up's requests, so on a single boot each run would be a coin toss
// between them.
const (
	boots  = 3
	rounds = 3
)

// scorecardRun measures the end-to-end metrics with tracing off.
func (r *run) scorecardRun() (*result, error) {
	if err := r.prepare(); err != nil {
		return nil, err
	}
	heap := startHeapSampler(50 * time.Millisecond)
	defer heap.finish()
	var setupTimes []float64
	var peakWall, peakStolen float64 // seconds; steal summed over the CPUs
	peakDone := 0
	for b := 0; b < boots; b++ {
		setup, err := r.start(b)
		if err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, setup)
		for j := 0; j < rounds; j++ {
			i := b*rounds + j
			steal0, _ := stealTicks()
			peak := r.gen.closed(fmt.Sprintf("peak-%d", i), r.share(1.0/(boots*rounds)))
			steal1, _ := stealTicks()
			r.account(peak)
			peakWall += peak.elapsed.Seconds()
			peakStolen += float64(steal1-steal0) / 100
			peakDone += peak.ok + peak.degraded
			logf("round %d: peak %.0f/s", i, peak.completedRate())
		}
		r.stop()
	}
	r.stolen = peakStolen / (peakWall * float64(runtime.NumCPU()))

	m := map[string]metric{
		"setup_s":            {median(setupTimes), "s"},
		"peak_rps":           {givenRate(peakDone, peakWall, peakStolen, runtime.NumCPU()), "1/s"},
		"heap_peak_mb":       {heap.finish(), "MB"},
		"served_share":       {1 - ratio(r.failed, r.attempted), "ratio"},
		"full_quality_share": {1 - ratio(r.degraded, r.attempted), "ratio"},
	}
	return &result{Correct: r.wrong == 0, Attempted: r.attempted, Failed: r.failed, Metrics: m}, nil
}

// sloRPS bisects the fixed slo_rps ladder, which starts at the low
// rate, spending about share of the run's measured time. Host noise
// only ever makes a probe worse, so a failed probe is run up to twice
// more before its rung counts as failed.
func (r *run) sloRPS(share float64) (float64, error) {
	rungs := ladder(r.w.lowRate, r.w.ladderHi, 0.05)
	probeDur := r.share(share / (2 * math.Ceil(math.Log2(float64(len(rungs))))))
	var probeErr error
	probe := func(rate float64) bool {
		for try := 0; try < 3 && probeErr == nil; try++ {
			time.Sleep(100 * time.Millisecond) // let the previous probe's work drain
			p, err := r.openPhase(fmt.Sprintf("slo-%.0f-%d", rate, try), rate, probeDur)
			if err != nil {
				probeErr = err
				return false
			}
			r.account(p)
			p99 := p.p(0.99) / 1e3
			pass := sloVerdict(p99, r.w.limitMS, p.failShare(), p.backlogGrew(r.conc))
			r.ladder = append(r.ladder, rungReport{Rate: rate, P99MS: finite(p99), Fail: p.failShare(), Grew: p.backlogGrew(r.conc), Pass: pass})
			if pass {
				return true
			}
		}
		return false
	}
	slo, _ := sloSearch(rungs, probe)
	if slo == rungs[0] && !probe(slo) {
		slo = 0 // not even the lowest rung meets the limit
	}
	if probeErr != nil {
		return 0, probeErr
	}
	logf("slo_rps %.0f/s after %d probes", slo, len(r.ladder))
	return slo, nil
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// stealTicks returns the machine's cumulative steal time in clock ticks
// (1/100 s) from /proc/stat, and false where that is not available.
func stealTicks() (int64, bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, false
	}
	v, err := strconv.ParseInt(f[8], 10, 64)
	return v, err == nil
}
