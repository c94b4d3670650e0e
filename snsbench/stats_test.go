package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	cases := map[float64]float64{0.1: 1, 0.5: 5, 0.9: 9, 0.99: 10, 1: 10}
	for q, want := range cases {
		c := append([]float64(nil), xs...)
		if got := percentile(c, q); got != want {
			t.Errorf("percentile(%v) = %v, want %v", q, got, want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("empty sample: got %v", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v", got)
	}
	// A failed request is +Inf: it misses any latency limit.
	if got := percentile([]float64{1, 2, math.Inf(1)}, 1); !math.IsInf(got, 1) {
		t.Errorf("p100 with a failure = %v, want +Inf", got)
	}
}

func TestLadderStepsAreBounded(t *testing.T) {
	rungs := ladder(50, 800, 0.05)
	if rungs[0] != 50 {
		t.Fatalf("first rung %v, want 50", rungs[0])
	}
	if last := rungs[len(rungs)-1]; last < 800 || rungs[len(rungs)-2] >= 800 {
		t.Fatalf("ladder must end at the first rung >= 800: %v", rungs[len(rungs)-2:])
	}
	for i := 1; i < len(rungs); i++ {
		if step := rungs[i]/rungs[i-1] - 1; step > 0.10 || step <= 0 {
			t.Fatalf("rungs %v -> %v are %.1f%% apart", rungs[i-1], rungs[i], 100*step)
		}
	}
}

func TestSLOSearchFindsHighestPassingRung(t *testing.T) {
	rungs := ladder(100, 5000, 0.05)
	maxProbes := int(math.Ceil(math.Log2(float64(len(rungs)))))
	for k := range rungs {
		limit := rungs[k]
		got, probes := sloSearch(rungs, func(rate float64) bool { return rate <= limit })
		if got != limit {
			t.Fatalf("threshold at rung %d: got %v, want %v", k, got, limit)
		}
		if probes > maxProbes {
			t.Fatalf("threshold at rung %d: %d probes, want <= %d", k, probes, maxProbes)
		}
	}
	// Everything above the first rung fails: the search stays there.
	if got, _ := sloSearch(rungs, func(float64) bool { return false }); got != rungs[0] {
		t.Fatalf("all probes failing: got %v", got)
	}
}

func TestSLOVerdict(t *testing.T) {
	cases := []struct {
		p99, fail float64
		grew      bool
		want      bool
	}{
		{4.9, 0, false, true},
		{5.0, 0.001, false, true},
		{5.1, 0, false, false},
		{1, 0.0011, false, false},
		{1, 0, true, false},
	}
	for _, c := range cases {
		if got := sloVerdict(c.p99, 5, c.fail, c.grew); got != c.want {
			t.Errorf("sloVerdict(p99=%v, fail=%v, grew=%v) = %v, want %v", c.p99, c.fail, c.grew, got, c.want)
		}
	}
}

func TestBacklogAndGeneratorChecks(t *testing.T) {
	steady := &phase{late: make([]float64, 1000), backlogMid: 3, backlogEnd: 4}
	if steady.backlogGrew(2) {
		t.Fatal("a backlog that stayed put counted as growing")
	}
	growing := &phase{late: make([]float64, 1000), backlogMid: 3, backlogEnd: 40}
	if !growing.backlogGrew(2) {
		t.Fatal("a backlog that grew by 37 of 1000 arrivals did not count")
	}
	abandoned := &phase{late: make([]float64, 1000), abandoned: 1}
	if !abandoned.backlogGrew(2) {
		t.Fatal("an abandoned arrival did not count as backlog")
	}

	// Early stalls on a shared host leave the phase valid; a dispatcher
	// that lags more and more does not.
	late := make([]float64, 1000)
	for i := 0; i < 15; i++ {
		late[100+i] = 20e3 // 20 ms stall early on
	}
	p := &phase{late: late}
	p.checkGenerator(5)
	if p.invalid != "" {
		t.Fatalf("transient stall invalidated the phase: %s", p.invalid)
	}
	behind := make([]float64, 1000)
	for i := range behind {
		behind[i] = float64(i) * 10 // µs, growing to ~10 ms
	}
	p = &phase{late: behind}
	p.checkGenerator(5)
	if p.invalid == "" {
		t.Fatal("a generator lagging ever more was not marked invalid")
	}
}

func TestWindowedPercentileConfinesAStall(t *testing.T) {
	lat := make([]float64, 3000)
	for i := range lat {
		lat[i] = float64(100 + i%50) // 100–149 µs
	}
	// A stall hits 40 consecutive requests: more than 1% of the phase,
	// all inside one 1000-request window.
	for i := 1200; i < 1240; i++ {
		lat[i] = 20000
	}
	if got := percentile(append([]float64(nil), lat...), 0.99); got != 20000 {
		t.Fatalf("pooled p99 = %v, want the stall's 20000", got)
	}
	if got := windowed(lat, 0.99); got != 149 {
		t.Fatalf("windowed p99 = %v, want 149: the stall should move one window only", got)
	}
	// The same number of slow requests spread over every window is the
	// service's own tail, and shows.
	for i := 1200; i < 1240; i++ {
		lat[i] = float64(100 + i%50)
	}
	for i := 0; i < 3000; i += 75 {
		lat[i] = 20000
	}
	if got := windowed(lat, 0.99); got != 20000 {
		t.Fatalf("windowed p99 = %v, want 20000 for a tail spread over the phase", got)
	}
	// Short phases are one window.
	if got := windowed(lat[:600], 0.5); got != percentile(append([]float64(nil), lat[:600]...), 0.5) {
		t.Fatalf("short phase not taken as one window")
	}
}

func TestGivenRateDiscountsStealTime(t *testing.T) {
	// 1000 answers in 2 s on 2 CPUs, of which the hypervisor took 0.4
	// CPU-seconds: the service had 1.8 s of the machine.
	if got, want := givenRate(1000, 2, 0.4, 2), 1000/1.8; math.Abs(got-want) > 1e-9 {
		t.Fatalf("givenRate = %v, want %v", got, want)
	}
	if got := givenRate(1000, 2, 0, 2); got != 500 {
		t.Fatalf("no steal: givenRate = %v, want 500", got)
	}
	// Steal data that cannot be right falls back to the wall time.
	if got := givenRate(1000, 2, 5, 2); got != 500 {
		t.Fatalf("steal beyond the wall time: givenRate = %v, want 500", got)
	}
}
