package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of xs,
// sorting xs in place. It returns 0 for an empty sample.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return sortedPercentile(xs, q)
}

// sortedPercentile is percentile for an already sorted sample.
func sortedPercentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// median of xs (nearest rank), sorting a copy.
func median(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	return percentile(c, 0.5)
}

// mean of xs, 0 for an empty sample.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ladder returns the fixed geometric rate ladder lo, lo*(1+step), ...
// up to the first rung at or above hi. Adjacent rungs are step apart,
// so the search below resolves a rate to within step.
func ladder(lo, hi, step float64) []float64 {
	var rungs []float64
	for r := lo; ; r *= 1 + step {
		rungs = append(rungs, r)
		if r >= hi {
			return rungs
		}
	}
}

// sloSearch returns the highest rung whose probe passes, assuming
// passing is monotone (every rung below a passing rung passes). rungs[0]
// is taken as known to pass — the caller has verified it — so the
// search costs about log2(len(rungs)) probes. The second result is the
// number of probes made.
func sloSearch(rungs []float64, probe func(rate float64) bool) (float64, int) {
	lo, hi, n := 0, len(rungs), 0
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		n++
		if probe(rungs[mid]) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return rungs[lo], n
}

// sloVerdict is the pass rule for one rung of the slo_rps ladder: the
// p99 latency meets the workload's limit, at most one request in a
// thousand fails, and the generator's backlog did not grow over the
// probe.
func sloVerdict(p99ms, limitMS, failShare float64, backlogGrew bool) bool {
	return p99ms <= limitMS && failShare <= 0.001 && !backlogGrew
}

// givenRate is done answers per second of the machine the service was
// given: the wall time less the share of it the hypervisor ran other
// guests on this machine's ncpu CPUs. stolen is that steal time summed
// over the CPUs (from /proc/stat), in seconds. On a shared host steal
// comes in bursts and would otherwise set the spread of a rate.
func givenRate(done int, wall, stolen float64, ncpu int) float64 {
	given := wall - stolen/float64(ncpu)
	if given <= 0 || ncpu < 1 {
		given = wall
	}
	return float64(done) / given
}
