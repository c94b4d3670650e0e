package main

import (
	"hash/maphash"
	"testing"
	"time"

	"repro/internal/tacc"
)

func TestRequestSequenceReplaysFromSeed(t *testing.T) {
	const n = 300
	seq := func(seed int64) []int {
		g := &generator{seed: seed, pop: newPopularity(seed, sizes(n), 1.1), users: 16}
		out := make([]int, 500)
		for i := range out {
			idx, _ := g.request("knee@100.00", uint64(i))
			if idx < 0 || idx >= n {
				t.Fatalf("draw %d out of range: %d", i, idx)
			}
			out[i] = idx
		}
		return out
	}
	a, b, c := seq(1), seq(1), seq(2)
	same := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed 1 replayed differently at request %d", i)
		}
		if a[i] == c[i] {
			same++
		}
	}
	if same > len(a)/2 {
		t.Fatalf("seeds 1 and 2 agree on %d of %d requests", same, len(a))
	}
}

// sizes returns n distinct object sizes in scrambled order.
func sizes(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = (i*37)%n + 1
	}
	return out
}

func TestPopularityIsAPermutationSpreadOverSizes(t *testing.T) {
	sz := sizes(800)
	p := newPopularity(5, sz, 1)
	seen := make(map[int]bool)
	for _, idx := range p.perm {
		if seen[idx] {
			t.Fatalf("object %d has two ranks", idx)
		}
		seen[idx] = true
	}
	// The 20 most popular objects span the size range: some from each
	// quarter of it.
	quarters := make(map[int]int)
	for _, idx := range p.perm[:20] {
		quarters[(sz[idx]-1)*4/800]++
	}
	if len(quarters) != 4 {
		t.Fatalf("top 20 ranks fall in %d size quarters: %v", len(quarters), quarters)
	}
	if q := newPopularity(6, sz, 1); q.perm[0] == p.perm[0] && q.perm[1] == p.perm[1] {
		t.Fatal("seeds 5 and 6 rank the same objects first")
	}
}

func TestZipfFavoursTopRank(t *testing.T) {
	p := newPopularity(3, sizes(100), 1.1)
	counts := make([]int, 100)
	for i := uint64(0); i < 20000; i++ {
		counts[p.draw(3, "s", i)]++
	}
	top := p.perm[0]
	for idx, c := range counts {
		if idx != top && c > counts[top] {
			t.Fatalf("object %d drawn %d times, more than the top rank's %d", idx, c, counts[top])
		}
	}
	u := newPopularity(3, sizes(100), 0)
	if u.cdf[49] < 0.49 || u.cdf[49] > 0.51 {
		t.Fatalf("uniform law: half the mass by rank 50, got %v", u.cdf[49])
	}
}

func TestOracleVerdicts(t *testing.T) {
	u := &universe{hseed: maphash.MakeSeed()}
	orig, distilled := []byte("original bytes"), []byte("distilled")
	u.objs = []object{
		{url: "p", blob: tacc.Blob{Data: orig}, orig: maphash.Bytes(u.hseed, orig), want: maphash.Bytes(u.hseed, orig)},
		{url: "d", blob: tacc.Blob{Data: orig}, distill: true, orig: maphash.Bytes(u.hseed, orig), want: maphash.Bytes(u.hseed, distilled)},
	}
	cases := []struct {
		idx      int
		source   string
		degraded bool
		body     []byte
		want     verdict
	}{
		{0, srcOriginal, false, orig, vOK},
		{0, srcOriginal, false, distilled, vWrong},
		{1, srcDistilled, false, distilled, vOK},
		{1, srcCacheDistilled, false, distilled, vOK},
		{1, "fallback-original", false, orig, vDegraded},
		{1, srcOriginal, true, orig, vDegraded},
		{1, srcDistilled, false, []byte("corrupt"), vWrong},
	}
	for _, c := range cases {
		if got := u.check(c.idx, c.source, c.degraded, c.body); got != c.want {
			t.Errorf("check(%s, %s, degraded=%v, %q) = %v, want %v", u.objs[c.idx].url, c.source, c.degraded, c.body, got, c.want)
		}
	}
}

func TestArrivalsScaleWithRate(t *testing.T) {
	g := &generator{seed: 7}
	slow := g.arrivals("knee-0", 100, 10*time.Second)
	fast := g.arrivals("knee-0", 200, 5*time.Second)
	if len(slow) < 900 || len(slow) > 1100 {
		t.Fatalf("%d arrivals at 100/s over 10 s", len(slow))
	}
	if len(fast) != len(slow) && len(fast) != len(slow)-1 && len(fast) != len(slow)+1 {
		t.Fatalf("%d arrivals at twice the rate for half the time, want about %d", len(fast), len(slow))
	}
	for i := range fast[:min(len(fast), len(slow))] {
		if d := 2*fast[i] - slow[i]; d < -2 || d > 2 {
			t.Fatalf("arrival %d: %v at 200/s, %v at 100/s: not the same gap scaled", i, fast[i], slow[i])
		}
	}
	if other := (&generator{seed: 8}).arrivals("knee-0", 100, 10*time.Second); other[0] == slow[0] && other[1] == slow[1] {
		t.Fatalf("seeds 7 and 8 made the same arrivals")
	}
}
