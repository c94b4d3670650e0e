package main

import (
	"context"
	"fmt"
	"hash/maphash"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/distiller"
	"repro/internal/origin"
	"repro/internal/tacc"
	"repro/internal/trace"
)

// object is one URL of a workload's universe with the bytes the
// service must answer it with.
type object struct {
	url  string
	blob tacc.Blob // the origin's bytes
	// distill is set when the TranSend rules route the object through
	// a worker (its type has a distiller and it is over the 1 KB
	// pass-through threshold).
	distill bool
	want    uint64 // hash of the full-quality answer
	orig    uint64 // hash of the original bytes
}

// universeSeed seeds the content of every universe. The objects'
// bytes are the same for every run: the content model's sizes are
// heavy-tailed, so with per-seed content a few large JPEGs would set
// how much distillation a run does and the spread across seeds would
// measure them instead of the service. The run's seed varies the rest:
// which objects are popular and every request sequence.
const universeSeed = 1997

// universe is every object a workload can request, generated once in
// set-up from origin.NewSimulated so the origin is an input, not a
// measured cost.
type universe struct {
	objs  []object
	index map[string]int
	hseed maphash.Seed
	bytes int64 // total original bytes
}

// newUniverse synthesizes n objects. The type mix follows the trace
// content model (GIF, HTML, JPEG, other); each object's expected
// distilled bytes come from running the registered worker directly on
// the original, the reference the served answers are compared with.
func newUniverse(n int, reg *tacc.Registry) (*universe, error) {
	u := &universe{objs: make([]object, n), index: make(map[string]int, n), hseed: maphash.MakeSeed()}
	sim := origin.NewSimulated(universeSeed)
	rules := distiller.TranSendRules()
	// Types come in the model's exact proportions, dealt to the objects
	// in a seeded order.
	exts := make([]string, n)
	for i := range exts {
		switch x := (float64(i) + 0.5) / float64(n); {
		case x < trace.FracGIF:
			exts[i] = "sgif"
		case x < trace.FracGIF+trace.FracHTML:
			exts[i] = "html"
		case x < trace.FracGIF+trace.FracHTML+trace.FracJPEG:
			exts[i] = "sjpg"
		default:
			exts[i] = "bin"
		}
	}
	for i := n - 1; i > 0; i-- {
		j := int(splitmix(universeSeed^0x51ed, uint64(i)) % uint64(i+1))
		exts[i], exts[j] = exts[j], exts[i]
	}
	for i := range u.objs {
		u.objs[i].url = fmt.Sprintf("http://origin%d.example/obj%d.%s", i%8, i, exts[i])
		u.index[u.objs[i].url] = i
	}
	var next atomic.Int64
	var firstErr error
	var errOnce sync.Once
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := context.Background()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				o := &u.objs[i]
				blob, err := sim.Fetch(ctx, o.url)
				if err == nil {
					o.blob = blob
					o.orig = maphash.Bytes(u.hseed, blob.Data)
					o.want = o.orig
					p := rules(o.url, blob.MIME, nil)
					if len(p) > 0 && blob.Size() > distiller.DefaultMinSize {
						var out tacc.Blob
						out, err = reg.Run(ctx, p, &tacc.Task{Key: o.url, Input: blob})
						o.distill = true
						o.want = maphash.Bytes(u.hseed, out.Data)
					}
				}
				if err != nil {
					errOnce.Do(func() { firstErr = fmt.Errorf("universe: %s: %w", o.url, err) })
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, o := range u.objs {
		u.bytes += int64(o.blob.Size())
	}
	return u, firstErr
}

// Fetch implements origin.Fetcher over the pre-generated universe with
// no added delay, counting fetches for origin.fetches_per_miss.
type fetcher struct {
	u       *universe
	fetches atomic.Uint64
}

func (f *fetcher) Fetch(ctx context.Context, url string) (tacc.Blob, error) {
	i, ok := f.u.index[url]
	if !ok {
		return tacc.Blob{}, &origin.NotFoundError{URL: url}
	}
	f.fetches.Add(1)
	return f.u.objs[i].blob, nil
}

// Sources a front end reports (frontend.Response.Source).
const (
	srcCacheDistilled = "cache-distilled"
	srcDistilled      = "distilled"
	srcOriginal       = "original"
)

// verdict classifies one answer for fail_share and degraded_share.
type verdict int

const (
	vOK       verdict = iota
	vDegraded         // a harvest-reduced answer with correct bytes
	vFail             // an error, a refusal, or wrong bytes
	vWrong            // wrong bytes: a correctness failure of the program
)

// check is the correctness oracle: the status, the Source and the body
// hash must match what the object's pipeline produces.
func (u *universe) check(i int, source string, degraded bool, body []byte) verdict {
	o := &u.objs[i]
	h := maphash.Bytes(u.hseed, body)
	if !o.distill {
		if h != o.orig {
			return vWrong
		}
		if source != srcOriginal || degraded {
			return vDegraded
		}
		return vOK
	}
	if h != o.want && h != o.orig {
		return vWrong
	}
	if (source == srcDistilled || source == srcCacheDistilled) && !degraded && h == o.want {
		return vOK
	}
	return vDegraded
}

// splitmix is a stateless mix of a key and a counter, so the i-th
// request of a phase is a pure function of the seed.
func splitmix(key, i uint64) uint64 {
	z := key + (i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// unit maps a 64-bit value to [0, 1).
func unit(x uint64) float64 { return float64(x>>11) / (1 << 53) }

// popularity draws object indices from a Zipf or uniform law. The i-th
// draw of a stream depends only on (seed, stream, i): the same seed
// replays the same request sequence whatever the timing.
type popularity struct {
	cdf  []float64 // cumulative weight by popularity rank
	perm []int     // rank -> object index, seeded
}

// newPopularity builds a law over objects of the given sizes: Zipf
// with exponent s, or uniform when s is 0. Which object gets which
// rank comes from the seed, but the ranks are spread evenly over the
// objects in size order — consecutive ranks are a golden-ratio stride
// apart — so every seed's most popular objects hold the same mix of
// small and large ones and a single seed cannot make the head of the
// law all large or all small.
func newPopularity(seed int64, sizes []int, s float64) *popularity {
	n := len(sizes)
	p := &popularity{cdf: make([]float64, n), perm: make([]int, n)}
	total := 0.0
	for k := 0; k < n; k++ {
		w := 1.0
		if s > 0 {
			w = 1 / math.Pow(float64(k+1), s)
		}
		total += w
		p.cdf[k] = total
	}
	bySize := make([]int, n)
	for k := range p.cdf {
		p.cdf[k] /= total
		bySize[k] = k
	}
	sort.SliceStable(bySize, func(i, j int) bool { return sizes[bySize[i]] < sizes[bySize[j]] })
	stride := int(math.Round(float64(n) * (3 - math.Sqrt(5)) / 2))
	for stride > 1 && gcd(stride, n) != 1 {
		stride++
	}
	if stride < 1 {
		stride = 1
	}
	offset := int(splitmix(uint64(seed)^0xa11ce, 0) % uint64(n))
	for k := range p.perm {
		p.perm[k] = bySize[(offset+k*stride)%n]
	}
	return p
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// draw returns the object index of request i of the given stream.
func (p *popularity) draw(seed int64, stream string, i uint64) int {
	x := unit(splitmix(uint64(seed)^strHash(stream), i))
	k := sort.SearchFloat64s(p.cdf, x)
	if k >= len(p.cdf) {
		k = len(p.cdf) - 1
	}
	return p.perm[k]
}

// strHash is FNV-1a, used to give each phase its own stream.
func strHash(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
