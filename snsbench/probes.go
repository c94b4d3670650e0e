package main

import (
	"bufio"
	"context"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/distiller"
	"repro/internal/tacc"
)

// classTimer times every Process call of one worker class from
// outside, through the tacc.Worker interface the registry hands out.
type classTimer struct {
	mu      sync.Mutex
	us      []float64
	in, out int64
}

func (t *classTimer) record(d time.Duration, in, out int) {
	t.mu.Lock()
	t.us = append(t.us, float64(d.Nanoseconds())/1e3)
	t.in += int64(in)
	t.out += int64(out)
	t.mu.Unlock()
}

// take returns and clears what was recorded.
func (t *classTimer) take() (us []float64, in, out int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	us, in, out = t.us, t.in, t.out
	t.us, t.in, t.out = nil, 0, 0
	return us, in, out
}

type timedWorker struct {
	tacc.Worker
	t *classTimer
}

func (w timedWorker) Process(ctx context.Context, task *tacc.Task) (tacc.Blob, error) {
	start := time.Now()
	out, err := w.Worker.Process(ctx, task)
	w.t.record(time.Since(start), task.Input.Size(), out.Size())
	return out, err
}

// timedRegistry is distiller.RegisterAll with each worker the service
// runs wrapped in a classTimer.
func timedRegistry() (*tacc.Registry, map[string]*classTimer) {
	plain := tacc.NewRegistry()
	distiller.RegisterAll(plain)
	reg := tacc.NewRegistry()
	distiller.RegisterAll(reg)
	timers := make(map[string]*classTimer, len(workerClasses))
	for _, c := range workerClasses {
		t := &classTimer{}
		timers[c] = t
		class := c
		reg.Register(class, func() tacc.Worker {
			w, _ := plain.New(class) // registered just above
			return timedWorker{Worker: w, t: t}
		})
	}
	return reg, timers
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapSampler records the peak HeapInuse seen at a fixed period. It
// reads runtime/metrics, which does not stop the world, so it can
// sample often enough to catch the peak of each GC cycle.
type heapSampler struct {
	once sync.Once
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func startHeapSampler(period time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	// HeapInuse is heap memory holding objects plus heap memory
	// reserved for objects but not yet used.
	samples := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}
	go func() {
		defer close(h.done)
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			metrics.Read(samples)
			if v := samples[0].Value.Uint64() + samples[1].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak in MiB. Calls after
// the first return the same peak.
func (h *heapSampler) finish() float64 {
	h.once.Do(func() { close(h.stop) })
	<-h.done
	return float64(h.peak) / (1 << 20)
}

// hostInfo fingerprints the machine a result came from, so results
// from different hosts are not compared as if they were alike.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
}

func fingerprint(seed int64) hostInfo {
	h := hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   "unknown",
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		Seed:       seed,
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// sameHost reports whether two fingerprints describe the same kind of
// host (the seed and commit may differ).
func sameHost(a, b hostInfo) bool {
	return a.NProc == b.NProc && a.GOMAXPROCS == b.GOMAXPROCS && a.CPUModel == b.CPUModel && a.GoVersion == b.GoVersion
}
