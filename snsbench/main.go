// Command snsbench is the SNS serving benchmark: it boots the TranSend
// service through core.Start, drives one workload against it from this
// process, checks every answer against an oracle, and prints the
// end-to-end scorecard (--trace 0) or the per-layer ledger (--trace 1)
// as the last line of its output. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// workload is one traffic mix. The low rate and the slo_rps ladder are
// fixed per workload, so two commits are compared at the same offered
// load there; the knee rate is a share of the run's own peak (see
// kneeShare).
type workload struct {
	name    string
	objects int
	zipf    float64 // 0 = uniform
	// cacheShare sizes the total cache budget as a share of the
	// universe's original bytes (0 = the service default).
	cacheShare  float64
	cacheBudget int64 // per partition, set from cacheShare
	edge        bool  // requests enter through the HTTP edge
	split       bool  // two core.Systems joined over loopback TCP
	lowRate     float64
	ladderHi    float64
	limitMS     float64 // p99 limit for slo_rps
	warm        time.Duration
}

var workloads = []*workload{
	// Cache hits through the HTTP edge: loads the edge, FE admission and
	// the vcache read path.
	{
		name:    "edge_hot",
		objects: 200, zipf: 1.1, edge: true,
		lowRate: 600, ladderHi: 9000, limitMS: 10, warm: time.Second,
	},
	// Uniform misses over 8x the cache: loads the origin fetch, dispatch,
	// the distillers and the vcache write path.
	{
		name:    "distill_churn",
		objects: 2000, cacheShare: 1.0 / 8,
		lowRate: 200, ladderHi: 3500, limitMS: 50, warm: 2 * time.Second,
	},
	// A Zipf mix with about 3 in 4 hits across two processes: every
	// probe, put and dispatch crosses the transport bridge.
	{
		name:    "split_mix",
		objects: 800, zipf: 1.0, cacheShare: 0.25, split: true,
		lowRate: 50, ladderHi: 800, limitMS: 50, warm: 2 * time.Second,
	},
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: edge_hot, distill_churn or split_mix")
	seed := flag.Int64("seed", 1, "seed for the universe and the request sequence")
	seconds := flag.Int("seconds", 30, "seconds of measured traffic")
	traced := flag.Int("trace", 0, "0: end-to-end scorecard; 1: traced per-layer ledger")
	compare := flag.Bool("compare", false, "compare two saved outputs: snsbench -compare old.out new.out")
	flag.Parse()
	if *compare {
		os.Exit(compareFiles(flag.Args()))
	}
	var w *workload
	for _, c := range workloads {
		if c.name == *name {
			w = c
		}
	}
	if w == nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "usage: snsbench --workload <edge_hot|distill_churn|split_mix> --seed <n> --seconds <n> --trace <0|1>")
		os.Exit(2)
	}
	r := &run{w: w, seed: *seed, budget: time.Duration(*seconds) * time.Second, conc: runtime.NumCPU(),
		host: fingerprint(*seed)}
	res, err := r.execute(*traced == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "snsbench:", err)
		os.Exit(1)
	}
	detail, _ := json.Marshal(map[string]any{"workload": w.name, "host": r.host, "phases": r.report, "ladder": r.ladder,
		"peak_steal_share": r.stolen})
	fmt.Println(string(detail))
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}
