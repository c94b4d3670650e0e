// Package repro is a from-scratch Go reproduction of "Cluster-Based
// Scalable Network Services" (Fox, Gribble, Chawathe, Brewer, and
// Gauthier — SOSP 1997): the layered SNS/TACC architecture, the
// TranSend distillation proxy and HotBot-style search engine built on
// it, and a harness that regenerates every table and figure in the
// paper's evaluation.
//
// Start with README.md for the tour and the package map (including
// the SAN's codec — every message body crosses it as bytes —
// internal/transport, the framed, batched socket
// layer that lets one cluster span real OS processes via cmd/node,
// and internal/supervisor, the per-process daemon that makes
// process-peer restarts and rolling upgrades location-transparent
// across those processes).
// The benchmarks in bench_test.go (one per reproduced artifact, plus
// the SAN codec path and the batched/unbatched bridge pair) and
// cmd/experiments regenerate the results; make
// bench-snapshot and make bench-diff track the perf trajectory across
// PRs.
package repro
