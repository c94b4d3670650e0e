# Developer entry points. CI runs the same targets.

GO ?= go

.PHONY: vet build test test-short race cover fuzz-smoke fuzz-frames smoke-multiprocess bench-snapshot bench-diff bench-wire bench-transport bench-blob chaos-soak

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# Race pass over the packages with real concurrency on the hot path,
# plus the component lifecycle (core), the supervisor daemon, and the
# stub/manager/monitor/search protocols, whose decoded bodies may be
# lease-backed views shared across goroutines.
race:
	$(GO) test -race -short ./internal/obs ./internal/san ./internal/vcache ./internal/frontend ./internal/edge ./internal/transport ./internal/chaos ./internal/core ./internal/supervisor ./internal/stub ./internal/manager ./internal/monitor ./internal/search

# Coverage with the committed-baseline regression gate (satellite:
# fails if total coverage drops >2 points from coverage_baseline.txt).
cover:
	./scripts/coverage_check.sh

# Short fuzz smoke over the wire codec (CI runs this on every push).
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzWireRoundTrip -fuzztime=15s ./internal/stub

# Fuzz the transport's streaming frame decoder (torn reads, corrupt
# CRCs, concatenated batches). CI runs this on every push.
fuzz-frames:
	$(GO) test -run='^$$' -fuzz=FuzzFrameRoundTrip -fuzztime=15s ./internal/transport

# Two OS processes over loopback TCP serving a TranSend workload:
# zero failed requests, zero wire errors, or the target fails.
smoke-multiprocess:
	./scripts/smoke_multiprocess.sh

# Write BENCH_<date>.json with the figure-benchmark metrics so the
# perf trajectory is a diffable artifact.
bench-snapshot:
	$(GO) run ./cmd/experiments -snapshot auto

# Regression gate: fresh snapshot vs the newest committed baseline;
# fails on >20% drift of any seed-deterministic metric. CI runs this.
bench-diff:
	./scripts/bench_diff.sh

# Only the codec/SAN wire benchmarks, for quick local iteration on the
# serialization hot path.
bench-wire:
	$(GO) test -run='^$$' -bench='Wire' -benchmem -count=1 ./internal/stub .

# Frame + bridge benchmarks: encode/decode cost and the batched-vs-
# unbatched socket send comparison.
bench-transport:
	$(GO) test -run='^$$' -bench='Frame|Bridge' -benchmem -count=1 .

# The zero-copy blob relay (FE→cache→FE over two bridges) at 4 KB /
# 64 KB / 512 KB — B/op and allocs/op are the copy count per request.
bench-blob:
	$(GO) test -run='^$$' -bench='BlobRelay' -benchmem -count=1 ./internal/transport

# The randomized kill-anything soak plus the full chaos suite.
chaos-soak:
	$(GO) test -count=1 -v -run 'TestSoak|TestScenario|TestSchedule' ./internal/chaos
