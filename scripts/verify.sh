#!/usr/bin/env bash
# Full verification of the EE-FEI repository: build, vet, tests, examples,
# experiment regeneration, and one-shot benchmarks.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build =="
go build ./...

echo "== vet =="
go vet ./...

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:"; echo "$unformatted"; exit 1
fi

echo "== tests =="
go test ./...

echo "== tests (race detector) =="
go test -race ./...

echo "== observer determinism/race (explicit) =="
# Contracts pinned under the race detector even if the full -race sweep
# above is ever narrowed: bit-identical training with a mutating
# RoundObserver attached (pool claims counters included), the async
# engine's pool-size independence (same seed, worker counts 1..GOMAXPROCS,
# byte-identical weights and histories — the virtual-time event queue, not
# goroutine order, decides the update stream), and the batched GEMM forward
# pass matching the per-sample sequential reference bit for bit at every
# worker count (kernel layer in internal/mat, metric/gradient layer in
# internal/ml).
go test -race -run 'Observer|SpawnGate|TraceWriter|AsyncPoolBitIdentical' ./internal/fl ./internal/flnet
go test -race -run 'BitIdentical|Forward|Metrics' ./internal/mat ./internal/ml

echo "== round core golden (race detector, explicit) =="
# The one FedAvg round both synchronous engines run (fl.Engine.RoundWith),
# pinned under -race at several GOMAXPROCS: the in-process Engine (full
# batch and mini-batch FedProx, pools {1,4}), the AsyncEngine on the shared
# pool (workers {1,4}, staleness drops), a Quant8-down/Quant8-up TCP
# coordinator (fleets {2,4}) and a 10%-loss datagram run all match the
# goldens captured before the round was shared; the straggler, chaos and
# pool bit-identity contracts ride along.
go test -race -cpu 1,2,8 -run 'RoundCoreGolden|Straggler|Chaos|AsyncPoolBitIdentical|RoundParallelBitIdentical' ./internal/fl ./internal/flnet

echo "== sweep golden/resume/bit-identity (race detector, explicit) =="
# The (K, E) sweep subsystem's contracts pinned under -race even if the
# full -race sweep above is ever narrowed: the checked-in Quick-scale 3×3
# golden checkpoint + frontier CSV byte-compared, resume from a killed
# sweep's prefix byte-identical to an uninterrupted run, worker counts
# {1,2,4,GOMAXPROCS} bit-identical, parallel dataset synthesis matching
# workers=1, and the CLI artifact/resume paths. The Full tier itself
# (60k samples, 100 servers) is opt-in only:
#   EEFEI_FULL_SCALE=1 go test ./internal/experiments -run FullScaleSweep -timeout 30m
go test -race -run 'Sweep|Frontier|ParseScale|ScaleString|TestSplitSamples' ./internal/experiments ./cmd/experiments
go test -race -run 'SynthesizeParallel|SynthesizePairParallel' ./internal/dataset

echo "== wire protocol v2 golden/residual (race detector, explicit) =="
# The pooled v2 wire path's contracts pinned under -race even if the full
# -race sweep above is ever narrowed: the lossless run matching its
# checked-in golden bit for bit at fleet sizes {1,2,4,8}, the
# error-feedback residual downlink shrinking bytes ≥4× at Quant8 while
# still converging, rejoin resetting to a full send then resuming
# residuals, the exact-version handshake and header decode error tables,
# and the 0 allocs/op frame read/write pin. The byte→joules radio pricing
# rides with the Calibrator section below.
go test -race -run 'LosslessV2|Residual|TrainRequestV2|Handshake|WriteFrameAllocationFree' ./internal/flnet
go test -race -run 'RadioModel|RadioPricing' ./internal/energy

echo "== datagram transport ARQ/determinism (race detector, explicit) =="
# The lossy-transport contracts pinned under -race even if the full -race
# sweep above is ever narrowed: the fldgram stop-and-wait ARQ (fragmentation,
# CRC-rejected mutations, dup/reorder absorption, deterministic same-seed
# attempt counters, UDP mux listener), the packet-level faultnet injector,
# training over fldgram at 10% injected loss matching the TCP history record
# for record with bit-identical same-seed weights and the measured ρ/p of
# Eq. 4 within 5% of analytic, the residual-quantized downlink under
# connection chaos with rejoins, and the reconnect-lifecycle backoff
# schedule's seed determinism.
go test -race ./internal/fldgram
go test -race -run 'PacketInjector' ./internal/faultnet
go test -race -run 'Dgram|ChaosQuantized|RetryBackoffDeterministic' ./internal/flnet

echo "== reconnect/dgram stress (race detector, -count) =="
# A flake in the reconnect lifecycle or the datagram ARQ shows up only
# across many runs and worker counts: repeat them under -race. The 600
# runs take about 15 minutes on a 2-vCPU host, past go test's default
# 10-minute package timeout, hence -timeout.
go test -race -count=200 -cpu 1,2,8 -timeout 40m -run 'RetryBackoffDeterministic|Dgram' ./internal/flnet

echo "== reassembly fuzzer (smoke) =="
# A short live-fuzz burst on top of the checked-in corpus (which every plain
# `go test` replays): hostile fragment streams must never panic nor deliver
# corrupted bytes. Longer runs: go test -fuzz FuzzReassembly ./internal/fldgram
go test -run='^$' -fuzz 'FuzzReassembly' -fuzztime 5s ./internal/fldgram

echo "== calibration round-trip (race detector, explicit) =="
# The trace→energy loop under -race: the Calibrator observer accumulating a
# measured ledger live (closed-loop refit onto DefaultPiTimeModel, replay
# parity, non-perturbation of training) and the tracefmt -energy offline
# replay path over the checked-in golden trace.
go test -race -run 'Calibrator' ./internal/energy
go test -race -run 'Energy|RunEnergyFlag' ./cmd/tracefmt

echo "== examples =="
go run ./examples/quickstart
go run ./examples/energy_planner
go run ./examples/federated_mnist | tail -4
go run ./examples/networked_fl | tail -3
go run ./examples/networked_fl -fault-drop-kb 30 | tail -3
go run ./examples/async_fl | tail -3
go run ./examples/async_fl -workers 1 -steps 40 | tail -3

echo "== experiments (quick scale) =="
go run ./cmd/experiments

echo "== planner CLI =="
go run ./cmd/eefei-plan -grid

echo "== benches (single shot, all packages) =="
# Smoke-run every benchmark once so a panic or regression in a bench-only
# code path (worker pools, blocked GEMM, evaluator scratch, the batched
# forward kernels BenchmarkMatMulT / BenchmarkMatAddMulTA /
# BenchmarkEvaluatorMetrics) fails verify. scripts/bench.sh is the tool
# for real measurements and BENCH_*.json.
go test -bench=. -benchmem -benchtime=1x -run='^$' ./...

echo "== bench regression gate =="
# Re-measure the pinned packages and diff against the committed baseline
# (policy in DESIGN.md §7). Two tiers:
#
#   1. Strict: >BENCH_TOL% ns/op regression (default 15) or ANY allocs/op
#      growth fails. -min-ns keeps sub-100µs micro-benchmarks out of the
#      wall-clock comparison (scheduler jitter dominates there).
#   2. Allocs-only fallback: on throttled shared runners wall-clock swings
#      far beyond any usable tolerance, so unless BENCH_STRICT=1 a strict
#      failure downgrades ns to advisory and hard-gates only allocs/op and
#      benchmark coverage (a huge -min-ns skips every ns comparison).
#
# Allocation counts are deterministic for hot-path benchmarks: each warms
# up its worker pool before b.ResetTimer(), and 25 iterations amortize the
# scheduler's occasional cold goroutine spawn, so allocs/op is exactly
# reproducible and tier 2 catches real regressions. That includes the
# async hot path: BenchmarkAsyncStep/eval=1 is pinned at 0 allocs/op (the
# engine-side contract behind TestAsyncStepAllocationFree), and the pooled
# wire path: BenchmarkRoundWire's allocs/op and B/op are the zero-copy
# protocol's pins (full K=10 loopback round; warm round before the timer
# makes the count exact), with BenchmarkEncodeResidual pinned at 0
# allocs/op. Experiment-harness
# benchmarks (root Figure*/Ablation*/Table*) run a whole multi-round sweep
# per op and their allocs/op genuinely jitters — they are not re-measured
# here and -skip exempts them from the coverage rule; the 1x smoke run
# above still executes them. Keep GATED in sync with scripts/bench.sh.
BASELINE="BENCH_2026-08-06.json"
SKIP='^eefei\.Benchmark(Figure|Ablation|Table)'
GATED='^Benchmark(Mat|SGD|Model|Trace|Golden|FedAvg|Quantize|Straggler|Sensitivity|Pareto|RoundWithFaults)'
FRESH="$(mktemp)"
trap 'rm -f "$FRESH"' EXIT
{
    go test -run='^$' -bench="$GATED" -benchmem -benchtime=25x .
    go test -run='^$' -bench=. -benchmem -benchtime=25x \
        ./internal/fl ./internal/ml ./internal/mat ./internal/energy \
        ./internal/flnet ./internal/fldgram
} | go run ./cmd/benchfmt -date regression-gate >"$FRESH"
if ! go run ./cmd/benchfmt -diff "$BASELINE" "$FRESH" \
        -tol "${BENCH_TOL:-15}" -min-ns 100000 -skip "$SKIP"; then
    if [ "${BENCH_STRICT:-0}" = "1" ]; then
        echo "bench gate: strict comparison failed (BENCH_STRICT=1)" >&2
        exit 1
    fi
    echo "bench gate: ns/op outside tolerance on this runner; re-checking allocs/op only"
    go run ./cmd/benchfmt -diff "$BASELINE" "$FRESH" -min-ns 1000000000000 -skip "$SKIP"
fi

echo "ALL VERIFICATIONS PASSED"
