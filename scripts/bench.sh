#!/usr/bin/env bash
# bench.sh — run the repo's benchmark suite with fixed seeds and emit the
# BENCH_<date>.json perf artifact (ns/op, B/op, allocs/op per benchmark).
#
# Packages covered: the root package (paper figure/table pins, including the
# flnet fault-injection round), internal/fl (FedAvg round, async step, global
# loss), internal/ml (evaluator + SGD epochs), internal/mat (batched MulT /
# AddMulTA kernels, RNG), internal/energy (calibrator observe),
# internal/flnet (the pooled networked round over loopback TCP plus the
# downlink encode paths — the allocs/op and B/op pins behind the zero-copy
# wire protocol — and the datagram round BenchmarkDgramRoundWire at loss 0
# and 10%), and internal/fldgram (packet codec + ARQ frame path of the
# lossy transport).
#
# The suite runs in two passes with different iteration counts:
#
#   - Hot-path benchmarks (everything in internal/*, plus the root-package
#     set matched by GATED) run at BENCH_TIME (default 25x). These are the
#     benchmarks the verify.sh regression gate holds to zero allocs/op
#     growth; 25 iterations amortize the scheduler's occasional cold
#     goroutine spawn (floor(total/25) drops it) so the count is exactly
#     reproducible run-to-run.
#   - Experiment-harness benchmarks (root Figure*/Ablation*/Table*) run at
#     BENCH_TIME_HARNESS (default 5x) — one op is an entire multi-round
#     training sweep, so 25x would take tens of minutes, and the gate
#     excludes them anyway (-skip, DESIGN.md §7).
#
# A new root-package benchmark must be added to GATED (or match HARNESS) or
# it will not appear in the artifact. internal/* benchmarks are picked up
# automatically.
#
# Environment knobs:
#   BENCH_DATE   — artifact date stamp (default: today, YYYY-MM-DD)
#   BENCH_TIME   — -benchtime for the gated pass (default 25x)
#   BENCH_TIME_HARNESS — -benchtime for the harness pass (default 5x)
#   BENCH_FILTER — when set, run a single pass with this -bench regexp at
#                  BENCH_TIME instead of the two-pass suite
set -euo pipefail
cd "$(dirname "$0")/.."

DATE="${BENCH_DATE:-$(date +%F)}"
TIME="${BENCH_TIME:-25x}"
HARNESS_TIME="${BENCH_TIME_HARNESS:-5x}"
OUT="BENCH_${DATE}.json"
RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

HARNESS='^Benchmark(Figure|Ablation|Table)'
GATED='^Benchmark(Mat|SGD|Model|Trace|Golden|FedAvg|Quantize|Sensitivity|Pareto|RoundWithFaults)'

if [ -n "${BENCH_FILTER:-}" ]; then
    echo "bench: single pass, -bench='${BENCH_FILTER}' -benchtime=${TIME} ..." >&2
    go test -run='^$' -bench="$BENCH_FILTER" -benchmem -benchtime="$TIME" \
        . ./internal/fl ./internal/ml ./internal/mat ./internal/energy \
        ./internal/flnet ./internal/fldgram | tee "$RAW" >&2
else
    echo "bench: harness pass -benchtime=${HARNESS_TIME}, gated pass -benchtime=${TIME} ..." >&2
    {
        go test -run='^$' -bench="$HARNESS" -benchmem -benchtime="$HARNESS_TIME" .
        go test -run='^$' -bench="$GATED" -benchmem -benchtime="$TIME" .
        go test -run='^$' -bench=. -benchmem -benchtime="$TIME" \
            ./internal/fl ./internal/ml ./internal/mat ./internal/energy \
            ./internal/flnet ./internal/fldgram
    } | tee "$RAW" >&2
fi

go run ./cmd/benchfmt -date "$DATE" <"$RAW" >"$OUT"
echo "bench: wrote $OUT ($(grep -c '"name"' "$OUT") benchmarks)" >&2
