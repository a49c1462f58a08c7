#!/bin/sh
# Trend gate: parse the append-only benchmark trend arrays with
# cmd/st2trend and fail if the newest entry regresses against the best
# prior entry. Run after bench_smoke.sh / bench_dse.sh have appended
# fresh entries (make check does this). The ratios are deliberately
# loose — they catch order-of-magnitude regressions (a reintroduced
# per-design decode, a sweep gone sequential, a suite that stopped
# simulating), not CI-host jitter.
#
#   BENCH_dse.json   batched_eval_ops_per_sec       ≥ 0.25 × best prior
#                    decode_ops_per_sec             ≥ 0.25 × best prior
#                    store_load_ops_per_sec         ≥ 0.25 × best prior
#                    sharded_eval_ops_per_sec       ≥ 0.25 × best prior
#                    store_partial_load_ops_per_sec ≥ 0.25 × best prior
#                    identical                      == true (bit-identity verdict)
#   BENCH_smoke.json total_seconds                  ≤ 5 × best prior
#                    kernels                        ≥ best prior (suite never shrinks)
#                    simulate_thread_instrs_per_sec ≥ 0.25 × best prior
set -eu
cd "$(dirname "$0")/.."

fail() {
    echo "trend-gate: FAIL: $1" >&2
    exit 1
}

[ -s BENCH_dse.json ] || fail "BENCH_dse.json missing — run scripts/bench_dse.sh first"
[ -s BENCH_smoke.json ] || fail "BENCH_smoke.json missing — run scripts/bench_smoke.sh first"

go run ./cmd/st2trend -q \
    -gate batched_eval_ops_per_sec:higher:0.25 \
    -gate decode_ops_per_sec:higher:0.25 \
    -gate store_load_ops_per_sec:higher:0.25 \
    -gate sharded_eval_ops_per_sec:higher:0.25 \
    -gate store_partial_load_ops_per_sec:higher:0.25 \
    -gate identical:true \
    -gate total_seconds:lower:5.0 \
    -gate kernels:higher:1.0 \
    -gate simulate_thread_instrs_per_sec:higher:0.25 \
    BENCH_dse.json BENCH_smoke.json

echo "trend-gate: OK"
