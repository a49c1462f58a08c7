#!/bin/sh
# Repo gate for environments without make. It runs go vet, the gofmt
# check, st2lint, the full test suite under the race detector, two named
# race gates (sweep-grid and sharded-sweep determinism) and the three
# fuzz-smoke targets. It does not run the benchmark gates that
# `make check` also runs: bench-smoke, bench-dse and trend-gate.
set -eu
cd "$(dirname "$0")/.."

go vet ./...
test -z "$(gofmt -l $(git ls-files '*.go'))"

# st2lint enforces the determinism and shard-ownership invariants
# (DESIGN.md §11) plus the concurrency-safety and wire-taint invariants
# (DESIGN.md §16) statically — it must pass before the race suite runs,
# since a lint violation usually predicts a bit-identity failure or a
# decoder OOM that is much slower to chase at runtime. The go-list load
# is cached; the committed baseline is empty and must stay empty.
go run ./cmd/st2lint -cache .cache/st2lint -baseline .st2lint-baseline.json ./...

go test -race ./...

# The sweep-grid determinism rule deserves its own named gate: the
# (kernel × design) grid must be race-clean and bit-identical at any
# -sweep-workers count (the full -race sweep above also covers it, but a
# failure here names the broken invariant directly).
go test -race -count=1 -run TestSweepBitIdenticalAcrossWorkers ./internal/experiments

# Distributed-sweep determinism gate: a scale-1 sweep sharded over real
# worker subprocesses (2 and 3 shards × 1 and 2 sweep-workers, partial
# kernel-section loads from the store) must produce rows DeepEqual to
# the in-process grid, under the race detector — the named smoke for
# the coordinator/worker protocol and the lease/requeue machinery.
go test -race -count=1 -run 'TestShardedSweepMatchesInProcess|TestShardedSweepSurvivesWorkerKill' ./internal/experiments

# Short fuzz pass (the three `make fuzz-smoke` targets): seeds plus a
# few seconds of mutation must never panic, over-allocate, or
# round-trip unstably in the recording and decoded-store readers, and
# the word-parallel adder must match its slice-loop oracle.
go test -run='^$' -fuzz=FuzzReadRecording -fuzztime=5s ./internal/gpusim
go test -run='^$' -fuzz=FuzzReadDecoded -fuzztime=5s ./internal/trace
go test -run='^$' -fuzz=FuzzSlicedAdderAgainstSliceLoop -fuzztime=5s ./internal/adder
