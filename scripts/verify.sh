#!/usr/bin/env bash
# Hermetic verification: the workspace must build, test, and lint cleanly
# with no network access — proving the zero-dependency policy holds.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline --workspace
cargo test -q --offline --workspace
cargo clippy --offline --workspace --all-targets -- -D warnings
# Doc gate: every intra-doc link must resolve, so a doc comment that still
# names a deleted or private item fails here.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT

# Determinism gate: the composed-ecosystem, resilience-ablation, and
# network-contention experiments must render byte-identical reports across
# two runs at the same seed — and across parallel-sweep widths, since
# mcs-simcore::par merges fan-out results by input index, never by
# completion order.
for exp in ecosystem_composed ecosystem_full resilience_ablation locality_contention chaos_sweep scale_stress dag_portfolio; do
    MCS_PAR_WORKERS=1 "./target/release/$exp" 42 > "$tmpdir/${exp}_w1.txt"
    MCS_PAR_WORKERS=4 "./target/release/$exp" 42 > "$tmpdir/${exp}_w4.txt"
    MCS_PAR_WORKERS=4 "./target/release/$exp" 42 > "$tmpdir/${exp}_w4b.txt"
    diff "$tmpdir/${exp}_w1.txt" "$tmpdir/${exp}_w4.txt"
    diff "$tmpdir/${exp}_w4.txt" "$tmpdir/${exp}_w4b.txt"
done

# Invariant gate: every built-in chaos invariant must hold on the golden
# default-config trace (the same composition scenario_golden.rs pins).
"./target/release/chaos_sweep" --check-invariants

# Perf-baseline gate: a 2-sample smoke run of the tracked benchmarks must
# produce a JSON artifact that the in-house codec parses back with a sane
# shape, and the committed BENCH_*.json series must stay valid too.
MCS_BENCH_SAMPLES=2 MCS_BENCH_WARMUP_MS=0 \
    "./target/release/perf_baseline" --json "$tmpdir/bench_smoke.json"
"./target/release/perf_baseline" --check "$tmpdir/bench_smoke.json"
for baseline in BENCH_4.json BENCH_7.json BENCH_9.json BENCH_10.json; do
    if [ -f "$baseline" ]; then
        "./target/release/perf_baseline" --check "$baseline"
    fi
done

# Allow-lint gate: the engine-migrated crates stay clean — no new `#[allow]`
# escapes into their sources (the BSP stepper carries the single
# pre-existing `too_many_arguments` exception).
allow_budget=1
allow_count="$(grep -rE '#!?\[allow\(' crates/bigdata/src crates/graph/src crates/gaming/src crates/core/src | wc -l)"
if [ "$allow_count" -gt "$allow_budget" ]; then
    echo "verify: FAIL — $allow_count #[allow] attributes in migrated crates (budget $allow_budget)" >&2
    grep -rnE '#!?\[allow\(' crates/bigdata/src crates/graph/src crates/gaming/src crates/core/src >&2
    exit 1
fi

# Scenario-benchmark outcome smoke: a one-second run of each benchmark
# workload must reproduce its pinned simulated outcome. `fabric_stream` is the
# only workload whose pins (FaaS latency p50/p99) are read back from the
# streaming quantile sketch. The benchmark is its own cargo workspace, built in
# its own target directory; it reports a pin mismatch as `"correct":false` on
# its last line of standard output.
CARGO_TARGET_DIR=.bench_build cargo build --release --offline --quiet \
    --manifest-path scenario_bench/Cargo.toml
for workload in fabric_stream workflow_fabric composed_retained; do
    ./.bench_build/release/mcs-scenario-bench --workload "$workload" --seed 7919 \
        --seconds 1 --trace 0 > "$tmpdir/bench_$workload.json" 2> "$tmpdir/bench_$workload.err"
    if ! tail -n 1 "$tmpdir/bench_$workload.json" | grep -q '^{"correct":true,'; then
        echo "verify: FAIL — scenario_bench $workload missed its pinned outcome" >&2
        cat "$tmpdir/bench_$workload.err" >&2
        exit 1
    fi
done

echo "verify: OK (offline build + tests + clippy + rustdoc links + par-aware determinism diffs + invariant gate + bench smoke + scenario pins + allow-lint budget)"
