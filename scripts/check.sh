#!/usr/bin/env bash
# Hermetic verification: the workspace must build, test, and bench-compile
# fully offline, and no external registry dependency may ever reappear in a
# manifest. Run from anywhere; operates on the repo root.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "== offline release build (all targets, including benches) =="
cargo build --release --offline --workspace --all-targets

echo "== rustdoc gate: the workspace docs build without a warning =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

echo "== offline test suite (kernel tier: scalar forced) =="
LEHDC_KERNEL=scalar cargo test -q --offline --workspace

echo "== accumulator/encoder parity suite (kernel tier: scalar forced) =="
LEHDC_KERNEL=scalar cargo test -q --offline -p hdc --test accum_parity

if grep -q '\bavx2\b' /proc/cpuinfo 2>/dev/null; then
    echo "== offline test suite (kernel tier: avx2 forced) =="
    LEHDC_KERNEL=avx2 cargo test -q --offline --workspace
    echo "== accumulator/encoder parity suite (kernel tier: avx2 forced) =="
    LEHDC_KERNEL=avx2 cargo test -q --offline -p hdc --test accum_parity
else
    echo "== offline test suite (avx2 pass skipped: CPU lacks AVX2) =="
fi

# The AVX-512 tier needs both flags; /proc/cpuinfo spells the second one
# avx512_vpopcntdq. It is the highest tier, so an unset LEHDC_KERNEL
# selects it.
has_avx512() {
    grep -q '\bavx512f\b' /proc/cpuinfo 2>/dev/null \
        && grep -q '\bavx512_vpopcntdq\b' /proc/cpuinfo 2>/dev/null
}
if has_avx512; then
    echo "== offline test suite (kernel tier: avx512, LEHDC_KERNEL unset) =="
    env -u LEHDC_KERNEL cargo test -q --offline --workspace
    echo "== accumulator/encoder parity suite (kernel tier: avx512, LEHDC_KERNEL unset) =="
    env -u LEHDC_KERNEL cargo test -q --offline -p hdc --test accum_parity
else
    echo "== offline test suite (avx512 pass skipped: CPU lacks AVX-512F or VPOPCNTDQ) =="
fi

echo "== benchmark helpers: perfbench builds against the workspace and its tests pass =="
# --locked: a stale perfbench/Cargo.lock fails here instead of being rewritten.
cargo test -q --release --offline --locked --manifest-path perfbench/Cargo.toml

echo "== observability crate =="
cargo test -q --offline -p obs

echo "== metrics smoke: train --metrics-out emits valid JSON lines =="
smoke_dir=$(mktemp -d)
trap 'rm -rf "$smoke_dir"' EXIT
awk 'BEGIN {
    for (i = 0; i < 90; i++) {
        l = i % 3; b = l * 0.8; j = ((i * 7919) % 100) / 1000.0
        printf "%d,%.4f,%.4f,%.4f,%.4f\n", l, b+j, b+0.1-j, 2.0-b+j, b*0.5+j
    }
}' > "$smoke_dir/train.csv"
./target/release/lehdc_cli train \
    --data "$smoke_dir/train.csv" --out "$smoke_dir/model.lehdc" \
    --dim 256 --epochs 3 --threads 2 --verbose \
    --metrics-out "$smoke_dir/run.jsonl" > "$smoke_dir/stdout.txt"
./target/release/jsonl_check "$smoke_dir/run.jsonl"
for event in train_epoch encode strategy_run pool pool_totals metric; do
    grep -q "\"event\": \"$event\"" "$smoke_dir/run.jsonl" \
        || { echo "ERROR: no \"$event\" event in run.jsonl" >&2; exit 1; }
done
# The gradient product's term counters: the share of B·K entries it skips.
for counter in layer/grad_terms layer/grad_terms_nonzero; do
    grep -q "\"name\": \"$counter\"" "$smoke_dir/run.jsonl" \
        || { echo "ERROR: no \"$counter\" metric in run.jsonl" >&2; exit 1; }
done

echo "== serve smoke: daemon answers the offline predictions over TCP =="
# Reuse the trained smoke model: derive a label-less feature file, take the
# CLI's offline predictions as ground truth, then check a micro-batched
# pipelined run against them under each kernel tier.
cut -d, -f2- "$smoke_dir/train.csv" > "$smoke_dir/features.csv"
./target/release/lehdc_cli predict \
    --model "$smoke_dir/model.lehdc" --data "$smoke_dir/features.csv" \
    > "$smoke_dir/offline.txt"
# The same predictions with the recorder on: the inference spans land in
# valid JSON lines and change no answer.
./target/release/lehdc_cli predict \
    --model "$smoke_dir/model.lehdc" --data "$smoke_dir/features.csv" --threads 2 \
    --metrics-out "$smoke_dir/predict.jsonl" > "$smoke_dir/offline_recorded.txt"
./target/release/jsonl_check "$smoke_dir/predict.jsonl"
for event in encode classify; do
    grep -q "\"event\": \"$event\"" "$smoke_dir/predict.jsonl" \
        || { echo "ERROR: no \"$event\" event in predict.jsonl" >&2; exit 1; }
done
cmp "$smoke_dir/offline.txt" "$smoke_dir/offline_recorded.txt" \
    || { echo "ERROR: predict --metrics-out changed the predictions" >&2; exit 1; }
serve_tiers="scalar"
if grep -q '\bavx2\b' /proc/cpuinfo 2>/dev/null; then
    serve_tiers="scalar avx2"
fi
if has_avx512; then
    serve_tiers="$serve_tiers avx512"
else
    echo "-- serve smoke (avx512 pass skipped: CPU lacks AVX-512F or VPOPCNTDQ) --"
fi
# The metric names (histogram fields included) in a STATS reply.
stats_keys() { grep -o '"[^"]*":' "$1" | sort -u; }
for tier in $serve_tiers; do
    echo "-- serve smoke (kernel tier: $tier) --"
    if [ "$tier" = avx512 ]; then
        tier_env="-u LEHDC_KERNEL"
    else
        tier_env="LEHDC_KERNEL=$tier"
    fi
    # $tier_env is unquoted on purpose: `-u LEHDC_KERNEL` is two words.
    env $tier_env ./target/release/lehdc_serve \
        --model "$smoke_dir/model.lehdc" --addr 127.0.0.1:0 --threads 2 \
        > "$smoke_dir/serve_$tier.log" 2> "$smoke_dir/serve_$tier.err" &
    serve_pid=$!
    serve_addr=""
    for _ in $(seq 1 100); do
        serve_addr=$(sed -n 's/^lehdc_serve listening on //p' "$smoke_dir/serve_$tier.log")
        [ -n "$serve_addr" ] && break
        kill -0 "$serve_pid" 2>/dev/null \
            || { echo "ERROR: lehdc_serve died before binding" >&2
                 cat "$smoke_dir/serve_$tier.err" >&2; exit 1; }
        sleep 0.1
    done
    [ -n "$serve_addr" ] || { echo "ERROR: lehdc_serve never printed its address" >&2; exit 1; }
    env $tier_env ./target/release/lehdc_loadgen \
        --addr "$serve_addr" --data "$smoke_dir/features.csv" \
        --requests 360 --connections 4 --window 8 \
        --check "$smoke_dir/offline.txt" --stats \
        > "$smoke_dir/stats_$tier.json"
    # A second checked run against the same daemon: the connections the
    # first run closed must leave no metric key behind in STATS.
    env $tier_env ./target/release/lehdc_loadgen \
        --addr "$serve_addr" --data "$smoke_dir/features.csv" \
        --requests 360 --connections 4 --window 8 \
        --check "$smoke_dir/offline.txt" --stats --shutdown \
        > "$smoke_dir/stats_${tier}_again.json"
    diff <(stats_keys "$smoke_dir/stats_$tier.json") \
        <(stats_keys "$smoke_dir/stats_${tier}_again.json") >&2 \
        || { echo "ERROR: STATS key set changed between two runs against one daemon" >&2
             exit 1; }
    grep -q '"serve/requests_total": 360' "$smoke_dir/stats_$tier.json" \
        || { echo "ERROR: STATS did not count all 360 requests" >&2
             cat "$smoke_dir/stats_$tier.json" >&2; exit 1; }
    # perfbench's serve.queue.* and serve.batcher.* metrics read these.
    for hist in queue_wait_ns encode_ns classify_ns batch_ns; do
        grep -Eq "\"serve/$hist\": \{\"count\": [1-9]" "$smoke_dir/stats_$tier.json" \
            || { echo "ERROR: STATS has no serve/$hist histogram with a non-zero count" >&2
                 cat "$smoke_dir/stats_$tier.json" >&2; exit 1; }
    done
    wait "$serve_pid" \
        || { echo "ERROR: lehdc_serve exited nonzero" >&2
             cat "$smoke_dir/serve_$tier.err" >&2; exit 1; }
done

echo "== format gate: old files convert to stored containers that predict the same =="
# The committed fixtures hold this smoke model as earlier versions wrote it:
# the legacy LEHDCBDL layout and a container with packed sections. Each
# must convert to a stored container that predicts the committed
# predictions bit-for-bit.
fixtures="$PWD/crates/core/tests/fixtures"
for variant in legacy packed; do
    ./target/release/lehdc_cli convert \
        --model "$fixtures/smoke_$variant.lehdc" --out "$smoke_dir/from_$variant.lehdc"
    ./target/release/lehdc_cli info --model "$smoke_dir/from_$variant.lehdc" \
        > "$smoke_dir/info_$variant.txt"
    grep -q 'stored sections' "$smoke_dir/info_$variant.txt" \
        || { echo "ERROR: convert of the $variant fixture did not write stored sections" >&2
             exit 1; }
    ./target/release/lehdc_cli predict \
        --model "$smoke_dir/from_$variant.lehdc" --data "$smoke_dir/features.csv" \
        > "$smoke_dir/offline_$variant.txt"
    cmp "$fixtures/smoke_predictions.txt" "$smoke_dir/offline_$variant.txt" \
        || { echo "ERROR: $variant fixture predictions diverged after convert" >&2; exit 1; }
done

echo "== distill gate: sub-D model trains, saves, and predicts =="
./target/release/lehdc_cli distill \
    --model "$smoke_dir/model.lehdc" --out "$smoke_dir/small.lehdc" --dim 64
# Capture, then grep: `grep -q` exiting early would SIGPIPE the CLI
# under pipefail.
./target/release/lehdc_cli info --model "$smoke_dir/small.lehdc" > "$smoke_dir/info_small.txt"
grep -q 'distill:  64 of 256' "$smoke_dir/info_small.txt" \
    || { echo "ERROR: distilled bundle does not report its selection" >&2; exit 1; }
./target/release/lehdc_cli predict \
    --model "$smoke_dir/small.lehdc" --data "$smoke_dir/features.csv" \
    > "$smoke_dir/offline_small.txt" \
    || { echo "ERROR: distilled model failed to predict" >&2; exit 1; }

echo "== serve SWAP format gate: daemon is bit-identical across formats =="
# Start on the converted stored container, then drive checked runs that
# hot-swap to the two fixture files themselves: every answer must still
# match the committed predictions of the one underlying model.
./target/release/lehdc_serve \
    --model "$smoke_dir/from_packed.lehdc" --addr 127.0.0.1:0 --threads 2 \
    > "$smoke_dir/serve_swap.log" 2> "$smoke_dir/serve_swap.err" &
serve_pid=$!
serve_addr=""
for _ in $(seq 1 100); do
    serve_addr=$(sed -n 's/^lehdc_serve listening on //p' "$smoke_dir/serve_swap.log")
    [ -n "$serve_addr" ] && break
    kill -0 "$serve_pid" 2>/dev/null \
        || { echo "ERROR: lehdc_serve died before binding" >&2
             cat "$smoke_dir/serve_swap.err" >&2; exit 1; }
    sleep 0.1
done
[ -n "$serve_addr" ] || { echo "ERROR: lehdc_serve never printed its address" >&2; exit 1; }
for variant in legacy packed; do
    ./target/release/lehdc_loadgen \
        --addr "$serve_addr" --data "$smoke_dir/features.csv" \
        --requests 180 --connections 2 --window 8 \
        --swap "$fixtures/smoke_$variant.lehdc" \
        --check "$fixtures/smoke_predictions.txt" \
        > /dev/null \
        || { echo "ERROR: responses diverged after swapping to $variant" >&2; exit 1; }
done
# Finally swap to the distilled model and check against its own offline run.
./target/release/lehdc_loadgen \
    --addr "$serve_addr" --data "$smoke_dir/features.csv" \
    --requests 180 --connections 2 --window 8 \
    --swap "$smoke_dir/small.lehdc" \
    --check "$smoke_dir/offline_small.txt" --shutdown \
    > /dev/null \
    || { echo "ERROR: responses diverged after swapping to the distilled model" >&2; exit 1; }
wait "$serve_pid" \
    || { echo "ERROR: lehdc_serve exited nonzero after format swaps" >&2
         cat "$smoke_dir/serve_swap.err" >&2; exit 1; }

echo "== distill sweep: deployment headline (D<=2000 within 2pp of D=10000) =="
./target/release/distill_sweep > "$smoke_dir/sweep.json"
grep -q '"headline_ok": true' "$smoke_dir/sweep.json" \
    || { echo "ERROR: distill sweep headline failed:" >&2
         cat "$smoke_dir/sweep.json" >&2; exit 1; }

echo "== bench smoke (quick mode, one iteration per benchmark) =="
TESTKIT_BENCH_QUICK=1 cargo bench -q --offline --workspace

echo "== kernels benchmark (full run, JSON to BENCH_kernels.json) =="
TESTKIT_BENCH_JSON="$PWD" cargo bench -q --offline -p lehdc-bench --bench kernels

if [ "${CHECK_BENCH_COMPARE:-0}" != "0" ]; then
    echo "== bench regression gate (opt-in via CHECK_BENCH_COMPARE=1) =="
    # Compares the run above against the committed snapshot for the groups
    # whose scaling the thread pool is responsible for.
    ./scripts/bench_compare.sh --rerun classify_all classify_blocked transpose_matmul backward encode record_encode train_step retrain_epoch enhanced_epoch multimodel_classify serve_batch format_load
fi

echo "== manifest hermeticity check =="
# Every [dependencies] / [dev-dependencies] / [build-dependencies] entry in
# every manifest must be a path/workspace dependency. A registry dependency
# looks like `foo = "1.2"` or `foo = { version = "1.2", ... }`.
fail=0
for manifest in Cargo.toml crates/*/Cargo.toml; do
    # Extract only dependency sections, then flag version-style requirements.
    bad=$(awk '
        /^\[/ { in_deps = ($0 ~ /^\[(workspace\.)?(dev-|build-)?dependencies\]/) }
        in_deps && /^[A-Za-z0-9_-]+[[:space:]]*=/ {
            if ($0 ~ /version[[:space:]]*=/ || $0 ~ /=[[:space:]]*"[^"]*"[[:space:]]*$/)
                print
        }
    ' "$manifest")
    if [ -n "$bad" ]; then
        echo "ERROR: registry dependency in $manifest:" >&2
        echo "$bad" >&2
        fail=1
    fi
done
if [ "$fail" -ne 0 ]; then
    echo "The workspace must stay hermetic: in-tree (path) dependencies only." >&2
    exit 1
fi

echo "== lockfile hermeticity check =="
if grep -q '^source = ' Cargo.lock; then
    echo "ERROR: Cargo.lock references a non-path source:" >&2
    grep -n '^source = ' Cargo.lock >&2
    exit 1
fi

echo "All checks passed: offline build + tests green, no registry dependencies."
