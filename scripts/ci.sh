#!/usr/bin/env bash
# Tier-1 verification, exactly as CI runs it.
#
# Hermetic-build policy: the workspace must build and test with cargo's
# network access disabled — every dependency is an in-tree path crate
# (see [workspace.dependencies] in Cargo.toml). --offline turns any
# accidental registry dependency into a hard failure here instead of a
# broken build on an air-gapped machine.
set -euo pipefail
cd "$(dirname "$0")/.."

# A run must not rewrite tracked files: hash each tracked file's
# `git diff HEAD` now and again at the end, and fail naming every file
# whose diff moved. perfbench/Cargo.lock is exempt while it is known to
# be stale (every perfbench build rewrites it); the benchmark change that
# regenerates it drops the exemption.
tracked_state() {
  git diff HEAD --name-only -- . ':(exclude)perfbench/Cargo.lock' |
    while IFS= read -r path; do
      printf '%s %s\n' "$(git diff HEAD -- "$path" | sha256sum | cut -d' ' -f1)" "$path"
    done
}
tracked_before="$(tracked_state)"

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo build --release --offline"
cargo build --release --offline

# Line count: the figure line-delta claims quote. Run once at HEAD so the
# counter (git archive + brace-matched test-module skip) cannot rot.
echo "==> scripts/loc.sh HEAD"
loc="$(scripts/loc.sh HEAD)"
echo "non-test lines under crates/: $loc"
[[ "$loc" =~ ^[1-9][0-9]*$ ]]

echo "==> cargo test -q --workspace --offline"
cargo test -q --workspace --offline

# Event-list depth: the differential suite again at 4,096 cases per
# property instead of 256, sweeping schedule/pop/cancel/clear and rebase
# interleavings against the reference model far deeper (about 6 s on a
# 2-vCPU VM, build included).
echo "==> simcore differential suite at 4096 cases"
SIMCORE_CHECK_CASES=4096 cargo test --release --offline -q -p simcore --test differential

# simcore unit depth: the crate's unit suite at 4,096 cases per property,
# which covers the float-to-nanosecond rounding against `f64::round` by
# value (random doubles over the whole exponent range, values below 2^53
# with random fractions and exact halves) and the queue's relink bound.
echo "==> simcore unit suite at 4096 cases"
SIMCORE_CHECK_CASES=4096 cargo test --release --offline -q -p simcore --lib

# BO depth: the whole bayesopt unit suite at 4,096 cases per property
# (about 3 s of test time once built). It covers the blocked candidate
# scan of BoOptimizer::suggest against its unblocked reference (five
# spaces, K = 1..24, clouds off the block width, all three acquisitions),
# the row-by-row Cholesky factor against the dense textbook
# factorization, and the incremental GP fit against a from-scratch fit
# through the jitter ladder, all compared by to_bits.
echo "==> bayesopt unit suite at 4096 cases"
SIMCORE_CHECK_CASES=4096 cargo test --release --offline -q -p bayesopt --lib

# Shared-medium depth: the medium property (flow churn, mobility ticks,
# handovers) at 4,096 cases. check_invariants runs at every mutation: it
# re-solves every lane from scratch, compares the rates by to_bits, and
# requires the cached earliest completion deadline to equal the least
# deadline recomputed per flow.
echo "==> shared-medium invariants at 4096 cases"
SIMCORE_CHECK_CASES=4096 cargo test --release --offline -q -p edgelink --lib medium::properties

# Doc links: every intra-doc link must resolve, so docs that name a
# deleted or renamed item fail here instead of rotting silently.
echo "==> cargo doc --no-deps --workspace (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

# Bench targets: `cargo test` never builds `benches/experiments.rs`, so an
# API it calls could be deleted or renamed without any other step failing.
echo "==> cargo bench --no-run -p hbo-bench (every bench target builds)"
cargo bench --no-run --offline -p hbo-bench

# Smoke-run one runner-backed experiment binary on the parallel path: a
# tiny 4-replicate sweep on 2 worker threads exercises simcore::pool +
# marsim::runner end-to-end (seed derivation, ordered collection, merged
# stats, RunnerReport emission) outside the unit-test harness.
echo "==> runner smoke: explore --replicates 4 --threads 2"
cargo run --release --offline -q -p hbo-bench --bin explore -- \
  SC2-CF2 --iterations 2 --initial 2 --replicates 4 --threads 2

# Edge smoke: the edgelink-backed sweep on 2 worker threads — exercises
# the wireless-link + edge-server DES, the Edge delegate end-to-end
# (allocation, cost model, HBO 4-resource space), and the runner's
# parallel path in one go. Determinism of the emitted rows against the
# serial path is pinned by tests/end_to_end.rs.
echo "==> edge smoke: edge_offload --smoke --threads 2"
cargo run --release --offline -q -p hbo-bench --bin edge_offload -- \
  --smoke --threads 2 >/dev/null

# Fleet smoke: the cluster sweep on 2 worker threads — exercises the
# heterogeneous fleet synthesis (churn, mixed device classes), the
# multi-server cluster DES, and all four routing policies end-to-end.
# The emitted rows are pinned (golden cell + thread-count identity) by
# tests/end_to_end.rs; this step checks the real binary.
echo "==> fleet smoke: fleet_sweep --smoke --threads 2"
cargo run --release --offline -q -p hbo-bench --bin fleet_sweep -- \
  --smoke --threads 2 >/dev/null

# Stadium smoke (ISSUE 9): the shared-medium pipeline end-to-end —
# contended-cell fair sharing under HBO, plus the two-cell
# mobility/handover fleet. Rows are pinned (golden cell + thread-count
# identity) by tests/end_to_end.rs.
echo "==> stadium smoke: stadium_sweep --smoke --threads 2"
cargo run --release --offline -q -p hbo-bench --bin stadium_sweep -- \
  --smoke --threads 2 >/dev/null

# Warm-start smoke: the same sweep with the per-class HBO planning pass
# and the fleet-wide warm cache in front. The fleet_plan rows must be
# present and the cell rows byte-identical to the plain smoke run
# (planning must never touch cell seeds).
echo "==> fleet warm smoke: fleet_sweep --smoke --warm --threads 2"
warm_dir="$(mktemp -d)"
cargo run --release --offline -q -p hbo-bench --bin fleet_sweep -- \
  --smoke --threads 2 | grep '"sweep":"fleet_sweep"' > "$warm_dir/plain.txt"
cargo run --release --offline -q -p hbo-bench --bin fleet_sweep -- \
  --smoke --warm --threads 2 > "$warm_dir/warm_full.txt"
grep -q '"sweep":"fleet_plan"' "$warm_dir/warm_full.txt"
grep '"sweep":"fleet_sweep"' "$warm_dir/warm_full.txt" > "$warm_dir/warm_cells.txt"
cmp "$warm_dir/plain.txt" "$warm_dir/warm_cells.txt"
rm -rf "$warm_dir"

# Trace smoke: run a traced 2-replicate sweep on 2 worker threads and on
# the serial path, validate the export with the in-tree Chrome trace-JSON
# checker (spans from the SoC, HBO-control, and BO layers must be
# present), and require the two files to be byte-identical — the
# determinism contract of simcore::trace, checked outside the unit-test
# harness on the real binary.
echo "==> trace smoke: explore --trace on 2 threads vs serial"
trace_dir="$(mktemp -d)"
trap 'rm -rf "$trace_dir"' EXIT
cargo run --release --offline -q -p hbo-bench --bin explore -- \
  SC2-CF2 --iterations 2 --initial 2 --replicates 2 --threads 2 \
  --trace "$trace_dir/parallel.json" >/dev/null 2>&1
cargo run --release --offline -q -p hbo-bench --bin explore -- \
  SC2-CF2 --iterations 2 --initial 2 --replicates 2 --threads 1 \
  --trace "$trace_dir/serial.json" >/dev/null 2>&1
cargo run --release --offline -q -p hbo-bench --bin check_json -- \
  "$trace_dir/parallel.json" \
  --require-cat soc --require-cat hbo --require-cat bo
cmp "$trace_dir/parallel.json" "$trace_dir/serial.json"

# Metrics smoke (ISSUE 10): the fleet sweep with the streaming
# aggregator and head-sampled tracing on the real binary. The
# Prometheus-style exposition must be byte-identical across --threads
# 1/2/4, the emitted rows must stay byte-identical to an unobserved run,
# and the sampled trace export must still validate.
echo "==> metrics smoke: fleet_sweep --metrics across threads"
cargo run --release --offline -q -p hbo-bench --bin fleet_sweep -- \
  --smoke --threads 1 --metrics "$trace_dir/metrics_t1.txt" \
  --trace "$trace_dir/fleet_sampled.json" --trace-sample 2 \
  | grep '"sweep":"fleet_sweep"' > "$trace_dir/observed_rows.txt"
cargo run --release --offline -q -p hbo-bench --bin fleet_sweep -- \
  --smoke --threads 2 --metrics "$trace_dir/metrics_t2.txt" >/dev/null 2>&1
cargo run --release --offline -q -p hbo-bench --bin fleet_sweep -- \
  --smoke --threads 4 --metrics "$trace_dir/metrics_t4.txt" >/dev/null 2>&1
cmp "$trace_dir/metrics_t1.txt" "$trace_dir/metrics_t2.txt"
cmp "$trace_dir/metrics_t1.txt" "$trace_dir/metrics_t4.txt"
grep -q '# TYPE mar_counter_samples counter' "$trace_dir/metrics_t1.txt"
grep -q 'name="mem session bytes"' "$trace_dir/metrics_t1.txt"
cargo run --release --offline -q -p hbo-bench --bin fleet_sweep -- \
  --smoke --threads 2 | grep '"sweep":"fleet_sweep"' > "$trace_dir/plain_rows.txt"
cmp "$trace_dir/observed_rows.txt" "$trace_dir/plain_rows.txt"
cargo run --release --offline -q -p hbo-bench --bin check_json -- \
  "$trace_dir/fleet_sampled.json"

# Observed-export smoke: the trace and exposition of edge_offload and of
# stadium_sweep must be byte-identical across --threads 1/2 too (one
# observer per job, merged in job order), like explore's trace and
# fleet_sweep's exposition above. A metrics-only stadium run must print
# the exposition of the run that also keeps the Chrome trace: keeping a
# trace never changes the aggregate. The traces must validate
# (check_json is linear in the file, so a quadratic parser shows up as a
# slow step), and every observed run must emit the rows of an unobserved
# one.
echo "==> observed exports: edge_offload and stadium_sweep across threads"
for threads in 1 2; do
  cargo run --release --offline -q -p hbo-bench --bin edge_offload -- \
    --smoke --threads "$threads" --trace "$trace_dir/edge_t$threads.json" 2>/dev/null \
    | grep '"sweep":' > "$trace_dir/edge_rows_trace_t$threads.txt"
  cargo run --release --offline -q -p hbo-bench --bin edge_offload -- \
    --smoke --threads "$threads" --metrics "$trace_dir/edge_metrics_t$threads.txt" 2>/dev/null \
    | grep '"sweep":' > "$trace_dir/edge_rows_metrics_t$threads.txt"
  cargo run --release --offline -q -p hbo-bench --bin stadium_sweep -- \
    --smoke --threads "$threads" --trace "$trace_dir/stadium_t$threads.json" \
    --metrics "$trace_dir/stadium_metrics_t$threads.txt" 2>/dev/null \
    | grep '"sweep":' > "$trace_dir/stadium_rows_t$threads.txt"
  cargo run --release --offline -q -p hbo-bench --bin stadium_sweep -- \
    --smoke --threads "$threads" --metrics "$trace_dir/stadium_metrics_only_t$threads.txt" \
    2>/dev/null | grep '"sweep":' > "$trace_dir/stadium_rows_metrics_t$threads.txt"
  cmp "$trace_dir/stadium_metrics_t$threads.txt" "$trace_dir/stadium_metrics_only_t$threads.txt"
done
cmp "$trace_dir/edge_t1.json" "$trace_dir/edge_t2.json"
cmp "$trace_dir/edge_metrics_t1.txt" "$trace_dir/edge_metrics_t2.txt"
grep -q '# TYPE mar_span_count counter' "$trace_dir/edge_metrics_t1.txt"
cmp "$trace_dir/stadium_t1.json" "$trace_dir/stadium_t2.json"
cmp "$trace_dir/stadium_metrics_t1.txt" "$trace_dir/stadium_metrics_t2.txt"
cargo run --release --offline -q -p hbo-bench --bin check_json -- \
  "$trace_dir/edge_t1.json" --require-cat soc --require-cat edgelink
cargo run --release --offline -q -p hbo-bench --bin check_json -- \
  "$trace_dir/stadium_t1.json" --require-cat soc --require-cat edgelink
cargo run --release --offline -q -p hbo-bench --bin edge_offload -- \
  --smoke --threads 2 2>/dev/null | grep '"sweep":' > "$trace_dir/edge_plain_rows.txt"
cargo run --release --offline -q -p hbo-bench --bin stadium_sweep -- \
  --smoke --threads 2 2>/dev/null | grep '"sweep":' > "$trace_dir/stadium_plain_rows.txt"
for rows in "$trace_dir"/edge_rows_*.txt; do
  cmp "$rows" "$trace_dir/edge_plain_rows.txt"
done
for rows in "$trace_dir"/stadium_rows_*.txt; do
  cmp "$rows" "$trace_dir/stadium_plain_rows.txt"
done

# Strict thread counts: a zero or malformed --threads or HBO_THREADS is a
# usage error (status 2), never a silent fallback to another count.
echo "==> strict thread counts: --threads 0 and HBO_THREADS=abc exit 2"
status=0
cargo run --release --offline -q -p hbo-bench --bin fig4_table3 -- \
  --threads 0 >/dev/null 2>&1 || status=$?
test "$status" -eq 2
status=0
HBO_THREADS=abc cargo run --release --offline -q -p hbo-bench --bin fig4_table3 \
  >/dev/null 2>&1 || status=$?
test "$status" -eq 2

# Unknown flags: a sweep rejects an argument it does not know (status 2)
# instead of ignoring it, so a typo never runs the full sweep silently.
echo "==> unknown flags: stadium_sweep --smoke --bogus-flag exits 2"
status=0
cargo run --release --offline -q -p hbo-bench --bin stadium_sweep -- \
  --smoke --bogus-flag >/dev/null 2>&1 || status=$?
test "$status" -eq 2

# Bench smoke: a tiny-N run of the kernels bench must still emit
# parseable rows, so the tracked perf baseline can't silently rot when
# bench fixtures or the harness change. The rows go to a temp file: the
# tracked BENCH_kernels.json only ever holds full runs.
echo "==> bench smoke: scripts/bench.sh --smoke"
BENCH_OUT="$trace_dir/bench_smoke.json" scripts/bench.sh --smoke >/dev/null
test -s "$trace_dir/bench_smoke.json"

# Benchmark digests: the perfbench selftest (every workload untraced and
# traced, output contract), then one second of each workload at seed 1.
# One second makes two passes over each 100-input pool, so every digest
# pinned in perfbench/golden.txt is checked; a drift fails here instead
# of surfacing only as the benchmark's pass_rate.
echo "==> perfbench: selftest, then a one-second digest pass per workload"
python3 perfbench/selftest.py
for workload in hbo_activation edge_stadium fleet_private mobility_shared; do
  result="$(cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- \
    --workload "$workload" --seed 1 --seconds 1 --trace 0 | tail -n 1)"
  python3 -c '
import json, sys
r = json.loads(sys.argv[2])
print(sys.argv[1], "correct:", r.get("correct"), "failed:", r.get("failed"),
      "attempted:", r.get("attempted"))
sys.exit(0 if r.get("correct") is True and r.get("failed") == 0 else 1)
' "$workload" "$result"
done

# A/B tool: a one-pair, one-second self-A/B of HEAD against the working
# tree on fleet_private, so scripts/bench_ab.sh (worktree build, paired
# runs, summary table) cannot rot. It fails if either side's run is not
# `correct`.
echo "==> bench_ab: HEAD vs working tree, fleet_private, 1 pair x 1 s"
scripts/bench_ab.sh HEAD fleet_private 1 1

# Kernel A/B: one round of the event-list row through the kernels mode of
# the same script (worktree build of REV's kernels bench, alternated
# runs, per-row summary), so that mode cannot rot either. It fails if the
# filter matches no row.
echo "==> bench_ab --kernels: HEAD vs working tree, des_hold_512, 1 round"
scripts/bench_ab.sh HEAD --kernels des_hold_512 1 --samples 3 --warmup 1

echo "==> tracked files: unchanged by this run"
tracked_after="$(tracked_state)"
if [[ "$tracked_before" != "$tracked_after" ]]; then
  echo "error: this run rewrote tracked files:" >&2
  diff <(printf '%s\n' "$tracked_before") <(printf '%s\n' "$tracked_after") |
    sed -n 's/^[<>] [0-9a-f]* //p' | sort -u >&2
  exit 1
fi

echo "==> OK"
