#!/usr/bin/env bash
# Runs the kernels bench and records the medians at the repo root as
# BENCH_kernels.json (JSON lines, one object per bench) — the tracked
# perf baseline the ISSUE/EXPERIMENTS numbers refer to.
#
# Usage:
#   scripts/bench.sh            # full run (15 samples per bench)
#   scripts/bench.sh --smoke    # tiny sample counts, for CI smoke checks;
#                               # writes to $BENCH_OUT or a fresh temp file,
#                               # never to the tracked BENCH_kernels.json
#   scripts/bench.sh gp_fit     # only benches whose name contains gp_fit
#
# Extra arguments are forwarded to the bench binary (see
# hbo_bench::harness::Harness::from_args).
set -euo pipefail
cd "$(dirname "$0")/.."

ARGS=()
OUT=BENCH_kernels.json
if [[ "${1:-}" == "--smoke" ]]; then
  shift
  ARGS+=(--samples 3 --warmup 1)
  OUT="${BENCH_OUT:-$(mktemp)}"
fi

# Bench prints one JSON line per bench on stdout; keep only those (cargo
# may interleave its own progress on stderr, which tee would not catch
# anyway, but a belt-and-suspenders filter keeps the file parseable).
cargo bench -q --offline -p hbo-bench --bench kernels -- "${ARGS[@]}" "$@" \
  | grep '^{' > "$OUT"

if [[ ! -s "$OUT" ]]; then
  echo "error: $OUT is empty — did the bench filter match nothing?" >&2
  exit 1
fi

# Validate every line parses as JSON with the fields the tooling reads.
# An unfiltered run must also carry the sims-per-wall-second headline rows
# for the DES simulators.
FILTERED=0
for a in "$@"; do [[ "$a" == --* ]] || FILTERED=1; done
if command -v python3 >/dev/null 2>&1; then
  python3 - "$OUT" "$FILTERED" <<'EOF'
import json, sys
rows = {}
with open(sys.argv[1]) as f:
    for i, line in enumerate(f, 1):
        obj = json.loads(line)
        for key in ("group", "bench", "median_ns"):
            if key not in obj:
                raise SystemExit(f"line {i}: missing key {key!r}")
        rows[obj["bench"]] = obj
if sys.argv[2] == "0":
    required = (
        "des_hold_512",
        "socsim_sc1cf1_1s",
        "edgesim_8c_1s",
        "mediumsim_32c_1s",
        "fleet_256c_1s",
        "fleet_256c_agg_1s",
    )
    for bench in required:
        row = rows.get(bench)
        if row is None:
            raise SystemExit(f"missing DES throughput row {bench!r}")
        if "sims_per_wall_sec" not in row:
            raise SystemExit(f"row {bench!r} lacks sims_per_wall_sec")
    # The observability-overhead rows: all four observer configurations
    # on the same one-second workload, aggregator included, and the
    # fleet cell under an observer that keeps nothing.
    for bench in (
        "trace_overhead_disabled_1s",
        "trace_overhead_null_1s",
        "trace_overhead_chrome_1s",
        "trace_overhead_agg_1s",
        "fleet_256c_null_1s",
    ):
        if bench not in rows:
            raise SystemExit(f"missing trace overhead row {bench!r}")
    # The amortized-control-plane rows: the warm-start suggest next to
    # the cold bo_suggest_k20 baseline.
    for bench in ("bo_suggest_k20", "bo_suggest_warm_k20"):
        if bench not in rows:
            raise SystemExit(f"missing BO suggest row {bench!r}")
print(f"{sys.argv[1]}: {i} benches, all lines parse")
EOF
elif command -v jq >/dev/null 2>&1; then
  jq -e '.group and .bench and (.median_ns | numbers)' < "$OUT" >/dev/null
  echo "$OUT: $(wc -l < "$OUT") benches, all lines parse"
else
  grep -cq '"median_ns":' "$OUT"
  echo "$OUT: $(wc -l < "$OUT") benches (no JSON validator available)"
fi

cat "$OUT"
