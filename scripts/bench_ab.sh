#!/usr/bin/env bash
# A/B a git revision against the working tree: the repo benchmark, or
# rows of the kernels bench.
#
#   scripts/bench_ab.sh REV [workloads] [pairs] [seconds]
#   scripts/bench_ab.sh REV --kernels FILTERS [rounds] [bench args...]
#
# REV        any git revision (e.g. HEAD~1, a branch, a commit id)
#
# Benchmark mode:
# workloads  comma-separated perfbench workloads (default: every workload
#            in BENCHMARK.json)
# pairs      alternating REV/working-tree pairs per workload (default 10)
# seconds    --seconds of each perfbench run (default 25)
#
# REV's perfbench is built in a temporary `git worktree` with its own
# target directory; the working tree's is built into .bench_build/. Pair
# k runs both sides with `--seed k --trace 0`, and the side that runs
# first flips every pair. For every end-to-end metric of BENCHMARK.json
# the script prints each side's median and quartiles, the median per-pair
# change/REV ratio with a bootstrap 95% interval, and the pairs the
# change won (ties count for neither side).
#
# Kernels mode:
# FILTERS    comma-separated bench-name substrings of the `kernels` bench
#            (e.g. des_hold_512,fleet_256c_1s)
# rounds     alternating REV/working-tree rounds (default 6)
# bench args forwarded to the bench binary (e.g. --samples 3 --warmup 1)
#
# REV's `kernels` bench is built in the same temporary worktree; the
# working tree's is built into its usual target directory. Each round runs
# every filter on both sides, and the side that runs first flips every
# round. For every row the script prints each side's median `median_ns`
# over the rounds, the median per-round change/REV ratio with the same
# bootstrap 95% interval, and the rounds the change won (lower is better;
# ties count for neither side). It fails if a filter matches no row.
#
# Neither mode edits a tracked file; the worktree and its build are
# removed on exit. Temporary files go under $TMPDIR (default /tmp).
set -euo pipefail
cd "$(dirname "$0")/.."
root="$(pwd)"

usage() {
  echo "usage: scripts/bench_ab.sh REV [workloads] [pairs] [seconds]" >&2
  echo "       scripts/bench_ab.sh REV --kernels FILTERS [rounds] [bench args...]" >&2
  exit 2
}
positive() {
  for n in "$@"; do
    case "$n" in
      '' | *[!0-9]* | 0) echo "bench_ab: pairs, rounds and seconds must be positive integers" >&2; exit 2 ;;
    esac
  done
}

[ $# -ge 1 ] || usage
rev="$(git rev-parse --verify --quiet "$1^{commit}")" || {
  echo "bench_ab: not a revision: $1" >&2
  exit 2
}
shift
mode=perfbench
if [ "${1:-}" = "--kernels" ]; then
  mode=kernels
  [ $# -ge 2 ] || usage
  filters="$2"
  shift 2
  rounds=6
  if [ $# -ge 1 ] && [[ "$1" != --* ]]; then
    rounds="$1"
    shift
  fi
  positive "$rounds"
  bench_args=("$@")
else
  [ $# -le 3 ] || usage
  workloads="${1:-$(python3 -c '
import json
print(",".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')}"
  pairs="${2:-10}"
  seconds="${3:-25}"
  positive "$pairs" "$seconds"
fi

tmp="$(mktemp -d)"
worktree="$tmp/rev"
cleanup() {
  git -C "$root" worktree remove --force "$worktree" >/dev/null 2>&1 || true
  git -C "$root" worktree prune >/dev/null 2>&1 || true
  rm -rf "$tmp"
}
trap cleanup EXIT
git worktree add --quiet --detach "$worktree" "$rev"
results="$tmp/results.jsonl"
: > "$results"

if [ "$mode" = kernels ]; then
  # Prints the path of the `kernels` bench binary that cargo builds for
  # the workspace at $1 into target directory $2.
  kernels_bin() {
    CARGO_TARGET_DIR="$2" cargo bench --no-run --quiet --offline \
      --manifest-path "$1/Cargo.toml" -p hbo-bench --bench kernels \
      --message-format=json |
      python3 -c '
import json, sys
for line in sys.stdin:
    msg = json.loads(line)
    if msg.get("target", {}).get("name") == "kernels" and msg.get("executable"):
        print(msg["executable"])'
  }
  echo "==> building the kernels bench at ${rev:0:12} (worktree) and in the working tree" >&2
  rev_bin="$(kernels_bin "$worktree" "$tmp/target")"
  work_bin="$(kernels_bin "$root" "${CARGO_TARGET_DIR:-$root/target}")"
  [ -n "$rev_bin" ] && [ -n "$work_bin" ] || {
    echo "bench_ab: no kernels bench binary was built" >&2
    exit 1
  }
  run_kernels() { # side binary filter round
    "$2" "$3" --bench "${bench_args[@]}" | { grep '^{' || true; } |
      while IFS= read -r line; do
        printf '{"side": "%s", "round": %s, "row": %s}\n' "$1" "$4" "$line" >> "$results"
        echo "    $1: $line" >&2
      done
  }
  IFS=, read -r -a names <<< "$filters"
  for ((round = 1; round <= rounds; round++)); do
    echo "==> kernels round $round/$rounds" >&2
    for filter in "${names[@]}"; do
      if ((round % 2)); then
        run_kernels rev "$rev_bin" "$filter" "$round"
        run_kernels change "$work_bin" "$filter" "$round"
      else
        run_kernels change "$work_bin" "$filter" "$round"
        run_kernels rev "$rev_bin" "$filter" "$round"
      fi
    done
  done
else
  echo "==> building perfbench at ${rev:0:12} (worktree) and in the working tree" >&2
  CARGO_TARGET_DIR="$tmp/target" cargo build --release --quiet --offline \
    --manifest-path "$worktree/perfbench/Cargo.toml"
  CARGO_TARGET_DIR="$root/.bench_build" cargo build --release --quiet --offline \
    --manifest-path "$root/perfbench/Cargo.toml"
  rev_bin="$tmp/target/release/hbo-perfbench"
  work_bin="$root/.bench_build/release/hbo-perfbench"

  run() { # side binary workload seed pair
    local line
    line="$("$2" --workload "$3" --seed "$4" --seconds "$seconds" --trace 0 2>/dev/null | tail -n 1)" || true
    printf '{"side": "%s", "workload": "%s", "pair": %s, "result": %s}\n' \
      "$1" "$3" "$5" "${line:-null}" >> "$results"
    echo "    $1 seed $4: $line" >&2
  }
  IFS=, read -r -a names <<< "$workloads"
  for workload in "${names[@]}"; do
    for ((pair = 1; pair <= pairs; pair++)); do
      echo "==> $workload pair $pair/$pairs" >&2
      if ((pair % 2)); then
        run rev "$rev_bin" "$workload" "$pair" "$pair"
        run change "$work_bin" "$workload" "$pair" "$pair"
      else
        run change "$work_bin" "$workload" "$pair" "$pair"
        run rev "$rev_bin" "$workload" "$pair" "$pair"
      fi
    done
  done
fi

python3 - "$mode" "$results" "${rev:0:12}" "${seconds:-}" "${filters:-}" "${bench_args[*]:-}" <<'EOF'
import json
import random
import statistics
import sys

mode, path, rev, seconds, filters, bench_args = sys.argv[1:7]

def median_ci(ratios, resamples=2000):
    rng = random.Random(0)
    meds = sorted(
        statistics.median(rng.choice(ratios) for _ in ratios) for _ in range(resamples)
    )
    return meds[int(0.025 * resamples)], meds[int(0.975 * resamples) - 1]

def fmt(x):
    return f"{x:.4g}"

def summary(xs):
    q1, med, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0],) * 3
    return f"{fmt(med)} [{fmt(q1)}, {fmt(q3)}]"

def compare(vals, higher):
    """The ratio cell and the won cell for (REV, change) value pairs."""
    ratios = [b / a for a, b in vals if a != 0]
    if ratios:
        lo, hi = median_ci(ratios)
        ratio = f"{statistics.median(ratios):.3f} [{lo:.3f}, {hi:.3f}]"
    else:
        ratio = "—"
    wins = sum(1 for a, b in vals if (b > a if higher else b < a))
    ties = sum(1 for a, b in vals if a == b)
    return ratio, f"{wins}/{len(vals)}" + (f" ({ties} tied)" if ties else "")

if mode == "kernels":
    rows = {}
    for line in open(path):
        r = json.loads(line)
        rows.setdefault(r["row"]["bench"], {}).setdefault(r["round"], {})[r["side"]] = r["row"]
    print(f"REV = {rev}, change = working tree, kernels bench {bench_args or '(default samples)'}, rounds alternate the side that runs first")
    print()
    print("| row | REV median_ns [quartiles] | change median_ns [quartiles] | change/REV [95% CI] | change won |")
    print("|---|---:|---:|---|---:|")
    for bench, by_round in rows.items():
        vals = [
            (p["rev"]["median_ns"], p["change"]["median_ns"])
            for p in by_round.values()
            if "rev" in p and "change" in p
        ]
        if not vals:
            continue
        ratio, won = compare(vals, higher=False)
        rev_side = summary([a for a, _ in vals])
        change_side = summary([b for _, b in vals])
        print(f"| {bench} | {rev_side} | {change_side} | {ratio} | {won} |")
    missing = [f for f in filters.split(",") if not any(f in b for b in rows)]
    if missing:
        print(f"bench_ab: no kernels row matched {', '.join(missing)}", file=sys.stderr)
        sys.exit(1)
    sys.exit(0)

metrics = json.load(open("BENCHMARK.json"))["end_to_end"]
runs = {}
for line in open(path):
    r = json.loads(line)
    runs.setdefault(r["workload"], {}).setdefault(r["pair"], {})[r["side"]] = r["result"]

print(f"REV = {rev}, change = working tree, --seconds {seconds} --trace 0, seed k in pair k")
print()
print("| workload | metric | REV median [quartiles] | change median [quartiles] | change/REV [95% CI] | change won |")
print("|---|---|---:|---:|---|---:|")
status = 0
for workload, by_pair in runs.items():
    ok = {
        side: sum(1 for p in by_pair.values() if (p.get(side) or {}).get("correct") is True)
        for side in ("rev", "change")
    }
    complete = [p for p in by_pair.values() if p.get("rev") and p.get("change")]
    if ok["rev"] < len(by_pair) or ok["change"] < len(by_pair):
        status = 1
    name = workload
    for m in metrics:
        key, higher = m["name"], m["better"] == "higher"
        vals = [
            (p["rev"]["metrics"][key]["value"], p["change"]["metrics"][key]["value"])
            for p in complete
        ]
        if not vals:
            continue
        ratio, won = compare(vals, higher)
        rev_side = summary([a for a, _ in vals])
        change_side = summary([b for _, b in vals])
        print(f"| {name} | {key} | {rev_side} | {change_side} | {ratio} | {won} |")
        name = ""
    print(f"| | correct | {ok['rev']}/{len(by_pair)} | {ok['change']}/{len(by_pair)} | | |")
sys.exit(status)
EOF
