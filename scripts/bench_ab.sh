#!/usr/bin/env bash
# A/B the repo benchmark: a git revision against the working tree.
#
#   scripts/bench_ab.sh REV [workloads] [pairs] [seconds]
#
# REV        any git revision (e.g. HEAD~1, a branch, a commit id)
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
# change won (ties count for neither side). It edits no tracked file; the worktree and its build are
# removed on exit. Temporary files go under $TMPDIR (default /tmp).
set -euo pipefail
cd "$(dirname "$0")/.."
root="$(pwd)"

if [ $# -lt 1 ] || [ $# -gt 4 ]; then
  echo "usage: scripts/bench_ab.sh REV [workloads] [pairs] [seconds]" >&2
  exit 2
fi
rev="$(git rev-parse --verify --quiet "$1^{commit}")" || {
  echo "bench_ab: not a revision: $1" >&2
  exit 2
}
all_workloads="$(python3 -c '
import json
print(",".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')"
workloads="${2:-$all_workloads}"
pairs="${3:-10}"
seconds="${4:-25}"
for n in "$pairs" "$seconds"; do
  case "$n" in
    '' | *[!0-9]* | 0) echo "bench_ab: pairs and seconds must be positive integers" >&2; exit 2 ;;
  esac
done

tmp="$(mktemp -d)"
worktree="$tmp/rev"
cleanup() {
  git -C "$root" worktree remove --force "$worktree" >/dev/null 2>&1 || true
  git -C "$root" worktree prune >/dev/null 2>&1 || true
  rm -rf "$tmp"
}
trap cleanup EXIT

echo "==> building perfbench at ${rev:0:12} (worktree) and in the working tree" >&2
git worktree add --quiet --detach "$worktree" "$rev"
CARGO_TARGET_DIR="$tmp/target" cargo build --release --quiet --offline \
  --manifest-path "$worktree/perfbench/Cargo.toml"
CARGO_TARGET_DIR="$root/.bench_build" cargo build --release --quiet --offline \
  --manifest-path "$root/perfbench/Cargo.toml"
rev_bin="$tmp/target/release/hbo-perfbench"
work_bin="$root/.bench_build/release/hbo-perfbench"

results="$tmp/results.jsonl"
: > "$results"
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

python3 - "$results" "${rev:0:12}" "$seconds" <<'EOF'
import json
import random
import statistics
import sys

path, rev, seconds = sys.argv[1:4]
metrics = json.load(open("BENCHMARK.json"))["end_to_end"]
runs = {}
for line in open(path):
    r = json.loads(line)
    runs.setdefault(r["workload"], {}).setdefault(r["pair"], {})[r["side"]] = r["result"]

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
        ratios = [b / a for a, b in vals if a != 0]
        if ratios:
            lo, hi = median_ci(ratios)
            ratio = f"{statistics.median(ratios):.3f} [{lo:.3f}, {hi:.3f}]"
        else:
            ratio = "—"
        wins = sum(1 for a, b in vals if (b > a if higher else b < a))
        ties = sum(1 for a, b in vals if a == b)
        won = f"{wins}/{len(vals)}" + (f" ({ties} tied)" if ties else "")
        rev_side = summary([a for a, _ in vals])
        change_side = summary([b for _, b in vals])
        print(f"| {name} | {key} | {rev_side} | {change_side} | {ratio} | {won} |")
        name = ""
    print(f"| | correct | {ok['rev']}/{len(by_pair)} | {ok['change']}/{len(by_pair)} | | |")
sys.exit(status)
EOF
