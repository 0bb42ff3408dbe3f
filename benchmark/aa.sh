#!/usr/bin/env bash
# A/A calibration: run every workload RUNS times, twice over, on ONE build,
# and show how far two sets of runs of identical code disagree. Per pair the
# verdict is
#   ok     B's median no worse than A's by more than half the bound, and the
#          quartile spread within a third of the bound: the pair can gate;
#   wide   within the bound on both counts, so the driver accepts it, but
#          closer to the bound than a pair should sit;
#   NOISY  beyond the bound: more rounds or more work per repetition, or
#          demotion to a per-layer metric.
# setup_s is judged on its medians only, as the driver judges it. Beside each
# reported value, which is scaled to the host's nominal speed (host.go), the
# table shows what the same runs give as measured.
#
#   benchmark/aa.sh            # 5 runs per set, table on stdout
#   RUNS=10 benchmark/aa.sh    # the driver's own sample size
#   WRITE=1 benchmark/aa.sh    # also splice the table into benchmark/README.md
#
# Run from the repository root. Needs go and python3. Leaves its build and
# raw results under .bench_build/ and .bench_out/ (both git-ignored).
set -euo pipefail

RUNS=${RUNS:-5}
bin=.bench_build/benchmark
out=.bench_out/aa.jsonl
mkdir -p .bench_build .bench_out
go build -o "$bin" ./benchmark
: >"$out"

read -r seconds workloads < <(python3 -c '
import json
spec = json.load(open("BENCHMARK.json"))
print(spec["run_seconds"], " ".join(w["name"] for w in spec["workloads"]))')
seed=1000
for set in A B; do
  for w in $workloads; do
    for _ in $(seq "$RUNS"); do
      seed=$((seed + 1))
      lines=$("$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 2)
      printf '{"set":"%s","workload":"%s","seed":%d,"record":%s,"result":%s}\n' "$set" "$w" "$seed" \
        "$(head -n 1 <<<"$lines")" "$(tail -n 1 <<<"$lines")" >>"$out"
      echo "set $set $w seed $seed done" >&2
    done
  done
done

python3 - "$out" "${WRITE:-0}" <<'PY'
import json, statistics, sys

path, write = sys.argv[1], sys.argv[2] == "1"
spec = json.load(open("BENCHMARK.json"))
runs = [json.loads(l) for l in open(path)]
rows = ["| workload | metric | unit | bound | median A | median B | B vs A | IQR/median | min–max/median | as measured: B vs A | IQR/median | verdict |",
        "|---|---|---|---|---|---|---|---|---|---|---|---|"]


def compare(vals, better):
    """B's median against A's (positive: worse), the wider quartile spread of
    the two sets (taken inside a set, as the driver takes it), min–max."""
    a, b = statistics.median(vals["A"]), statistics.median(vals["B"])
    worse = (b - a) / a if better == "lower" else (a - b) / a
    iqr = max((q[2] - q[0]) / statistics.median(v)
              for v in vals.values() for q in [statistics.quantiles(v, n=4)])
    both = vals["A"] + vals["B"]
    return a, b, worse, iqr, (max(both) - min(both)) / statistics.median(both)


count = {"ok": 0, "wide": 0, "NOISY": 0}
for w in spec["workloads"]:
    for m in spec["end_to_end"]:
        mine = [r for r in runs if r["workload"] == w["name"]]
        vals = {s: [r["result"]["metrics"][m["name"]]["value"] for r in mine if r["set"] == s] for s in "AB"}
        raw = {s: [r["record"]["metrics"][m["name"]]["as_measured"] for r in mine if r["set"] == s] for s in "AB"}
        a, b, worse, iqr, rng = compare(vals, m["better"])
        _, _, raw_worse, raw_iqr, _ = compare(raw, m["better"])
        spread = 0 if m["name"] == "setup_s" else iqr
        if worse <= m["bound"] / 2 and spread <= m["bound"] / 3:
            verdict = "ok"
        elif worse <= m["bound"] and spread <= m["bound"]:
            verdict = "wide"
        else:
            verdict = "NOISY"
        count[verdict] += 1
        rows.append(f'| {w["name"]} | {m["name"]} | {m["unit"]} | {m["bound"]:.2f} | {a:.6g} | {b:.6g} | '
                    f'{worse:+.1%} | {iqr:.1%} | {rng:.1%} | {raw_worse:+.1%} | {raw_iqr:.1%} | {verdict} |')
table = "\n".join(rows)
print(table)
print(f'\n{count["ok"]} ok, {count["wide"]} wide, {count["NOISY"]} NOISY of {len(rows) - 2} pairs', file=sys.stderr)
slow = {s: statistics.median(r["record"]["host_slowdown"] for r in runs if r["set"] == s) for s in "AB"}
print(f'median host slowdown: set A {slow["A"]:.3f}, set B {slow["B"]:.3f}', file=sys.stderr)
if write:
    readme = "benchmark/README.md"
    text = open(readme).read()
    begin, end = "<!-- aa:begin -->", "<!-- aa:end -->"
    head, rest = text.split(begin)
    _, tail = rest.split(end)
    open(readme, "w").write(head + begin + "\n" + table + "\n" + end + tail)
PY
