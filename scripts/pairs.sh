#!/usr/bin/env bash
# Alternating parent/change pairs of the repo's benchmark:
#
#   scripts/pairs.sh <parent-ref> <workload|all> [pairs=10] [seconds=15]
#
# Checks <parent-ref> out under target/pairs/parent (a `git archive`
# export: nothing is registered in .git and nothing needs pruning), then
# for each workload runs `benchmark/run.sh --workload W --seed i --seconds S
# --trace 0` i = 1..pairs times per side — the parent's run.sh in its own
# checkout and target directory, this tree's in this one — swapping which
# side goes first from pair to pair, both on the same seed. Prints, per
# end-to-end metric of BENCHMARK.json, each side's median and quartiles,
# the ratio of the medians, the pairs the change won (ties count for
# neither) and a verdict from one-sided sign tests over the pairs' ratios
# (change over parent, oriented so that above 1 is worse) at p <= 0.05:
#   worse past bound  ratio above 1 + bound in significantly many pairs
#   better            ratio below 1 in significantly many pairs
#   within bound      ratio below 1 + bound in significantly many pairs
#   unresolved        none of these (10 pairs need 9 on one side)
# The header says A/A when <parent-ref> is HEAD on a clean tree: both sides
# run the same code, so any verdict but "within bound" or "unresolved" is
# noise. Every run's result line is kept in target/pairs/<workload>.jsonl.
# Before the first pair, `repro answers` (one digest per workload shape) is
# built and run on both sides: "answers: same", or the shapes whose digest
# differs, or that the parent has no such subcommand.
# benchmark/ is used as it is; nothing is written under it.
set -euo pipefail
cd "$(dirname "$0")/.."

[ $# -ge 2 ] || { sed -n '2,4p' "$0"; exit 2; }
PARENT_REF="$1"
WORKLOADS="$2"
PAIRS="${3:-10}"
SECONDS_PER_RUN="${4:-15}"
[ "$WORKLOADS" = all ] && WORKLOADS="$(python3 -c '
import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')"

OUT="$PWD/target/pairs"
PARENT="$OUT/parent"
PARENT_COMMIT="$(git rev-parse --verify "$PARENT_REF^{commit}")"
MODE="change"
if [ "$PARENT_COMMIT" = "$(git rev-parse HEAD)" ] && [ -z "$(git status --porcelain)" ]; then
  MODE="A/A"
fi
if [ "$(cat "$PARENT/.pairs-commit" 2>/dev/null)" != "$PARENT_COMMIT" ]; then
  # Keep the parent's build directory across refs: cargo rebuilds what moved.
  find "$PARENT" -mindepth 1 -maxdepth 1 ! -name target -exec rm -rf {} + 2>/dev/null || true
  mkdir -p "$PARENT"
  git archive "$PARENT_COMMIT" | tar -x -C "$PARENT"
  echo "$PARENT_COMMIT" > "$PARENT/.pairs-commit"
fi

# `repro answers` of one side, built in its own checkout and target directory.
answers() { # <checkout>
  (cd "$1" && unset CARGO_TARGET_DIR && cargo build --release -q --offline -p recloud-bench --bin repro \
    && target/release/repro answers)
}
CHANGE_ANSWERS="$(answers "$PWD")"
if ! PARENT_ANSWERS="$(answers "$PARENT" 2>/dev/null)"; then
  echo "answers: the parent's \`repro answers\` did not build or run"
elif [ "$PARENT_ANSWERS" = "$CHANGE_ANSWERS" ]; then
  echo "answers: same"
else
  echo "answers: differ on $(comm -13 <(sort <<<"$PARENT_ANSWERS") <(sort <<<"$CHANGE_ANSWERS") \
    | cut -d' ' -f1 | tr '\n' ' ')"
fi

# One run of one side; prints the result line.
run_side() { # <checkout> <workload> <seed>
  (cd "$1" && unset CARGO_TARGET_DIR \
    && benchmark/run.sh --workload "$2" --seed "$3" --seconds "$SECONDS_PER_RUN" --trace 0 | tail -n 1)
}

for WORKLOAD in $WORKLOADS; do
  LOG="$OUT/$WORKLOAD.jsonl"
  : > "$LOG"
  for PAIR in $(seq 1 "$PAIRS"); do
    if [ $((PAIR % 2)) -eq 1 ]; then ORDER="parent change"; else ORDER="change parent"; fi
    for SIDE in $ORDER; do
      if [ "$SIDE" = parent ]; then CHECKOUT="$PARENT"; else CHECKOUT="$PWD"; fi
      RESULT="$(run_side "$CHECKOUT" "$WORKLOAD" "$PAIR")"
      echo "{\"side\": \"$SIDE\", \"pair\": $PAIR, \"result\": $RESULT}" >> "$LOG"
      echo "pair $PAIR $SIDE $WORKLOAD: $(echo "$RESULT" | cut -c1-120)..." >&2
    done
  done
  python3 - "$WORKLOAD" "$LOG" "$PARENT_COMMIT" "$MODE" <<'EOF'
import json, math, statistics, sys
workload, log, parent, mode = sys.argv[1:5]
runs = [json.loads(line) for line in open(log)]
bad = [r for r in runs if not r["result"]["correct"] or r["result"]["failed"]]
print(f"== {workload} ({mode}): {len(runs) // 2} pairs against {parent[:7]}, "
      f"{len(bad)} runs incorrect or with failed ops ==")
def significant(hits, n):
    # One-sided sign test: P(at least `hits` of `n` fair coin flips) <= 0.05.
    return n > 0 and sum(math.comb(n, j) for j in range(hits, n + 1)) / 2 ** n <= 0.05
def verdict(ratios, bound):
    n = len(ratios)
    if significant(sum(r > 1 + bound for r in ratios), n):
        return "worse past bound"
    if significant(sum(r < 1 for r in ratios), n):
        return "better"
    if significant(sum(r < 1 + bound for r in ratios), n):
        return "within bound"
    return "unresolved"
def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return q1, q2, q3
for metric in json.load(open("BENCHMARK.json"))["end_to_end"]:
    name, lower = metric["name"], metric["better"] == "lower"
    by_pair = {}
    for r in runs:
        value = r["result"]["metrics"].get(name, {}).get("value")
        if value is not None:
            by_pair.setdefault(r["pair"], {})[r["side"]] = value
    pairs = [p for p in by_pair.values() if len(p) == 2]
    if not pairs:
        continue
    old, new = [p["parent"] for p in pairs], [p["change"] for p in pairs]
    won = sum((p["change"] < p["parent"]) == lower and p["change"] != p["parent"] for p in pairs)
    lost = sum((p["change"] > p["parent"]) == lower and p["change"] != p["parent"] for p in pairs)
    (o1, o2, o3), (n1, n2, n3) = quartiles(old), quartiles(new)
    ratio = (o2 / n2 if lower else n2 / o2) if o2 and n2 else float("nan")
    worse = [(p["change"] / p["parent"] if lower else p["parent"] / p["change"])
             for p in pairs if p["parent"] > 0 and p["change"] > 0]
    print(f"{name:>22} [{metric['unit']}]  parent {o2:.6g} ({o1:.6g}..{o3:.6g})  "
          f"change {n2:.6g} ({n1:.6g}..{n3:.6g})  {ratio:.3f}x better  "
          f"won {won}/{len(pairs)} lost {lost}  bound {metric['bound']}  "
          f"verdict: {verdict(worse, metric['bound'])}")
    print(f"{'':>22}   parent runs {' '.join(f'{v:.6g}' for v in old)}")
    print(f"{'':>22}   change runs {' '.join(f'{v:.6g}' for v in new)}")
EOF
done
