#!/usr/bin/env bash
# Tier-1 verification gate. Run from the repo root:
#
#   scripts/ci.sh
#
# Mirrors what reviewers run by hand: formatting, a warnings-as-errors
# release build of every target, the full test suite, an explicit pass of
# the hermetic-dependency guard (the workspace must build with zero
# external crates), the benchmark package, and the daemon smoke gates.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== release build, warnings denied =="
# --workspace matters: from the root package, a bare `cargo build` only
# builds recloud-suite and its dependency *libraries* — the smoke gates
# below would then drive whatever stale `recloud`/`repro` binaries were
# left in target/release from an earlier build.
RUSTFLAGS="-D warnings" cargo build --release --workspace --all-targets

echo "== clippy, warnings denied =="
# Every lint clippy warns of by default fails the gate; an `#[allow]` in
# the tree carries a one-line reason next to it.
cargo clippy --workspace --all-targets -- -D warnings

echo "== examples =="
# --all-targets above compiles every example; this runs each once as
# built, so an example that panics fails here rather than only compiling
# (~1.5 s for all six).
for EXAMPLE in examples/*.rs; do
  NAME="$(basename "$EXAMPLE" .rs)"
  target/release/examples/"$NAME" > /dev/null \
    || { echo "examples gate: $NAME exited non-zero"; exit 1; }
done
echo "examples gate: every example ran to completion"

echo "== test suite (all workspace crates) =="
cargo test -q --workspace

echo "== sampling suite, release codegen =="
# The suite above runs unoptimised; the row writer the ledger measures is
# the optimised one. Its oracle and prefix tests run again as compiled.
cargo test --release -q -p recloud-sampling

echo "== faults suite, release codegen =="
# Likewise the float kernel behind every model seed: its bit-for-bit
# oracle against libm's draws, its error bound and its rounding-tie
# fallback run again as the ledger runs them.
cargo test --release -q -p recloud-faults

echo "== assess suite, release codegen =="
# And the table: a row a slot never materialised reads as the poison row
# (all-failed) in every build, so the cone guard, the allocation guard and
# the memory contract tests mean the same as compiled for the ledger.
cargo test --release -q -p recloud-assess

echo "== search answers on held-out tables, release codegen =="
# Ignored in the debug suite: the reported interval of 24 Medium searches
# (1-of-2, 2-of-3, 4-of-5; 8 seeds each) against a 600,000-round fresh
# re-assessment of the answer (a few seconds in release).
cargo test --release -q -p recloud-search --test holdout -- --ignored

echo "== hermetic dependency guard =="
cargo test -q --test hermetic

echo "== retired names gate =="
# Frames, setters and the codec that PR 15 took off the books stay off:
# nothing under crates/, src/, tests/ or examples/ may name them again
# (the protocol's own list of retired kinds is the one exception). So do
# the per-wide-word keyed router call and what hung off it, replaced by
# the chunk-level `external_reach_keyed` (PR 16): the "last border word
# built" special case, the whole-plan cone naming and the base-only flag.
# And the fault-tree evaluators nothing called (PR 21): the 64-lane one
# went with Word64, the matrix convenience never had a caller. And the
# 64-round width of the router and the checker (PR 22) — `Router` is the
# scalar reference plus the 256-lane kernel — with the failure explainer
# that never had a caller. And the second way to measure (PR 23): the
# `repro bench-*` subcommands, their checked-in JSONs and sampling knobs,
# and the instrument kill switch that existed to be measured — timings are
# taken in benchmark/, which this grep does not reach. And the sequential
# stopping wrapper: `Assessor::drive` with a CIW target is the one way to
# stop at a width. And the second copy of the §2.2 workflow — the `ReCloud`
# façade, its error and outcome types and `Requirements` — with the
# modules only a test called (migration, the Fig 5 template, the INDaaS
# risk counter, CVSS) and the searcher/assessor surface nobody called:
# every front door goes Engine → check_fits → ParallelSearcher. And the
# monolithic reactor the connection machine, dispatch and admission
# replaced: its second frame splitter, its five-level request path, its
# four connection flags and the config field that was only the idle tick
# (`read_timeout:` — std's `set_read_timeout` is a live call and stays).
# And the second warm start: the one-shot peer cache pull at bind (its two
# frames, client call, counters and `serve --peer`) — the store replay is
# the one warm start — with the timed compaction that bind-time compaction
# replaced and the `serve` flag no caller passed. And the frame that
# ranked candidate plans for a client that never came (`recloud compare`
# ranks them in process), with the per-connection job check the reactor
# swept for replies before worker frames came back on one queue. And the
# store's segment rotation — the store is one log file — with what only
# several segments needed, and public API nothing called: the RAII span
# timer, the journal's by-name record and bulk export, and three getters.
# And the hand-rolled MPMC channel and worker pool: std's mpsc and scoped
# threads carry every cross-thread queue. And the second K-of-N path: the
# router flag that chose between a count of reach words and the screened
# round loop, the per-wide-word counter beside the chunk kernel, and the
# scalar checker's K-of-N shortcut beside the fixpoint — every router
# answers K-of-N through `external_reach_keyed` and one counting kernel.
RETIRED='StatsResponse|SearchPlacement|set_batched|Word64|JobFrame|RCW1'
RETIRED="$RETIRED|begin_wide_keyed|border_of|border_ok_wide|pod_ext_wide|memo_row|name_cone|recheck_base"
RETIRED="$RETIRED|eval_word|eval_node_word|eval_matrix"
RETIRED="$RETIRED|begin_word|word_native|screen_word|screen_wide|baseline_external|baseline_connects"
RETIRED="$RETIRED|external_reach_word|connects_word|word_reliable|k_of_n_word|any_failed_word"
RETIRED="$RETIRED|explain_unreachable|diagnose_consistently"
RETIRED="$RETIRED|bench_assess|bench_serve|bench_search|BENCH_assess|BENCH_serve|BENCH_search"
RETIRED="$RETIRED|RECLOUD_BENCH_SAMPLES|RECLOUD_BENCH_WARMUP|set_enabled"
RETIRED="$RETIRED|assess_until|SequentialAssessment"
RETIRED="$RETIRED|ReCloud|DeployOutcome|DeployError|DeployResult|Requirements"
RETIRED="$RETIRED|MigrationObjective|MigrationBudget|migration_cost|Fig5Template"
RETIRED="$RETIRED|risk_profile|rank_by_risk|cvss_to_annual_probability"
RETIRED="$RETIRED|search_with_restarts|with_pool|assess_once|sampler_name"
RETIRED="$RETIRED|take_frame|TakenFrame|buffer_frame|flush_outbound|handle_request|handle_work"
RETIRED="$RETIRED|assess_job|prepare_assess|process_inbound|finish_inflight|drain_reply"
RETIRED="$RETIRED|mark_unwritable|peer_open|TenantState|conn_tenant|is_scan|read_timeout:"
RETIRED="$RETIRED|CacheSync|CacheSegment|cache_sync|pull_from_peer|MAX_SYNC_ENTRIES|synced_total"
RETIRED="$RETIRED|sync_served_total|compaction_tick|compact_held_since|compact_after|compact-after-ms"
RETIRED="$RETIRED|--poller"
RETIRED="$RETIRED|ComparePlans|CompareRequest|CompareResponse|CompareEntry|MAX_PLANS|has_job"
RETIRED="$RETIRED|segment_max_bytes|segment_paths|segments_dropped|segments_removed|CompactStats"
RETIRED="$RETIRED|parse_segment_id|list_segments|segment_file_name|sealed_bytes"
RETIRED="$RETIRED|SpanGuard|record_named|export_json_lines|chunks_fed|workload_mut|num_network_nodes"
RETIRED="$RETIRED|scoped_workers|recloud_sampling::sync"
RETIRED="$RETIRED|wide_native|k_of_n_wide|complex_round"
if grep -rnE "$RETIRED" crates/ src/ tests/ examples/ \
    | grep -vE '^crates/server/src/(protocol/tests\.rs|frame_table\.md):.*(SearchPlacement|CacheSync|CacheSegment|ComparePlans)'; then
  echo "retired names gate: a retired name is back (see above)"; exit 1
fi
echo "retired names gate: none survive"

echo "== benchmark package gate =="
# benchmark/ is its own workspace, so nothing above compiles it: a change
# to the surface it measures (benchmark/README.md, "The measured surface")
# would otherwise first fail in the driver's gate. Build it, run its unit
# tests, and run all five workloads briefly — the in-process fresh-seed
# one and held-table search, which between them take both sides of the
# router's digest memo; the two plain served ones, which live on the RCS1
# codec and the reactor; and the streaming daemon, whose every request
# carries a new model seed. Each run's ops_per_s, op_p50_us and
# peak_rss_mb are echoed for whoever reads the log (the harness keeps
# ~95 B per op resident, so assess_large_fresh trips its own 10 %
# peak_rss_mb bound near 2,580 ops/s). Each last stdout line must report
# "correct": true with "failed": 0: the workload's own post-checks hold,
# which for the fresh-seed one includes the untouched full-width unkeyed
# stage replay equalling Assessor::assess bit for bit, and for the served
# ones reconciling the daemon's counters with the client's tallies and
# recomputing answers in-process. The package is used as it is; the
# shared target directory only saves compiling the crates twice.
(
  export CARGO_TARGET_DIR="$PWD/target"
  cargo build --release --offline --manifest-path benchmark/Cargo.toml
  cargo test -q --offline --manifest-path benchmark/Cargo.toml
  for WORKLOAD in assess_large_fresh search_medium_crn serve_tiny_seeds serve_medium_plans \
      stream_medium_long; do
    BENCH_OUT="$(benchmark/run.sh --workload "$WORKLOAD" --seed 1 --seconds 2 --trace 0 | tail -n 1)"
    echo "$BENCH_OUT" | grep -Eq '"correct": ?true' && echo "$BENCH_OUT" | grep -Eq '"failed": ?0[,}]' \
      || { echo "benchmark gate: $WORKLOAD did not report correct with no failures"; echo "$BENCH_OUT"; exit 1; }
    # No threshold — the box drifts — but a 2x or a +2 MiB shows in the log.
    echo "benchmark gate: $WORKLOAD $(echo "$BENCH_OUT" \
      | grep -oE '"(ops_per_s|op_p50_us|peak_rss_mb)": ?\{"value": ?[0-9.e+-]+' \
      | sed -E 's/"([a-z0-9_]+)": ?\{"value": ?/\1=/' | tr '\n' ' ')"
  done
)
echo "benchmark gate: package builds, tests pass, replay agrees"

echo "== CLI bad-input gate =="
# Input the in-process commands once panicked on (exit 101) must be a clean
# error — exit status 1, stderr starting `error:` — through the release
# binary: a duplicate host, more instances than Tiny's 112 hosts, zero
# rounds, a topology generator dimension its `check` refuses. So must an
# integer that does not fit its flag (it once wrapped: k = 2^32 + 2 ran as
# 2-of-3), a flag the command does not read (it was ignored: `serve`
# would have started with a cold cache) and a flag given twice (the last
# value won without a word: `topo` described Small).
for ARGS in "assess --hosts 72,72 --k 1 --n 2" "search --n 200 --workers 2 --iters 5" \
    "compare --rounds 0" "assess --topology fattree --ports 3" "assess --k 4294967298 --n 3" \
    "serve --peer 127.0.0.1:1" "topo --scale tiny --scale small"; do
  STATUS=0
  # shellcheck disable=SC2086 # ARGS is split into words on purpose.
  ERR="$(target/release/recloud $ARGS 2>&1 >/dev/null)" || STATUS=$?
  [ "$STATUS" -eq 1 ] && [ "${ERR#error:}" != "$ERR" ] \
    || { echo "CLI bad-input gate: 'recloud $ARGS' exited $STATUS: $ERR"; exit 1; }
done
echo "CLI bad-input gate: bad input is an error, not a panic"

echo "== complex-structure smoke gate =="
# Layered and microservice specs on preset fat-trees (Tiny, Small) end in
# the checker's screened round-major fallback, which nothing else below
# drives through a release binary. Exit status and a table with no empty
# cell are enough; no timing threshold (~0.1 s).
FIG11_OUT="$(target/release/repro fig11 --quick)"
echo "$FIG11_OUT"
echo "$FIG11_OUT" | awk '/\[[0-9]+\]/ { rows++; if ($NF !~ /^[0-9.]+$/ && $0 !~ /n\/a \(exceeds hosts\)$/) bad++ }
  END { exit !(rows >= 14 && bad == 0) }' \
  || { echo "complex-structure gate: fig11 table is short or has an empty cell"; exit 1; }
echo "complex-structure gate: every structure assessed"

echo "== answers gate =="
# Bit-identical answers as one line per benchmark workload shape: an
# FNV-1a-64 digest over everything a caller sees of the first 64 ops'
# answers, run in-process with the workloads' own inputs (~1 s). A change
# that moves an answer on purpose re-pins crates/bench/answers.txt and
# says why.
ANSWERS_OUT="$(target/release/repro answers)"
echo "$ANSWERS_OUT"
diff <(echo "$ANSWERS_OUT") crates/bench/answers.txt \
  || { echo "answers gate: an answer moved (see the diff above)"; exit 1; }
echo "answers gate: every workload shape answers as pinned"

echo "== serve-frontier smoke gate =="
# The two serving measurements benchmark/ cannot own, through the release
# binary: four fleet sizes (1, 64, 256, 1000 idle loopback connections)
# each answering all 500 probe requests, and a hog tenant that was
# actually refused at budget 1. No timing threshold (~0.3 s). A retired
# subcommand must fail with the usage line, not run something else.
FRONTIER_OUT="$(target/release/repro serve-frontier --quick)"
echo "$FRONTIER_OUT"
echo "$FRONTIER_OUT" | awk '$NF == "us" && $1 ~ /^[0-9]+$/ { rows++; if ($2 != 500) bad++ }
  END { exit !(rows == 4 && bad == 0) }' \
  || { echo "serve-frontier gate: not four frontier rows of 500 ok"; exit 1; }
echo "$FRONTIER_OUT" | grep -Eq '^tenant isolation .*hog [0-9]+ served / [1-9][0-9]* busy$' \
  || { echo "serve-frontier gate: the hog was never refused"; exit 1; }
if RETIRED_OUT="$(target/release/repro bench-assess 2>&1)"; then
  echo "serve-frontier gate: repro bench-assess still exits 0"; exit 1
fi
echo "$RETIRED_OUT" | grep -q '^usage: repro ' \
  || { echo "serve-frontier gate: retired subcommand printed no usage line"; exit 1; }
echo "serve-frontier gate: frontier answered, hog refused, bench-* retired"

echo "== server smoke test =="
# Start the daemon on an ephemeral port, discover the port via
# --port-file, run the loadgen smoke sequence (Ping, a Tiny AssessPlan
# twice — the repeat must be a cache hit — a MetricsDump that counted the
# hit and every request, Shutdown), then assert the daemon exits cleanly
# on its own.
PORT_FILE="$(mktemp)"
rm -f "$PORT_FILE"
target/release/recloud serve --port 0 --port-file "$PORT_FILE" &
SERVER_PID=$!
# A failing gate must not orphan the daemon (it would hold the CI pipe
# open forever); the trap is cleared after the clean `wait` below.
trap 'kill "$SERVER_PID" 2>/dev/null || true' EXIT
for _ in $(seq 1 300); do
  [ -s "$PORT_FILE" ] && break
  sleep 0.1
done
[ -s "$PORT_FILE" ] || { echo "server never wrote its port file"; kill "$SERVER_PID"; exit 1; }
PORT="$(cat "$PORT_FILE")"
ADDR="127.0.0.1:$PORT"

echo "== metrics smoke gate =="
# Warm the daemon with a little real traffic, then require the
# observability layer to have seen it: `recloud stats --json` must show
# a non-zero request counter and a non-empty assess latency histogram,
# and `recloud journal` must return structured events. The loadgen
# smoke sequence below re-checks the same invariants in-process over a
# raw MetricsDump frame.
target/release/recloud loadgen --addr "$ADDR" --requests 8 --rounds 200
STATS_JSON="$(target/release/recloud stats --json --addr "$ADDR")"
echo "$STATS_JSON" | grep -q '"server.requests_total":[1-9]' \
  || { echo "metrics gate: requests_total is zero or missing"; kill "$SERVER_PID"; exit 1; }
echo "$STATS_JSON" | grep -q '"server.latency_us.assess":{"count":[1-9]' \
  || { echo "metrics gate: assess latency histogram is empty"; kill "$SERVER_PID"; exit 1; }
target/release/recloud journal --tail 16 --addr "$ADDR" | grep -q '"kind"' \
  || { echo "metrics gate: journal returned no events"; kill "$SERVER_PID"; exit 1; }
echo "metrics gate: instruments recorded real traffic"

echo "== large-scale assess smoke gate =="
# The wide-word kernel at benchmark scale: a short burst of Large [27072]
# AssessPlan requests through the live daemon (engine construction, the
# k = 48 analytic router, and the 256-lane route-and-check all on the
# serving path). Runs inside the daemon trap, so a failure here cannot
# orphan the server.
LARGE_OUT="$(target/release/recloud loadgen --addr "$ADDR" \
  --scale large --requests 4 --rounds 512)"
echo "$LARGE_OUT"
echo "$LARGE_OUT" | grep -q '^4 ok' \
  || { echo "large assess gate: not every request succeeded"; kill "$SERVER_PID"; exit 1; }
echo "$LARGE_OUT" | grep -q ' 0 errors' \
  || { echo "large assess gate: requests errored"; kill "$SERVER_PID"; exit 1; }
echo "large assess gate: Large [27072] served cleanly"

echo "== streaming smoke gate =="
# The RCS1 streaming path against the live daemon: a run-to-completion
# AssessStream whose final frame matches a cached plain replay, then a
# large stream stopped early at a target CIW — the daemon must count the
# cancel and journal the rounds it saved. Runs before the plain smoke,
# whose last step shuts the daemon down.
target/release/recloud loadgen --smoke --stream --addr "$ADDR"

echo "== connection-fleet smoke gate =="
# The reactor at production connection counts: 1000 concurrent
# connections held open by the single poll loop — a full streamed
# assessment and a cache-hit replay must flow over the fleet while it is
# attached, and the daemon must account for every socket in its
# connections_open gauge. Runs inside the daemon trap like the gates
# above.
target/release/recloud loadgen --connections 1000 --stream --smoke --addr "$ADDR"

echo "== search-stream smoke gate =="
# The SearchStream path end to end: a deterministic 2-chain parallel
# search on the live daemon must stream at least one per-chain
# trajectory line and finish with a plan summary.
SEARCH_OUT="$(target/release/recloud search --stream --addr "$ADDR" \
  --workers 2 --iters 40 --rounds 500 --k 2 --n 3)"
echo "$SEARCH_OUT" | grep -q '\[chain ' \
  || { echo "search-stream gate: no trajectory lines"; kill "$SERVER_PID"; exit 1; }
echo "$SEARCH_OUT" | grep -q 'streamed improvements' \
  || { echo "search-stream gate: missing final summary"; kill "$SERVER_PID"; exit 1; }
echo "search-stream gate: trajectories streamed"

echo "== trace smoke gate =="
# End-to-end request tracing: a traced streamed assessment must leave a
# single retrievable causal span tree on the daemon — `recloud trace`
# (TraceDump 0x0C, id 0 = latest finished) has to show the root and the
# pipeline stages on both sides of the wire, and the --chrome export
# must be valid Chrome trace-event JSON.
CHROME_JSON="$(mktemp)"
ASSESS_OUT="$(target/release/recloud assess --stream --addr "$ADDR" \
  --rounds 9000 --seed 271828 --k 2 --n 3)"
echo "$ASSESS_OUT" | grep -q 'reliability ' \
  || { echo "trace gate: streamed assess failed"; kill "$SERVER_PID"; exit 1; }
TRACE_ID="$(echo "$ASSESS_OUT" | sed -n 's/^trace \([0-9]*\);.*/\1/p')"
[ -n "$TRACE_ID" ] || { echo "trace gate: no trace id in assess output"; kill "$SERVER_PID"; exit 1; }
TRACE_OUT="$(target/release/recloud trace --addr "$ADDR" --id "$TRACE_ID" --chrome "$CHROME_JSON")"
echo "$TRACE_OUT" | head -n 8
for STAGE in client.request client.connect server.request queue.wait \
             cache.lookup worker.exec assess.chunk partial.emit; do
  echo "$TRACE_OUT" | grep -q "$STAGE" \
    || { echo "trace gate: stage $STAGE missing from span tree"; kill "$SERVER_PID"; exit 1; }
done
SPANS="$(echo "$TRACE_OUT" | sed -n 's/^trace [0-9]*: \([0-9]*\) spans.*/\1/p')"
[ "${SPANS:-0}" -ge 10 ] \
  || { echo "trace gate: only ${SPANS:-0} spans, expected >= 10"; kill "$SERVER_PID"; exit 1; }
python3 -m json.tool "$CHROME_JSON" > /dev/null \
  || { echo "trace gate: --chrome output is not valid JSON"; kill "$SERVER_PID"; exit 1; }
grep -q '"traceEvents"' "$CHROME_JSON" \
  || { echo "trace gate: chrome export has no traceEvents"; kill "$SERVER_PID"; exit 1; }
rm -f "$CHROME_JSON"
echo "trace gate: $SPANS-span causal tree retrieved and exported"

target/release/recloud loadgen --smoke --addr "$ADDR"   # ends with Shutdown
wait "$SERVER_PID"
trap - EXIT
rm -f "$PORT_FILE"
echo "server smoke: clean exit"

echo "== warm-start smoke gate =="
# The durable store end to end: populate a daemon running with --store,
# shut it down, restart on the same directory — the replayed log must
# warm the cache (store.replayed_total > 0) and the very first repeat of
# the populate request must be answered as a hit without a single cache
# miss, i.e. without touching the worker pool.
STORE_DIR="$(mktemp -d)"
PORT_FILE="$(mktemp)"
rm -f "$PORT_FILE"
target/release/recloud serve --port 0 --port-file "$PORT_FILE" --store "$STORE_DIR" &
SERVER_PID=$!
trap 'kill "$SERVER_PID" 2>/dev/null || true; rm -rf "$STORE_DIR"' EXIT
for _ in $(seq 1 300); do
  [ -s "$PORT_FILE" ] && break
  sleep 0.1
done
[ -s "$PORT_FILE" ] || { echo "warm-start gate: no port file (cold run)"; exit 1; }
ADDR="127.0.0.1:$(cat "$PORT_FILE")"
target/release/recloud loadgen --addr "$ADDR" --requests 4 --rounds 200
target/release/recloud loadgen --smoke --addr "$ADDR"   # ends with Shutdown
wait "$SERVER_PID"

rm -f "$PORT_FILE"
target/release/recloud serve --port 0 --port-file "$PORT_FILE" --store "$STORE_DIR" &
SERVER_PID=$!
for _ in $(seq 1 300); do
  [ -s "$PORT_FILE" ] && break
  sleep 0.1
done
[ -s "$PORT_FILE" ] || { echo "warm-start gate: no port file (warm run)"; exit 1; }
ADDR="127.0.0.1:$(cat "$PORT_FILE")"
STATS_JSON="$(target/release/recloud stats --json --addr "$ADDR")"
echo "$STATS_JSON" | grep -q '"store.replayed_total":[1-9]' \
  || { echo "warm-start gate: nothing replayed from the store"; exit 1; }
WARM_OUT="$(target/release/recloud loadgen --addr "$ADDR" --requests 1 --connections 1 --rounds 200)"
echo "$WARM_OUT" | grep -q '^1 ok (1 cached)' \
  || { echo "warm-start gate: replayed entry was not served as a hit"; echo "$WARM_OUT"; exit 1; }
target/release/recloud stats --json --addr "$ADDR" | grep -q '"server.cache_misses_total":0' \
  || { echo "warm-start gate: warm start reached the worker pool"; exit 1; }
target/release/recloud loadgen --smoke --addr "$ADDR"   # ends with Shutdown
wait "$SERVER_PID"
trap - EXIT
rm -f "$PORT_FILE"
rm -rf "$STORE_DIR"
echo "warm-start gate: restart served from the replayed log"

echo "ci: all gates passed"
