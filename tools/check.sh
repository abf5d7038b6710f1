#!/usr/bin/env bash
# Full verification sweep for libwqe:
#   1. a source lint keeping chase-loop concerns inside the engine,
#      caller-side serial forks beside ParallelFor and throwing std::sto*
#      conversions out of the library;
#   2. default (Release, -Werror) build + the whole ctest suite;
#   3. the benchmark regression gate (quick mode, warm cache) against the
#      committed BENCH_BASELINE.json, plus an injected-slowdown self-test
#      proving the gate actually fails on a 2x regression;
#   4. a record->replay serving smoke: a short trace fed back through
#      wqe_serve --strict, proving concurrent answers stay byte-identical
#      and the open-loop pacer never offers above the requested rate;
#   5. a telemetry smoke: the same trace replayed with the HTTP exposition
#      listener up, /statusz + /metricsz + /requestz scraped over real HTTP,
#      their counts cross-checked against the replay client's own totals,
#      and wqe_top --once rendered against the lingering server;
#   6. a bundle serving stage: the same trace replayed --strict from a heap
#      build (no store) and from the mmap bundle (byte-identity across the
#      two), then two concurrent wqe_serve processes sharing one bundle file;
#   7. an Address+UndefinedBehaviorSanitizer build running the whole suite
#      (including the bundle fault-injection tests in mmap_store_test and
#      bundle_mutation_test);
#   8. a ThreadSanitizer build (WQE_SANITIZE=thread) running the tests that
#      exercise the parallel evaluation layer (the star materializer's
#      4-thread path included, via the star-view oracle, and the matcher's
#      forward-checked search, via its property tests), the serving layer,
#      and the telemetry structures (sliding windows, flight recorder, scope
#      folds).
# Usage: tools/check.sh [jobs]   (jobs defaults to nproc)
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"

echo "== engine lint =="
# The Q-Chase engine (src/chase/engine.{h,cc}) owns ALL chase-loop deadline
# polling and budget-epsilon arithmetic. Solver bundles must route through
# DeadlineGovernor / engine::WithinBudget / engine::kEps — a direct deadline
# check or a hand-rolled epsilon comparison in src/chase is a regression to
# the seven-copies era.
LINT_FAIL=0
for pattern in '\.Expired\(' 'ThrowIfExpired' 'DeadlineGovernor' \
               'budget \+' '1e-9'; do
  if hits=$(grep -rnE "$pattern" src/chase \
      --include='*.cc' --include='*.h' \
      --exclude='engine.h' --exclude='engine.cc'); then
    echo "lint: forbidden pattern '$pattern' outside chase/engine:"
    echo "$hits"
    LINT_FAIL=1
  fi
done
# The evaluate step is the engine's second owned concern: solver policy
# bundles must obtain match sets through ChaseContext::Evaluate (the one
# front door, which the engine installs with each child offered as a delta),
# never by calling Matcher::Answer or StarMatcher::Evaluate directly — a
# direct call bypasses the memo, the delta path, and the evaluation stats,
# so its work escapes the counters and the oracle tests (delta_eval_test)
# that pin the engine's answers.
for pattern in '\.Answer\(' 'star_matcher[_()]*\.Evaluate\('; do
  if hits=$(grep -rnE "$pattern" src/chase \
      --include='*.cc' --include='*.h' \
      --exclude='engine.h' --exclude='engine.cc' \
      --exclude='eval.h' --exclude='eval.cc'); then
    echo "lint: forbidden pattern '$pattern' outside the evaluate step:"
    echo "$hits"
    LINT_FAIL=1
  fi
done
# The compiled match pipeline (src/match/filter_plan.{h,cc}) owns ALL
# per-node candidate probing outside src/match: chase-layer code must go
# through compiled FilterPlans (plan.Admits / match::LiteralHolds) or the
# StarMatcher candidate stages — a raw IsCandidate / per-literal
# Literal::Matches probe re-interprets the filter per node and silently
# bypasses the plan memo, the stage counters, and the merged-walk kernels.
for pattern in 'IsCandidate\(' 'ComputeCandidates\(' 'AllCandidates\(' \
               'SortedDifference\(' 'SortedUnion\(' '\.Matches\('; do
  if hits=$(grep -rnE "$pattern" src/chase \
      --include='*.cc' --include='*.h'); then
    echo "lint: forbidden pattern '$pattern' in src/chase (use the compiled"
    echo "      match pipeline: FilterPlan::Admits / match::LiteralHolds /"
    echo "      StarMatcher::FocusCandidates / match::CandidateSet kernels):"
    echo "$hits"
    LINT_FAIL=1
  fi
done
# ParallelFor runs a one-slot loop inline on the calling thread, so it is
# the serial path too: a caller-side `if (threads <= 1 || ...)` fork is a
# second copy of its loop body that the multi-thread tests never run.
if hits=$(grep -rnE 'threads <= 1 \|\|' src --include='*.cc' --include='*.h'); then
  echo "lint: caller-side serial fork in src (call ParallelFor or"
  echo "      Matcher::ShardProbes unconditionally; one slot runs inline):"
  echo "$hits"
  LINT_FAIL=1
fi
# The library reports bad external bytes (graph, query, exemplar and log
# text) as a Status and never lets an exception escape: parse numbers with
# std::from_chars (common/text_parse.h), not the throwing std::sto* family.
if hits=$(grep -rnE 'std::sto[a-z]*\(' src --include='*.cc' --include='*.h'); then
  echo "lint: throwing std::sto* conversion in src (use ParseU32 / ParseDouble"
  echo "      from common/text_parse.h and return a Status):"
  echo "$hits"
  LINT_FAIL=1
fi
[ "$LINT_FAIL" -eq 0 ] || { echo "engine lint failed"; exit 1; }
echo "engine lint clean"

echo "== default build =="
cmake -B build -S . -DWQE_WERROR=ON >/dev/null
cmake --build build -j "$JOBS"
(cd build && ctest --output-on-failure)

echo "== benchmark regression gate (quick mode) =="
GATE_TMP="$(mktemp -d)"
trap 'rm -rf "$GATE_TMP"' EXIT
GATE_CACHE="${WQE_CACHE_DIR:-$GATE_TMP/cache}"
# Warm-up pass populates the artifact store (persisted star views and the
# cold-start bundle) so the gated run measures warm solves; then the real
# run compares against the committed baseline.
./build/tools/bench_gate --label=warm --repeat=1 --cache-dir="$GATE_CACHE" \
  --out-dir="$GATE_TMP" --baseline=BENCH_BASELINE.json >/dev/null
./build/tools/bench_gate --label=check --repeat=5 --cache-dir="$GATE_CACHE" \
  --out-dir="$GATE_TMP" --baseline=BENCH_BASELINE.json
# Self-test: an injected 2x slowdown must FAIL the gate (exit 1).
if ./build/tools/bench_gate --label=selftest --repeat=1 \
  --cache-dir="$GATE_CACHE" --out-dir="$GATE_TMP" \
  --baseline=BENCH_BASELINE.json \
  --inject-slowdown=fig10a_quick:2.0 >/dev/null; then
  echo "gate self-test: injected slowdown was NOT caught"; exit 1
fi
echo "gate self-test: injected 2x slowdown correctly failed the gate"

echo "== serving replay smoke =="
# Record a short sequential trace, then replay it concurrently under load:
# --strict fails on any answer mismatch or request failure, so this proves
# the serving layer's byte-identity contract end to end on every run.
SERVE_TMP="$(mktemp -d)"
trap 'rm -rf "$SERVE_TMP" "$GATE_TMP"' EXIT
./build/tools/wqe gen imdb 0.05 "$SERVE_TMP/g.graph" >/dev/null
./build/tools/replay record "$SERVE_TMP/g.graph" "$SERVE_TMP/trace.jsonl" \
  --queries 4 >/dev/null
SERVE_OUT="$(./build/tools/wqe_serve "$SERVE_TMP/g.graph" \
  "$SERVE_TMP/trace.jsonl" --qps 100 --concurrency 4 --repeat 3 --strict)"
# Absolute-deadline pacing can lag a saturated box but can never send
# early: the offered (achieved arrival) rate must not exceed the requested
# rate beyond rounding.
OFFERED="$(printf '%s\n' "$SERVE_OUT" | sed -n 's/.*offered \([0-9.]*\) q\/s.*/\1/p')"
[ -n "$OFFERED" ] || { echo "replay smoke: no offered-rate stat in output"; exit 1; }
awk -v o="$OFFERED" 'BEGIN { exit !(o > 0 && o <= 101.0) }' || {
  echo "replay smoke: offered rate $OFFERED q/s outside (0, 101]"; exit 1; }
echo "replay smoke: strict concurrent replay reproduced the trace (offered $OFFERED q/s <= requested 100)"

echo "== telemetry smoke =="
# The same trace with the exposition listener up: wqe_serve self-scrapes
# /statusz, /metricsz, and /requestz over real HTTP after the replay, and
# the exposed counts must agree with the totals the process itself reports.
TEL_OUT="$(./build/tools/wqe_serve "$SERVE_TMP/g.graph" \
  "$SERVE_TMP/trace.jsonl" --concurrency 4 --repeat 3 --strict \
  --telemetry-port 0 --port-file "$SERVE_TMP/port" \
  --scrape-dir "$SERVE_TMP")"
for f in port statusz.json metricsz.txt requestz.json; do
  [ -s "$SERVE_TMP/$f" ] || { echo "telemetry smoke: missing $f"; exit 1; }
done
SRV_COMPLETED="$(printf '%s\n' "$TEL_OUT" | \
  sed -n 's/.*completed \([0-9]*\),.*/\1/p')"
SRV_SHED="$(printf '%s\n' "$TEL_OUT" | sed -n 's/.*shed \([0-9]*\),.*/\1/p')"
[ -n "$SRV_COMPLETED" ] && [ -n "$SRV_SHED" ] || {
  echo "telemetry smoke: no server totals in wqe_serve output"; exit 1; }
Z_COMPLETED="$(sed -n 's/.*"completed":\([0-9]*\).*/\1/p' "$SERVE_TMP/statusz.json")"
Z_SHED="$(sed -n 's/.*"shed":\([0-9]*\).*/\1/p' "$SERVE_TMP/statusz.json")"
[ "$Z_COMPLETED" = "$SRV_COMPLETED" ] || {
  echo "telemetry smoke: /statusz completed=$Z_COMPLETED but server counted $SRV_COMPLETED"; exit 1; }
[ "$Z_SHED" = "$SRV_SHED" ] || {
  echo "telemetry smoke: /statusz shed=$Z_SHED but server counted $SRV_SHED"; exit 1; }
grep -q "^wqe_serve_completed $SRV_COMPLETED\$" "$SERVE_TMP/metricsz.txt" || {
  echo "telemetry smoke: /metricsz wqe_serve_completed disagrees with $SRV_COMPLETED"; exit 1; }
grep -q '"recorded":'"$SRV_COMPLETED" "$SERVE_TMP/requestz.json" || {
  echo "telemetry smoke: /requestz recorded count disagrees with $SRV_COMPLETED"; exit 1; }
# Live-process path: a lingering server scraped by wqe_top --once, plus the
# SIGUSR1 flight dump consumed by the listener's idle hook.
rm -f "$SERVE_TMP/port"
./build/tools/wqe_serve "$SERVE_TMP/g.graph" "$SERVE_TMP/trace.jsonl" \
  --concurrency 4 --strict --telemetry-port 0 \
  --port-file "$SERVE_TMP/port" --linger 15 \
  >"$SERVE_TMP/linger.out" 2>"$SERVE_TMP/linger.err" &
PID_SERVE=$!
for _ in $(seq 100); do [ -s "$SERVE_TMP/port" ] && break; sleep 0.1; done
[ -s "$SERVE_TMP/port" ] || { echo "telemetry smoke: no port file"; exit 1; }
TEL_PORT="$(cat "$SERVE_TMP/port")"
TOP_OUT="$(./build/tools/wqe_top --port "$TEL_PORT" --once)"
printf '%s\n' "$TOP_OUT" | grep -q "completed" || {
  echo "telemetry smoke: wqe_top --once rendered nothing useful"; exit 1; }
kill -USR1 "$PID_SERVE"
sleep 1
kill "$PID_SERVE" 2>/dev/null || true
wait "$PID_SERVE" 2>/dev/null || true
grep -q "flight recorder dump" "$SERVE_TMP/linger.err" || {
  echo "telemetry smoke: SIGUSR1 produced no flight dump"; exit 1; }
echo "telemetry smoke: /statusz+/metricsz+/requestz agree (completed $SRV_COMPLETED, shed $SRV_SHED); wqe_top and SIGUSR1 dump OK"

echo "== bundle serving =="
# Byte-identity across storage: the SAME recorded trace must replay --strict
# both from a heap build (no --cache-dir) and from the mmap bundle (the first
# --cache-dir run builds bundle.wqes and serves from its mapping).
./build/tools/wqe_serve "$SERVE_TMP/g.graph" "$SERVE_TMP/trace.jsonl" \
  --strict >/dev/null
./build/tools/wqe_serve "$SERVE_TMP/g.graph" "$SERVE_TMP/trace.jsonl" \
  --cache-dir "$SERVE_TMP/cache" --strict >/dev/null
[ -f "$SERVE_TMP"/cache/fp-*/bundle.wqes ] || {
  echo "bundle serving: no bundle written"; exit 1; }
# Two concurrent serving processes sharing the one bundle file: both must
# replay strictly clean while mapping the same physical bytes.
./build/tools/wqe_serve "$SERVE_TMP/g.graph" "$SERVE_TMP/trace.jsonl" \
  --cache-dir "$SERVE_TMP/cache" --strict >/dev/null &
PID_A=$!
./build/tools/wqe_serve "$SERVE_TMP/g.graph" "$SERVE_TMP/trace.jsonl" \
  --cache-dir "$SERVE_TMP/cache" --strict >/dev/null &
PID_B=$!
wait "$PID_A" || { echo "bundle serving: concurrent process A failed"; exit 1; }
wait "$PID_B" || { echo "bundle serving: concurrent process B failed"; exit 1; }
echo "bundle serving: heap and bundle replays byte-identical; two processes shared one bundle"

echo "== Address+UB Sanitizer build =="
cmake -B build-asan -S . -DWQE_SANITIZE=address,undefined \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
cmake --build build-asan -j "$JOBS"
(cd build-asan && ctest --output-on-failure)

echo "== corrupted-cache drill (ASan build) =="
# Populate a persistent artifact store, flip a byte in every snapshot, and
# re-run: the store must reject the damaged files and rebuild cleanly —
# no crash, no ASan report, answers still produced.
DRILL="$(mktemp -d)"
trap 'rm -rf "$DRILL" "$SERVE_TMP" "$GATE_TMP"' EXIT
./build-asan/tools/wqe demo "$DRILL" >/dev/null
# The store writes the bundle and the star views; the drill covers both,
# including the mmap'd read path under ASan.
./build-asan/tools/wqe why "$DRILL/product.graph" "$DRILL/product.query" \
  "$DRILL/product.exemplar" --cache-dir "$DRILL/cache" >/dev/null
SNAPSHOTS=$(find "$DRILL/cache" -name '*.wqes' | wc -l)
[ "$SNAPSHOTS" -gt 1 ] || { echo "drill: no snapshots written"; exit 1; }
find "$DRILL/cache" -name 'bundle.wqes' | grep -q . || {
  echo "drill: no bundle written"; exit 1; }
find "$DRILL/cache" -name '*.wqes' | while read -r f; do
  printf '\x5a' | dd of="$f" bs=1 seek=50 count=1 conv=notrunc status=none
done
./build-asan/tools/wqe why "$DRILL/product.graph" "$DRILL/product.query" \
  "$DRILL/product.exemplar" --cache-dir "$DRILL/cache" >/dev/null
echo "drill: $SNAPSHOTS snapshots corrupted, rebuild survived"
# --explain and the query-log line render the solve's one record: their
# view, store and delta tallies must be the same numbers.
./build-asan/tools/wqe why "$DRILL/product.graph" "$DRILL/product.query" \
  "$DRILL/product.exemplar" --cache-dir "$DRILL/cache" --explain \
  --query-log "$DRILL/query.jsonl" >"$DRILL/explain.txt"
logged() {
  for f in "$@"; do
    sed -n "s/.*\"$f\":\([0-9]*\).*/\1/p" "$DRILL/query.jsonl"
  done | paste -sd' '
}
EXPLAIN_VIEWS="$(sed -n 's/^  views: cache \([0-9]*\) hit \/ \([0-9]*\) miss, \([0-9]*\) tables built | store \([0-9]*\) hit \/ \([0-9]*\) miss$/\1 \2 \3 \4 \5/p' "$DRILL/explain.txt")"
EXPLAIN_DELTA="$(sed -n 's/^  delta: \([0-9]*\) incremental \/ \([0-9]*\) full, \([0-9]*\) bound cuts$/\1 \2 \3/p' "$DRILL/explain.txt")"
EXPLAIN_RULES="$(sed -n 's/^  delta rules: refine \([0-9]*\) \/ relax \([0-9]*\) \/ focus_literal \([0-9]*\) \/ literal_family \([0-9]*\)$/\1 \2 \3 \4/p' "$DRILL/explain.txt")"
LOG_VIEWS="$(logged cache_hits cache_misses tables_built store_hits store_misses)"
LOG_DELTA="$(logged delta_hits delta_full_fallbacks bound_cuts)"
LOG_RULES="$(logged delta_refine delta_relax delta_focus_literal delta_literal_family)"
[ -n "$EXPLAIN_VIEWS" ] && [ "$EXPLAIN_VIEWS" = "$LOG_VIEWS" ] || {
  echo "drill: explain views '$EXPLAIN_VIEWS' != query-log line '$LOG_VIEWS'"; exit 1; }
[ -n "$EXPLAIN_DELTA" ] && [ "$EXPLAIN_DELTA" = "$LOG_DELTA" ] || {
  echo "drill: explain delta '$EXPLAIN_DELTA' != query-log line '$LOG_DELTA'"; exit 1; }
[ -n "$EXPLAIN_RULES" ] && [ "$EXPLAIN_RULES" = "$LOG_RULES" ] || {
  echo "drill: explain delta rules '$EXPLAIN_RULES' != query-log line '$LOG_RULES'"; exit 1; }
echo "drill: explain and query-log line agree (views $EXPLAIN_VIEWS; delta $EXPLAIN_DELTA; rules $EXPLAIN_RULES)"

echo "== ThreadSanitizer build =="
cmake -B build-tsan -S . -DWQE_SANITIZE=thread \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
cmake --build build-tsan -j "$JOBS" --target \
  thread_pool_test parallel_determinism_test matcher_test \
  matcher_property_test star_matcher_test star_table_test \
  distance_index_test answ_test delta_eval_test delta_rules_test serve_test \
  obs_test telemetry_test
(cd build-tsan && ctest --output-on-failure -R \
  'ThreadPool|ParallelFor|PerThread|ParallelDeterminism|Matcher|ForwardCheck|StarMatcher|StarTableOracle|DistanceIndex|AnsW|DeltaEval|Serve|ObsFold|SlidingHistogram|FlightRecorder|TelemetryServer')

echo "== all checks passed =="
