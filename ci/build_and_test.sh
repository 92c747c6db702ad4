#!/usr/bin/env bash
# Tier-1 verification as one script: configure + build + ctest + bench
# golden diff, with warnings treated as errors. Exits non-zero on any
# failure.
#
# Usage: ci/build_and_test.sh [--update-goldens] [build-dir]
#   (default build-dir: build)
#
# The golden step runs the deterministic evaluation benches (table03/04 and
# every fig*/ablation program — all verified deterministic in --fast scope;
# none had to be skipped) and diffs their output against
# bench/goldens/*.txt, so estimator-accuracy regressions fail CI instead of
# surfacing in a paper comparison later. Wall-clock runtime numbers
# (table04's payload) are normalized to <runtime> before diffing — the
# goldens pin table/figure structure and estimator output, not timings.
# After an intentional accuracy change, regenerate with --update-goldens and
# commit the new goldens alongside the change.
#
# The sweep/plan smoke steps feed ci/fixtures/{sweep,plan}_request.json
# through `xmem sweep`/`xmem plan` with --no-timings and diff the JSON
# reports against ci/fixtures/{sweep,plan}_report.json (schema + payload
# pinned; wall-clock fields stripped), then assert the profile-once
# contract via each report's stage counters. The sweep fixture includes the
# knobbed cub-binned backend with an explicit allocator_config block, so
# the knob plumbing (request JSON -> registry factory -> replay tower) is
# golden-diffed end to end. The plan smoke is a refine
# smoke: the fixture enables refine_top_k, so the report must show exactly
# one CPU profile AND a nonzero replayed_candidates counter (the two-phase
# search ran, still off one profile), plus at least one verdict_changed
# replay (the fidelity gain over the analytic model). The negative smoke
# feeds every ci/fixtures/bad_*.json through `xmem sweep` — except the
# plan-shaped bad_refine*/bad_overlap/bad_plan_* fixtures, which go
# through `xmem plan`, and bad_fleet.json, which goes through
# `xmem fleet` — and requires a nonzero exit.
#
# The serve smoke (bottom of the file) boots the `xmem serve` daemon and
# proves the process boundary is invisible: `xmem request` replies diff
# byte-identical against the same offline goldens, twin requests coalesce,
# the bad_frame.bin raw fixture is rejected without killing the daemon, and
# both shutdown paths (SIGTERM, `xmem request --shutdown`) drain cleanly.
# bench_server (in the golden loop above) pins the load-generator counters;
# its requests/sec and latency numbers are normalized to <runtime>. The
# registry churn smoke runs micro_allocator's BM_RegistryChurn briefly so
# the shared allocator core sees a large unbounded live set on every
# backend; the trace codec smoke runs micro_pipeline's trace JSON write and
# parse benches and one end-to-end estimate the same way.
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
UPDATE_GOLDENS=0
BUILD_DIR=""
for arg in "$@"; do
  case "${arg}" in
    --update-goldens) UPDATE_GOLDENS=1 ;;
    -*) echo "unknown flag: ${arg}" >&2; exit 1 ;;
    *) BUILD_DIR="${arg}" ;;
  esac
done
BUILD_DIR="${BUILD_DIR:-${REPO_ROOT}/build}"
GOLDEN_DIR="${REPO_ROOT}/bench/goldens"
JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

cmake -B "${BUILD_DIR}" -S "${REPO_ROOT}" -DXMEM_WERROR=ON
cmake --build "${BUILD_DIR}" -j "${JOBS}"
ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "${JOBS}"

# --- bench goldens ---------------------------------------------------------

# Strip nondeterministic values: any 6-decimal float is a wall-clock
# reading (the %f runtimes of table04); everything else in the tables is a
# deterministic product of the seeded Monte Carlo runs.
normalize() {
  sed -E 's/[0-9]+\.[0-9]{6}/<runtime>/g'
}

GOLDEN_FAILED=0
for bench in table03_mcp table04_runtime \
             fig01_zero_grad_placement fig03_sequence_impact \
             fig06_simulator_validation fig07_mre_distributions \
             fig08_quadrant fig09_large_models fig_distributed_planner \
             ablation_orchestrator bench_server bench_fleet; do
  golden="${GOLDEN_DIR}/${bench}.txt"
  actual="$(mktemp)"
  "${BUILD_DIR}/bench/${bench}" --fast | normalize > "${actual}"
  if [[ "${UPDATE_GOLDENS}" == "1" ]]; then
    mkdir -p "${GOLDEN_DIR}"
    cp "${actual}" "${golden}"
    echo "updated ${golden}"
  elif [[ ! -f "${golden}" ]]; then
    echo "MISSING GOLDEN: ${golden} (run ci/build_and_test.sh --update-goldens)" >&2
    GOLDEN_FAILED=1
  elif ! diff -u "${golden}" "${actual}" > /dev/null; then
    echo "GOLDEN MISMATCH: ${bench} (estimator output changed)" >&2
    diff -u "${golden}" "${actual}" >&2 || true
    echo "If intentional, regenerate: ci/build_and_test.sh --update-goldens" >&2
    GOLDEN_FAILED=1
  else
    echo "golden ok: ${bench}"
  fi
  rm -f "${actual}"
done

# --- xmem sweep smoke ------------------------------------------------------

FIXTURE_DIR="${REPO_ROOT}/ci/fixtures"
sweep_golden="${FIXTURE_DIR}/sweep_report.json"
sweep_actual="$(mktemp)"
"${BUILD_DIR}/src/xmem_cli" sweep "${FIXTURE_DIR}/sweep_request.json" \
  --no-timings > "${sweep_actual}"
if ! grep -q '"profiles_run": 1,' "${sweep_actual}"; then
  echo "SWEEP SMOKE: expected exactly one CPU profile in stage_counters" >&2
  GOLDEN_FAILED=1
fi
if [[ "${UPDATE_GOLDENS}" == "1" ]]; then
  cp "${sweep_actual}" "${sweep_golden}"
  echo "updated ${sweep_golden}"
elif ! diff -u "${sweep_golden}" "${sweep_actual}" > /dev/null; then
  echo "SWEEP SMOKE MISMATCH: report schema or payload changed" >&2
  diff -u "${sweep_golden}" "${sweep_actual}" >&2 || true
  echo "If intentional, regenerate: ci/build_and_test.sh --update-goldens" >&2
  GOLDEN_FAILED=1
else
  echo "sweep smoke ok"
fi
rm -f "${sweep_actual}"

# --- xmem sweep curve smoke ------------------------------------------------
# The report branches the sweep golden does not reach: a reserved_curve per
# entry (curve: true) and a supported=false entry (LLMem on a CNN).

curve_golden="${FIXTURE_DIR}/sweep_report_curve.json"
curve_actual="$(mktemp)"
"${BUILD_DIR}/src/xmem_cli" sweep "${FIXTURE_DIR}/sweep_request_curve.json" \
  --no-timings > "${curve_actual}"
if [[ "${UPDATE_GOLDENS}" == "1" ]]; then
  cp "${curve_actual}" "${curve_golden}"
  echo "updated ${curve_golden}"
elif ! diff -u "${curve_golden}" "${curve_actual}" > /dev/null; then
  echo "SWEEP CURVE SMOKE MISMATCH: report schema or payload changed" >&2
  diff -u "${curve_golden}" "${curve_actual}" >&2 || true
  echo "If intentional, regenerate: ci/build_and_test.sh --update-goldens" >&2
  GOLDEN_FAILED=1
else
  echo "sweep curve smoke ok"
fi
rm -f "${curve_actual}"

# --- xmem plan smoke -------------------------------------------------------

plan_golden="${FIXTURE_DIR}/plan_report.json"
plan_actual="$(mktemp)"
"${BUILD_DIR}/src/xmem_cli" plan "${FIXTURE_DIR}/plan_request.json" \
  --no-timings > "${plan_actual}"
if ! grep -q '"profiles_run": 1,' "${plan_actual}"; then
  echo "PLAN SMOKE: the whole plan search must run exactly one CPU profile" >&2
  GOLDEN_FAILED=1
fi
if ! grep -qE '"replayed_candidates": [1-9]' "${plan_actual}"; then
  echo "PLAN SMOKE: refine phase must replay a nonzero candidate count" >&2
  GOLDEN_FAILED=1
fi
if ! grep -q '"verdict_changed": true' "${plan_actual}"; then
  echo "PLAN SMOKE: expected a replayed verdict differing from the analytic one" >&2
  GOLDEN_FAILED=1
fi
if [[ "${UPDATE_GOLDENS}" == "1" ]]; then
  cp "${plan_actual}" "${plan_golden}"
  echo "updated ${plan_golden}"
elif ! diff -u "${plan_golden}" "${plan_actual}" > /dev/null; then
  echo "PLAN SMOKE MISMATCH: plan report schema or payload changed" >&2
  diff -u "${plan_golden}" "${plan_actual}" >&2 || true
  echo "If intentional, regenerate: ci/build_and_test.sh --update-goldens" >&2
  GOLDEN_FAILED=1
else
  echo "plan smoke ok"
fi
rm -f "${plan_actual}"

# --- xmem plan overlap-window smoke ----------------------------------------
# The same straddle fixture with comm_overlap on: collectives replay as
# schedule-tied windows and the refined prefix is re-ranked by the
# window-replayed peaks. The golden pins the re-ranked order plus the
# window-vs-resident columns; the greps pin that the re-ranking actually
# moved candidates and that the search still ran exactly one CPU profile.

overlap_golden="${FIXTURE_DIR}/plan_report_overlap.json"
overlap_actual="$(mktemp)"
"${BUILD_DIR}/src/xmem_cli" plan "${FIXTURE_DIR}/plan_request_overlap.json" \
  --no-timings > "${overlap_actual}"
if ! grep -q '"profiles_run": 1,' "${overlap_actual}"; then
  echo "OVERLAP SMOKE: the window-mode search must run exactly one CPU profile" >&2
  GOLDEN_FAILED=1
fi
if ! grep -qE '"rerank_changed": [1-9]' "${overlap_actual}"; then
  echo "OVERLAP SMOKE: window replay must re-rank at least one candidate" >&2
  GOLDEN_FAILED=1
fi
if ! grep -q '"comm_overlap": true' "${overlap_actual}"; then
  echo "OVERLAP SMOKE: report must echo the comm_overlap flag" >&2
  GOLDEN_FAILED=1
fi
if grep -q '"comm_overlap"' "${plan_golden}"; then
  echo "OVERLAP SMOKE: resident-mode golden must not carry window-mode keys" >&2
  GOLDEN_FAILED=1
fi
if [[ "${UPDATE_GOLDENS}" == "1" ]]; then
  cp "${overlap_actual}" "${overlap_golden}"
  echo "updated ${overlap_golden}"
elif ! diff -u "${overlap_golden}" "${overlap_actual}" > /dev/null; then
  echo "OVERLAP SMOKE MISMATCH: window-mode report schema or payload changed" >&2
  diff -u "${overlap_golden}" "${overlap_actual}" >&2 || true
  echo "If intentional, regenerate: ci/build_and_test.sh --update-goldens" >&2
  GOLDEN_FAILED=1
else
  echo "plan overlap smoke ok"
fi
rm -f "${overlap_actual}"

# --- xmem plan full-search smoke -------------------------------------------
# The overlap fixture again with --refine-all: every enumerated
# decomposition replays, which is only affordable because symmetric ranks
# collapse onto shared replays and each distinct stage replays once. The
# golden pins the whole report, counters included; the greps name what
# matters: still exactly one CPU profile, a nonzero replays_deduped
# proving the collapse fired on the full search, and replayed_candidates
# == candidates_evaluated — the fixture's max_candidates cap trims the
# report after refinement, never the search.

refine_all_golden="${FIXTURE_DIR}/plan_report_refine_all.json"
refine_all_actual="$(mktemp)"
refine_all_failed=0
"${BUILD_DIR}/src/xmem_cli" plan "${FIXTURE_DIR}/plan_request_overlap.json" \
  --refine-all --no-timings > "${refine_all_actual}"
if ! grep -q '"profiles_run": 1,' "${refine_all_actual}"; then
  echo "REFINE-ALL SMOKE: the full search must run exactly one CPU profile" >&2
  GOLDEN_FAILED=1
  refine_all_failed=1
fi
if ! grep -qE '"replays_deduped": [1-9]' "${refine_all_actual}"; then
  echo "REFINE-ALL SMOKE: symmetric-rank dedup must collapse some replays" >&2
  GOLDEN_FAILED=1
  refine_all_failed=1
fi
evaluated="$(grep -oE '"candidates_evaluated": [0-9]+' "${refine_all_actual}" |
  grep -oE '[0-9]+$' || true)"
replayed="$(grep -oE '"replayed_candidates": [0-9]+' "${refine_all_actual}" |
  grep -oE '[0-9]+$' || true)"
if [[ -z "${evaluated}" || "${replayed}" != "${evaluated}" ]]; then
  echo "REFINE-ALL SMOKE: replayed_candidates (${replayed:-missing}) must" \
    "equal candidates_evaluated (${evaluated:-missing})" >&2
  GOLDEN_FAILED=1
  refine_all_failed=1
fi
if [[ "${UPDATE_GOLDENS}" == "1" ]]; then
  cp "${refine_all_actual}" "${refine_all_golden}"
  echo "updated ${refine_all_golden}"
elif ! diff -u "${refine_all_golden}" "${refine_all_actual}" > /dev/null; then
  echo "REFINE-ALL SMOKE MISMATCH: full-search report schema or payload changed" >&2
  diff -u "${refine_all_golden}" "${refine_all_actual}" >&2 || true
  echo "If intentional, regenerate: ci/build_and_test.sh --update-goldens" >&2
  GOLDEN_FAILED=1
  refine_all_failed=1
fi
if [[ "${refine_all_failed}" == "0" ]]; then
  echo "plan refine-all smoke ok"
fi
rm -f "${refine_all_actual}"

# --- allocator core churn smoke --------------------------------------------
# BM_RegistryChurn drives every registry backend through one long
# unbounded alloc/free churn on an 8 GiB device: a large live set, many
# segments and a deep handle table, a shape no unit test reaches. The smoke
# requires the bench to exit cleanly with a result line per registered
# backend; timings are not checked. Skipped when google-benchmark is
# unavailable (micro_allocator is not built then).

micro_allocator="${BUILD_DIR}/bench/micro_allocator"
if [[ -x "${micro_allocator}" ]]; then
  churn_actual="$(mktemp)"
  churn_failed=0
  if ! "${micro_allocator}" --benchmark_filter=RegistryChurn \
      --benchmark_min_time=0.01 > "${churn_actual}" 2>&1; then
    echo "REGISTRY CHURN SMOKE: micro_allocator exited nonzero" >&2
    cat "${churn_actual}" >&2
    churn_failed=1
  fi
  for backend in $("${BUILD_DIR}/src/xmem_cli" backends | awk 'NF == 0 { exit } { print $1 }'); do
    if ! grep -q "^BM_RegistryChurn/${backend} " "${churn_actual}"; then
      echo "REGISTRY CHURN SMOKE: no result for backend ${backend}" >&2
      churn_failed=1
    fi
  done
  if [[ "${churn_failed}" == "0" ]]; then
    echo "registry churn smoke ok"
  else
    GOLDEN_FAILED=1
  fi
  rm -f "${churn_actual}"
else
  echo "registry churn smoke skipped (micro_allocator not built)"
fi

# --- trace codec smoke -----------------------------------------------------
# The one-pass trace JSON writer and reader under micro_pipeline's codec
# benches plus one end-to-end estimate (profile, JSON round trip, Analyzer,
# Orchestrator, replay). The smoke requires a clean exit and a result line
# per bench; timings are not checked. Skipped when google-benchmark is
# unavailable (micro_pipeline is not built then).

micro_pipeline="${BUILD_DIR}/bench/micro_pipeline"
if [[ -x "${micro_pipeline}" ]]; then
  codec_actual="$(mktemp)"
  codec_failed=0
  if ! "${micro_pipeline}" \
      --benchmark_filter='BM_Trace(To|From)Json|BM_EndToEndEstimate' \
      --benchmark_min_time=0.01 > "${codec_actual}" 2>&1; then
    echo "TRACE CODEC SMOKE: micro_pipeline exited nonzero" >&2
    cat "${codec_actual}" >&2
    codec_failed=1
  fi
  for bench in BM_TraceToJson BM_TraceFromJson BM_EndToEndEstimate; do
    if ! grep -q "^${bench}" "${codec_actual}"; then
      echo "TRACE CODEC SMOKE: no result for ${bench}" >&2
      codec_failed=1
    fi
  done
  if [[ "${codec_failed}" == "0" ]]; then
    echo "trace codec smoke ok"
  else
    GOLDEN_FAILED=1
  fi
  rm -f "${codec_actual}"
else
  echo "trace codec smoke skipped (micro_pipeline not built)"
fi

# --- xmem fleet smoke ------------------------------------------------------
# Fleet packing end to end: 6 jobs from 2 archetypes onto one 3060 with a
# what-if pool. The golden pins verdicts/placements/stats/delta; the greps
# pin the profile-once contract at fleet scale (profiles_run equals the
# queue's 2 distinct archetypes, not its 6 jobs) and a nonzero what-if gain.

fleet_golden="${FIXTURE_DIR}/fleet_report.json"
fleet_actual="$(mktemp)"
"${BUILD_DIR}/src/xmem_cli" fleet "${FIXTURE_DIR}/fleet_request.json" \
  --no-timings > "${fleet_actual}"
if ! grep -q '"profiles_run": 2,' "${fleet_actual}"; then
  echo "FLEET SMOKE: expected profiles_run == 2 (one per distinct archetype)" >&2
  GOLDEN_FAILED=1
fi
if ! grep -q '"distinct_jobs": 2,' "${fleet_actual}"; then
  echo "FLEET SMOKE: expected distinct_jobs == 2 in the fleet stats" >&2
  GOLDEN_FAILED=1
fi
if ! grep -qE '"admitted_delta": [1-9]' "${fleet_actual}"; then
  echo "FLEET SMOKE: the what-if pools must admit extra jobs" >&2
  GOLDEN_FAILED=1
fi
if [[ "${UPDATE_GOLDENS}" == "1" ]]; then
  cp "${fleet_actual}" "${fleet_golden}"
  echo "updated ${fleet_golden}"
elif ! diff -u "${fleet_golden}" "${fleet_actual}" > /dev/null; then
  echo "FLEET SMOKE MISMATCH: fleet report schema or payload changed" >&2
  diff -u "${fleet_golden}" "${fleet_actual}" >&2 || true
  echo "If intentional, regenerate: ci/build_and_test.sh --update-goldens" >&2
  GOLDEN_FAILED=1
else
  echo "fleet smoke ok"
fi
rm -f "${fleet_actual}"

# --- xmem fleet split smoke ------------------------------------------------
# The multi-GPU fallback byte for byte: max_gpus_per_job 4 and no what-if
# pools. One job is admitted with a d,t,p split across a pool, one is
# deferred and one rejected after the fallback searched its plans.

split_golden="${FIXTURE_DIR}/fleet_report_split.json"
split_actual="$(mktemp)"
"${BUILD_DIR}/src/xmem_cli" fleet "${FIXTURE_DIR}/fleet_request_split.json" \
  --no-timings > "${split_actual}"
if [[ "${UPDATE_GOLDENS}" == "1" ]]; then
  cp "${split_actual}" "${split_golden}"
  echo "updated ${split_golden}"
elif ! diff -u "${split_golden}" "${split_actual}" > /dev/null; then
  echo "FLEET SPLIT SMOKE MISMATCH: multi-GPU fallback placements changed" >&2
  diff -u "${split_golden}" "${split_actual}" >&2 || true
  echo "If intentional, regenerate: ci/build_and_test.sh --update-goldens" >&2
  GOLDEN_FAILED=1
else
  echo "fleet split smoke ok"
fi
rm -f "${split_actual}"

# --- negative smoke: malformed requests must exit nonzero ------------------

for bad in "${FIXTURE_DIR}"/bad_*.json; do
  # Plan-shaped fixtures (refine knobs) only fail through the plan parser;
  # fleet-shaped ones (jobs/pools) only through the fleet parser.
  subcommand=sweep
  case "$(basename "${bad}")" in
    bad_overlap*) subcommand=plan ;;
    bad_plan_*) subcommand=plan ;;
    bad_refine*) subcommand=plan ;;
    bad_fleet*) subcommand=fleet ;;
  esac
  if "${BUILD_DIR}/src/xmem_cli" "${subcommand}" "${bad}" > /dev/null 2>&1; then
    echo "NEGATIVE SMOKE: xmem ${subcommand} accepted $(basename "${bad}")" >&2
    GOLDEN_FAILED=1
  else
    echo "negative smoke ok: $(basename "${bad}")"
  fi
done

# --- xmem serve smoke ------------------------------------------------------
# The same request fixtures, through the daemon: start `xmem serve`, drive
# sweep_request.json via `xmem request`, and require the reply to be
# byte-identical to the offline golden (the server is a process boundary,
# not a different estimator). Then: two concurrent identical requests must
# show up as a nonzero coalesced count in `stats`, the bad_frame.bin raw
# fixture (oversized length prefix) and a generated ~400 KB frame of nested
# brackets must exit nonzero while the daemon survives them, and SIGTERM
# must drain gracefully (exit 0, socket unlinked).
# The plan fixture goes through a SECOND fresh daemon because its golden
# pins cold-cache stage counters and the two fixtures share a job.

XMEM="${BUILD_DIR}/src/xmem_cli"
SERVE_SOCK="$(mktemp -u /tmp/xmem_ci_serve_XXXXXX.sock)"

wait_for_socket() {
  for _ in $(seq 100); do
    [[ -S "$1" ]] && return 0
    sleep 0.1
  done
  echo "SERVE SMOKE: daemon never bound $1" >&2
  return 1
}

"${XMEM}" serve --socket "${SERVE_SOCK}" &
SERVE_PID=$!
wait_for_socket "${SERVE_SOCK}"

serve_actual="$(mktemp)"
"${XMEM}" request --socket "${SERVE_SOCK}" \
  --sweep "${FIXTURE_DIR}/sweep_request.json" --out "${serve_actual}"
if ! diff -u "${sweep_golden}" "${serve_actual}" > /dev/null; then
  echo "SERVE SMOKE MISMATCH: server sweep reply != offline golden" >&2
  diff -u "${sweep_golden}" "${serve_actual}" >&2 || true
  GOLDEN_FAILED=1
else
  echo "serve smoke ok: sweep reply byte-identical to offline golden"
fi
rm -f "${serve_actual}"

# Two concurrent identical requests: one executes, the twin coalesces
# (in-flight collapse or reply-cache hit — either increments `coalesced`).
"${XMEM}" request --socket "${SERVE_SOCK}" \
  --sweep "${FIXTURE_DIR}/sweep_request.json" > /dev/null &
FIRST_PID=$!
"${XMEM}" request --socket "${SERVE_SOCK}" \
  --sweep "${FIXTURE_DIR}/sweep_request.json" > /dev/null &
SECOND_PID=$!
wait "${FIRST_PID}" "${SECOND_PID}"
stats_out="$(mktemp)"
"${XMEM}" request --socket "${SERVE_SOCK}" --stats > "${stats_out}"
if ! grep -qE '"coalesced": [1-9]' "${stats_out}"; then
  echo "SERVE SMOKE: expected nonzero coalesced count after twin requests" >&2
  cat "${stats_out}" >&2
  GOLDEN_FAILED=1
else
  echo "serve smoke ok: concurrent identical requests coalesced"
fi
rm -f "${stats_out}"

# Negative: a raw byte blob with an oversized length prefix must exit
# nonzero — and the daemon must still answer afterwards.
if "${XMEM}" request --socket "${SERVE_SOCK}" \
     --raw "${FIXTURE_DIR}/bad_frame.bin" > /dev/null 2>&1; then
  echo "SERVE SMOKE: xmem request accepted bad_frame.bin" >&2
  GOLDEN_FAILED=1
else
  echo "serve smoke ok: bad_frame.bin rejected"
fi
if ! "${XMEM}" request --socket "${SERVE_SOCK}" --ping > /dev/null; then
  echo "SERVE SMOKE: daemon died after bad_frame.bin" >&2
  GOLDEN_FAILED=1
fi

# Negative: a well-framed ~400 KB payload of nested '[' (generated here,
# not committed) must get a structured parse_error — the parser's nesting
# limit, not a stack overflow — and the daemon must answer a ping after.
deep_frame="$(mktemp)"
deep_reply="$(mktemp)"
deep_bytes=400000
printf "$(printf '\\x%02x' $((deep_bytes >> 24 & 255)) \
  $((deep_bytes >> 16 & 255)) $((deep_bytes >> 8 & 255)) \
  $((deep_bytes & 255)))" > "${deep_frame}"
head -c "${deep_bytes}" /dev/zero | tr '\0' '[' >> "${deep_frame}"
if "${XMEM}" request --socket "${SERVE_SOCK}" \
     --raw "${deep_frame}" > "${deep_reply}" 2>/dev/null; then
  echo "SERVE SMOKE: xmem request accepted the deeply nested frame" >&2
  GOLDEN_FAILED=1
elif ! grep -q '"code":"parse_error"' "${deep_reply}"; then
  echo "SERVE SMOKE: deeply nested frame got no structured parse_error" >&2
  cat "${deep_reply}" >&2
  GOLDEN_FAILED=1
elif ! "${XMEM}" request --socket "${SERVE_SOCK}" --ping > /dev/null; then
  echo "SERVE SMOKE: daemon died after the deeply nested frame" >&2
  GOLDEN_FAILED=1
else
  echo "serve smoke ok: deeply nested frame rejected, daemon alive"
fi
rm -f "${deep_frame}" "${deep_reply}"

# Kill-and-verify: SIGTERM drains gracefully — exit 0, socket unlinked.
kill -TERM "${SERVE_PID}"
if ! wait "${SERVE_PID}"; then
  echo "SERVE SMOKE: daemon exited nonzero on SIGTERM" >&2
  GOLDEN_FAILED=1
elif [[ -S "${SERVE_SOCK}" ]]; then
  echo "SERVE SMOKE: daemon left its socket file behind" >&2
  GOLDEN_FAILED=1
else
  echo "serve smoke ok: graceful SIGTERM shutdown"
fi

# Fresh daemon for the plan fixture (cold-cache counters), stopped via the
# shutdown request instead of a signal so both stop paths stay covered.
"${XMEM}" serve --socket "${SERVE_SOCK}" &
SERVE_PID=$!
wait_for_socket "${SERVE_SOCK}"
serve_plan_actual="$(mktemp)"
"${XMEM}" request --socket "${SERVE_SOCK}" \
  --plan "${FIXTURE_DIR}/plan_request.json" --out "${serve_plan_actual}"
if ! diff -u "${plan_golden}" "${serve_plan_actual}" > /dev/null; then
  echo "SERVE SMOKE MISMATCH: server plan reply != offline golden" >&2
  diff -u "${plan_golden}" "${serve_plan_actual}" >&2 || true
  GOLDEN_FAILED=1
else
  echo "serve smoke ok: plan reply byte-identical to offline golden"
fi
rm -f "${serve_plan_actual}"
"${XMEM}" request --socket "${SERVE_SOCK}" --shutdown > /dev/null
if ! wait "${SERVE_PID}"; then
  echo "SERVE SMOKE: daemon exited nonzero on shutdown request" >&2
  GOLDEN_FAILED=1
else
  echo "serve smoke ok: shutdown request drained the daemon"
fi

# Third fresh daemon for the fleet fixture: its golden pins cold-cache
# packing counters (profiles_run == distinct archetypes), which a warm
# profile session from the earlier fixtures would turn into cache hits.
"${XMEM}" serve --socket "${SERVE_SOCK}" &
SERVE_PID=$!
wait_for_socket "${SERVE_SOCK}"
serve_fleet_actual="$(mktemp)"
"${XMEM}" request --socket "${SERVE_SOCK}" \
  --fleet "${FIXTURE_DIR}/fleet_request.json" --out "${serve_fleet_actual}"
if ! diff -u "${fleet_golden}" "${serve_fleet_actual}" > /dev/null; then
  echo "SERVE SMOKE MISMATCH: server fleet reply != offline golden" >&2
  diff -u "${fleet_golden}" "${serve_fleet_actual}" >&2 || true
  GOLDEN_FAILED=1
else
  echo "serve smoke ok: fleet reply byte-identical to offline golden"
fi
rm -f "${serve_fleet_actual}"
"${XMEM}" request --socket "${SERVE_SOCK}" --shutdown > /dev/null
if ! wait "${SERVE_PID}"; then
  echo "SERVE SMOKE: fleet daemon exited nonzero on shutdown request" >&2
  GOLDEN_FAILED=1
else
  echo "serve smoke ok: fleet daemon drained on shutdown request"
fi

exit "${GOLDEN_FAILED}"
