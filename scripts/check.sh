#!/usr/bin/env bash
# check.sh — the repo's correctness gate.
#
# Stages (run all by default, or name a subset):
#   lint    dclint (tools/lint/dclint.py) over src/ tools/ plus its own
#           test suite; pure Python, needs no build tree (<1 min)
#   format  clang-format --dry-run over all tracked C++ sources
#   tidy    clang-tidy (config: .clang-tidy) over src/ tools/ tests/ bench/
#   build   default preset: configure, build, ctest
#   release Release preset (-O3 -DNDEBUG, -Werror): configure, build,
#           ctest -- some GCC warnings only fire at full optimization
#   asan    ASan+UBSan preset: configure, build, ctest
#   tsan    TSan preset: configure, build, ctest
#   tsan-stress
#           TSan preset: the apply, determinism, session and SIMD suites
#           repeated (--gtest_repeat) in 4 concurrent processes, so every
#           core is busy while their thread pools race
#   ubsan   standalone strict-UBSan preset: configure, build, ctest
#   audit   FLOC invariant-audit mode: floc/property test binaries rerun
#           with DELTACLUS_AUDIT=1 (see docs/DEVELOPMENT.md)
#   trajectory
#           the committed-record gates: dcstat compares checked-in
#           bench/trajectory/ records against each other (speedup floors,
#           the telemetry-overhead envelope); needs no build tree
#   bench   run one small bench binary in --quick mode and validate its
#           BENCH_*.json record against scripts/bench_schema.json, run
#           the trajectory stage, and hold fresh quick runs to floors
#           under the checked-in load-path and whole-run records
#
# Usage:
#   scripts/check.sh              # everything
#   scripts/check.sh tidy         # one stage
#   scripts/check.sh asan tsan    # a subset
#
# Stages whose tool is not installed (clang-format / clang-tidy) are
# skipped with a warning rather than failing, so the script is usable in
# minimal containers; CI installs both and runs them for real.

set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"
FAILED=0

note()  { printf '\n\033[1;34m== %s ==\033[0m\n' "$*"; }
warn()  { printf '\033[1;33mWARNING: %s\033[0m\n' "$*"; }
fail()  { printf '\033[1;31mFAILED: %s\033[0m\n' "$*"; FAILED=1; }

cxx_sources() {
  git ls-files 'src/**.cc' 'src/**.h' 'tools/**.cc' 'tools/**.h' \
               'tests/**.cc' 'tests/**.h' 'bench/**.cc' 'bench/**.h'
}

stage_lint() {
  note "lint (dclint: the determinism linter)"
  # Deliberately no build dependency: dclint falls back to a src/ tools/
  # tree walk when build/compile_commands.json is absent, so CI can run
  # this stage on a bare checkout in seconds.
  if python3 tools/lint/dclint.py \
      && python3 tools/lint/dclint_test.py 2>/dev/null; then
    echo "lint: clean"
  else
    fail "dclint (see diagnostics above; rules: tools/lint/dclint.py --list-rules)"
  fi
  # The AVX2 kernel TU must export nothing but its table getter: any
  # external-linkage inline function it instantiated (a template from a
  # shared header) would be a VEX-encoded weak copy of a symbol the
  # baseline-ISA TUs also define, and the linker keeps whichever copy it
  # sees first. Checked in every build tree that has the object (the
  # default and tsan presets included: an unoptimized build emits the
  # copies an optimized one inlines away). DW.ref.__gxx_personality_v0
  # is not a function: it is the exception-personality pointer GCC
  # emits, the same weak datum in every TU, in some builds (tsan).
  local avx2_objects
  avx2_objects=$(find build* -path '*core/residue_kernels_avx2.cc.o' 2>/dev/null || true)
  if [ -z "$avx2_objects" ]; then
    warn "no residue_kernels_avx2.cc.o in any build tree; skipping its symbol check"
  elif ! command -v nm >/dev/null 2>&1; then
    warn "nm not installed; skipping the AVX2 TU symbol check"
  else
    local obj exported
    for obj in $avx2_objects; do
      exported=$(nm --defined-only --extern-only "$obj" | awk '{print $3}' \
                 | grep -v -e '^_ZN9deltaclus17Avx2KernelsOrNullEv$' \
                           -e '^DW\.ref\.__gxx_personality_v0$' || true)
      if [ -n "$exported" ]; then
        fail "$obj exports more than Avx2KernelsOrNull: $exported"
      else
        echo "lint: $obj exports only Avx2KernelsOrNull"
      fi
    done
  fi
  # dcstat's test suite is equally build-free (it runs against the
  # checked-in trajectory records), so it rides in the same stage.
  if python3 tools/dcstat_test.py 2>/dev/null; then
    echo "lint: dcstat tests clean"
  else
    fail "dcstat tests (python3 tools/dcstat_test.py)"
  fi
}

stage_format() {
  note "format (clang-format --dry-run)"
  if ! command -v clang-format >/dev/null 2>&1; then
    warn "clang-format not installed; skipping format stage"
    return
  fi
  if cxx_sources | xargs clang-format --dry-run -Werror; then
    echo "format: clean"
  else
    fail "clang-format found unformatted files (run: git ls-files '*.cc' '*.h' | xargs clang-format -i)"
  fi
}

stage_tidy() {
  note "tidy (clang-tidy over src/ tools/ tests/ bench/)"
  if ! command -v clang-tidy >/dev/null 2>&1; then
    warn "clang-tidy not installed; skipping tidy stage"
    return
  fi
  # clang-tidy needs a compile_commands.json; the default preset exports one.
  if [ ! -f build/compile_commands.json ]; then
    cmake --preset default >/dev/null
  fi
  local runner=clang-tidy
  if command -v run-clang-tidy >/dev/null 2>&1; then
    if run-clang-tidy -quiet -p build -j "$JOBS" \
        'src/.*\.(cc|h)$' 'tools/.*\.cc$' 'tests/.*\.cc$' 'bench/.*\.cc$'; then
      echo "tidy: clean"
    else
      fail "clang-tidy reported findings"
    fi
    return
  fi
  if cxx_sources | grep '\.cc$' | xargs -P "$JOBS" -n 8 "$runner" -p build --quiet; then
    echo "tidy: clean"
  else
    fail "clang-tidy reported findings"
  fi
}

run_preset() {
  local preset="$1"
  note "$preset (configure + build + ctest)"
  if cmake --preset "$preset" >/dev/null \
      && cmake --build --preset "$preset" -j "$JOBS" \
      && ctest --preset "$preset"; then
    echo "$preset: green"
  else
    fail "$preset preset build/tests"
  fi
}

stage_build() { run_preset default; }
stage_release() { run_preset release; }
stage_asan()  { run_preset asan; }
stage_tsan()  { run_preset tsan; }
stage_ubsan() { run_preset ubsan; }

stage_tsan_stress() {
  note "tsan-stress (apply/determinism/session/SIMD suites, 4 concurrent TSan processes)"
  # Determinism under real concurrency: each suite runs its own thread
  # pools, and four processes at once keep every core of a 4-core host
  # busy, so pool workers, pipelined apply helpers and the coordinator
  # really run at the same time instead of taking turns on one core.
  # Each process starts at a different suite so the suites overlap.
  local suites=(floc_phases_test floc_determinism_test session_test
                simd_dispatch_test)
  local repeat=2
  if ! { cmake --preset tsan >/dev/null \
         && cmake --build --preset tsan -j "$JOBS" --target "${suites[@]}"; }; then
    fail "tsan-stress build (tsan preset)"
    return
  fi
  local logs
  logs="$(mktemp -d)"
  local pids=()
  local p
  for p in 0 1 2 3; do
    (
      for i in "${!suites[@]}"; do
        suite="${suites[$(( (p + i) % ${#suites[@]} ))]}"
        "build-tsan/tests/$suite" --gtest_repeat="$repeat" --gtest_brief=1 \
          || { echo "tsan-stress: $suite failed"; exit 1; }
      done
    ) >"$logs/process$p.log" 2>&1 &
    pids+=("$!")
  done
  local bad=0
  for p in 0 1 2 3; do
    if ! wait "${pids[$p]}"; then
      bad=1
      tail -n 60 "$logs/process$p.log"
    fi
  done
  rm -rf "$logs"
  if [ "$bad" -eq 0 ]; then
    echo "tsan-stress: green (4 processes x ${#suites[@]} suites x $repeat repeats)"
  else
    fail "tsan-stress (a suite failed or TSan reported a race; log tails above)"
  fi
}

stage_audit() {
  note "audit (floc suites with DELTACLUS_AUDIT=1)"
  # Prefer the sanitizer tree (Debug => DC_DCHECK live); fall back to the
  # default tree.
  local tree=build-asan
  [ -d "$tree" ] || tree=build
  if [ ! -d "$tree" ]; then
    cmake --preset default >/dev/null
    cmake --build --preset default -j "$JOBS"
    tree=build
  fi
  if (cd "$tree" && DELTACLUS_AUDIT=1 ctest --output-on-failure -j "$JOBS" \
        -R 'Floc|PropertySweep|Integration|EdgeCase|ClusterWorkspace'); then
    echo "audit: no invariant violations"
  else
    fail "FLOC invariant audit tripped"
  fi
}

stage_trajectory() {
  note "trajectory (gates over the committed bench/trajectory/ records)"
  # Telemetry-overhead envelope (PR 2): the full-telemetry FLOC run must
  # stay within 1.10x of the telemetry-off run. Gated on the checked-in
  # PR 5 record via dcstat, so it is deterministic; refresh the record
  # when the telemetry hot path changes.
  if python3 tools/dcstat.py overhead \
        bench/trajectory/BENCH_micro_kernels_pr5.json \
        --off BM_FlocTelemetryOff --full BM_FlocTelemetryFull \
        --max-ratio 1.10; then
    echo "bench: telemetry overhead within envelope"
  else
    fail "telemetry overhead gate (tools/dcstat.py overhead)"
  fi
  # The same envelope at 4 threads, where the determination shards and
  # the pipelined apply sweep's pool helpers run beside the coordinator.
  # Gated on the committed telemetry record (medians of 24 runs of the
  # four BM_FlocTelemetry* benchmarks on a shared 4-vCPU host); refresh
  # it when the telemetry hot path or the apply pipeline changes.
  if python3 tools/dcstat.py overhead \
        bench/trajectory/BENCH_micro_kernels_telemetry.json \
        --off BM_FlocTelemetryOff_4Threads --full BM_FlocTelemetryFull_4Threads \
        --max-ratio 1.10; then
    echo "bench: 4-thread telemetry overhead within envelope"
  else
    fail "4-thread telemetry overhead gate (tools/dcstat.py overhead)"
  fi
  # Pin the recorded kernel-speedup trajectory (bench/trajectory/): the
  # gain kernels and memoized determination must stay >= 2x their
  # pre-optimization baseline. Compares two checked-in records, so this
  # is deterministic and fast; refresh the *_pr5 record (and, if the
  # floor moves, the assertion) when the kernels change materially.
  if python3 tools/dcstat.py diff \
        bench/trajectory/BENCH_micro_kernels_pre_pr5.json \
        bench/trajectory/BENCH_micro_kernels_pr5.json \
        --min-ratio 'BM_GainEval(RowToggleTall|ColToggleWide)$=2.0' \
        --min-ratio 'BM_GainDetermination/1=2.0'; then
    echo "bench: trajectory speedups hold"
  else
    fail "bench trajectory comparison (tools/dcstat.py diff)"
  fi
  # Storage-layer tax gate (PR 8): the hot kernels after the pluggable
  # storage refactor must hold >= 0.95x of the immediately-pre-refactor
  # record (pr7 and pr8 were recorded back-to-back on one machine, so
  # the comparison is apples-to-apples). Deterministic: compares two
  # checked-in records.
  if python3 tools/dcstat.py diff \
        bench/trajectory/BENCH_micro_kernels_pr7.json \
        bench/trajectory/BENCH_micro_kernels_pr8.json \
        --min-ratio 'BM_GainEval(RowToggleTall|ColToggleWide)$=0.95' \
        --min-ratio 'BM_GainDetermination/1=0.95'; then
    echo "bench: storage-layer kernel floor holds"
  else
    fail "storage-layer bench floor (pr7 vs pr8 micro-kernel records)"
  fi
  # Session-layer tax gate (PR 9): lifting the driver loop into
  # MiningSession (stepwise boundaries, stop-token checks, budget
  # bookkeeping) must hold the hot kernels >= 0.95x of the pre_pr9
  # record -- the pr8 tip re-recorded back-to-back with pr9 on one
  # machine, the same protocol as the pre_pr5/pr5 pair (the committed
  # pr8 record was taken under different machine conditions, so it is
  # not apples-to-apples). Deterministic: compares two checked-in
  # records.
  if python3 tools/dcstat.py diff \
        bench/trajectory/BENCH_micro_kernels_pre_pr9.json \
        bench/trajectory/BENCH_micro_kernels_pr9.json \
        --min-ratio 'BM_GainEval(RowToggleTall|ColToggleWide)$=0.95' \
        --min-ratio 'BM_GainDetermination/1=0.95'; then
    echo "bench: session-layer kernel floor holds"
  else
    fail "session-layer bench floor (pre_pr9 vs pr9 micro-kernel records)"
  fi
  # Kernel-story gate (PR 10): runtime-dispatched SIMD, incremental
  # pane patching, and cross-iteration memo reuse. pre_pr10 is the pr9
  # tip re-recorded back-to-back with pr10 on one machine (same
  # protocol as pre_pr9). Floors: the applied-toggle composites --
  # where a committed toggle's pane maintenance sits on the measured
  # path -- hold the headline >= 2x; the standing gain-eval kernels
  # stay >= 0.95x (the dense pair actually lands >= 1.3x; the floor
  # also covers the scalar masked twins, which have only timer noise
  # to lose); whole FLOC runs >= 1.1x and the memoless determination
  # sweep >= 1.4x pin the SIMD win end to end. Deterministic: compares
  # two checked-in records.
  if python3 tools/dcstat.py diff \
        bench/trajectory/BENCH_micro_kernels_pre_pr10.json \
        bench/trajectory/BENCH_micro_kernels_pr10.json \
        --min-ratio 'BM_GainApply=2.0' \
        --min-ratio 'BM_GainEval=0.95' \
        --min-ratio 'BM_Floc=1.1' \
        --min-ratio 'BM_GainDeterminationNoMemo=1.4'; then
    echo "bench: kernel-story speedups hold"
  else
    fail "kernel-story bench gate (pre_pr10 vs pr10 micro-kernel records)"
  fi
  # Masked-kernel gate: branch-free, SIMD-dispatched
  # compaction kernels for rows with holes. pre_pr15 is the parent tip
  # recorded on the same host as pr15, each record the per-benchmark
  # median of several full-suite runs (bench/trajectory/README.md).
  # The sparse gain evals must hold >= 1.8x; the dense pair
  # and the memoized determination, which the change does not touch,
  # stay >= 0.95x. Deterministic: compares two checked-in records.
  if python3 tools/dcstat.py diff \
        bench/trajectory/BENCH_micro_kernels_pre_pr15.json \
        bench/trajectory/BENCH_micro_kernels_pr15.json \
        --min-ratio 'BM_GainEval.*Sparse=1.8' \
        --min-ratio 'BM_GainEval(RowToggleTall|ColToggleWide)$=0.95' \
        --min-ratio 'BM_GainDetermination/1=0.95'; then
    echo "bench: masked-kernel speedups hold"
  else
    fail "masked-kernel bench gate (pre_pr15 vs pr15 micro-kernel records)"
  fi
  # Specified-entry-run gate: holey pane rows stored as runs of their
  # specified entries, the per-evaluation compaction kernels deleted.
  # pre_pr20 is the parent tip recorded on the same host as pr20, each
  # record the per-benchmark median of several full-suite runs
  # (bench/trajectory/README.md). The sparse gain evals, the skinny
  # 250x2 shape included, must hold >= 1.3x; the dense pair and the
  # applied-toggle composites (dense rows, no run upkeep) stay >= 0.95x.
  # Deterministic: compares two checked-in records.
  if python3 tools/dcstat.py diff \
        bench/trajectory/BENCH_micro_kernels_pre_pr20.json \
        bench/trajectory/BENCH_micro_kernels_pr20.json \
        --min-ratio 'BM_GainEval.*Sparse=1.3' \
        --min-ratio 'BM_GainEval(RowToggleTall|ColToggleWide)$=0.95' \
        --min-ratio 'BM_GainApply=0.95'; then
    echo "bench: specified-entry-run speedups hold"
  else
    fail "specified-entry-run bench gate (pre_pr20 vs pr20 micro-kernel records)"
  fi
  # Pane-scan gate: each residue scan is one kernel call whose row loop
  # makes no call, and an added row is scanned as its trailing row.
  # pre_pr22 is the parent tip recorded on the same host as pr22, each
  # record the per-benchmark median of 12 runs of the gated families
  # (bench/trajectory/README.md). The change claims no gain, so every
  # gated family holds >= 0.95x: the dense pair, the sparse evals (the
  # skinny 250x2 shape, where the removed per-row calls weighed most,
  # included) and the applied-toggle composites. Deterministic: compares
  # two checked-in records.
  if python3 tools/dcstat.py diff \
        bench/trajectory/BENCH_micro_kernels_pre_pr22.json \
        bench/trajectory/BENCH_micro_kernels_pr22.json \
        --min-ratio 'BM_GainEval(RowToggleTall|ColToggleWide)$=0.95' \
        --min-ratio 'BM_GainEval.*Sparse=0.95' \
        --min-ratio 'BM_GainApply=0.95'; then
    echo "bench: pane-scan kernel floor holds"
  else
    fail "pane-scan bench gate (pre_pr22 vs pr22 micro-kernel records)"
  fi
  # Batched row-toggle gate: the determination sweep scans four row
  # candidates of a cluster in one pane pass. pre_pr24 is the parent tip
  # recorded on the same host as pr24, each record the per-benchmark
  # median of 12 runs of the gated families (bench/trajectory/README.md).
  # Each floor is set from the parent's own spread over its 12 runs
  # (interquartile range / median, rounded up to 0.05), so host noise
  # alone cannot pass or fail it: the memoless sweeps, where the gain is
  # claimed, hold >= 1 + spread (0.25/0.32 at 1 thread, 0.11/0.11 at 8),
  # and the single-candidate row evals, which the change only
  # refactored, hold >= 1 - spread (0.29 tall, 0.20 tall sparse, 0.29
  # skinny). Deterministic: compares two checked-in records.
  if python3 tools/dcstat.py diff \
        bench/trajectory/BENCH_micro_kernels_pre_pr24.json \
        bench/trajectory/BENCH_micro_kernels_pr24.json \
        --min-ratio 'BM_GainDeterminationNoMemo/1/=1.30' \
        --min-ratio 'BM_GainDeterminationNoMemoSparse/1/=1.35' \
        --min-ratio 'BM_GainDeterminationNoMemo(Sparse)?/8/=1.15' \
        --min-ratio 'BM_GainEvalRowToggle(Tall|SkinnySparse)$=0.70' \
        --min-ratio 'BM_GainEvalRowToggleTallSparse=0.80'; then
    echo "bench: batched row-toggle speedups hold"
  else
    fail "batched row-toggle bench gate (pre_pr24 vs pr24 micro-kernel records)"
  fi
  # Column-toggle gate: each column-toggle evaluation is one kernel call,
  # and four added-column candidates of a cluster share a pane pass.
  # pre_pr25 is the parent tip recorded on the same host as pr25, each
  # record the per-benchmark median of 12 runs of the gated families
  # (bench/trajectory/README.md). Each floor is set from the parent's own
  # spread over its 12 runs (interquartile range / median, rounded up to
  # 0.05). The one gain that cleared its spread, the memoless sparse
  # sweep at 8 threads (1.22x over 0.14), holds >= 1 + spread; every
  # other gated benchmark holds >= 1 - spread (column evals 0.25,
  # memoized sweeps 0.45/0.40/0.30/0.30 at 1/2/4/8 threads, memoless
  # 0.20 and 0.15 dense, 0.55 sparse at 1 thread). Deterministic:
  # compares two checked-in records.
  if python3 tools/dcstat.py diff \
        bench/trajectory/BENCH_micro_kernels_pre_pr25.json \
        bench/trajectory/BENCH_micro_kernels_pr25.json \
        --min-ratio 'BM_GainDeterminationNoMemoSparse/8/=1.15' \
        --min-ratio 'BM_GainDeterminationNoMemoSparse/1/=0.45' \
        --min-ratio 'BM_GainDeterminationNoMemo/1/=0.80' \
        --min-ratio 'BM_GainDeterminationNoMemo/8/=0.85' \
        --min-ratio 'BM_GainDetermination/1/=0.55' \
        --min-ratio 'BM_GainDetermination/2/=0.60' \
        --min-ratio 'BM_GainDetermination/(4|8)/=0.70' \
        --min-ratio 'BM_GainEvalCol=0.75'; then
    echo "bench: column-toggle floor holds"
  else
    fail "column-toggle bench gate (pre_pr25 vs pr25 micro-kernel records)"
  fi
  # End-to-end iteration-time gate (PR 10): the Table-2/3 whole-run
  # records, recorded back-to-back pre/post on one machine, must show
  # the 500-row configurations >= 1.2x and the tiny 100-row ones (4-8
  # ms end to end, dominated by setup) no worse than noise.
  # Deterministic: compares two checked-in records.
  if python3 tools/dcstat.py diff \
        bench/trajectory/BENCH_table2_3_scaling_pre_pr10.json \
        bench/trajectory/BENCH_table2_3_scaling_pr10.json \
        --min-ratio 'run:cols=50=1.2' \
        --min-ratio 'run:=0.9'; then
    echo "bench: end-to-end iteration-time gate holds"
  else
    fail "end-to-end bench gate (pre_pr10 vs pr10 table2_3 records)"
  fi
}

stage_bench() {
  note "bench (quick run + BENCH json schema validation)"
  if [ ! -x build/bench/bench_fig8_seed_volume ]; then
    cmake --preset default >/dev/null
    cmake --build --preset default -j "$JOBS" --target bench_fig8_seed_volume
  fi
  local out
  out="$(mktemp -d)"
  if ./build/bench/bench_fig8_seed_volume --quick \
        --json-out="$out/BENCH_fig8_seed_volume.json" \
      && python3 scripts/validate_bench_json.py \
        "$out/BENCH_fig8_seed_volume.json"; then
    echo "bench: BENCH json valid"
  else
    fail "bench run or BENCH json validation"
  fi
  rm -rf "$out"
  # A live mine run must produce a perf report that validates against
  # scripts/perf_report_schema.json (the CLI --perf-report contract).
  if [ ! -x build/tools/deltaclus_cli ]; then
    cmake --build --preset default -j "$JOBS" --target deltaclus_cli
  fi
  out="$(mktemp -d)"
  if ./build/tools/deltaclus_cli generate --rows 80 --cols 20 --clusters 3 \
        --seed 5 --out "$out/m.csv" >/dev/null \
      && ./build/tools/deltaclus_cli mine --input "$out/m.csv" --k 3 \
        --seed 7 --out "$out/c.txt" \
        --perf-report="$out/perf_report.json" >/dev/null \
      && python3 scripts/validate_bench_json.py \
        --schema scripts/perf_report_schema.json "$out/perf_report.json"; then
    echo "bench: perf report json valid"
  else
    fail "perf report generation/schema validation"
  fi
  rm -rf "$out"
  stage_trajectory
  # Load-path floor: a fresh quick run of the storage load benchmarks
  # (CSV parse, .dcm convert, mmap open, heap copy) must stay within 3x
  # of the checked-in record. Loose for CI-hardware tolerance, but an
  # accidental eager plane read turning the O(header) mmap open into an
  # O(bytes) one blows through it by orders of magnitude.
  if [ ! -x build/bench/bench_load_path ]; then
    cmake --build --preset default -j "$JOBS" --target bench_load_path
  fi
  out="$(mktemp -d)"
  if ./build/bench/bench_load_path --quick \
        --json-out="$out/BENCH_load_path.json" >/dev/null \
      && python3 tools/dcstat.py diff \
        bench/trajectory/BENCH_load_path_pr8.json \
        "$out/BENCH_load_path.json" \
        --min-ratio '^BM_Load=0.33'; then
    echo "bench: load-path floor holds"
  else
    fail "load-path bench floor (bench_load_path vs trajectory record)"
  fi
  rm -rf "$out"
  # Whole-run floor: a fresh quick Table-2/3 end-to-end run must stay
  # within 3x of the checked-in record (dcstat diff synthesizes
  # "run:cols=.../k=.../rows=..." names from the row parameters). The
  # 0.33 floor is deliberately loose -- it tolerates slower CI hardware
  # while still catching order-of-magnitude end-to-end regressions that
  # microbenchmarks, which pin individual kernels, would miss.
  if [ ! -x build/bench/bench_table2_3_scaling ]; then
    cmake --build --preset default -j "$JOBS" --target bench_table2_3_scaling
  fi
  out="$(mktemp -d)"
  if ./build/bench/bench_table2_3_scaling --quick \
        --json-out="$out/BENCH_table2_3_scaling.json" >/dev/null \
      && python3 tools/dcstat.py diff \
        bench/trajectory/BENCH_table2_3_scaling_pr6.json \
        "$out/BENCH_table2_3_scaling.json" \
        --min-ratio '^run:=0.33'; then
    echo "bench: whole-run floor holds"
  else
    fail "whole-run bench floor (bench_table2_3_scaling vs trajectory record)"
  fi
  rm -rf "$out"
}

STAGES=("$@")
[ ${#STAGES[@]} -eq 0 ] && STAGES=(lint format tidy build release asan tsan tsan-stress ubsan audit bench)

for stage in "${STAGES[@]}"; do
  case "$stage" in
    lint|format|tidy|build|release|asan|tsan|ubsan|audit|trajectory|bench) "stage_$stage" ;;
    tsan-stress) stage_tsan_stress ;;
    *) echo "unknown stage: $stage (expected: lint format tidy build release asan tsan tsan-stress ubsan audit trajectory bench)"; exit 2 ;;
  esac
done

if [ "$FAILED" -ne 0 ]; then
  note "check.sh: FAILURES above"
  exit 1
fi
note "check.sh: all stages passed"
