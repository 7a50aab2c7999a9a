#!/usr/bin/env bash
# Tier-1 gate. Its legs, in order; each one stops the script when it fails,
# except the bench legs, which all run and are then listed if they failed:
#   1. build with LZP_WERROR=ON, then ctest;
#   2. sanitizers (--no-sanitize skips): ASan+UBSan over the whole suite,
#      and TSan over the SMP suites plus a 4-CPU fig5 run. The block engine
#      is a runtime switch (Machine::block_exec_enabled), so every build runs
#      both engines: the engine-differential tests compare them in-process;
#   3. clang-tidy against scripts/clang_tidy_baseline.txt (skipped when not
#      installed);
#   4. examples/analyze --gate, examples/policy gate and the policy
#      precision gate;
#   5. bench legs (--no-bench skips): table2_micro, fig4_breakdown and
#      fig5_webservers (every paper cycle count); overhead (tracer, profiler,
#      policy enforcer and recorder); block_exec; analysis_accuracy;
#      fig5_webservers --cpus=8; perfbench --self-test and a 1 s run of each
#      perfbench workload (exit code = the reference-engine oracle); last,
#      bench_diff.py of every BENCH_*.json against bench/baselines/.
# Host-time gates read a median of paired per-round ratios
# (lzp::paired_ratios, src/base/stats.hpp).
#
#   scripts/check.sh [--no-sanitize] [--no-bench] [--regen-tidy-baseline]
#                    [--regen-bench-baselines]
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
cd "${repo_root}"

run_sanitize=1
run_bench=1
regen_tidy=0
regen_bench=0
for arg in "$@"; do
  case "${arg}" in
    --no-sanitize) run_sanitize=0 ;;
    --no-bench) run_bench=0 ;;
    --regen-tidy-baseline) regen_tidy=1 ;;
    --regen-bench-baselines) regen_bench=1 ;;
    *) echo "unknown flag: ${arg}" >&2; exit 2 ;;
  esac
done

echo "== tier-1: configure + build + ctest (LZP_WERROR=ON) =="
cmake -B build -S . -DLZP_WERROR=ON >/dev/null
cmake --build build -j"$(nproc)"
ctest --test-dir build -j"$(nproc)" --output-on-failure

if [[ "${run_sanitize}" == 1 ]]; then
  echo "== sanitizer build (LZP_SANITIZE=ON) =="
  cmake -B build-asan -S . -DLZP_SANITIZE=ON -DLZP_WERROR=ON >/dev/null
  cmake --build build-asan -j"$(nproc)"
  ctest --test-dir build-asan -j"$(nproc)" --output-on-failure

  echo "== thread-sanitizer build (LZP_SANITIZE=thread, SMP suites) =="
  cmake -B build-tsan -S . -DLZP_SANITIZE=thread -DLZP_WERROR=ON >/dev/null
  cmake --build build-tsan -j"$(nproc)" --target \
    smp_test shared_as_invalidation_test threaded_server_test fig5_webservers
  ./build-tsan/tests/smp_test
  ./build-tsan/tests/shared_as_invalidation_test
  ./build-tsan/tests/threaded_server_test
  # A short 4-CPU webserver differential under TSan: the parallel scheduler
  # end to end, with real host threads racing on the kernel tables. The
  # artifact goes to a scratch path so the real BENCH_smp.json below stays
  # the 8-CPU sweep.
  ./build-tsan/bench/fig5_webservers --cpus=4 build-tsan/BENCH_smp.json \
    >/dev/null
fi

# clang-tidy leg: compare normalized findings (<file>:<check>) against the
# tracked baseline; new findings fail, fixed findings are reported. Skipped
# gracefully when clang-tidy is not installed (e.g. minimal CI containers).
tidy_baseline="scripts/clang_tidy_baseline.txt"
if command -v clang-tidy >/dev/null 2>&1; then
  echo "== clang-tidy (baseline: ${tidy_baseline}) =="
  tidy_raw="$(mktemp)"
  tidy_now="$(mktemp)"
  trap 'rm -f "${tidy_raw}" "${tidy_now}"' EXIT
  # All first-party translation units; compile_commands.json comes from the
  # tier-1 configure above (CMAKE_EXPORT_COMPILE_COMMANDS is always ON).
  find src -name '*.cpp' -print0 \
    | xargs -0 clang-tidy -p build --quiet >"${tidy_raw}" 2>/dev/null || true
  # Normalize "/abs/path/file.cpp:12:3: warning: ... [check-name]" to
  # "file.cpp-relative-path:check-name"; drop line numbers so unrelated edits
  # don't churn the baseline.
  sed -n "s|^${repo_root}/\([^:]*\):[0-9]*:[0-9]*: warning: .*\[\(.*\)\]$|\1:\2|p" \
    "${tidy_raw}" | sort -u >"${tidy_now}"
  if [[ "${regen_tidy}" == 1 ]]; then
    { grep '^#' "${tidy_baseline}"; cat "${tidy_now}"; } >"${tidy_baseline}.new"
    mv "${tidy_baseline}.new" "${tidy_baseline}"
    echo "clang-tidy baseline regenerated ($(wc -l <"${tidy_now}") findings)"
  else
    new_findings="$(grep -vxF -f <(grep -v '^#' "${tidy_baseline}") \
      "${tidy_now}" || true)"
    if [[ -n "${new_findings}" ]]; then
      echo "clang-tidy: NEW findings not in ${tidy_baseline}:" >&2
      echo "${new_findings}" >&2
      echo "(fix them, or accept intentionally with --regen-tidy-baseline)" >&2
      exit 1
    fi
    echo "clang-tidy: no new findings"
  fi
else
  echo "== clang-tidy skipped (not installed) =="
fi

echo "== static-analysis gate (examples/analyze --gate webserver) =="
./build/examples/analyze --workload=webserver --gate

echo "== syscall-flow policy gate (examples/policy gate) =="
./build/examples/policy gate

# Value-flow precision leg: the full pipeline (dataflow resolution, argument
# predicates, automaton minimization) must fully resolve the webserver —
# zero wildcard edges — and minimization must not grow the cBPF lowering.
echo "== policy precision gate (dataflow + predicates + minimization) =="
policy_json="$(./build/examples/policy gate --dataflow --predicates --minimize --json)"
grep -q '"wildcard_edges": 0,' <<<"${policy_json}" || {
  echo "policy precision gate: webserver has wildcard edges" >&2
  echo "${policy_json}" >&2
  exit 1
}
insns_unmin="$(sed -n 's/.*"insns_unminimized": \([0-9]*\).*/\1/p' <<<"${policy_json}")"
insns_min="$(sed -n 's/.*"insns_minimized": \([0-9]*\).*/\1/p' <<<"${policy_json}")"
if [[ -z "${insns_min}" || -z "${insns_unmin}" || "${insns_min}" -gt "${insns_unmin}" ]]; then
  echo "policy precision gate: minimized lowering ${insns_min:-?} insns" \
       "exceeds unminimized ${insns_unmin:-?}" >&2
  exit 1
fi
echo "policy precision gate: 0 wildcard edges," \
     "${insns_min}/${insns_unmin} cBPF insns after minimization"

if [[ "${run_bench}" == 1 ]]; then
  # Every harness runs even when an earlier one fails its gate: the host-time
  # gates are noisy, and one of their failures must not hide the simulated
  # bench diff below. Failed gates are collected and reported at the end.
  failed_gates=()
  run_gate() {
    local name="$1"
    shift
    echo "== ${name} =="
    if ! "$@"; then
      failed_gates+=("${name}")
    fi
  }

  # The paper's simulated results: every Table II configuration, every
  # Figure 4 component, and every 1-CPU Figure 5 cell, pinned exactly by the
  # bench diff below.
  run_gate "Table II (table2_micro)" ./build/bench/table2_micro BENCH_table2.json
  run_gate "Figure 4 (fig4_breakdown)" ./build/bench/fig4_breakdown BENCH_fig4.json
  run_gate "Figure 5 (fig5_webservers, 1 CPU)" ./build/bench/fig5_webservers

  # Tracer, profiler, policy enforcer and recorder: writes
  # BENCH_{trace,profile,record}_overhead.json and BENCH_policy.json here.
  run_gate "decorator-overhead bench (overhead)" ./build/bench/overhead

  run_gate "block-exec bench" ./build/bench/block_exec BENCH_block_exec.json

  run_gate "analysis-accuracy bench" \
    ./build/bench/analysis_accuracy BENCH_analysis.json
  run_gate "SMP scale-out bench (fig5 --cpus=8 -> BENCH_smp.json)" \
    ./build/bench/fig5_webservers --cpus=8

  # The host-speed benchmark: its exit code is the reference-engine oracle.
  run_gate "perfbench self-test" python3 perfbench/run.py --self-test
  for workload in web-lazypoline web-sud-record smp-lazypoline; do
    run_gate "perfbench ${workload} (1 s)" python3 perfbench/run.py \
      --workload "${workload}" --seed 1 --seconds 1 --trace 0
  done

  # Bench-regression diff: every artifact the legs above produced, compared
  # against the committed baselines (host-dependent metrics are skipped by
  # the tool; simulation-deterministic ones must match within tolerance).
  bench_artifacts=()
  for artifact in BENCH_*.json; do
    [[ -f "${artifact}" ]] && bench_artifacts+=("${artifact}")
  done
  if [[ "${regen_bench}" == 1 ]]; then
    echo "== bench baselines regenerated (bench/baselines/) =="
    python3 scripts/bench_diff.py --regen "${bench_artifacts[@]}"
  else
    run_gate "bench-regression diff (baselines: bench/baselines/)" \
      python3 scripts/bench_diff.py "${bench_artifacts[@]}"
  fi

  if [[ "${#failed_gates[@]}" -gt 0 ]]; then
    echo "check.sh: ${#failed_gates[@]} bench gate(s) failed:" >&2
    for gate in "${failed_gates[@]}"; do
      echo "  - ${gate}" >&2
    done
    exit 1
  fi
fi

echo "check.sh: all gates passed"
