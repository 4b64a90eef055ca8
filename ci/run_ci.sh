#!/usr/bin/env bash
# CI driver: build + test the repository in one of nine configurations,
# or all of them.
#
#   ci/run_ci.sh default     plain RelWithDebInfo build
#   ci/run_ci.sh asan        AddressSanitizer + UBSan (PCXX_SANITIZE=ON)
#   ci/run_ci.sh tsan        ThreadSanitizer         (PCXX_TSAN=ON)
#   ci/run_ci.sh obs-off     instrumentation compiled out (PCXX_OBS=OFF)
#   ci/run_ci.sh fault       ASan build, fault-tolerance suite only
#   ci/run_ci.sh chaos       ASan build, runtime chaos/watchdog suite only
#   ci/run_ci.sh codec       full suite under PCXX_CODEC=lz + off-switch
#                            byte-identity + codec ablation smoke
#   ci/run_ci.sh coverage    gcov-instrumented build + line-coverage gate
#   ci/run_ci.sh perf        perf-regression gate vs bench/BENCH_7.json
#   ci/run_ci.sh all         all of the above, sequentially
#
# Each configuration builds into build-ci-<name>/, runs the full ctest
# suite, and (default config only) runs the dslint lint target so protocol
# or symmetry regressions in client code fail CI; the default leg also
# gates on the SARIF report (valid JSON, good fixtures clean, bad fixtures
# caught) and leaves *.sarif in the build tree for CI to archive. Sanitizer configurations
# are separate build trees because PCXX_SANITIZE and PCXX_TSAN are
# mutually exclusive at configure time. Test suites carry ctest labels
# (unit | fault | stress | roundtrip | chaos; see tests/CMakeLists.txt), so
# legs select by label: the fault and chaos legs reuse the asan build tree
# and re-run `ctest -L fault` / `ctest -L chaos` as their own CI rows; the
# codec leg reuses the default tree and re-runs the full suite with
# PCXX_CODEC=lz exported. The coverage leg builds with
# PCXX_COVERAGE=ON, runs the tests, and gates total src/ line coverage
# (ci/coverage_report.py) against the checked-in ci/coverage_threshold.txt.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
jobs="$(nproc 2>/dev/null || echo 4)"

run_config() {
  local name="$1"
  shift
  local build_dir="${repo_root}/build-ci-${name}"
  echo "=== [${name}] configure ==="
  cmake -S "${repo_root}" -B "${build_dir}" -DCMAKE_BUILD_TYPE=RelWithDebInfo "$@"
  echo "=== [${name}] build ==="
  cmake --build "${build_dir}" -j "${jobs}"
  echo "=== [${name}] test ==="
  ctest --test-dir "${build_dir}" --output-on-failure -j "${jobs}"
  if [ "${name}" = "default" ]; then
    echo "=== [${name}] lint ==="
    cmake --build "${build_dir}" --target lint
    # dslint gate: the SARIF report over src/ + examples/ (written by the
    # lint-sarif target above) must be loadable JSON, every good fixture
    # must stay clean, and every bad fixture must still be caught — the
    # fixture corpus doubles as the analyzer's end-to-end regression net.
    echo "=== [${name}] dslint sarif gate ==="
    local dslint_bin="${build_dir}/src/dslint/dslint"
    python3 -c 'import json,sys; json.load(open(sys.argv[1]))' \
      "${build_dir}/dslint.sarif"
    "${dslint_bin}" --format=sarif \
      "${repo_root}"/tests/dslint/fixtures/*_good.cpp \
      > "${build_dir}/dslint-fixtures.sarif"
    python3 -c 'import json,sys; json.load(open(sys.argv[1]))' \
      "${build_dir}/dslint-fixtures.sarif"
    for f in "${repo_root}"/tests/dslint/fixtures/*_bad.cpp; do
      if "${dslint_bin}" "${f}" > /dev/null; then
        echo "dslint gate: expected diagnostics in ${f}" >&2
        return 1
      fi
    done
    # Redistribution smoke: every plan-engine and node-count read
    # element-exact plus a nonzero plan-cache hit count (the binary exits 1
    # on either failure).
    echo "=== [${name}] redist ablation smoke ==="
    "${build_dir}/bench/ablation_redist" \
      --segments 600 --particles 6 --records 2 --repeats 2
    # Index-footer smoke: indexed seeks vs chain replay stay byte-identical
    # and the footer actually backs the seeks (the binary exits 1 on
    # either failure).
    echo "=== [${name}] index ablation smoke ==="
    "${build_dir}/bench/ablation_index" \
      --elements 256 --max-records 16 --repeats 2
    # End-to-end benchmark smoke: every workload, projected reads included,
    # must come back element-exact with no index-footer fallback (--strict
    # exits 1 on any failed op). Builds its own tree, build-e2e/.
    echo "=== [${name}] e2e benchmark smoke ==="
    python3 "${repo_root}/bench/e2e/run.py" --smoke --strict
  fi
  echo "=== [${name}] OK ==="
}

# Fault-tolerance leg: build under ASan (heap misuse in recovery paths is
# the realistic failure mode) and run only the fault-labeled suites.
run_fault() {
  local build_dir="${repo_root}/build-ci-asan"
  echo "=== [fault] configure ==="
  cmake -S "${repo_root}" -B "${build_dir}" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo -DPCXX_SANITIZE=ON
  echo "=== [fault] build ==="
  cmake --build "${build_dir}" -j "${jobs}"
  echo "=== [fault] test ==="
  ctest --test-dir "${build_dir}" --output-on-failure -j "${jobs}" -L fault
  echo "=== [fault] OK ==="
}

# Chaos leg: the seeded rt::ChaosPlan x pfs::FaultPlan soak sweep plus the
# watchdog/abort suites, under ASan — the no-leak half of the no-hang/
# no-leak guarantee. Reuses (or creates) the asan build tree.
run_chaos() {
  local build_dir="${repo_root}/build-ci-asan"
  echo "=== [chaos] configure ==="
  cmake -S "${repo_root}" -B "${build_dir}" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo -DPCXX_SANITIZE=ON
  echo "=== [chaos] build ==="
  cmake --build "${build_dir}" -j "${jobs}"
  echo "=== [chaos] test ==="
  ctest --test-dir "${build_dir}" --output-on-failure -j "${jobs}" -L chaos
  echo "=== [chaos] OK ==="
}

# Coverage leg: Debug-ish gcov instrumentation, full test run, then the
# aggregate line-coverage gate over src/.
run_coverage() {
  local build_dir="${repo_root}/build-ci-coverage"
  echo "=== [coverage] configure ==="
  cmake -S "${repo_root}" -B "${build_dir}" \
    -DCMAKE_BUILD_TYPE=Debug -DPCXX_COVERAGE=ON
  echo "=== [coverage] build ==="
  cmake --build "${build_dir}" -j "${jobs}"
  echo "=== [coverage] test ==="
  ctest --test-dir "${build_dir}" --output-on-failure -j "${jobs}"
  echo "=== [coverage] report ==="
  python3 "${repo_root}/ci/coverage_report.py" "${build_dir}" \
    --threshold-file "${repo_root}/ci/coverage_threshold.txt"
  echo "=== [coverage] OK ==="
}

# Codec leg: the whole test battery must pass with the pfs chunk codec
# force-enabled (PCXX_CODEC=lz frames every stream any test writes), and
# the off switch must be a true no-op: PCXX_CODEC=off output is compared
# byte-for-byte against an unset environment (the pre-codec format), while
# PCXX_CODEC=lz output must actually carry the codec magic. Reuses (or
# creates) the default build tree, then runs the codec ablation smoke
# (compression + dedup + virtual-time identity; the binary exits 1 on any
# failure).
run_codec() {
  local build_dir="${repo_root}/build-ci-default"
  echo "=== [codec] configure ==="
  cmake -S "${repo_root}" -B "${build_dir}" -DCMAKE_BUILD_TYPE=RelWithDebInfo
  echo "=== [codec] build ==="
  cmake --build "${build_dir}" -j "${jobs}"
  echo "=== [codec] test (PCXX_CODEC=lz) ==="
  PCXX_CODEC=lz ctest --test-dir "${build_dir}" --output-on-failure \
    -j "${jobs}"
  echo "=== [codec] off-switch byte identity ==="
  local probe_dir="${build_dir}/codec-identity"
  rm -rf "${probe_dir}"
  mkdir -p "${probe_dir}/off" "${probe_dir}/unset" "${probe_dir}/lz"
  PCXX_CODEC=off "${build_dir}/examples/quickstart" \
    --dir "${probe_dir}/off" > /dev/null
  env -u PCXX_CODEC "${build_dir}/examples/quickstart" \
    --dir "${probe_dir}/unset" > /dev/null
  PCXX_CODEC=lz "${build_dir}/examples/quickstart" \
    --dir "${probe_dir}/lz" > /dev/null
  cmp "${probe_dir}/off/wholeGridFile" "${probe_dir}/unset/wholeGridFile"
  if [ "$(head -c 8 "${probe_dir}/lz/wholeGridFile")" != "PCXXCDC1" ]; then
    echo "codec gate: PCXX_CODEC=lz did not frame the output file" >&2
    return 1
  fi
  echo "=== [codec] ablation smoke ==="
  "${build_dir}/bench/ablation_codec" --elements 8192 --chunk-kib 8
  echo "=== [codec] OK ==="
}

# Perf leg: release build (no test run — the other legs own correctness),
# then the perf-regression gate: run the virtual-time benches, validate
# the causal-trace artifacts, self-test the gate against a synthetic +20%
# regression, and compare against the checked-in baseline
# (bench/BENCH_7.json). The simulation is deterministic, so any growth
# beyond the threshold is a genuine model regression. Artifacts (traces,
# metrics, gate_report.txt) are left in build-ci-perf/perf/ for CI to
# archive.
run_perf() {
  local build_dir="${repo_root}/build-ci-perf"
  echo "=== [perf] configure ==="
  cmake -S "${repo_root}" -B "${build_dir}" -DCMAKE_BUILD_TYPE=Release
  echo "=== [perf] build ==="
  cmake --build "${build_dir}" -j "${jobs}"
  echo "=== [perf] gate ==="
  python3 "${repo_root}/bench/perf_gate.py" --build-dir "${build_dir}" \
    --self-test
  echo "=== [perf] OK ==="
}

case "${1:-all}" in
  default)  run_config default ;;
  asan)     run_config asan -DPCXX_SANITIZE=ON ;;
  tsan)     run_config tsan -DPCXX_TSAN=ON ;;
  obs-off)  run_config obs-off -DPCXX_OBS=OFF ;;
  fault)    run_fault ;;
  chaos)    run_chaos ;;
  codec)    run_codec ;;
  coverage) run_coverage ;;
  perf)     run_perf ;;
  all)
    run_config default
    run_config asan -DPCXX_SANITIZE=ON
    run_config tsan -DPCXX_TSAN=ON
    run_config obs-off -DPCXX_OBS=OFF
    run_fault
    run_chaos
    run_codec
    run_coverage
    run_perf
    ;;
  *)
    echo "usage: $0 [default|asan|tsan|obs-off|fault|chaos|codec|coverage|perf|all]" >&2
    exit 2
    ;;
esac
