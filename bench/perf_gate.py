#!/usr/bin/env python3
"""CI perf-regression gate over the deterministic virtual-time benches.

Runs the table benches (figure5_all) plus the ablation_redist,
ablation_overlap, ablation_index, and ablation_codec sweeps, validates
the emitted trace artifacts (loadable
JSON containing flow events with no unterminated chains), and compares
the fresh metrics against the checked-in baseline (bench/BENCH_7.json):

    bench/perf_gate.py --build-dir build                 # gate
    bench/perf_gate.py --build-dir build --update        # refresh baseline
    bench/perf_gate.py --build-dir build --self-test     # gate the gate

The simulation is bit-reproducible, so the baseline is an exact artifact:
any growth beyond --fail-on-regression percent (default 5) in a bench
total or phase is a genuine model regression, not measurement noise.
Table metrics are gated through compare_metrics.py --fail-on-regression;
the ablation runs are gated in-process with the same one-sided rule over
each run's merged phase timers.

--self-test synthesizes a candidate with every table total and phase
inflated by 20% and asserts the gate rejects it (exit 3) while accepting
the unmodified metrics — run in CI so the gate itself cannot silently rot.

A human-readable summary is written to OUT_DIR/gate_report.txt alongside
the raw artifacts. Standard library only.

Exit status: 0 pass, 1 self-test/internal failure, 2 usage or artifact
errors, 3 regression detected.
"""

import argparse
import glob
import json
import os
import subprocess
import sys

GATE_EXIT_REGRESSION = 3

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
COMPARE = os.path.join(BENCH_DIR, "compare_metrics.py")

# ablation_redist CI-smoke shape (matches ci/run_ci.sh): small but
# exercises plan reuse and the chunked exchange.
ABLATION_REDIST_ARGS = ["--segments", "600", "--particles", "6",
                        "--records", "2", "--repeats", "2"]

# ablation_index CI-smoke shape (matches ci/run_ci.sh): exercises the
# indexed-seek and chain-replay paths over a short record-count sweep.
ABLATION_INDEX_ARGS = ["--elements", "256", "--max-records", "16",
                       "--repeats", "2"]

# ablation_codec CI-smoke shape: small enough to be quick, big enough
# that whole chunks repeat across the two epochs (dedup must hit). The
# bench zeroes its wall-clock pfs.codec_seconds timer before capture, so
# every timer the gate compares is deterministic virtual time.
ABLATION_CODEC_ARGS = ["--elements", "8192", "--chunk-kib", "8"]

# Methods whose per-phase attribution is scheduling-dependent: the
# perf model's smallOpsSerialize queue arbitrates concurrent small ops
# in real lock-acquisition order, so the element-at-a-time Unbuffered
# I/O method redistributes time between pfs_read/pfs_write/other from
# run to run (its totals stay reproducible to <0.01%). The gate keeps
# these methods' totals and drops their phases on both sides.
SCHEDULING_NOISY_METHODS = {"Unbuffered I/O"}


class GateError(Exception):
    """Artifact or usage problem (exit 2)."""


def run_bench(build_dir, out_dir, report):
    """Run the five benches; return paths of the metrics documents."""
    tables = os.path.join(out_dir, "figure5.metrics.json")
    trace_base = os.path.join(out_dir, "figure5.trace.json")
    redist = os.path.join(out_dir, "ablation_redist.metrics.json")
    overlap = os.path.join(out_dir, "ablation_overlap.metrics.json")
    index = os.path.join(out_dir, "ablation_index.metrics.json")
    codec = os.path.join(out_dir, "ablation_codec.metrics.json")
    jobs = [
        ([os.path.join(build_dir, "bench", "figure5_all"),
          "--metrics-json", tables, "--trace-json", trace_base],
         "figure5_all"),
        ([os.path.join(build_dir, "bench", "ablation_redist"),
          *ABLATION_REDIST_ARGS, "--metrics-json", redist],
         "ablation_redist"),
        ([os.path.join(build_dir, "bench", "ablation_overlap"),
          "--metrics-json", overlap],
         "ablation_overlap"),
        ([os.path.join(build_dir, "bench", "ablation_index"),
          *ABLATION_INDEX_ARGS, "--metrics-json", index],
         "ablation_index"),
        ([os.path.join(build_dir, "bench", "ablation_codec"),
          *ABLATION_CODEC_ARGS, "--metrics-json", codec],
         "ablation_codec"),
    ]
    for cmd, name in jobs:
        if not os.path.exists(cmd[0]):
            raise GateError(f"bench binary not found: {cmd[0]} "
                            f"(build the tree first)")
        log = os.path.join(out_dir, f"{name}.log")
        with open(log, "w", encoding="utf-8") as f:
            proc = subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT)
        if proc.returncode != 0:
            raise GateError(f"{name} exited {proc.returncode}, see {log}")
        report.append(f"ran {name}: OK")
    return {"tables": tables, "ablation_redist": redist,
            "ablation_overlap": overlap, "ablation_index": index,
            "ablation_codec": codec, "trace_base": trace_base}


def validate_traces(trace_base, report):
    """Every emitted trace must load and carry terminated flow chains."""
    paths = sorted(glob.glob(trace_base + ".table*.json"))
    if not paths:
        raise GateError(f"no trace artifacts matching {trace_base}.table*")
    for path in paths:
        with open(path, "r", encoding="utf-8") as f:
            try:
                doc = json.load(f)
            except json.JSONDecodeError as e:
                raise GateError(f"{path}: invalid JSON: {e}") from e
        events = doc.get("traceEvents")
        if not isinstance(events, list) or not events:
            raise GateError(f"{path}: no traceEvents")
        starts = {e.get("id") for e in events if e.get("ph") == "s"}
        ends = {e.get("id") for e in events if e.get("ph") == "f"}
        if not starts:
            raise GateError(f"{path}: no flow events — causal tracing "
                            f"is broken")
        unterminated = starts - ends
        if unterminated:
            raise GateError(f"{path}: {len(unterminated)} flow chain(s) "
                            f"without a terminator")
        report.append(f"trace {os.path.basename(path)}: "
                      f"{len(events)} events, {len(starts)} flow chains, "
                      f"all terminated")


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise GateError(f"{path}: {e}") from e


def strip_for_gate(doc, drop_per_node=False):
    """Deep-copy a pcxx-metrics-v1 doc shaped for stable comparison:
    phases of scheduling-noisy methods removed (totals kept), and
    optionally the per-node breakdowns (profiling data, not gate data)."""
    out = json.loads(json.dumps(doc))
    for table in out.get("tables", []):
        for cell in table.get("cells", []):
            for method in cell.get("methods", []):
                if method.get("method") in SCHEDULING_NOISY_METHODS:
                    method["phases"] = {}
                if drop_per_node:
                    method.pop("per_node", None)
    return out


def compare_tables(baseline_tables, candidate_path, pct, out_dir, report):
    """Gate the figure5 metrics through compare_metrics.py; return exit."""
    base_path = os.path.join(out_dir, "baseline.tables.json")
    cand_path = os.path.join(out_dir, "candidate.tables.json")
    with open(base_path, "w", encoding="utf-8") as f:
        json.dump(strip_for_gate(baseline_tables), f)
    with open(cand_path, "w", encoding="utf-8") as f:
        json.dump(strip_for_gate(load_json(candidate_path)), f)
    proc = subprocess.run(
        [sys.executable, COMPARE, base_path, cand_path,
         "--fail-on-regression", str(pct)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    log = os.path.join(out_dir, "compare_tables.log")
    with open(log, "w", encoding="utf-8") as f:
        f.write(proc.stdout)
    if proc.returncode == 0:
        report.append(f"tables: no regression beyond {pct}%")
    elif proc.returncode == GATE_EXIT_REGRESSION:
        report.append(f"tables: REGRESSION (see {log})")
        report.append(proc.stdout.rstrip())
    else:
        raise GateError(f"compare_metrics.py exited {proc.returncode}: "
                        f"{proc.stdout.strip()}")
    return proc.returncode


def compare_ablation(name, baseline_doc, candidate_doc, pct, report):
    """One-sided check over each run's merged phase timers. Returns the
    list of regression strings (empty = pass)."""
    def runs_of(doc):
        return {r.get("label"): r.get("metrics", {}).get("merged", {})
                                  .get("seconds", {})
                for r in doc.get("runs", [])}

    base_runs = runs_of(baseline_doc)
    cand_runs = runs_of(candidate_doc)
    common = set(base_runs) & set(cand_runs)
    if not common:
        raise GateError(f"{name}: baseline and candidate share no run "
                        f"labels — refresh the baseline with --update")
    for gone in sorted(set(base_runs) - set(cand_runs)):
        report.append(f"{name}: run dropped since baseline: {gone}")
    for new in sorted(set(cand_runs) - set(base_runs)):
        report.append(f"{name}: run not in baseline (ignored): {new}")

    regressions = []
    for label in sorted(common):
        base_s, cand_s = base_runs[label], cand_runs[label]
        for key in sorted(set(base_s) | set(cand_s)):
            bv = float(base_s.get(key, 0.0))
            cv = float(cand_s.get(key, 0.0))
            if bv == 0.0:
                grown = cv > 1e-6
            else:
                grown = (cv - bv) / bv * 100.0 > pct
            if grown:
                regressions.append(
                    f"{name} | {label} | {key}: {bv:.6g}s -> {cv:.6g}s")
    if regressions:
        report.append(f"{name}: REGRESSION in {len(regressions)} timer(s)")
        report.extend("  " + r for r in regressions)
    else:
        report.append(f"{name}: no regression beyond {pct}%")
    return regressions


def inflate_tables(doc, factor):
    """Deep-copy a pcxx-metrics-v1 doc with all times scaled by factor."""
    out = json.loads(json.dumps(doc))
    for table in out.get("tables", []):
        for cell in table.get("cells", []):
            for method in cell.get("methods", []):
                method["total_seconds"] = \
                    method.get("total_seconds", 0.0) * factor
                phases = method.get("phases", {})
                for k in phases:
                    phases[k] = phases[k] * factor
    return out


def self_test(fresh_tables_path, pct, out_dir, report):
    """The gate must reject a 20% synthetic regression and accept the
    unmodified metrics. Returns True on success."""
    fresh = load_json(fresh_tables_path)
    inflated_path = os.path.join(out_dir, "selftest.inflated.json")
    with open(inflated_path, "w", encoding="utf-8") as f:
        json.dump(inflate_tables(fresh, 1.2), f)

    def run(base, cand):
        return subprocess.run(
            [sys.executable, COMPARE, base, cand,
             "--fail-on-regression", str(pct)],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode

    ok = True
    rc = run(fresh_tables_path, inflated_path)
    if rc != GATE_EXIT_REGRESSION:
        report.append(f"self-test: FAILED — synthetic +20% regression "
                      f"exited {rc}, expected {GATE_EXIT_REGRESSION}")
        ok = False
    rc = run(fresh_tables_path, fresh_tables_path)
    if rc != 0:
        report.append(f"self-test: FAILED — identical metrics exited {rc}, "
                      f"expected 0")
        ok = False
    if ok:
        report.append("self-test: gate rejects +20% and accepts identity")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--build-dir", default="build",
                    help="CMake build tree with the bench binaries")
    ap.add_argument("--baseline",
                    default=os.path.join(BENCH_DIR, "BENCH_7.json"),
                    help="checked-in baseline document")
    ap.add_argument("--out-dir", default=None,
                    help="artifact directory (default: BUILD_DIR/perf)")
    ap.add_argument("--fail-on-regression", type=float, default=5.0,
                    metavar="PCT",
                    help="allowed growth per total/phase (default: 5)")
    ap.add_argument("--update", action="store_true",
                    help="write the baseline from this run instead of "
                         "comparing")
    ap.add_argument("--self-test", action="store_true",
                    help="also verify the gate catches a synthetic +20% "
                         "regression")
    args = ap.parse_args()

    out_dir = args.out_dir or os.path.join(args.build_dir, "perf")
    os.makedirs(out_dir, exist_ok=True)
    report = []
    status = 0
    try:
        paths = run_bench(args.build_dir, out_dir, report)
        validate_traces(paths["trace_base"], report)

        if args.self_test:
            if not self_test(paths["tables"], args.fail_on_regression,
                             out_dir, report):
                status = max(status, 1)

        if args.update:
            # Per-node breakdowns are profiling data (pcxx-prof reads them
            # from the fresh artifacts); the checked-in baseline keeps only
            # what the gate compares, so it stays reviewably small.
            def slim_ablation(doc):
                out = json.loads(json.dumps(doc))
                for run in out.get("runs", []):
                    run.get("metrics", {}).pop("per_node", None)
                return out

            baseline = {
                "schema": "pcxx-bench-baseline-v1",
                "tables": strip_for_gate(load_json(paths["tables"]),
                                         drop_per_node=True),
                "ablations": {
                    "ablation_redist":
                        slim_ablation(load_json(paths["ablation_redist"])),
                    "ablation_overlap":
                        slim_ablation(load_json(paths["ablation_overlap"])),
                    "ablation_index":
                        slim_ablation(load_json(paths["ablation_index"])),
                    "ablation_codec":
                        slim_ablation(load_json(paths["ablation_codec"])),
                },
            }
            with open(args.baseline, "w", encoding="utf-8") as f:
                json.dump(baseline, f, indent=1, sort_keys=True)
                f.write("\n")
            report.append(f"baseline updated: {args.baseline}")
        else:
            baseline = load_json(args.baseline)
            if baseline.get("schema") != "pcxx-bench-baseline-v1":
                raise GateError(f"{args.baseline}: not a "
                                f"pcxx-bench-baseline-v1 document")
            rc = compare_tables(baseline["tables"], paths["tables"],
                                args.fail_on_regression, out_dir, report)
            if rc == GATE_EXIT_REGRESSION:
                status = max(status, GATE_EXIT_REGRESSION)
            for name in ("ablation_redist", "ablation_overlap",
                         "ablation_index", "ablation_codec"):
                base_doc = baseline.get("ablations", {}).get(name)
                if base_doc is None:
                    raise GateError(f"{args.baseline}: no {name} ablation "
                                    f"baseline — refresh with --update")
                if compare_ablation(name, base_doc, load_json(paths[name]),
                                    args.fail_on_regression, report):
                    status = max(status, GATE_EXIT_REGRESSION)
    except GateError as e:
        report.append(f"error: {e}")
        status = 2

    report_path = os.path.join(out_dir, "gate_report.txt")
    verdict = {0: "PASS", 1: "SELF-TEST FAILURE", 2: "ERROR",
               3: "REGRESSION"}[status]
    lines = [f"pcxx perf gate: {verdict}",
             f"threshold: {args.fail_on_regression}% one-sided", ""]
    lines += report
    text = "\n".join(lines) + "\n"
    with open(report_path, "w", encoding="utf-8") as f:
        f.write(text)
    print(text, end="")
    return status


if __name__ == "__main__":
    sys.exit(main())
