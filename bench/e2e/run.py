#!/usr/bin/env python3
"""End-to-end wall-clock benchmark of the d/stream library.

Builds bench/e2e (a standalone CMake project over ../../src) into
build-e2e/, runs each workload in its own process, checks every result
element-exact, and reports the metrics BENCHMARK.json defines.

  run.py --workload NAME --seed N --seconds S --trace 0|1
      One workload. The last stdout line is the result object
      {"correct", "attempted", "failed", "metrics"}: the end-to-end
      metrics with --trace 0, the per-layer ledger with --trace 1.
  run.py [--seed N] [--seconds S] [--trace] [--strict] [--smoke]
      Every workload: a table of the end-to-end metrics with units and
      sample counts, and build-e2e/out/results.json. --trace repeats each
      workload traced: a per-layer table, build-e2e/out/layers.json and
      bounded Chrome traces.
  run.py --self-check [--runs N] [--smoke]
      Two sets of N runs with the same seeds must agree within each
      metric's bound, and every metric made worse by 20% beyond its bound
      must be flagged.

--smoke shrinks every workload to a few ops (a quick pass over all code
paths). Standard library only.

Exit status: 0 ok; 1 a check failed (--strict, --self-check); 2 build,
usage or run error, with no result line printed.
"""

import argparse
import copy
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD = ROOT / "build-e2e"
OUT = BUILD / "out"
BINARY = BUILD / "pcxx_e2e"
SMOKE_SECONDS = 0.25

# What each per-layer metric should move ("failed" is the failure count),
# and on which workloads; written into layers.json beside each value. The
# first four are end-to-end statistics too noisy on a shared host to bound;
# they come from the untraced half of the traced process.
LAYER_TARGETS = {
    "write_p95_ms": ([], ["all"]),
    "read_p95_ms": ([], ["all"]),
    "write_gbps": ([], ["all"]),
    "read_gbps": ([], ["all"]),
    "calib.memcpy_gbps": ([], ["all"]),
    "runtime.barrier_us": ([], ["all"]),
    "runtime.collectives_per_op": (["write_p50_ms"], ["frames_seek"]),
    "runtime.sync_wait_s": (["write_p50_ms"], ["frames_seek"]),
    "dstream.insert_s": (["write_p50_ms", "write_gbps"], ["scf_checkpoint"]),
    "dstream.fill_s": (["write_p50_ms", "write_gbps"], ["scf_checkpoint"]),
    "dstream.fill_roofline_frac": (["write_p50_ms", "write_gbps"],
                                   ["scf_checkpoint"]),
    "dstream.header_s": (["write_p50_ms"], ["frames_seek"]),
    "dstream.write_self_s": (["write_p50_ms", "write_gbps"],
                             ["scf_checkpoint"]),
    "dstream.extract_s": (["read_p50_ms"],
                          ["scf_checkpoint", "restart_relayout"]),
    "dstream.extract_roofline_frac": (["read_p50_ms"],
                                      ["scf_checkpoint", "restart_relayout"]),
    "dstream.read_self_s": (["read_p50_ms"],
                            ["scf_checkpoint", "restart_relayout"]),
    "util.crc32_gbps": (["write_p50_ms", "read_p50_ms"], ["scf_checkpoint"]),
    "redist.plan_build_s": (["setup_s", "read_p95_ms"], ["restart_relayout"]),
    "redist.plan_hit_ratio": (["setup_s", "read_p95_ms"],
                              ["restart_relayout"]),
    "redist.exchange_s": (["read_p50_ms"], ["restart_relayout"]),
    "redist.wait_s": (["read_p50_ms"], ["restart_relayout"]),
    "redist.bytes_per_read": (["read_p50_ms"], ["restart_relayout"]),
    "dsindex.open_s": (["read_p50_ms"], ["frames_seek", "restart_relayout"]),
    "dsindex.seek_s": (["read_p50_ms"], ["frames_seek", "restart_relayout"]),
    "dsindex.fallbacks": (["read_p50_ms", "failed"],
                          ["frames_seek", "restart_relayout"]),
    "pfs.read_ops_per_read": (["read_p50_ms"], ["frames_seek"]),
    "pfs.read_bytes_per_byte": (["read_p50_ms"], ["frames_seek"]),
    "pfs.read_s": (["read_p50_ms"], ["scf_checkpoint", "frames_seek"]),
    "pfs.write_s": (["write_p50_ms"], ["scf_checkpoint", "frames_seek"]),
    "pfs.write_ops_per_write": (["write_p50_ms"],
                                ["scf_checkpoint", "frames_seek"]),
    "pfs.codec_s": (["write_p50_ms", "read_p50_ms"], ["epoch_codec"]),
    "pfs.codec_ratio": (["stored_bytes_per_byte"], ["epoch_codec"]),
    "pfs.dedup_hit_ratio": (["write_p50_ms", "stored_bytes_per_byte"],
                            ["epoch_codec"]),
    "pfs.lz_compress_gbps": (["write_p50_ms"], ["epoch_codec"]),
    "pfs.lz_decompress_gbps": (["read_p50_ms"], ["epoch_codec"]),
    "pfs.damaged_chunks": (["failed"], ["epoch_codec"]),
    "aio.stall_s": (["write_p50_ms", "read_p50_ms"], ["epoch_codec"]),
    "aio.drain_s": (["write_p50_ms"], ["epoch_codec"]),
    "aio.prefetch_hit_ratio": (["read_p50_ms"], ["epoch_codec"]),
    "obs.overhead_frac": ([], ["all"]),
}


class BenchError(Exception):
    """A build or run failure: reported on stderr, exit status 2."""


def load_spec():
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read BENCHMARK.json: {e}") from e


def build():
    """Configure and build pcxx_e2e (incremental); output goes to a log."""
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(BUILD)],
        ["cmake", "--build", str(BUILD), "--target", "pcxx_e2e", "-j", jobs],
    ]
    with open(log, "w") as f:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT,
                                    cwd=ROOT).returncode
            except OSError as e:
                raise BenchError(f"cannot run {cmd[0]}: {e}") from e
            if rc != 0:
                f.flush()
                tail = log.read_text(errors="replace").splitlines()[-25:]
                raise BenchError("build failed:\n" + "\n".join(tail))


def run_process(workload, seed, seconds, traced, smoke):
    """One pcxx_e2e process; returns its JSON result."""
    OUT.mkdir(parents=True, exist_ok=True)
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--out", str(OUT)]
    if traced:
        cmd.append("--trace")
    if smoke:
        cmd.append("--smoke")
    # The library reads these; the benchmark pins their defaults.
    env = {k: v for k, v in os.environ.items()
           if k not in ("PCXX_CODEC", "PCXX_LOG")}
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              cwd=ROOT, timeout=2 * seconds + 60)
    except subprocess.TimeoutExpired as e:
        raise BenchError(
            f"{workload}: timed out after {e.timeout:.0f} s") from e
    if proc.returncode != 0:
        raise BenchError(f"{workload}: pcxx_e2e exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as e:
        raise BenchError(f"{workload}: no result from pcxx_e2e") from e


def pick(values, defs, label):
    """{name: {"value", "unit"}} for every metric of `defs`, in order."""
    out = {}
    for d in defs:
        v = values.get(d["name"])
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            raise BenchError(f"{label}: metric {d['name']} missing")
        out[d["name"]] = {"value": v, "unit": d["unit"]}
    return out


def ledger_values(result):
    """A traced process's per-layer values, with the end-to-end statistics
    of its untraced half."""
    return {**result["metrics"], **result["layers"]}


def samples_of(result, name):
    s = result["samples"]
    if name.startswith("write_"):
        return s["write"]
    if name.startswith("read_"):
        return s["read"]
    if name == "setup_s":
        return s["setup"]
    if name in ("model_s", "stored_bytes_per_byte"):
        return s["model"]
    return 1


def failures(*results):
    return sum(r["failed"] for r in results)


def one_workload(args, spec):
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        raise BenchError(f"unknown workload {args.workload!r}")
    build()
    r = run_process(args.workload, args.seed, args.seconds, args.trace,
                    args.smoke)
    if args.trace:
        metrics = pick(ledger_values(r), spec["per_layer"], args.workload)
    else:
        metrics = pick(r["metrics"], spec["end_to_end"], args.workload)
    for e in r["errors"]:
        print(f"{args.workload}: {e}", file=sys.stderr)
    print(json.dumps({
        "correct": r["failed"] == 0,
        "attempted": r["attempted"],
        "failed": r["failed"],
        "metrics": metrics,
    }))
    return 1 if args.strict and r["failed"] else 0


def fmt(v):
    if v == 0 or 1e-3 <= abs(v) < 1e5:
        return f"{v:.4g}"
    return f"{v:.3e}"


def print_grid(rows, first=1, width=150):
    """Left-aligned columns; columns past the first `first` wrap into
    bands so each line fits `width`."""
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    fixed = list(range(first))
    band = []
    for i in range(first, len(widths) + 1):
        used = sum(widths[j] + 2 for j in fixed + band)
        if band and (i == len(widths) or used + widths[i] > width):
            for row in rows:
                print("  ".join(row[j].ljust(widths[j]) for j in fixed + band)
                      .rstrip())
            print()
            band = []
        if i < len(widths):
            band.append(i)


def table_defs(spec, result):
    """The bounded end-to-end metrics, then the unbounded end-to-end
    statistics an untraced run also reports."""
    return spec["end_to_end"] + [d for d in spec["per_layer"]
                                 if d["name"] in result["metrics"]]


def print_table(spec, results):
    """One row per workload, each metric with its sample count."""
    defs = table_defs(spec, next(iter(results.values())))
    rows = [["workload", "attempted", "error_rate"] +
            [f"{d['name']} [{d['unit']}]" for d in defs]]
    for name, r in results.items():
        rows.append([name, str(r["attempted"]),
                     fmt(r["failed"] / max(r["attempted"], 1))] +
                    [f"{fmt(r['metrics'][d['name']])} "
                     f"(n={samples_of(r, d['name'])})" for d in defs])
    print_grid(rows)


def print_layers(spec, ledgers):
    """The per-layer ledger: one row per metric, one column per workload."""
    for name, r in ledgers.items():
        info = r["info"]
        gbps = fmt(r['layers']['calib.memcpy_gbps'])
        array = info['memcpy_array_bytes'] / 2**20
        llc = info['llc_bytes'] / 2**20
        print(f"{name}: memcpy roofline {gbps} GB/s over two {array:.0f} MiB"
              f" arrays (last-level cache {llc:.0f} MiB)")
    rows = [["metric [unit]"] + list(ledgers)]
    for d in spec["per_layer"]:
        rows.append([f"{d['name']} [{d['unit']}]"] +
                    [fmt(ledger_values(r)[d["name"]])
                     for r in ledgers.values()])
    print_grid(rows)


def human_mode(args, spec):
    build()
    results, ledgers = {}, {}
    for w in spec["workloads"]:
        name = w["name"]
        results[name] = run_process(name, args.seed, args.seconds, False,
                                    args.smoke)
        if args.trace:
            ledgers[name] = run_process(name, args.seed, args.seconds, True,
                                        args.smoke)
        for r in (results[name], ledgers.get(name)):
            for e in (r or {}).get("errors", []):
                print(f"{name}: {e}", file=sys.stderr)
    print_table(spec, results)
    if ledgers:
        print_layers(spec, ledgers)
    doc = {"seed": args.seed, "seconds": args.seconds, "smoke": args.smoke,
           "workloads": {}}
    for name, r in results.items():
        doc["workloads"][name] = {
            "attempted": r["attempted"], "failed": r["failed"],
            "error_rate": r["failed"] / max(r["attempted"], 1),
            "errors": r["errors"], "info": r["info"],
            "metrics": {d["name"]: {"value": r["metrics"][d["name"]],
                                    "unit": d["unit"],
                                    "samples": samples_of(r, d["name"])}
                        for d in table_defs(spec, r)}}
    (OUT / "results.json").write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {OUT / 'results.json'}")
    if ledgers:
        layers = {name: {
            "failed": r["failed"],
            "traces": r["traces"],
            "calibration": {k: r["info"][k]
                            for k in ("llc_bytes", "memcpy_array_bytes")},
            "metrics": {d["name"]: {"value": ledger_values(r)[d["name"]],
                                    "unit": d["unit"],
                                    "moves": LAYER_TARGETS[d["name"]][0],
                                    "on": LAYER_TARGETS[d["name"]][1]}
                        for d in spec["per_layer"]},
        } for name, r in ledgers.items()}
        (OUT / "layers.json").write_text(json.dumps(layers, indent=1) + "\n")
        print(f"wrote {OUT / 'layers.json'}")
    failed = failures(*results.values(), *ledgers.values())
    return 1 if args.strict and failed else 0


def worse_by(first, second, better):
    """How much worse `second` is than `first`, as a share of `first`."""
    if first == 0:
        return 0.0 if second == first else math.inf
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


def spread(values):
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else 0.0


def compare(spec, first, second):
    """Per workload, the metrics whose medians differ by more than their
    bound in either direction: {workload: [(metric, change)]}."""
    flagged = {}
    for name in first:
        for d in spec["end_to_end"]:
            a = statistics.median(r["metrics"][d["name"]]
                                  for r in first[name])
            b = statistics.median(r["metrics"][d["name"]]
                                  for r in second[name])
            change = worse_by(a, b, d["better"])
            if abs(change) > d["bound"]:
                flagged.setdefault(name, []).append((d["name"], change))
    return flagged


def self_check(args, spec):
    build()
    seeds = list(range(1, args.runs + 1))
    names = [w["name"] for w in spec["workloads"]]
    sets = []
    for s in range(2):
        sets.append({n: [] for n in names})
        for seed in seeds:
            for n in names:
                print(f"set {s + 1}, seed {seed}: {n}", file=sys.stderr)
                sets[s][n].append(run_process(n, seed, args.seconds, False,
                                              args.smoke))
    ok = True
    bad = failures(*[r for st in sets for rs in st.values() for r in rs])
    if bad:
        print(f"self-check: FAILED - {bad} op(s) failed their checks")
        ok = False

    defs = spec["end_to_end"]
    print(f"set 2 median against set 1 median over seeds {seeds}, and the "
          "spread of set 1 (quartile distance / median); ! = beyond the bound")
    rows = [["workload"] + [f"{d['name']} (bound {d['bound']:.0%})"
                            for d in defs]]
    for n in names:
        row = [n]
        for d in defs:
            a = [r["metrics"][d["name"]] for r in sets[0][n]]
            b = [r["metrics"][d["name"]] for r in sets[1][n]]
            change = worse_by(statistics.median(a), statistics.median(b),
                              d["better"])
            mark = "!" if abs(change) > d["bound"] else ""
            row.append(f"{change:+.1%}{mark} (spread {spread(a):.1%})")
        rows.append(row)
    print_grid(rows)
    flagged = compare(spec, sets[0], sets[1])
    if flagged:
        msg = "; ".join(f"{n}: " + ", ".join(f"{m} {c:+.1%}" for m, c in v)
                        for n, v in flagged.items())
        if args.smoke:
            print(f"self-check: smoke runs disagree ({msg}); not asserted")
        else:
            print(f"self-check: FAILED - medians disagree beyond bound: {msg}")
            ok = False

    # Gate the gate: every metric of every workload made worse by 20% more
    # than its bound must be flagged, and identical sets must pass.
    inflated = copy.deepcopy(sets[0])
    for n in names:
        for r in inflated[n]:
            for d in defs:
                factor = 1.0 + d["bound"] + 0.2
                v = r["metrics"][d["name"]]
                r["metrics"][d["name"]] = \
                    v * factor if d["better"] == "lower" else v / factor
    caught = compare(spec, sets[0], inflated)
    missed = [(n, d["name"]) for n in names for d in defs
              if d["name"] not in [m for m, _ in caught.get(n, [])]]
    if missed or compare(spec, sets[0], sets[0]):
        print(f"self-check: FAILED - the comparison missed {missed} or "
              "flagged identical sets")
        ok = False
    else:
        print("self-check: every metric 20% beyond its bound is flagged; "
              "identical sets pass")
    print("self-check: " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload",
                    help="run one workload; print its result line")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="timed phase per workload (default: run_seconds)")
    ap.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                    choices=[0, 1], help="per-layer ledger and traces")
    ap.add_argument("--strict", action="store_true",
                    help="exit 1 when any op fails its check")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny shapes and timed phases")
    ap.add_argument("--self-check", action="store_true",
                    help="repeatability check of the benchmark itself")
    ap.add_argument("--runs", type=int, default=3,
                    help="runs per set for --self-check")
    args = ap.parse_args()
    try:
        spec = load_spec()
        if args.seconds is None:
            args.seconds = SMOKE_SECONDS if args.smoke else spec["run_seconds"]
        if args.self_check:
            return self_check(args, spec)
        if args.workload is not None:
            return one_workload(args, spec)
        return human_mode(args, spec)
    except BenchError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
