"""loopfield benchmark: experiment configs through run_experiment, end to end.

    python3 perfbench/run.py --workload exact-sweep --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload mc-oracle --seed 1 --seconds 45 --repeat 5

Run from the root of a checkout (it finds src/loopfield next to this
directory and builds nothing).  One run:

1. times the set-up a CLI user pays on every call, interpreter start to
   ``loopfield.harness`` imported, several times (``setup_s`` = median);
2. runs passes of the workload until the next pass would end after
   ``--seconds``.  A pass is one worker process (worker.py) that runs the
   workload's configs one after the other, single-threaded.  Before the
   first pass and after each pass of ``exact-sweep`` it times a
   calibration kernel, whose median rescales that workload's median pass
   time (``wall_s``) to the reference machine speed;
3. checks the outputs: every clause passes (negative-control must exit 1
   instead), no experiment raises or exits 2/3, and every pass yields the
   same CSV bytes, clause outcomes and z-scores as the first;
4. prints every metric with its unit, writes
   ``.bench_build/perfbench/BENCH_<workload>_seed<n>_trace<t>.json``
   (provenance, clause lines, z-scores, CSV digests, metrics) and, as the
   last line, one JSON object {correct, attempted, failed, metrics}.

With ``--trace 0`` the metrics are the end-to-end ones, from untraced
passes.  With ``--trace 1`` untraced and traced passes alternate, and the
metrics are the per-layer ones (tracing.py) plus the tracing overhead.
``--repeat N`` is the steadiness mode: N runs with seeds n .. n+N-1, then
the median, quartiles and spread of every metric.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_build" / "perfbench"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 3
CALIBRATION_KEYS = 300_000
CALIBRATION_REF_S = 0.25  # typical calibrate() time on a 2-core Xeon sandbox
RUN_LIMIT_S = 170.0  # a run must exit within 180 s

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
             "sigma_1s": "sqrt_s"}


class BenchError(RuntimeError):
    pass


def child_env():
    """The environment of every child: this checkout's sources, one thread."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# provenance


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(seed, items, env):
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "git_commit": _git_commit(),
        "threads": {v: env.get(v) for v in THREAD_VARS + ("LOOPFIELD_THREADS",)},
        "workload_seed": seed,
        "config_sha256": {stem: sha256(text.encode()) for stem, text in items},
    }


# ---------------------------------------------------------------------------
# set-up time


def measure_setup(env, samples):
    """Seconds from spawning an interpreter to loopfield.harness imported.

    One untimed import first compiles the bytecode, which a user pays once.
    """
    code = "import time, loopfield.harness; print(repr(time.monotonic()))"
    cmd = [sys.executable, "-c", code]
    subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, check=True,
                   timeout=60)
    out = []
    for _ in range(samples):
        t0 = time.monotonic()
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, check=True, timeout=60)
        out.append(float(proc.stdout.split()[-1]) - t0)
    return out


# ---------------------------------------------------------------------------
# one pass


def run_pass(pass_dir, items, trace, env, timeout):
    cfg_dir = pass_dir / "cfg"
    cfg_dir.mkdir(parents=True)
    manifest = []
    for stem, text in items:
        path = cfg_dir / f"{stem}.cfg"
        path.write_text(text)
        manifest.append([stem, str(path)])
    (pass_dir / "manifest.json").write_text(json.dumps(manifest))
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(pass_dir),
                           "1" if trace else "0"],
                          env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(timeout, 1.0))
    elapsed = time.monotonic() - t0
    result_path = pass_dir / "worker.json"
    if proc.returncode != 0 or not result_path.exists():
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr[-3000:]}")
    worker = json.loads(result_path.read_text())
    record = evaluate_pass(pass_dir, worker)
    record.update(traced=trace, elapsed_s=elapsed,
                  peak_rss_mb=worker["peak_rss_mb"])
    if trace:
        payload = json.loads((pass_dir / "spans.json").read_text())
        record["spans"] = len(payload["spans"])
        record["layers"] = tracing.summarize(payload, workloads.STEMS)
    return record


def _z_scores(rows):
    out = []
    for r in rows:
        rs, sg = r.get("residual_sigma"), r.get("sigma")
        if isinstance(rs, (int, float)) and rs > 0:
            z = r["residual"] / rs
        elif isinstance(sg, (int, float)) and sg > 0 and isinstance(r.get("target"), (int, float)):
            z = (r["value"] - r["target"]) / sg
        else:
            continue
        out.append({"group": r.get("group"), "epsilon": r.get("epsilon"),
                    "term": r.get("term"), "z": z})
    return out


def _sigmas(rows):
    out = []
    for r in rows:
        for key in ("residual_sigma", "sigma"):
            v = r.get(key)
            if isinstance(v, (int, float)) and v > 0:
                out.append(v)
                break
    return out


CONVERGENCE_TERMS = {"deformation-combination", "triple-combination",
                     "merger-combination"}


def _final_gaps(rows):
    """Per (experiment, group, term) sweep: the largest gap at the finest eps."""
    finest = {}
    for r in rows:
        if r.get("term") not in CONVERGENCE_TERMS or not isinstance(r.get("gap"), float):
            continue
        key = (r["experiment"], r["group"], r["term"])
        eps, gap = finest.get(key, (math.inf, 0.0))
        if r["epsilon"] < eps:
            finest[key] = (r["epsilon"], r["gap"])
        elif r["epsilon"] == eps:
            finest[key] = (eps, max(gap, r["gap"]))
    return [gap for _, gap in finest.values()]


def evaluate_pass(pass_dir, worker):
    """Operations, failures and evidence of one pass, per experiment."""
    experiments = {}
    for entry in worker["experiments"]:
        stem, code = entry["stem"], entry["exit"]
        base = pass_dir / "out" / stem
        report, csv_digest = None, None
        if code in (0, 1) and base.with_suffix(".json").exists():
            report = json.loads(base.with_suffix(".json").read_text())
            csv_digest = sha256(base.with_suffix(".csv").read_bytes())
        clauses = report["clauses"] if report else []
        expected = workloads.EXPECTED_EXIT.get(stem, 0)
        if not clauses:
            ops, failed = 1, 1
        elif expected == 1:
            ops, failed = len(clauses), (0 if code == 1 else len(clauses))
        else:
            ops = len(clauses)
            failed = sum(not c["passed"] for c in clauses)
            if code != 0 and failed == 0:
                failed = 1
        rows = report["rows"] if report else []
        experiments[stem] = {
            "exit": code,
            "error": entry["error"],
            "wall_s": entry["wall_s"],
            "ops": ops,
            "failed": failed,
            "clauses": [("[PASS] " if c["passed"] else "[FAIL] ") + c["name"]
                        + (f"  ({c['detail']})" if c["detail"] else "")
                        for c in clauses],
            "z_scores": _z_scores(rows),
            "csv_sha256": csv_digest,
            "sigmas": _sigmas(rows),
            "final_gaps": _final_gaps(rows),
        }
    return {"wall_s": sum(e["wall_s"] for e in experiments.values()),
            "ops": sum(e["ops"] for e in experiments.values()),
            "failed": sum(e["failed"] for e in experiments.values()),
            "experiments": experiments}


def consistency_errors(passes):
    """Every pass must reproduce the first pass's CSVs, clauses and z-scores.

    The inputs and seeds are fixed within a run, so a difference means the
    program is not deterministic or tracing changed a result.
    """
    errors = []
    first = passes[0]["experiments"]
    for k, p in enumerate(passes[1:], start=1):
        for stem, e in p["experiments"].items():
            ref = first[stem]
            for key in ("csv_sha256", "clauses", "z_scores"):
                if e[key] != ref[key]:
                    errors.append(f"pass {k} ({'traced' if p['traced'] else 'untraced'})"
                                  f" {stem}: {key} differs from pass 0")
    return errors


def calibrate():
    """Seconds for a fixed set-and-dict kernel that does not use loopfield.

    Like the exact experiments it is bound by memory latency, so its time
    follows the speed the shared machine gives a process at the moment.
    """
    t0 = time.perf_counter()
    keys = {(i % 1013, i // 1013, i & 7) for i in range(CALIBRATION_KEYS)}
    table = dict.fromkeys(keys, 1)
    sum(((i * 7) % 1013, i // 1013, 0) in table for i in range(CALIBRATION_KEYS))
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# one run


def run_once(workload, seed, seconds, trace):
    t_start = time.monotonic()
    deadline = t_start + seconds
    env = child_env()
    items = workloads.configs(workload, seed)
    run_dir = OUT / "runs" / f"{workload}-seed{seed}-trace{trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    setup = [] if trace else measure_setup(env, SETUP_SAMPLES)

    passes = []
    calibrated = workload in workloads.CALIBRATED
    calibration = [calibrate()] if calibrated else []
    min_passes = 2 if trace else 1
    while True:
        traced = bool(trace) and len(passes) % 2 == 1
        remaining = RUN_LIMIT_S - (time.monotonic() - t_start)
        passes.append(run_pass(run_dir / f"pass{len(passes)}", items, traced,
                               env, remaining))
        if calibrated:
            calibration.append(calibrate())
        longest = max(p["elapsed_s"] for p in passes)
        if len(passes) >= min_passes and time.monotonic() + longest > deadline:
            break

    untraced = [p for p in passes if not p["traced"]]
    attempted = sum(p["ops"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    errors = consistency_errors(passes)
    for k, p in enumerate(passes):
        for stem, e in p["experiments"].items():
            if e["failed"]:
                errors.append(f"pass {k} {stem}: {e['failed']} of {e['ops']} "
                              f"operations failed (exit {e['exit']})"
                              + (f"\n{e['error']}" if e["error"] else ""))

    # the speed the machine gave this run drifts by tens of percent over
    # minutes; the calibration kernel drifts with it (README.md, Calibration)
    speed_scale = (CALIBRATION_REF_S / statistics.median(calibration)
                   if calibrated else 1.0)
    raw_wall_s = statistics.median(p["wall_s"] for p in untraced)
    wall_s = raw_wall_s * speed_scale
    first = untraced[0]["experiments"]
    key = "final_gaps" if workload == "exact-sweep" else "sigmas"
    reported = [v for e in first.values() for v in e[key]]
    if not reported:
        raise BenchError("no experiment reported an error estimate:\n"
                         + "\n".join(errors))
    error = statistics.median(reported)
    e2e = {"wall_s": wall_s,
           "peak_rss_mb": max(p["peak_rss_mb"] for p in untraced),
           "sigma_1s": error * math.sqrt(wall_s)}
    if setup:
        e2e["setup_s"] = statistics.median(setup)

    if trace:
        traced_passes = [p for p in passes if p["traced"]]
        names = list(traced_passes[0]["layers"])
        metrics = {n: statistics.median(p["layers"][n] for p in traced_passes)
                   for n in names}
        metrics["trace.overhead_frac"] = (
            statistics.median(p["wall_s"] for p in traced_passes) / raw_wall_s - 1.0)
        metrics["ops_failed_frac"] = failed / attempted
        units = {n: layer_unit(n) for n in metrics}
    else:
        metrics = e2e
        units = E2E_UNITS

    bench = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "provenance": provenance(seed, items, env),
        "setup_s_samples": setup,
        "calibration_s": calibration,
        "speed_scale": speed_scale,
        "raw_wall_s": raw_wall_s,
        "end_to_end": e2e,
        "ops_failed_frac": failed / attempted,
        "passes": passes,
        "errors": errors,
        "metrics": metrics,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    bench_path = OUT / f"BENCH_{workload}_seed{seed}_trace{trace}.json"
    bench_path.write_text(json.dumps(bench, indent=1, sort_keys=True))
    shutil.rmtree(run_dir, ignore_errors=True)

    for line in errors:
        print(f"CHECK FAILED: {line}")
    print(f"{workload} seed={seed}: {len(passes)} passes "
          f"({sum(p['traced'] for p in passes)} traced), "
          f"{attempted - failed}/{attempted} operations passed -> {bench_path}")
    for name, value in metrics.items():
        print(f"  {name:50s} {value:14.6g} {units[name]}")
    return {"correct": not errors, "attempted": attempted, "failed": failed,
            "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()}}


def layer_unit(name):
    leaf = name.rsplit(".", 1)[-1]
    return {"calls": "count", "self_s": "s", "s": "s", "bonds": "count",
            "cells": "count", "terms": "count", "points": "count",
            "link_products": "count", "sweeps": "count", "bytes": "B",
            "lups": "1/s", "tau_int": "meas", "acceptance": "frac",
            "distinct_frac": "frac", "overhead_frac": "frac",
            "ops_failed_frac": "frac"}[leaf]


# ---------------------------------------------------------------------------
# steadiness mode


def steadiness(args):
    """Run the benchmark `args.repeat` times and print each metric's spread."""
    bounds = {}
    spec_path = ROOT / "BENCHMARK.json"
    if spec_path.exists():
        spec = json.loads(spec_path.read_text())
        bounds = {m["name"]: m["bound"] for m in spec.get("end_to_end", [])}
    values, all_correct = {}, True
    for i in range(args.repeat):
        seed = args.seed + i
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               args.workload, "--seed", str(seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_LIMIT_S + 60)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-3000:]}")
            return 1
        result = json.loads(lines[-1])
        all_correct &= result["correct"] and result["failed"] == 0
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']} " + " ".join(
                  f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()),
              flush=True)
    summary = {}
    print(f"{'metric':50s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        summary[name] = {"median": med, "q1": q1, "q3": q3, "min": min(vals),
                         "max": max(vals), "spread": spread, "bound": bound,
                         "n": len(vals)}
        flag = "" if bound is None else (" ok" if spread < bound / 3 else " WIDE")
        print(f"{name:50s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
              f"{'' if bound is None else bound:>6}{flag}")
    print(json.dumps({"workload": args.workload, "correct": all_correct,
                      "summary": summary}))
    return 0 if all_correct else 1


# ---------------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="steadiness mode: this many runs, seeds n, n+1, ...")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "loopfield" / "harness.py").is_file():
        print(f"perfbench: no loopfield sources under {ROOT / 'src'}; "
              "run from the root of a loopfield checkout", file=sys.stderr)
        return 2
    if args.repeat:
        return steadiness(args)
    try:
        result = run_once(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
