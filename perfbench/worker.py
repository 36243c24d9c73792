"""One pass of a workload, in its own process.

Usage: python3 perfbench/worker.py PASS_DIR TRACE

Reads PASS_DIR/manifest.json (a list of [stem, config path]), runs each
config through loopfield.harness.run_experiment, one after the other, and
writes PASS_DIR/worker.json: per experiment the exit code (null when it
raised), the traceback, the captured stdout and the wall time of the
run_experiment call; and the process's peak resident set.  With TRACE = 1 the layers
are wrapped first (tracing.py) and the spans go to PASS_DIR/spans.json.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def main(argv):
    pass_dir, trace = argv[0], argv[1] == "1"
    from loopfield import harness
    tracer = None
    if trace:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    with open(os.path.join(pass_dir, "manifest.json")) as fh:
        manifest = json.load(fh)
    out_dir = os.path.join(pass_dir, "out")
    experiments = []
    for stem, path in manifest:
        buf = io.StringIO()
        code, error = None, None
        span = tracer.span(f"harness.experiment.{stem}") if tracer else contextlib.nullcontext()
        t0 = time.perf_counter()
        with span, contextlib.redirect_stdout(buf):
            try:
                code = harness.run_experiment(path, out_dir=out_dir)
            except Exception:
                error = traceback.format_exc()
        wall = time.perf_counter() - t0
        experiments.append({"stem": stem, "exit": code, "error": error,
                            "stdout": buf.getvalue(), "wall_s": wall})
    if tracer is not None:
        tracer.dump(os.path.join(pass_dir, "spans.json"))
    with open(os.path.join(pass_dir, "worker.json"), "w") as fh:
        json.dump({"experiments": experiments, "peak_rss_mb": peak_rss_mb()}, fh)
    return 0


def peak_rss_mb():
    """Peak resident set of this process since exec (VmHWM).

    ru_maxrss would do, but Linux carries the parent's resident set at fork
    into the child's ru_maxrss, so it also measures run.py.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
