"""Tracing must not change what loopfield computes.

Each case runs one traced benchmark run (an untraced pass, then a traced
pass, same inputs and seeds) and compares the two passes: the CSV bytes of
every experiment, its clause lines and its z-scores.  Run with

    python3 -m pytest -q perfbench/tests
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import tracing  # noqa: E402


@pytest.mark.parametrize("workload", ["exact-sweep", "mc-equations", "mc-oracle"])
def test_traced_pass_matches_untraced(workload):
    seed = 7
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    bench_path = ROOT / ".bench_build" / "perfbench" / f"BENCH_{workload}_seed{seed}_trace1.json"
    bench = json.loads(bench_path.read_text())
    untraced, traced = bench["passes"][0], bench["passes"][1]
    assert not untraced["traced"] and traced["traced"]
    assert traced["spans"] > 0
    for stem, plain in untraced["experiments"].items():
        seen = traced["experiments"][stem]
        assert plain["csv_sha256"] is not None
        assert seen["csv_sha256"] == plain["csv_sha256"], stem
        assert seen["clauses"] == plain["clauses"], stem
        assert seen["z_scores"] == plain["z_scores"], stem
    assert result["correct"] and result["failed"] == 0


def test_self_time_subtracts_children():
    spans = [["a", 0.0, 10.0, -1, {}],
             ["b", 1.0, 4.0, 0, {}],
             ["c", 2.0, 3.0, 1, {}],
             ["b", 5.0, 6.0, 0, {}]]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0]
