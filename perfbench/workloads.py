"""The benchmark's workloads: experiment configs generated from a seed.

Each workload is a list of ``(stem, config text)`` pairs, run in that order
through ``loopfield.harness.run_experiment``.  The Monte Carlo seeds and the
random-loop seed are the committed ones (configs/*.cfg): the 3-sigma and
chi^2 gates of those experiments are calibrated at them, and a drawn seed
would turn a statistical fluctuation into a failed operation.  The workload
seed therefore draws only inputs that every valid value passes on: the
weights of the two general (a, b) combinations of converge-crossing.  The
order of the experiments is fixed, because it moves the time of a pass by
about 5% (an experiment that follows another runs on a used heap).
mc-equations and mc-oracle are one config each and do not depend on the
seed.
"""

from __future__ import annotations

import random

WORKLOADS = ("exact-sweep", "mc-equations", "mc-oracle")

# every config stem some workload runs, in a fixed order for the metrics
STEMS = ("converge-crossing", "converge-merger", "converge-simple",
         "verify-discrete", "degenerate", "gauss-lemma", "negative-control",
         "converge-unified", "sample-diagnostics")

# the exact sweep reaches eps = 1/64 (crossing, merger) and 1/32 (simple)
EPS_TO_64 = "0.25 0.125 0.0625 0.03125 0.015625"
EPS_TO_32 = "0.25 0.125 0.0625 0.03125"

# reduced [mc] schedules; seeds as in configs/converge-unified.cfg and
# configs/sample-diagnostics.cfg
MC_EQUATIONS = {"sweeps": 120, "burn_in": 60, "thin": 3, "chains": 12,
                "seed": 20260301}
MC_ORACLE = {"sweeps": 120, "burn_in": 60, "thin": 2, "chains": 16, "seed": 777}


def _config(name, sections, stem):
    lines = ["[experiment]", f"name = {name}", ""]
    for section, entries in sections.items():
        lines.append(f"[{section}]")
        lines.extend(f"{k} = {v}" for k, v in entries.items())
        lines.append("")
    lines += ["[output]", f"path = {stem}", ""]
    return "\n".join(lines)


def _weights(rng, n):
    """n weights summing to 1 (to 1e-15 after the round trip through text)."""
    head = [round(rng.uniform(0.05, 0.35), 6) for _ in range(n - 1)]
    return head + [round(1.0 - sum(head), 6)]


def _combos(rng):
    b1 = round(rng.uniform(0.2, 1.5), 6)
    b2 = round(rng.uniform(0.2, 1.5), 6)
    fmt = lambda ws: " ".join(repr(w) for w in ws)
    return {"b": fmt([b1, round(1.0 - b1, 6)]), "a": fmt(_weights(rng, 5)),
            "b2": fmt([b2, round(1.0 - b2, 6)]), "a2": fmt(_weights(rng, 5))}


def exact_sweep(seed):
    return [
        ("converge-crossing", _config("converge-crossing", {
            "grid": {"epsilons": EPS_TO_64},
            "geometry": {"t2": 0.5, "t4": 0.5},
            "combos": _combos(random.Random(seed))}, "converge-crossing")),
        ("converge-merger", _config("converge-merger", {
            "grid": {"epsilons": EPS_TO_64},
            "geometry": {"side": 1.5, "overlap": 0.75}}, "converge-merger")),
        ("converge-simple", _config("converge-simple", {
            "grid": {"epsilons": EPS_TO_32},
            "geometry": {"t": 1.0},
            "groups": {"list": "U1 U2"}}, "converge-simple")),
        ("verify-discrete", _config("verify-discrete", {
            "grid": {"epsilons": "0.25 0.125"},
            "geometry": {"t2": 0.5, "t4": 0.5},
            "random": {"count": 50, "seed": 2024, "halfsteps": 4},
            "tolerances": {"residual": "1e-9"}}, "verify-discrete")),
        ("degenerate", _config("degenerate", {
            "grid": {"epsilon": 0.25}}, "degenerate")),
        ("gauss-lemma", _config("gauss-lemma", {
            "grid": {"epsilons": "0.4 0.28 0.2 0.14 0.1",
                     "epsilons_j1": "0.4 0.2 0.1"}}, "gauss-lemma")),
        # perturbs one equation coefficient by 10%; must exit 1
        ("negative-control", _config("verify-discrete", {
            "grid": {"epsilons": "0.25"},
            "random": {"count": 5},
            "overrides": {"deform-minus": 1.1},
            "tolerances": {"residual": "1e-3"}}, "negative-control")),
    ]


def mc_equations(seed):
    return [("converge-unified", _config("converge-unified", {
        "grid": {"epsilons": "0.5"},
        "geometry": {"t2": 1.0, "t4": 1.0},
        "groups": {"list": "SU2 SO3"},
        "mc": MC_EQUATIONS}, "converge-unified"))]


def mc_oracle(seed):
    return [("sample-diagnostics", _config("sample-diagnostics", {
        "grid": {"epsilons": "0.5 1.0"},
        "geometry": {"t": 0.5},
        "mc": MC_ORACLE}, "sample-diagnostics"))]


def configs(workload, seed):
    """The (stem, config text) pairs of one pass of `workload`."""
    builders = {"exact-sweep": exact_sweep, "mc-equations": mc_equations,
                "mc-oracle": mc_oracle}
    return builders[workload](seed)


# experiments whose exit code 1 is the correct outcome
EXPECTED_EXIT = {"negative-control": 1}

# workloads whose wall_s is rescaled by run.calibrate(): its memory-bound
# kernel follows the drift of the exact experiments, not that of the Monte
# Carlo ones, which are bound by numpy's per-call overhead
CALIBRATED = {"exact-sweep"}
