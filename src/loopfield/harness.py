"""Configuration-driven experiment runner and fixture generator.

Experiments are named in the config file (INI-style flat key-value with
sections); every key is validated against the experiment's schema before
any computation.  Each experiment emits CSV/JSON reports plus one
PASS/FAIL line per acceptance clause.
"""

from __future__ import annotations

import configparser
import csv
import json
import math
import os
import time
from dataclasses import dataclass, replace

import numpy as np

from loopfield.groups import GroupSpec, haar_sample, parse_group
from loopfield.action import (ActionParams, char_coefficient, build_char_table,
                              gaussian_lemma_check, lemma_j1_check,
                              partition_function, QuadratureError, TailBudgetError,
                              standard_label, unnormalized_weight)
from loopfield.loops import (random_loop, plaquette_loop, loop_to_text,
                             make_loop_from_moves, split_positive, merge_positive,
                             twist_negative)
from loopfield.driver import (U1Backend, make_figure_eight,
                              make_rectangle)
from loopfield.equations import (DEFAULT_COMBOS, EquationSpec, assemble,
                                 evaluate_exact_u1, evaluate_mc, convergence_simple,
                                 convergence_crossing, convergence_merger,
                                 crossing_im_sweep, degenerate_checks,
                                 unified_equation_reports,
                                 finite_difference_alternating)
from loopfield.sampler import (MCSchedule, LatticeBox, init_config,
                               sweep_heatbath_u1, estimate_wilson, gauge_transform,
                               WilsonObservable, plaquette_product, make_estimate)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class Key:
    """One accepted config key: the parser of its text, the check of the
    parsed value, that range in words, and the value when the key is absent."""
    parse: object
    ok: object
    rule: str
    default: object = None


def _floats(text):
    return tuple(float(v) for v in text.replace(",", " ").split())


def _groups(text):
    return tuple(parse_group(g) for g in text.split())


def _positive(v):
    return 0.0 < v < math.inf


def _kind(parse, ok, rule):
    return lambda default=None: Key(parse, ok, rule, default)


FLOAT = _kind(float, math.isfinite, "finite float")
POSITIVE = _kind(float, _positive, "float > 0")
EPSILONS = _kind(_floats, lambda v: len(v) > 0 and all(map(_positive, v)),
                 "list of floats > 0")
# a convergence sweep: its "decreasing" clauses hold vacuously on one point
SWEEP = _kind(_floats, lambda v: len(set(v)) > 1 and all(map(_positive, v)),
              "list of two or more distinct floats > 0")
COUNT = _kind(int, lambda v: v >= 1, "integer >= 1")
SEED = _kind(int, lambda v: v >= 0, "integer >= 0")
U1, U2 = GroupSpec("U", 1), GroupSpec("U", 2)
SU2, SO3 = GroupSpec("SU", 2), GroupSpec("SO", 3)
GROUPS = _kind(_groups, bool, "list of U(N), SU(N), SO(N) names")
# the groups with the quadrature converge-simple needs (trace_power_integral)
SIMPLE_GROUPS = _kind(_groups, lambda v: bool(v) and set(v) <= {U1, U2, SU2, SO3},
                      "list of U1, U2, SU2, SO3")
# combination_value's own tolerance on the sum
WEIGHTS = {n: Key(_floats, lambda v, n=n: len(v) == n and abs(sum(v) - 1.0) <= 1e-12,
                  f"{n} floats summing to 1") for n in (2, 5)}


def _mc(sweeps, burn_in, thin, chains, seed):
    return {("mc", "sweeps"): COUNT(sweeps), ("mc", "burn_in"): COUNT(burn_in),
            ("mc", "thin"): COUNT(thin), ("mc", "chains"): COUNT(chains),
            ("mc", "seed"): SEED(seed)}


# (experiment, section, key) -> Key: every key an experiment reads, and no
# other.  [overrides] holds the term tags a U(1) single-loop equation has
# (no twist, expansion or merger terms).
SCHEMA = {
    "verify-discrete": {
        ("grid", "epsilons"): EPSILONS((0.25, 0.125)),
        ("geometry", "t2"): POSITIVE(0.5),
        ("geometry", "t4"): POSITIVE(0.5),
        ("random", "count"): COUNT(50),
        ("random", "seed"): SEED(2024),
        ("random", "halfsteps"): COUNT(4),
        ("tolerances", "residual"): POSITIVE(1e-9),
        **{("overrides", tag): FLOAT(1.0) for tag in
           ("deform-minus", "deform-plus", "split-pos", "split-neg", "base")},
    },
    "converge-simple": {
        ("grid", "epsilons"): SWEEP((0.25, 0.125, 0.0625)),
        ("geometry", "t"): POSITIVE(1.0),
        ("groups", "list"): SIMPLE_GROUPS((U1, U2)),
        ("tolerances", "final_gap"): POSITIVE(1e-2),
        ("tolerances", "outer_cancel"): POSITIVE(1e-12),
    },
    "converge-crossing": {
        ("grid", "epsilons"): SWEEP((0.25, 0.125, 0.0625)),
        ("geometry", "t2"): POSITIVE(0.5),
        ("geometry", "t4"): POSITIVE(0.5),
        ("combos", "b"): WEIGHTS[2],
        ("combos", "a"): WEIGHTS[5],
        ("combos", "b2"): WEIGHTS[2],
        ("combos", "a2"): WEIGHTS[5],
        ("triples", "max_triples"): COUNT(),
        ("tolerances", "final_gap"): POSITIVE(1e-2),
        ("tolerances", "residual"): POSITIVE(1e-9),
        ("tolerances", "identity"): POSITIVE(1e-6),
    },
    "converge-merger": {
        ("grid", "epsilons"): SWEEP((0.25, 0.125, 0.0625)),
        ("geometry", "side"): POSITIVE(1.5),
        ("geometry", "overlap"): POSITIVE(0.75),
        ("tolerances", "final_gap"): POSITIVE(1e-2),
        ("tolerances", "residual"): POSITIVE(1e-9),
    },
    "converge-unified": {
        ("grid", "epsilons"): EPSILONS((0.5,)),
        ("geometry", "t2"): POSITIVE(1.0),
        ("geometry", "t4"): POSITIVE(1.0),
        ("groups", "list"): GROUPS((SU2, SO3)),
        ("tolerances", "n_sigma"): POSITIVE(3.0),
        **_mc(3000, 400, 3, 12, 20260301),
    },
    "gauss-lemma": {
        ("grid", "epsilons"): SWEEP((0.4, 0.28, 0.2, 0.14, 0.1)),
        ("grid", "epsilons_j1"): SWEEP((0.4, 0.2, 0.1)),
        ("tolerances", "slope_lo"): FLOAT(3.5),
        ("tolerances", "slope_hi"): FLOAT(4.5),
    },
    "degenerate": {
        ("grid", "epsilon"): POSITIVE(0.25),
        ("tolerances", "identity"): POSITIVE(1e-8),
    },
    "sample-diagnostics": {
        ("grid", "epsilons"): EPSILONS((0.5, 1.0)),
        ("geometry", "t"): POSITIVE(0.5),
        ("tolerances", "n_sigma"): POSITIVE(3.0),
        **_mc(5000, 400, 2, 16, 777),
    },
}
for _keys in SCHEMA.values():
    _keys[("output", "path")] = Key(str, bool, "file stem")

_ONE_MEASUREMENT = ("[mc] thin <= sweeps",
                    lambda c: c["mc"]["thin"] <= c["mc"]["sweeps"])

# conditions between keys of one experiment
RULES = {
    "converge-crossing": [
        (f"[combos] {b} and {a} come together",
         lambda c, a=a, b=b: (c["combos"][a] is None) == (c["combos"][b] is None))
        for b, a in (("b", "a"), ("b2", "a2"))],
    "converge-merger": [("[geometry] overlap < side",
                         lambda c: c["geometry"]["overlap"] < c["geometry"]["side"])],
    "converge-unified": [_ONE_MEASUREMENT],
    "sample-diagnostics": [_ONE_MEASUREMENT],
}


def load_config(path: str):
    """(experiment name, {section: {key: typed value}}) with every key of
    the experiment's schema, absent ones at their defaults."""
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    if "experiment" not in parser or "name" not in parser["experiment"]:
        raise ConfigError("config needs [experiment] name = ...")
    name = parser["experiment"]["name"].strip()
    if name not in SCHEMA:
        raise ConfigError(f"unknown experiment {name!r}")
    schema = SCHEMA[name]
    sections = {section for section, _ in schema}
    for section in parser.sections():
        if section != "experiment" and section not in sections:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser[section]:
            if (section, key) not in schema and (section, key) != ("experiment", "name"):
                raise ConfigError(f"unknown key {key!r} in [{section}]")
    cfg = {section: {} for section in sections}
    for (section, key), spec in schema.items():
        text = parser.get(section, key, fallback=None)
        cfg[section][key] = spec.default if text is None else _parse(section, key, spec, text)
    for rule, holds in RULES.get(name, ()):
        if not holds(cfg):
            raise ConfigError(f"{name} needs {rule}")
    return name, cfg


def _parse(section, key, spec, text):
    try:
        value = spec.parse(text)
    except ValueError:
        pass
    else:
        if spec.ok(value):
            return value
    raise ConfigError(f"[{section}] {key} = {text!r}: expected {spec.rule}")


class Clause:
    def __init__(self, name, passed, detail=""):
        self.name = name
        self.passed = bool(passed)
        self.detail = detail

    def line(self):
        mark = "PASS" if self.passed else "FAIL"
        return f"[{mark}] {self.name}" + (f"  ({self.detail})" if self.detail else "")


def _decreasing(name, seq):
    return Clause(name, all(a > b for a, b in zip(seq, seq[1:])),
                  " -> ".join(f"{g:.2e}" for g in seq))


def _within(name, mean, sigma, n_sigma):
    z = mean / max(sigma, 1e-300)
    return Clause(f"{name} within {n_sigma:g} sigma", abs(z) <= n_sigma,
                  f"z = {z:.2f}")


def _chain_diagnostics(spec, eps, meta, estimates):
    """The JSON `diagnostics` entry of one chain run: its box, tuning,
    acceptance, sweeps, reunitarisation drift, seconds spent sampling and
    measuring, and the tau_int of each (label, Estimate) it fed."""
    box = meta["box"]
    return {"group": str(spec), "epsilon": eps, "box": [box.width, box.height],
            "algorithm": meta["algorithm"],
            "proposal_scale": meta["proposal_scale"],
            "acceptance_burn_in": meta["acceptance_burn_in"],
            "acceptance_measure": meta["acceptance_measure"],
            "sweeps": meta["sweeps"],
            "reunitarize_drift": meta["reunitarize_drift"],
            "sample_s": meta["sample_s"], "measure_s": meta["measure_s"],
            "tau_int": {label: est.tau_int for label, est in estimates}}


def _term_estimates(prefix, rep):
    """(label, Estimate) per term of an equation report; tags can repeat."""
    return [(f"{prefix}{i}:{t.tag}", v)
            for i, (t, v) in enumerate(zip(rep.terms, rep.values))]


CSV_COLUMNS = ["experiment", "group", "epsilon", "triple_id", "term", "value",
               "sigma", "residual", "residual_sigma", "target", "gap", "rate"]


def _rows_with_rates(rows):
    """Attach log2 of successive gap ratios within each (group, term, triple)."""
    prev = {}
    for r in rows:
        key = (r.get("group"), r.get("term"), r.get("triple_id"))
        gap = r.get("gap")
        if gap is not None and prev.get(key) not in (None, 0.0) and gap > 0:
            r["rate"] = math.log2(prev[key] / gap)
        elif "rate" not in r or r.get("rate") is None:
            r["rate"] = ""
        prev[key] = gap
    return rows


def write_reports(path_base, rows, clauses, extra=None):
    os.makedirs(os.path.dirname(path_base) or ".", exist_ok=True)
    with open(path_base + ".csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS, extrasaction="ignore")
        writer.writeheader()
        for r in rows:
            writer.writerow({k: r.get(k, "") for k in CSV_COLUMNS})
    payload = {"rows": rows, "clauses": [{"name": c.name, "passed": c.passed,
                                          "detail": c.detail} for c in clauses]}
    if extra:
        payload.update(extra)
    with open(path_base + ".json", "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True, default=str)


# ---------------------------------------------------------------------------
# experiments


def run_verify_discrete(cfg):
    tol = cfg["tolerances"]["residual"]
    epsilons = cfg["grid"]["epsilons"]
    t2, t4 = cfg["geometry"]["t2"], cfg["geometry"]["t4"]
    count = cfg["random"]["count"]
    halfsteps = cfg["random"]["halfsteps"]
    overrides = cfg["overrides"]
    group = GroupSpec("U", 1)

    rows, clauses = [], []
    worst_fig8 = 0.0
    for eps in epsilons:
        geo = make_figure_eight(t2, t4, eps)
        backend = U1Backend(eps)
        for label in ("e", "e_", "e1", "e3"):
            spec = EquationSpec(group, eps, geo.subject, geo.sites[label], overrides)
            rep = evaluate_exact_u1(*assemble(spec), backend)
            worst_fig8 = max(worst_fig8, abs(rep.residual))
            rows.append({"experiment": "verify-discrete", "group": "U(1)",
                         "epsilon": eps, "term": f"figure-eight@{label}",
                         "residual": rep.residual, "residual_sigma": 0.0})
    clauses.append(Clause("figure-eight residual < %.0e" % tol,
                          worst_fig8 < tol, f"max |R| = {worst_fig8:.2e}"))

    rng = np.random.default_rng(cfg["random"]["seed"])
    worst_rand = 0.0
    eps = epsilons[0]
    backend = U1Backend(eps)
    for i in range(count):
        loop = random_loop(rng, halfsteps, halfsteps)
        loc = int(rng.integers(len(loop.word)))
        spec = EquationSpec(group, eps, loop, (0, loc), overrides)
        rep = evaluate_exact_u1(*assemble(spec), backend)
        worst_rand = max(worst_rand, abs(rep.residual))
        rows.append({"experiment": "verify-discrete", "group": "U(1)",
                     "epsilon": eps, "term": f"random-{i}",
                     "residual": rep.residual, "residual_sigma": 0.0})
    clauses.append(Clause(f"{count} randomized loops residual < %.0e" % tol,
                          worst_rand < tol, f"max |R| = {worst_rand:.2e}"))
    return rows, clauses, {}


def run_converge_simple(cfg):
    final_tol = cfg["tolerances"]["final_gap"]
    outer_tol = cfg["tolerances"]["outer_cancel"]
    rows, clauses = [], []
    for spec in cfg["groups"]["list"]:
        rep = convergence_simple(spec, cfg["geometry"]["t"], cfg["grid"]["epsilons"])
        gaps = [r["gap"] for r in rep["rows"]]
        outs = [r["outer_cancel"] for r in rep["rows"]]
        for r in rep["rows"]:
            rows.append({"experiment": "converge-simple", "group": str(spec),
                         "epsilon": r["epsilon"], "value": r["D"],
                         "target": r["target"], "gap": r["gap"],
                         "term": "deformation-combination"})
        clauses.append(_decreasing(f"{spec}: gap strictly decreasing", gaps))
        clauses.append(Clause(f"{spec}: final gap < {final_tol:g}",
                              gaps[-1] < final_tol, f"{gaps[-1]:.2e}"))
        clauses.append(Clause(f"{spec}: exact outer cancellation",
                              max(outs) < outer_tol, f"max {max(outs):.2e}"))
    return rows, clauses, {}


def run_converge_crossing(cfg):
    epsilons = cfg["grid"]["epsilons"]
    t2, t4 = cfg["geometry"]["t2"], cfg["geometry"]["t4"]
    final_tol = cfg["tolerances"]["final_gap"]
    res_tol = cfg["tolerances"]["residual"]
    given = cfg["combos"]
    combos = tuple((given[b], given[a]) for b, a in (("b", "a"), ("b2", "a2"))
                   if given[b] is not None) or DEFAULT_COMBOS
    rep = convergence_crossing(epsilons, lambda eps: make_figure_eight(t2, t4, eps),
                               extra_combos=combos,
                               max_triples=cfg["triples"]["max_triples"])
    rows, clauses = [], []
    for r in rep["rows"]:
        for i, v in enumerate(r["triples"]):
            rows.append({"experiment": "converge-crossing", "group": "U(1)",
                         "epsilon": r["epsilon"], "triple_id": i,
                         "value": v, "target": r["target"],
                         "gap": abs(v - r["target"]), "term": "triple-combination"})
        for i, v in enumerate(r["combo_values"]):
            rows.append({"experiment": "converge-crossing", "group": "U(1)",
                         "epsilon": r["epsilon"], "triple_id": f"combo-{i}",
                         "value": v, "target": r["target"],
                         "gap": abs(v - r["target"]), "term": "ab-combination"})
    gaps = [r["gap"] for r in rep["rows"]]
    clauses.append(_decreasing("gap strictly decreasing", gaps))
    clauses.append(Clause(f"final gap < {final_tol:g}", gaps[-1] < final_tol,
                          f"{gaps[-1]:.2e}"))
    spread = max(r["triple_spread"] for r in rep["rows"])
    clauses.append(Clause("identical limit across compatible triples",
                          rep["rows"][-1]["triple_spread"] < final_tol,
                          f"max spread {spread:.2e}"))
    gap_combo = rep["rows"][-1]["gap_combos"]
    clauses.append(Clause("general (a,b) combinations share the limit",
                          gap_combo < final_tol, f"{gap_combo:.2e}"))
    exact = max(r["exactness"] for r in rep["rows"])
    clauses.append(Clause(f"combination equals splitting term < {res_tol:g}",
                          exact < res_tol, f"{exact:.2e}"))

    # correction-term sweeps on the doubly wound configuration
    im = crossing_im_sweep(epsilons, family="coil", t4=t4)
    for r in im["rows"]:
        rows.append({"experiment": "converge-crossing", "group": "U(1)",
                     "epsilon": r["epsilon"], "term": "im-limit-at-e",
                     "gap": r["gap_e"], "value": r["identity_loop1"]})
    id_tol = cfg["tolerances"]["identity"]
    worst_id = max(max(r["identity_loop1"], r["identity_g2"], r["identity_g3"])
                   for r in im["rows"])
    clauses.append(Clause(f"correction-term identities < {id_tol:g}",
                          worst_id < id_tol, f"max {worst_id:.2e}"))
    for key in ("gap_e", "gap_e1", "gap_e3"):
        clauses.append(_decreasing(f"deformation limit sweep {key} decreasing",
                                   [r[key] for r in im["rows"]]))
    return rows, clauses, {"geometry": [r["geometry"] for r in rep["rows"]]}


def run_converge_merger(cfg):
    final_tol = cfg["tolerances"]["final_gap"]
    res_tol = cfg["tolerances"]["residual"]
    rep = convergence_merger(cfg["grid"]["epsilons"], cfg["geometry"]["side"],
                             cfg["geometry"]["overlap"])
    rows, clauses = [], []
    for r in rep["rows"]:
        rows.append({"experiment": "converge-merger", "group": "U(1)",
                     "epsilon": r["epsilon"], "value": r["triples"][0],
                     "target": r["target"], "gap": r["gap"],
                     "term": "merger-combination"})
    gaps = [r["gap"] for r in rep["rows"]]
    clauses.append(_decreasing("gap strictly decreasing", gaps))
    clauses.append(Clause(f"final gap < {final_tol:g}", gaps[-1] < final_tol,
                          f"{gaps[-1]:.2e}"))
    worst = max(r["exactness"] for r in rep["rows"])
    clauses.append(Clause(f"combination equals merger term < {res_tol:g}",
                          worst < res_tol, f"{worst:.2e}"))
    gap_gen = rep["rows"][-1]["gap_combos"]
    clauses.append(Clause("general combination shares the limit",
                          gap_gen < final_tol, f"{gap_gen:.2e}"))
    return rows, clauses, {"geometry": [r["geometry"] for r in rep["rows"]]}


def run_gauss_lemma(cfg):
    lo, hi = cfg["tolerances"]["slope_lo"], cfg["tolerances"]["slope_hi"]
    spec = GroupSpec("U", 2)
    rows, clauses = [], []

    tests = {
        "retrace": (lambda t1, t2: 2.0 - np.cos(t1) - np.cos(t2),
                    lambda q: float(np.trace(np.eye(2) - q).real)),
        "trace-square": (lambda t1, t2: 1.0 - np.abs(np.exp(1j*t1) + np.exp(1j*t2))**2 / 4.0,
                         lambda q: float(1.0 - abs(np.trace(q))**2 / 4.0)),
    }
    for name, (f_ang, f_mat) in tests.items():
        rep = gaussian_lemma_check(spec, f_ang, f_mat, cfg["grid"]["epsilons"])
        for r in rep["rows"]:
            rows.append({"experiment": "gauss-lemma", "group": "U(2)",
                         "epsilon": r["epsilon"], "term": name,
                         "value": r["integral"], "target": r["target"],
                         "gap": r["residual"]})
        clauses.append(Clause(
            f"{name}: residual slope in [{lo}, {hi}]",
            lo <= rep["slope"] <= hi, f"slope {rep['slope']:.3f}"))

    repj = lemma_j1_check(0.7, 1.3, 1.0, cfg["grid"]["epsilons_j1"])
    for r in repj["rows"]:
        rows.append({"experiment": "gauss-lemma", "group": "U(1)",
                     "epsilon": r["epsilon"], "term": "lemma-J1",
                     "gap": r["gap"]})
    clauses.append(_decreasing("lemma-J1 gap decreasing",
                               [r["gap"] for r in repj["rows"]]))
    return rows, clauses, {}


def run_degenerate(cfg):
    eps = cfg["grid"]["epsilon"]
    tol = cfg["tolerances"]["identity"]
    out = degenerate_checks(eps)
    rows, clauses = [], []
    for kind, entry in out.items():
        rows.append({"experiment": "degenerate", "group": "U(1)", "epsilon": eps,
                     "term": kind, "gap": entry["identity_gap"],
                     "value": entry["E_W"]})
        clauses.append(Clause(f"{kind}: displayed identity < {tol:g}",
                              entry["identity_gap"] < tol,
                              f"{entry['identity_gap']:.2e}"))
        clauses.append(Clause(f"{kind}: reduces to the alternating form",
                              entry["reduces_to_alternating"] < tol,
                              f"{entry['reduces_to_alternating']:.2e}"))
        clauses.append(Clause(f"{kind}: face-splitting surgery invariance",
                              entry["surgery_gap"] < 1e-12,
                              f"{entry['surgery_gap']:.2e}"))
        if kind == "coil":
            clauses.append(Clause("coil: unbounded-wedge derivative is zero",
                                  entry["unbounded_derivative"] == 0.0,
                                  f"wedges {entry['unbounded_wedges']}"))
    return rows, clauses, {"geometry": [{"kind": kind, **entry["geometry"]}
                                        for kind, entry in out.items()]}


def run_converge_unified(cfg):
    t2, t4 = cfg["geometry"]["t2"], cfg["geometry"]["t4"]
    n_sigma = cfg["tolerances"]["n_sigma"]
    schedule = MCSchedule(**cfg["mc"])
    rows, clauses, diagnostics = [], [], []
    for spec in cfg["groups"]["list"]:
        for eps in cfg["grid"]["epsilons"]:
            out = unified_equation_reports(spec, eps, schedule, t2=t2, t4=t4)
            named = [(key, out[key]) for key in ("combination", "wlg_gap",
                                                 "expansion_pair")
                     if out[key] is not None]
            named += list(out["estimates"].items())
            for key, rep in out["reports"].items():
                named += _term_estimates(f"{key}:", rep)
                rows.append({"experiment": "converge-unified", "group": str(spec),
                             "epsilon": eps, "term": key,
                             "residual": rep.residual,
                             "residual_sigma": rep.residual_sigma})
                clauses.append(_within(f"{spec} eps={eps:g} {key} residual",
                                       rep.residual, rep.residual_sigma, n_sigma))
            diagnostics.append(_chain_diagnostics(spec, eps, out["run_meta"], named))
            comb = out["combination"]
            clauses.append(_within(f"{spec} eps={eps:g} combination residual",
                                   comb.mean, comb.sigma, n_sigma))
            gap = out["wlg_gap"]
            clauses.append(_within(
                f"{spec} eps={eps:g} deformation combo vs limit RHS",
                gap.mean, gap.sigma, n_sigma))
            rows.append({"experiment": "converge-unified", "group": str(spec),
                         "epsilon": eps, "term": "combination",
                         "residual": comb.mean, "residual_sigma": comb.sigma})
            rows.append({"experiment": "converge-unified", "group": str(spec),
                         "epsilon": eps, "term": "wlg-gap",
                         "residual": gap.mean, "residual_sigma": gap.sigma})
            # coefficient audits
            tw_expected = -(2.0 - spec.beta_g) / (spec.beta_g * spec.n)
            clauses.append(Clause(
                f"{spec} twist coefficient audit",
                abs(out["coefficients"]["twist"] - tw_expected) < 1e-15,
                f"{out['coefficients']['twist']:+.6f}"))
            clauses.append(Clause(
                f"{spec} gamma-term audit",
                abs(out["coefficients"]["gamma_term"]
                    + spec.gamma_g / spec.n**2) < 1e-15,
                f"{out['coefficients']['gamma_term']:+.6f}"))
            if out["expansion_pair"] is not None:
                ep = out["expansion_pair"]
                rows.append({"experiment": "converge-unified", "group": str(spec),
                             "epsilon": eps, "term": "expansion-pair",
                             "residual": ep.mean, "residual_sigma": ep.sigma})
            if spec.family == "SU":
                fd = finite_difference_alternating(spec, eps, schedule,
                                                   t2=t2, t4=t4)
                diagnostics.append(_chain_diagnostics(
                    spec, eps, fd["run_meta"],
                    [(f"fd:{label}", est) for label, est in fd["estimates"].items()]))
                # the target is itself a Monte Carlo estimate on another
                # stream, drawn from the same [mc] seed with as many rows of
                # as many chains: the gap's error is that of the paired
                # series, which carries the correlation of the two streams
                rhs = out["estimates"]["rhs"]
                paired = make_estimate(fd["series"] - out["rhs_series"])
                rows.append({"experiment": "converge-unified", "group": str(spec),
                             "epsilon": eps, "term": "fd-alternating-sum",
                             "value": fd["value"], "sigma": fd["sigma"],
                             "target": rhs.mean, "target_sigma": rhs.sigma,
                             "gap": abs(fd["value"] - rhs.mean),
                             "gap_sigma": paired.sigma,
                             "gap_z": paired.mean / max(paired.sigma, 1e-300)})
    return rows, clauses, {"diagnostics": diagnostics}


def run_sample_diagnostics(cfg):
    epsilons = cfg["grid"]["epsilons"]
    n_sigma = cfg["tolerances"]["n_sigma"]
    schedule = MCSchedule(**cfg["mc"])
    rows, clauses, diagnostics = [], [], []
    plaq = plaquette_loop((0, 0))
    stages = {}
    t0 = time.perf_counter()

    # single-plaquette identity for the three sampled groups
    for fam in (GroupSpec("U", 1), GroupSpec("SU", 2), GroupSpec("SO", 3)):
        for eps in epsilons:
            params = ActionParams(fam, eps)
            a_std = char_coefficient(standard_label(fam), params)
            ests, samples, meta = estimate_wilson(params, [plaq], schedule, margin=1)
            est = ests[0]
            diagnostics.append(_chain_diagnostics(fam, eps, meta,
                                                  [("plaquette", est)]))
            rows.append({"experiment": "sample-diagnostics", "group": str(fam),
                         "epsilon": eps, "term": "plaquette",
                         "value": est.mean, "sigma": est.sigma,
                         "target": a_std, "gap": abs(est.mean - a_std)})
            clauses.append(_within(f"{fam} eps={eps:g} <W_p> = a_std",
                                   est.mean - a_std, est.sigma, n_sigma))
    t0 = _stage(stages, "plaquette_chains", t0)

    # master equation residual for an SU(2) rectangle
    eps = epsilons[0]
    su2 = GroupSpec("SU", 2)
    loop, _ = make_rectangle(cfg["geometry"]["t"], eps)
    site = (0, 0)
    espec = EquationSpec(su2, eps, loop, site)
    terms, meta = assemble(espec)
    rep = evaluate_mc(terms, meta, ActionParams(su2, eps), schedule)
    diagnostics.append(_chain_diagnostics(su2, eps, rep.metadata,
                                          _term_estimates("rectangle:", rep)))
    rows.append({"experiment": "sample-diagnostics", "group": "SU(2)",
                 "epsilon": eps, "term": "rectangle-equation",
                 "residual": rep.residual, "residual_sigma": rep.residual_sigma})
    clauses.append(_within("SU(2) rectangle master equation",
                           rep.residual, rep.residual_sigma, n_sigma))

    # SO(3) figure-eight equation at the crossing bond
    so3 = GroupSpec("SO", 3)
    geo = make_figure_eight(1.0, 1.0, eps)
    espec = EquationSpec(so3, eps, geo.subject, geo.sites["e"])
    terms, meta = assemble(espec)
    rep = evaluate_mc(terms, meta, ActionParams(so3, eps), schedule)
    diagnostics.append(_chain_diagnostics(so3, eps, rep.metadata,
                                          _term_estimates("figure-eight:", rep)))
    rows.append({"experiment": "sample-diagnostics", "group": "SO(3)",
                 "epsilon": eps, "term": "figure-eight-equation",
                 "residual": rep.residual, "residual_sigma": rep.residual_sigma})
    clauses.append(_within("SO(3) figure-eight master equation",
                           rep.residual, rep.residual_sigma, n_sigma))

    t0 = _stage(stages, "equations", t0)
    clauses.extend(_gauge_bit_identity_clauses())
    t0 = _stage(stages, "gauge", t0)
    clauses.extend(_chain_statistics_clauses(eps, schedule))
    t0 = _stage(stages, "chain_statistics", t0)
    doubling, doubling_diagnostics = _volume_doubling_clauses(eps, schedule, n_sigma)
    clauses.extend(doubling)
    diagnostics.extend(doubling_diagnostics)
    _stage(stages, "volume_doubling", t0)
    return rows, clauses, {"diagnostics": diagnostics,
                           "timings": {"stages_s": stages}}


def _stage(stages, name, t0):
    """Record the seconds since `t0` as stage `name`; return the time now."""
    now = time.perf_counter()
    stages[name] = now - t0
    return now


def _gauge_bit_identity_clauses():
    """Gauge transforms with exact (fourth-root-of-unity) diagonal gauges
    leave Wilson loops bit-identical; generic gauges leave them equal to
    1e-12."""
    clauses = []
    rng = np.random.default_rng(5)
    for fam in (GroupSpec("U", 1), GroupSpec("SU", 2)):
        params = ActionParams(fam, 0.7)
        box = LatticeBox(4, 4)
        cfg_ = init_config(box, params, "hot", rng, chains=2)
        loop = make_loop_from_moves((1, 1), "RRUULLDD")
        obs = WilsonObservable([loop], box, (0, 0))
        before = obs.measure(cfg_)[0]
        roots = np.array([1.0, 1.0j, -1.0, -1.0j])
        if fam == GroupSpec("U", 1):
            # dyadic link angles and gauge make the angle arithmetic exact
            for arr in cfg_.links:
                arr[:] = rng.integers(-256, 256, arr.shape) / 128.0
            before = obs.measure(cfg_)[0]
            g_exact = rng.integers(-8, 8, (5, 5)) / 4.0
        else:
            # center gauge g_v in {+I, -I}: sign flips stay bitwise exact
            # through fused-multiply-add matmul kernels, unlike +-i phases
            signs = roots[2 * rng.integers(0, 2, (5, 5))].real
            g_exact = np.zeros((5, 5, 2, 2), dtype=complex)
            g_exact[..., 0, 0] = signs
            g_exact[..., 1, 1] = signs
        after = obs.measure(gauge_transform(cfg_, g_exact))[0]
        bit = np.array_equal(before.view(np.float64), after.view(np.float64))
        clauses.append(Clause(f"{fam} gauge bit-identity (exact diagonal gauge)",
                              bit, ""))
        # generic gauge: equality to 1e-12
        if fam == GroupSpec("U", 1):
            g_any = rng.uniform(-np.pi, np.pi, (5, 5))
        else:
            g_any = haar_sample(fam, rng, (5, 5))
        after2 = obs.measure(gauge_transform(cfg_, g_any))[0]
        clauses.append(Clause(f"{fam} gauge invariance to 1e-12 (generic gauge)",
                              bool(np.max(np.abs(after2 - before)) < 1e-12),
                              f"max dev {np.max(np.abs(after2 - before)):.1e}"))
    return clauses


def _chi2_sf(stat, dof):
    """P(chi^2 with `dof` degrees of freedom >= stat).  scipy.special.chdtrc
    is the function scipy.stats.chi2.sf evaluates; importing only
    scipy.special spares a run the hundreds of modules of scipy.stats."""
    from scipy import special
    return float(special.chdtrc(dof, stat))


def _ks_statistic(u):
    """The two-sided Kolmogorov-Smirnov distance of the sample `u` from
    Uniform(0, 1), computed as scipy.stats.kstest computes it."""
    u = np.sort(u)
    n = u.size
    return float(max(np.max(np.arange(1.0, n + 1) / n - u),
                     np.max(u - np.arange(0.0, n) / n)))


def _ks_pvalue(n, d):
    """P(D_n >= d) for the two-sided KS distance of n uniform draws, as
    Miller's doubled one-sided tail 2 smirnov(n, d), capped at 1.  For
    n > 140 and n d^2 >= 2.2, scipy's exact kstwo.sf returns that same
    expression (Simard & L'Ecuyer 2011, J. Stat. Softw. 39(11)), so the two
    agree bit for bit wherever p < 0.02; above, Miller's p bounds the exact
    one from above (union of the two one-sided tails), so a 1% gate decides
    alike."""
    from scipy import special
    return min(1.0, float(2 * special.smirnov(n, d)))


def _p_clause(name, p):
    return Clause(name, p > 0.01, f"p = {p:.3f}")


def _chi2_clause(name, stat, dof, cause):
    """PASS when the chi^2 p-value exceeds 1%.  With no degree of freedom
    there is no evidence either way: FAIL, naming the `cause`."""
    if dof < 1:
        return Clause(name, False, f"no test: {cause}")
    return _p_clause(name, _chi2_sf(stat, dof))


def _chain_statistics_clauses(eps, schedule):
    """Detailed balance and equilibrium distribution checks of the U(1) heat
    bath, the kernel of every U(1) chain, on one plaquette: 4 chains of
    max(4000, sweeps) heat-bath sweeps on a 1x1 box after a hot start, the
    first 200 dropped.  The plaquette angle's histogram is tested against
    the quadrature density and its binned transitions for symmetry (chi^2 at
    1% each); Haar draws of U(1) are tested for uniform angles (KS at 1%)."""
    clauses = []
    params = ActionParams(GroupSpec("U", 1), eps)
    box = LatticeBox(1, 1)
    rng = np.random.default_rng(schedule.seed + 1)
    cfg_ = init_config(box, params, "hot", rng, chains=4)
    n_steps = max(4000, schedule.sweeps)
    raw = np.empty((n_steps, cfg_.n_chains))
    for i in range(n_steps):
        sweep_heatbath_u1(cfg_, rng)
        raw[i] = plaquette_product(cfg_)[:, 0, 0]
    angles = np.mod(raw + np.pi, 2 * np.pi) - np.pi
    flat = angles[200:].reshape(-1)

    # chi^2 of the marginal against the quadrature density
    nbins = 24
    edges = np.linspace(-np.pi, np.pi, nbins + 1)
    z = partition_function(params)
    centers = 0.5 * (edges[1:] + edges[:-1])
    dens = unnormalized_weight(params, (centers,)) / z
    probs = dens * (2 * np.pi / nbins)
    probs = probs / probs.sum()
    counts, _ = np.histogram(flat, bins=edges)
    expected = probs * counts.sum()
    mask = expected > 8
    chi2 = float(np.sum((counts[mask] - expected[mask]) ** 2 / expected[mask]))
    dof = int(mask.sum() - 1)
    clauses.append(_chi2_clause("plaquette histogram matches density (chi2 at 1%)",
                                chi2, dof, "fewer than 2 bins expect > 8 counts"))

    # detailed-balance asymmetry on the binned transition counts
    nb = 10
    edges_b = np.linspace(-np.pi, np.pi, nb + 1)
    a_idx = np.digitize(angles[200:-1].reshape(-1), edges_b) - 1
    b_idx = np.digitize(angles[201:].reshape(-1), edges_b) - 1
    counts2 = np.zeros((nb, nb))
    np.add.at(counts2, (a_idx.clip(0, nb - 1), b_idx.clip(0, nb - 1)), 1.0)
    stat = 0.0
    dof2 = 0
    for i in range(nb):
        for j in range(i + 1, nb):
            tot = counts2[i, j] + counts2[j, i]
            if tot >= 16:
                stat += (counts2[i, j] - counts2[j, i]) ** 2 / tot
                dof2 += 1
    clauses.append(_chi2_clause("detailed-balance transition asymmetry (chi2 at 1%)",
                                stat, dof2, "no bin pair with >= 16 transitions"))

    # Haar sampling: U(1) angles of haar_sample draws are uniform (KS at 1%)
    rng2 = np.random.default_rng(schedule.seed + 2)
    haar_angles = np.angle(haar_sample(GroupSpec("U", 1), rng2, 10_000)[:, 0, 0])
    d_ks = _ks_statistic((haar_angles + np.pi) / (2 * np.pi))
    clauses.append(_p_clause("U(1) Haar angle uniform (KS at 1%)",
                             _ks_pvalue(haar_angles.size, d_ks)))
    return clauses


def _volume_doubling_clauses(eps, schedule, n_sigma):
    """Finite-volume proxy: a fixed small loop on margins m and 2m agrees.

    Returns the clause and the diagnostics of the two chains."""
    clauses, diagnostics = [], []
    su2 = GroupSpec("SU", 2)
    params = ActionParams(su2, eps)
    loop, _ = make_rectangle(0.25, eps)
    vals = []
    for margin in (3, 6):
        ests, _, meta = estimate_wilson(params, [loop],
                                        replace(schedule, seed=schedule.seed + margin),
                                        margin=margin)
        vals.append(ests[0])
        diagnostics.append(_chain_diagnostics(su2, eps, meta,
                                              [(f"margin-{margin}", ests[0])]))
    diff = abs(vals[0].mean - vals[1].mean)
    sig = math.hypot(vals[0].sigma, vals[1].sigma)
    clauses.append(Clause(
        f"box-size doubling agreement within {n_sigma:g} sigma",
        diff <= n_sigma * sig, f"diff {diff:.4f} vs sigma {sig:.4f}"))
    return clauses, diagnostics


EXPERIMENTS = {
    "verify-discrete": run_verify_discrete,
    "converge-simple": run_converge_simple,
    "converge-crossing": run_converge_crossing,
    "converge-merger": run_converge_merger,
    "converge-unified": run_converge_unified,
    "gauss-lemma": run_gauss_lemma,
    "degenerate": run_degenerate,
    "sample-diagnostics": run_sample_diagnostics,
}


def _provenance(config_path, cfg):
    """The JSON `provenance` of one run: package, Python, numpy and scipy
    versions, the sha256 of the config file, the [mc] and [random] seeds
    (None where the experiment has none) and the thread variables (None
    where unset).  Imports here, not at module level, keep them out of the
    import time of the harness."""
    import hashlib
    import sys

    import scipy

    import loopfield
    with open(config_path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    return {"loopfield": loopfield.__version__, "python": sys.version.split()[0],
            "numpy": np.__version__, "scipy": scipy.__version__,
            "config_sha256": digest,
            "seeds": {section: cfg.get(section, {}).get("seed")
                      for section in ("mc", "random")},
            "threads": {var: os.environ.get(var) for var in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}}


def run_experiment(config_path: str, out_dir: str | None = None) -> int:
    t_load = time.perf_counter()
    try:
        name, cfg = load_config(config_path)
    except ConfigError as exc:
        print(f"config error: {exc}")
        return EXIT_CONFIG
    load_s = time.perf_counter() - t_load
    out_base = cfg["output"]["path"]
    if out_base is None:
        stem = os.path.splitext(os.path.basename(config_path))[0]
        out_base = os.path.join(out_dir or "reports", stem)
    elif out_dir is not None:
        out_base = os.path.join(out_dir, out_base)
    t0 = time.perf_counter()
    try:
        rows, clauses, extra = EXPERIMENTS[name](cfg)
    except (QuadratureError, TailBudgetError) as exc:
        print(f"numerical certification failure: {exc}")
        return EXIT_NUMERICAL
    extra = dict(extra)
    stage_timings = extra.pop("timings", {})
    extra["runtime_seconds"] = time.perf_counter() - t0
    extra["timings"] = {"load_config_s": load_s,
                        "experiment_s": extra["runtime_seconds"], **stage_timings}
    extra["provenance"] = _provenance(config_path, cfg)
    write_reports(out_base, _rows_with_rates(rows), clauses, extra)
    for c in clauses:
        print(c.line())
    n_fail = sum(not c.passed for c in clauses)
    print(f"{name}: {len(clauses) - n_fail}/{len(clauses)} clauses passed "
          f"in {extra['runtime_seconds']:.1f}s -> {out_base}.csv")
    return EXIT_OK if n_fail == 0 else EXIT_FAIL


# ---------------------------------------------------------------------------
# fixtures


def emit_fixtures(kind: str, out_dir: str = "fixtures") -> list:
    os.makedirs(out_dir, exist_ok=True)
    written = []
    if kind in ("loop-ops", "all"):
        path = os.path.join(out_dir, "loop_ops.txt")
        with open(path, "w") as fh:
            fh.write("# loop operation golden pairs: op | input(s) | output(s)\n")
            for line in _loop_op_fixture_lines():
                fh.write(line + "\n")
        written.append(path)
    if kind in ("graphs", "all"):
        geo = make_figure_eight(0.5, 0.5, 0.25)
        path = os.path.join(out_dir, "figure_eight_graph.json")
        with open(path, "w") as fh:
            fh.write(geo.graph.dump() + "\n")
        written.append(path)
    if kind in ("char-tables", "all"):
        params = ActionParams(GroupSpec("U", 1), 0.5)
        table = build_char_table(params, max_casimir=64.0)
        path = os.path.join(out_dir, "char_table_u1_eps0.5.txt")
        table.save_text(path)
        written.append(path)
    if not written:
        raise ConfigError(f"unknown fixture kind {kind!r}")
    return written


def _loop_op_fixture_lines():
    lines = []
    # positive splitting of the canonical figure-eight at the crossing bond
    geo = make_figure_eight(0.5, 0.5, 0.5)
    loop = geo.subject
    comp, loc = geo.sites["e"]
    e = loop.word[loc]
    y = [i for i, b in enumerate(loop.word) if b == e and i != loc][0]
    pair = split_positive(loop, e, loc, y)
    lines.append("split-pos | %s @ (%d,%d) | %s ; %s" % (
        loop_to_text(loop), loc, y, loop_to_text(pair.loops[0]),
        loop_to_text(pair.loops[1])))
    # mergers of two plaquettes along a shared bond
    p1 = plaquette_loop((0, 0))
    p2 = plaquette_loop((0, 0))
    e = p1.word[0]
    merged = merge_positive(p1, p2, e, 0, 0)
    lines.append("merge-pos | %s + %s @ bond %s | %s" % (
        loop_to_text(p1), loop_to_text(p2), e, loop_to_text(merged)))
    # negative twisting of the figure-eight at the crossing bond
    tw = twist_negative(loop, loop.word[loc], loc, y)
    lines.append("twist-neg | %s @ (%d,%d) | %s" % (
        loop_to_text(loop), loc, y, loop_to_text(tw)))
    return lines


def selftest(out_dir: str = "reports") -> int:
    """Exact-backend subset: verify-discrete + degenerate at coarse settings."""
    import tempfile
    worst = EXIT_OK
    with tempfile.TemporaryDirectory() as tmp:
        for name, body in (
            ("verify", "[experiment]\nname = verify-discrete\n"
                       "[grid]\nepsilons = 0.25\n[random]\ncount = 10\n"),
            ("degenerate", "[experiment]\nname = degenerate\n"),
        ):
            path = os.path.join(tmp, name + ".cfg")
            with open(path, "w") as fh:
                fh.write(body)
            code = run_experiment(path, out_dir=out_dir)
            worst = max(worst, code)
    return worst
