"""Master loop equations: term assembly, evaluation, convergence sweeps.

An equation at a fixed bond site is assembled into a residual form

    R = (1/2 eps^2) (sum D- - sum D+)            deformations
        - c0 * W                                 c0 = 1 - (2-b)/(bN) - k g/N^2
        - sum S+ + sum S-                        splittings
        + tw * (sum T- + sum T+)                 tw = (2-b)/(bN)
        - (g/2 eps^2) (sum E+ - sum E-)          expansions
        - (1/N^2) sum M+ + (1/N^2) sum M-        mergers (strings)

which vanishes identically on the lattice.  Here b, g are the group
constants (b = 1 for SO, else 2; g = 1 for SU else 0) and k counts 1 plus
the other occurrences of the bond or its inverse.  For U(N) this reduces
to the plain single-location equation (tw = 0, g = 0, c0 = 1).

Backends: the exact U(1) measure, `driver.U1Backend`, and shared-randomness
Monte Carlo for the other groups (all terms estimated on one sample
stream).  The stream is `sample_iid`'s exact axial-gauge draws for U(1),
SU(2) and SO(3), and a Metropolis chain (`run_chain`) for the other groups.

The exact sweeps (convergence_crossing, crossing_im_sweep,
degenerate_checks) build one measure per eps and take every U(1) value
from its methods: lattice expectations on one side of each identity, the
deformation values D from one-cell changes of the subject's winding counts
with no deformed string built, and on the other side the continuum
expectation, wedge area derivatives, correction terms I_m and splitting
term.  The group's coefficients come from
EquationSpec.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from loopfield.groups import GroupSpec, casimir_standard
from loopfield.action import (ActionParams, char_coefficient, standard_label,
                              integrate_class_function, partition_function)
from loopfield.loops import (LoopString, as_string, bond_inverse, incident_cells,
                             string_deformation_sets, string_split,
                             string_merge, string_twist, expansion_sets,
                             compatible_triples)
from loopfield.driver import (U1Backend, CrossingGeometry, make_figure_eight,
                              make_coil, make_limacon, make_crossing_squares)
from loopfield.sampler import (IID_GROUPS, MCSchedule, run_chain, sample_iid,
                               make_estimate, Estimate)

FD_STEP_PLAQUETTES = 2  # lobe-area step of finite_difference_alternating, in plaquettes

# general (b, a) combinations of convergence_crossing: b weighs D_e, D_e_ and
# a weighs E W, D_e1 .. D_e4 (see combination_value)
DEFAULT_COMBOS = (((0.7, 0.3), (0.2, 0.2, 0.1, 0.3, 0.2)),
                  ((1.5, -0.5), (0.4, 0.1, 0.2, 0.1, 0.2)))


class EquationError(ValueError):
    pass


@dataclass(frozen=True)
class Term:
    tag: str
    coefficient: float
    subject: object  # Loop or LoopString


@dataclass
class EquationSpec:
    group: GroupSpec
    epsilon: float
    subject: object
    site: tuple  # (component, location)
    overrides: dict = field(default_factory=dict)

    @property
    def coefficients(self):
        beta, gamma, n = self.group.beta_g, self.group.gamma_g, self.group.n
        return {
            "deformation": 1.0 / (2.0 * self.epsilon**2),
            "twist": (2.0 - beta) / (beta * n),
            "expansion": gamma / (2.0 * self.epsilon**2),
            "merger": 1.0 / n**2,
        }


@dataclass
class EquationReport:
    terms: list
    values: list          # per-term Estimate (exact backend: sigma = 0)
    residual: float
    residual_sigma: float
    metadata: dict


def assemble(spec: EquationSpec):
    """Term list of the master loop equation at the fixed bond site."""
    s = as_string(spec.subject)
    comp, loc = spec.site
    loop = s.loops[comp]
    if loop.is_trivial or not (0 <= loc < len(loop.word)):
        raise EquationError("site outside the subject")
    e = loop.word[loc]
    einv = bond_inverse(e)
    c = spec.coefficients

    def coef(tag, base):
        return base * spec.overrides.get(tag, 1.0)

    terms = []
    d_minus, d_plus = string_deformation_sets(s, comp, e, loc)
    for s2, _ in d_minus:
        terms.append(Term("deform-minus", coef("deform-minus", c["deformation"]), s2))
    for s2, _ in d_plus:
        terms.append(Term("deform-plus", coef("deform-plus", -c["deformation"]), s2))

    k_coincidence = 1
    # same-component co-occurrences: splittings and twistings
    for y, b in enumerate(loop.word):
        if y == loc:
            continue
        if b == e:
            k_coincidence += 1
            terms.append(Term("split-pos", coef("split-pos", -1.0),
                              string_split(s, comp, e, loc, y, positive=True)))
            if c["twist"] != 0.0:
                terms.append(Term("twist-neg", coef("twist-neg", c["twist"]),
                                  string_twist(s, comp, e, loc, y, positive=False)))
        elif b == einv:
            k_coincidence += 1
            terms.append(Term("split-neg", coef("split-neg", 1.0),
                              string_split(s, comp, e, loc, y, positive=False)))
            if c["twist"] != 0.0:
                terms.append(Term("twist-pos", coef("twist-pos", c["twist"]),
                                  string_twist(s, comp, e, loc, y, positive=True)))
    # cross-component occurrences: mergers
    for comp2, other in enumerate(s.loops):
        if comp2 == comp or other.is_trivial:
            continue
        for y, b in enumerate(other.word):
            if b == e:
                k_coincidence += 1
                terms.append(Term("merge-pos", coef("merge-pos", -c["merger"]),
                                  string_merge(s, comp, comp2, e, loc, y, positive=True)))
            elif b == einv:
                k_coincidence += 1
                terms.append(Term("merge-neg", coef("merge-neg", c["merger"]),
                                  string_merge(s, comp, comp2, e, loc, y, positive=False)))
    # expansions (SU only)
    if c["expansion"] != 0.0:
        e_plus, e_minus = expansion_sets(loop, e, loc)
        for p in e_plus:
            terms.append(Term("expand-pos", coef("expand-pos", -c["expansion"]),
                              s.replace(comp, p)))
        for p in e_minus:
            terms.append(Term("expand-neg", coef("expand-neg", c["expansion"]),
                              s.replace(comp, p)))

    beta, gamma, n = spec.group.beta_g, spec.group.gamma_g, spec.group.n
    const = 1.0 - (2.0 - beta) / (beta * n) - k_coincidence * gamma / n**2
    terms.append(Term("base", coef("base", -const), s))
    meta = {"bond": e, "site": spec.site, "k_coincidence": k_coincidence,
            "const": const}
    return terms, meta


# ---------------------------------------------------------------------------
# evaluation backends


def evaluate_exact_u1(terms, meta, backend: U1Backend) -> EquationReport:
    values = []
    residual = 0.0
    for t in terms:
        v = backend.expectation(t.subject)
        values.append(Estimate(v, 0.0, 0.0, 0, 0.0))
        residual += t.coefficient * v
    return EquationReport(list(terms), values, residual, 0.0,
                          {"backend": "exact-u1", **meta,
                           "epsilon": backend.epsilon})


def evaluate_mc(terms, meta, params: ActionParams, schedule: MCSchedule,
                margin: int = 4) -> EquationReport:
    """Shared-randomness Monte-Carlo evaluation of a term list."""
    series, run_meta = _shared_stream(params, [t.subject for t in terms],
                                      schedule, margin)
    return _mc_report(terms, meta, series,
                      {"epsilon": params.epsilon, "schedule": schedule, **run_meta})


def _subject_key(subject):
    s = as_string(subject)
    return tuple(sorted(l.word for l in s.loops))


def _shared_stream(params: ActionParams, subjects, schedule: MCSchedule,
                   margin: int):
    """One sample stream that measures each distinct subject once: exact
    i.i.d. draws where `sample_iid` serves the group, else one chain.

    Returns series(subject), the real (n_meas, n_chains) samples of any of
    the subjects, and the stream's meta.
    """
    index, distinct = {}, []
    for subject in subjects:
        key = _subject_key(subject)
        if key not in index:
            index[key] = len(distinct)
            distinct.append(subject)
    draw = sample_iid if params.spec in IID_GROUPS else run_chain
    samples, run_meta = draw(params, distinct, schedule, margin=margin)

    def series(subject):
        return samples[:, index[_subject_key(subject)], :].real

    return series, run_meta


def _weighted(terms, series):
    """The series of sum(coefficient * W) over the terms."""
    total = 0.0
    for t in terms:
        total = total + t.coefficient * series(t.subject)
    return total


def _mc_report(terms, meta, series, extra) -> EquationReport:
    values = [make_estimate(series(t.subject)) for t in terms]
    resid = make_estimate(_weighted(terms, series))
    return EquationReport(list(terms), values, resid.mean, resid.sigma,
                          {"backend": "mc", **meta, **extra})


def _second_occurrence(s: LoopString, site):
    """The bond at `site` and the (component, location) of its first other
    occurrence in the string."""
    comp, loc = site
    e = s.loops[comp].word[loc]
    for c2, other in enumerate(s.loops):
        for y, b in enumerate(other.word):
            if b == e and (c2, y) != (comp, loc):
                return e, (c2, y)
    raise EquationError("no second crossing-bond occurrence found")


# ---------------------------------------------------------------------------
# deformation combinations at crossing sites


def deformation_value(subject, site, backend: U1Backend) -> float:
    """(1/2 eps^2)(sum E W over D- minus over D+) at the site, exact U(1).

    Each deformation merges the subject with the plaquette of one of the two
    cells next to the site's bond e, so in U(1) it moves the winding around
    that cell by one: a negative deformation by -1 where the cell lies left
    of e and by +1 where it lies right, a positive one the opposite.  The
    four values are those one-cell changes of the subject's winding counts
    (U1Backend.cell_change_expectations); no deformed string is built.
    Only assemble, whose experiments check the loop code, builds them.
    """
    comp, loc = site
    e = as_string(subject).loops[comp].word[loc]
    minus = [(cell, -1 if left else 1) for cell, left in incident_cells(e)]
    plus = [(cell, -dn) for cell, dn in minus]
    values = backend.cell_change_expectations(subject, minus + plus)
    tot = 0.0
    for v in values[:len(minus)]:
        tot += v
    for v in values[len(minus):]:
        tot -= v
    return tot / (2.0 * backend.epsilon**2)


def alternating_area_derivative(d) -> float:
    """(d1 - d2 + d3 - d4) E W from the wedge derivatives {m: d_m E W}."""
    return d[1] - d[2] + d[3] - d[4]


def crossing_deformation_data(geometry: CrossingGeometry, backend: U1Backend):
    """{span: D value} at the geometry's six canonical sites."""
    return {k: deformation_value(geometry.subject, site, backend)
            for k, site in geometry.sites.items()}


def combination_value(geometry: CrossingGeometry, backend: U1Backend,
                      b=(1.0, 0.0), a=(0.0, 0.5, 0.0, 0.5, 0.0),
                      dvals=None) -> float:
    """b1 D_e + b2 D_e_ - a0 E W - sum_i a_i D_{e_i}; the master combination.

    With the defaults this is the plain combination D_e - (D_e1 + D_e3)/2.
    Requires sum(b) = 1 and sum(a) = 1.
    """
    if abs(sum(b) - 1.0) > 1e-12 or abs(sum(a) - 1.0) > 1e-12:
        raise EquationError("combination coefficients must each sum to 1")
    if dvals is None:
        dvals = crossing_deformation_data(geometry, backend)
    ew = backend.expectation(geometry.subject)
    return (b[0] * dvals["e"] + b[1] * dvals["e_"] - a[0] * ew
            - a[1] * dvals["e1"] - a[2] * dvals["e2"]
            - a[3] * dvals["e3"] - a[4] * dvals["e4"])


# ---------------------------------------------------------------------------
# sweeps


def trace_power_integral(spec: GroupSpec, params: ActionParams, power: int,
                         tol: float = 1e-11) -> float:
    """(1/N) int Tr(Q^power) S^eps(Q) dQ by torus quadrature."""

    def tr_power(*angles):
        if spec == GroupSpec("U", 1):
            return np.exp(1j * power * angles[0])
        if spec == GroupSpec("SU", 2):
            return 2.0 * np.cos(power * angles[0])
        if spec == GroupSpec("SO", 3):
            return 1.0 + 2.0 * np.cos(power * angles[0])
        if spec == GroupSpec("U", 2):
            return np.exp(1j * power * angles[0]) + np.exp(1j * power * angles[1])
        raise NotImplementedError

    z = partition_function(params, tol=tol)
    val = integrate_class_function(spec, tr_power, tol=tol, weight=params) / z
    return float(np.real(val)) / spec.n


def convergence_simple(spec: GroupSpec, t: float, eps_list, tol: float = 1e-11):
    """Deformation combination of a simple loop against -2 dE/dt.

    All four deformed expectations reduce to single-variable quadratures:
    inner- = a^{T-1}, outer- = a^{T+1}, inner+ = a^{T-1} q2,
    outer+ = a^T q1 with q_m = (1/N) int Tr(Q^m) S^eps dQ.  q1 is a itself,
    to the bit, so only q2 needs its own quadrature.  Each row carries the
    seconds it took.
    """
    c_std = casimir_standard(spec)
    target = -c_std * math.exp(0.5 * c_std * t)
    rows = []
    for eps in eps_list:
        t0 = time.perf_counter()
        params = ActionParams(spec, eps)
        bigt = int(round(t / eps**2))
        a = char_coefficient(standard_label(spec), params, tol=tol)
        q1 = a  # S^eps is invariant under Q -> Q^-1, and d_std = N
        q2 = trace_power_integral(spec, params, 2, tol=tol)
        e_in_minus = a ** (bigt - 1)
        e_out_minus = a ** (bigt + 1)
        e_in_plus = a ** (bigt - 1) * q2
        e_out_plus = a ** bigt * q1
        d_val = (e_in_minus + e_out_minus - e_in_plus - e_out_plus) / (2 * eps**2)
        rows.append({
            "epsilon": eps, "T": bigt, "a_std": a,
            "D": d_val, "target": target, "gap": abs(d_val - target),
            "outer_cancel": abs(e_out_minus - e_out_plus),
            "E_discrete": a**bigt,
            "seconds": time.perf_counter() - t0,
        })
    return {"group": str(spec), "t": t, "target": target, "rows": rows}


def convergence_crossing(eps_list,
                         geometry_at=lambda eps: make_figure_eight(0.5, 0.5, eps),
                         extra_combos=DEFAULT_COMBOS,
                         max_triples: int | None = None):
    """The crossing-convergence sweep on the geometry `geometry_at(eps)`
    builds at each eps: per-triple combinations and the general (b, a)
    combinations, against the alternating area derivative, and the
    splitting (or, across two components, merger) term each triple equals
    exactly.  Each D value is a one-cell change of the subject's winding
    counts (deformation_value), so no deformed string is built; each row
    carries the seconds it took."""
    rows = []
    for eps in eps_list:
        t0 = time.perf_counter()
        geometry = geometry_at(eps)
        measure = U1Backend(eps)
        target = alternating_area_derivative(measure.wedge_derivatives(geometry))
        ew = measure.expectation(geometry.subject)
        dvals = crossing_deformation_data(geometry, measure)

        triples = compatible_triples(geometry.annotation)
        if max_triples is not None:
            triples = triples[:max_triples]
        dcache = {site: dvals[k] for k, site in geometry.sites.items()}

        def dval(site):
            if site not in dcache:
                dcache[site] = deformation_value(geometry.subject, site, measure)
            return dcache[site]

        triple_values = []
        for tr in triples:
            val = dval(tr.site_e) - 0.5 * dval(tr.site_a) - 0.5 * dval(tr.site_b)
            triple_values.append(val)
        combos = []
        for bcoef, acoef in extra_combos:
            combos.append(combination_value(geometry, measure, bcoef, acoef, dvals))
        # exactness: the triple combination equals the splitting term value
        split_val = _splitting_value(geometry, measure)
        rows.append({
            "epsilon": eps,
            "target": target,
            "E_W": ew,
            "triples": triple_values,
            "combo_values": combos,
            "gap": max(abs(v - target) for v in triple_values),
            "gap_combos": max((abs(v - target) for v in combos), default=0.0),
            "triple_spread": max(triple_values) - min(triple_values),
            "split_term": split_val,
            "exactness": max(abs(v - split_val) for v in triple_values),
            "geometry": geometry.realized(),
            "seconds": time.perf_counter() - t0,
        })
    return {"family": geometry.kind, "rows": rows}


def _splitting_value(geometry: CrossingGeometry, measure: U1Backend) -> float:
    """E W of the positive splitting at the crossing (the two sub-loops), or
    across two components the merger term with its weight 1/N^2."""
    comp, loc = geometry.sites["e"]
    s = as_string(geometry.subject)
    e, (c2, y) = _second_occurrence(s, (comp, loc))
    if c2 == comp:
        return measure.expectation(string_split(s, comp, e, loc, y, positive=True))
    spec = EquationSpec(measure.params.spec, measure.epsilon, s, (comp, loc))
    merged = string_merge(s, comp, c2, e, loc, y, positive=True)
    return spec.coefficients["merger"] * measure.expectation(merged)


def _crossing_family(family: str, epsilon: float, t2: float, t4: float):
    """A figure-eight, coil or limacon; the coil has only the t4 lobe."""
    if family == "figure-eight":
        return make_figure_eight(t2, t4, epsilon)
    if family == "coil":
        return make_coil(t4, epsilon)
    if family == "limacon":
        return make_limacon(t4, t2, epsilon)
    raise EquationError(f"unknown family {family!r}")


def crossing_im_sweep(eps_list, family: str = "coil", t4: float = 0.5,
                      t2: float = 0.5):
    """Per-equation deformation limits with correction terms (I_m validators).

    Checks, per epsilon, the three deformation sums against their limits
      D_e   -> 2 (d1-d2+d3-d4) E W + I1 + I3
      D_e1  -> 2 (d1-d4) E W + 2 I1
      D_e3  -> 2 (d3-d2) E W + 2 I3
    and the continuum identities these limits satisfy.  Each row carries
    the seconds it took.
    """
    rows = []
    for eps in eps_list:
        t0 = time.perf_counter()
        geometry = _crossing_family(family, eps, t2, t4)
        measure = U1Backend(eps)
        ew = measure.continuum(geometry.lattice_faces())
        ims = measure.correction_terms(geometry)
        d_m = measure.wedge_derivatives(geometry)
        limit_e = 2.0 * alternating_area_derivative(d_m) + ims[1] + ims[3]
        limit_e1 = 2.0 * (d_m[1] - d_m[4]) + 2.0 * ims[1]
        limit_e3 = 2.0 * (d_m[3] - d_m[2]) + 2.0 * ims[3]
        dvals = {k: deformation_value(geometry.subject, geometry.sites[k], measure)
                 for k in ("e", "e1", "e3")}
        split_cont = measure.continuum_splitting(geometry)
        rows.append({
            "epsilon": eps,
            "gap_e": abs(dvals["e"] - limit_e),
            "gap_e1": abs(dvals["e1"] - limit_e1),
            "gap_e3": abs(dvals["e3"] - limit_e3),
            "identity_loop1": abs(limit_e - split_cont - ew),
            "identity_g2": abs(limit_e1 - ew),
            "identity_g3": abs(limit_e3 - ew),
            "I": ims,
            "seconds": time.perf_counter() - t0,
        })
    return {"family": family, "rows": rows}


def convergence_merger(eps_list, side: float = 1.5, overlap: float = 0.75):
    """Merger-theorem sweep: the crossing sweep on two crossing squares
    (exact U(1), N = 1), with the first compatible triple
    D_e - (D_e1 + D_e3)/2 and one general combination.

    The defaults keep the realized geometry fixed across the sweep; smaller
    squares would clamp against the crossing-edge margins at eps = 1/4.
    """
    return convergence_crossing(
        eps_list, lambda eps: make_crossing_squares(side, overlap, eps),
        extra_combos=(((0.4, 0.6), (0.1, 0.25, 0.2, 0.25, 0.2)),), max_triples=1)


def degenerate_checks(epsilon: float = 0.25):
    """The two degenerate-crossing identities in the exact abelian backend.

    three-face (limacon):    (2 d_s - d_2 - d_4) E W = E W_{l1} W_{l2}
    unbounded-face (coil):   (2 d_s - d_bounded) E W = E W_{l1} W_{l2},
                             with the unbounded wedge derivative = 0.
    Both reduce to the alternating-sum identity with d_1 = d_3 = d_s.  The
    coil's unbounded_derivative is the measure's d_m at its unbounded wedge
    (the largest in magnitude if there are several; nan if there is none).
    """
    measure = U1Backend(epsilon)
    out = {}
    for kind in ("limacon", "coil"):
        geometry = _crossing_family(kind, epsilon, 0.5, 0.5)
        faces = geometry.lattice_faces()
        wedges = geometry.wedge_face_indices()
        ew = measure.continuum(faces)
        split_cont = measure.continuum_splitting(geometry)
        assert wedges[1] is not None and wedges[1] == wedges[3], \
            "north/south wedges must share the s-face"
        d = measure.wedge_derivatives(geometry)
        lhs = 2.0 * d[1] - d[2] - d[4]
        alt = alternating_area_derivative(d)
        # p_s = p_{t1} * p_{t3}: splitting the s-face leaves the product fixed
        t_s, n_s = faces[wedges[1]]
        split_faces = list(faces)
        split_faces[wedges[1]] = (0.3 * t_s, n_s)
        split_faces.append((0.7 * t_s, n_s))
        surgery_gap = abs(measure.continuum(split_faces) - ew)
        entry = {
            "identity_gap": abs(lhs - split_cont),
            "reduces_to_alternating": abs(lhs - alt),
            "surgery_gap": surgery_gap,
            "E_W": ew,
            "geometry": geometry.realized(),
        }
        if kind == "coil":
            unbounded = [m for m in (2, 4) if wedges[m] is None]
            entry["unbounded_derivative"] = max((d[m] for m in unbounded), key=abs,
                                                default=float("nan"))
            entry["unbounded_wedges"] = unbounded
        out[kind] = entry
    return out


# ---------------------------------------------------------------------------
# unified-group Monte Carlo verification


def unified_equation_reports(spec: GroupSpec, epsilon: float,
                             schedule: MCSchedule, t2: float = 0.5,
                             t4: float = 0.5, margin: int = 4):
    """The three unified equations at the crossing, plus their combination,
    all evaluated on one shared Monte-Carlo stream.

    Returns a dict with the per-equation reports, the combination residual,
    and the comparison of the deformation combination against the continuum
    right-hand side (splitting - twist - gamma terms), whose own estimate is
    estimates["rhs"] and whose (n_meas, n_chains) series is rhs_series.
    That comparison, wlg_gap, is an exact lattice identity at this eps:
    with exact values the gap is at rounding level (below 1e-13 at eps 1/2
    to 1/32), so it checks the sampler against the identity, not the limit
    eps -> 0.
    """
    geometry = make_figure_eight(t2, t4, epsilon)
    sites = {f"at_{k}": geometry.sites[k] for k in ("e", "e1", "e3")}
    assembled = {key: assemble(EquationSpec(spec, epsilon, geometry.subject, site))
                 for key, site in sites.items()}

    # the combination EE30 - EE31/2 - EE32/2 as a single weighted term list
    combo_terms = [Term(f"{key}:{t.tag}", weight * t.coefficient, t.subject)
                   for key, weight in (("at_e", 1.0), ("at_e1", -0.5), ("at_e3", -0.5))
                   for t in assembled[key][0]]

    # extra observables for the continuum comparison
    s = as_string(geometry.subject)
    comp, loc = sites["at_e"]
    e, (_, y) = _second_occurrence(s, sites["at_e"])
    split = string_split(s, comp, e, loc, y, positive=True)
    twist = string_twist(s, comp, e, loc, y, positive=False)

    series, run_meta = _shared_stream(
        ActionParams(spec, epsilon),
        [t.subject for t in combo_terms] + [s, split, twist], schedule, margin)
    reports = {key: _mc_report(*assembled[key], series, {"epsilon": epsilon})
               for key in sites}
    combo = make_estimate(_weighted(combo_terms, series))

    # deformation-combination vs the continuum RHS of the limit equation,
    # with the coefficients that assemble uses
    coefficients = EquationSpec(spec, epsilon, s, sites["at_e"]).coefficients
    tw = coefficients["twist"]
    gam = spec.gamma_g * coefficients["merger"]
    dcomb_series = _weighted([t for t in combo_terms if "deform" in t.tag], series)
    rhs_series = (series(split) - tw * series(twist) - gam * series(s))
    gap = make_estimate(dcomb_series - rhs_series)

    # expansion pair contributions (SU only), reported
    exp_terms = [t for t in combo_terms if "expand" in t.tag]
    expansion = make_estimate(_weighted(exp_terms, series)) if exp_terms else None

    return {
        "geometry": geometry,
        "reports": reports,
        "combination": combo,
        "wlg_gap": gap,
        "expansion_pair": expansion,
        "estimates": {"W": make_estimate(series(s)),
                      "split": make_estimate(series(split)),
                      "twist": make_estimate(series(twist)),
                      "rhs": make_estimate(rhs_series)},
        "rhs_series": rhs_series,
        "coefficients": {"twist": -tw, "gamma_term": -gam},
        "run_meta": run_meta,
    }


def finite_difference_alternating(spec: GroupSpec, epsilon: float,
                                  schedule: MCSchedule, t2: float = 0.5,
                                  t4: float = 0.5):
    """(d1-d2+d3-d4) E W by central differences of Monte-Carlo estimates.

    Rebuilds the figure-eight with each bounded lobe area shifted by
    +/- FD_STEP_PLAQUETTES * eps^2 and measures the four shifted loops on one
    sample stream, over the box that holds all four.  The differences share their
    random numbers, so sigma is the blocked error of the per-measurement
    series of the whole alternating sum: it carries the correlation of the
    four loops, which a sum of their separate variances would ignore.
    Returns that (n_meas, n_chains) series too, as "series".
    """
    h = FD_STEP_PLAQUETTES * epsilon**2
    subjects = {label: make_figure_eight(t2 + d2s, t4 + d4s, epsilon).subject
                for label, (d2s, d4s) in {"t2+": (h, 0), "t2-": (-h, 0),
                                          "t4+": (0, h), "t4-": (0, -h)}.items()}
    series, run_meta = _shared_stream(ActionParams(spec, epsilon),
                                      list(subjects.values()), schedule, margin=4)
    w = {label: series(subject) for label, subject in subjects.items()}
    # wedge signs: F2 (west, +1) and F4 (east, -1) are faces 2 and 4;
    # d1 = d3 = 0 (unbounded wedges)
    combined = -(w["t2+"] - w["t2-"]) / (2 * h) - (w["t4+"] - w["t4-"]) / (2 * h)
    total = make_estimate(combined)
    return {"value": total.mean, "sigma": total.sigma, "series": combined,
            "estimates": {label: make_estimate(x) for label, x in w.items()},
            "run_meta": run_meta}
