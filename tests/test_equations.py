import math

import numpy as np
import pytest

from loopfield.groups import GroupSpec
from loopfield.action import ActionParams
from loopfield.loops import random_loop
from loopfield.driver import (U1Backend, area_derivative, make_figure_eight,
                              make_figure_eight_reversed, make_rectangle,
                              make_coil, make_limacon, make_crossing_squares)
from loopfield.equations import (EquationSpec, assemble, evaluate_exact_u1,
                                 evaluate_mc, deformation_value,
                                 combination_value, crossing_deformation_data,
                                 convergence_simple, convergence_crossing,
                                 convergence_merger, crossing_im_sweep,
                                 degenerate_checks, trace_power_integral,
                                 unified_equation_reports, EquationError,
                                 alternating_area_derivative,
                                 finite_difference_alternating)
from loopfield import equations
from loopfield.sampler import LatticeBox, MCSchedule, make_estimate, sample_iid

U1 = GroupSpec("U", 1)


def test_assemble_simple_rectangle_terms():
    # a simple loop has only the four deformation terms plus the base
    eps = 0.25
    loop, _ = make_rectangle(0.5, eps)
    spec = EquationSpec(U1, eps, loop, (0, 0))
    terms, meta = assemble(spec)
    tags = sorted(t.tag for t in terms)
    assert tags == ["base", "deform-minus", "deform-minus",
                    "deform-plus", "deform-plus"]
    assert meta["const"] == 1.0 and meta["k_coincidence"] == 1


def test_assemble_figure_eight_has_splitting():
    eps = 0.25
    geo = make_figure_eight(0.5, 0.5, eps)
    spec = EquationSpec(U1, eps, geo.subject, geo.annotation.e_first[0])
    terms, meta = assemble(spec)
    tags = [t.tag for t in terms]
    assert tags.count("split-pos") == 1
    split = [t for t in terms if t.tag == "split-pos"][0]
    assert split.coefficient == -1.0
    assert len(split.subject) == 2  # splitting a loop yields a 2-string
    assert meta["k_coincidence"] == 2


def test_assemble_so3_coefficients():
    # SO(3) crossing equation: twist coefficient -(2-1)/(1*3) = -1/3 appears
    # as +1/3 in the residual form, and the base constant is 1 - 1/3
    eps = 0.5
    geo = make_figure_eight(1.0, 1.0, eps)
    spec = EquationSpec(GroupSpec("SO", 3), eps, geo.subject,
                        geo.annotation.e_first[0])
    terms, meta = assemble(spec)
    twist = [t for t in terms if t.tag == "twist-neg"]
    assert len(twist) == 1 and twist[0].coefficient == pytest.approx(1.0 / 3.0)
    assert meta["const"] == pytest.approx(2.0 / 3.0)
    base = [t for t in terms if t.tag == "base"][0]
    assert base.coefficient == pytest.approx(-2.0 / 3.0)
    assert not any("expand" in t.tag for t in terms)  # gamma = 0


def test_assemble_su2_coefficients():
    eps = 0.5
    geo = make_figure_eight(1.0, 1.0, eps)
    su2 = GroupSpec("SU", 2)
    # crossing bond: const = 1 - 0 - 2/4 = 1/2, expansions present, no twist
    terms, meta = assemble(EquationSpec(su2, eps, geo.subject,
                                        geo.annotation.e_first[0]))
    assert meta["const"] == pytest.approx(0.5)
    assert sum("expand-pos" == t.tag for t in terms) == 2
    assert sum("expand-neg" == t.tag for t in terms) == 2
    assert not any("twist" in t.tag for t in terms)
    # simple bond: const = 1 - 1/4 = 3/4
    _, meta1 = assemble(EquationSpec(su2, eps, geo.subject,
                                     geo.annotation.e1[0]))
    assert meta1["const"] == pytest.approx(0.75)


def test_exact_residuals_machine_precision():
    rng = np.random.default_rng(100)
    eps = 0.25
    backend = U1Backend(eps)
    worst = 0.0
    for _ in range(30):
        loop = random_loop(rng, 4, 4)
        loc = int(rng.integers(len(loop.word)))
        rep = evaluate_exact_u1(*assemble(EquationSpec(U1, eps, loop, (0, loc))),
                                backend)
        worst = max(worst, abs(rep.residual))
    assert worst < 1e-12


def test_negative_control_coefficient_perturbation():
    eps = 0.25
    geo = make_figure_eight(0.5, 0.5, eps)
    backend = U1Backend(eps)
    site = geo.annotation.e_first[0]
    good = evaluate_exact_u1(*assemble(EquationSpec(U1, eps, geo.subject, site)),
                             backend)
    assert abs(good.residual) < 1e-12
    for tag in ("deform-minus", "split-pos", "base"):
        bad = evaluate_exact_u1(
            *assemble(EquationSpec(U1, eps, geo.subject, site, {tag: 1.1})),
            backend)
        assert abs(bad.residual) > 1e-3


def test_site_validation():
    loop, _ = make_rectangle(0.5, 0.25)
    with pytest.raises(EquationError):
        assemble(EquationSpec(U1, 0.25, loop, (0, 999)))


def test_trace_power_integral_u1():
    import scipy.special as sp
    params = ActionParams(U1, 0.5)
    beta = 4.0
    assert trace_power_integral(U1, params, 2) == pytest.approx(
        sp.iv(2, beta) / sp.i0(beta), abs=1e-11)


def test_convergence_simple_u1_and_u2():
    for spec in (U1, GroupSpec("U", 2)):
        rep = convergence_simple(spec, 1.0, [0.25, 0.125, 0.0625])
        gaps = [r["gap"] for r in rep["rows"]]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[-1] < 1e-2
        assert rep["target"] == pytest.approx(math.exp(-0.5))
        assert max(r["outer_cancel"] for r in rep["rows"]) < 1e-12


def test_deformation_value_matches_equation():
    # D at a simple bond equals E W exactly (the U(1) master equation)
    eps = 0.25
    geo = make_figure_eight(0.5, 0.5, eps)
    backend = U1Backend(eps)
    d = deformation_value(geo.subject, geo.annotation.e1[0], backend)
    assert d == pytest.approx(backend.expectation(geo.subject), abs=1e-13)
    # at the crossing bond it exceeds it by the splitting value
    d_e = deformation_value(geo.subject, geo.annotation.e_first[0], backend)
    assert d_e == pytest.approx(2.0 * backend.expectation(geo.subject), abs=1e-13)


def test_combination_coefficient_validation():
    geo = make_figure_eight(0.5, 0.5, 0.25)
    backend = U1Backend(0.25)
    with pytest.raises(EquationError):
        combination_value(geo, backend, b=(0.5, 0.2), a=(0, 0.5, 0, 0.5, 0))


def test_convergence_crossing_sweep():
    rep = convergence_crossing([0.25, 0.125], max_triples=4)
    gaps = [r["gap"] for r in rep["rows"]]
    assert gaps[0] > gaps[1]
    assert rep["rows"][-1]["exactness"] < 1e-12
    assert rep["rows"][-1]["triple_spread"] < 1e-12


def test_crossing_im_identities_exact():
    rep = crossing_im_sweep([0.25, 0.125], family="coil")
    for r in rep["rows"]:
        assert r["identity_loop1"] < 1e-12
        assert r["identity_g2"] < 1e-12
        assert r["identity_g3"] < 1e-12
    assert rep["rows"][0]["gap_e"] > rep["rows"][1]["gap_e"]
    # the correction terms are genuinely nonzero on the coil
    assert abs(rep["rows"][0]["I"][1]) > 1e-3
    assert abs(rep["rows"][0]["I"][3]) > 1e-3


def test_crossing_im_identities_limacon():
    rep = crossing_im_sweep([0.25], family="limacon", t4=0.5, t2=0.5)
    r = rep["rows"][0]
    assert r["identity_loop1"] < 1e-12
    assert r["identity_g2"] < 1e-12
    assert r["identity_g3"] < 1e-12


def test_convergence_merger_sweep():
    rep = convergence_merger([0.25, 0.125], side=1.5, overlap=0.75)
    rows = rep["rows"]
    assert rows[0]["gap"] > rows[1]["gap"]
    assert rows[-1]["exactness"] < 1e-12
    # merger term at finite eps equals the discrete expectation of l12,
    # which for U(1) coincides with E W_s
    be = U1Backend(0.125)
    geo = make_crossing_squares(1.5, 0.75, 0.125)
    assert rows[-1]["split_term"] == pytest.approx(be.expectation(geo.subject),
                                                   abs=1e-12)
    assert rep["family"] == "crossing-squares"


def test_merger_is_the_first_compatible_triple():
    # the merger combination is the crossing sweep's first triple at the
    # canonical sites, bit for bit
    eps = 0.25
    row = convergence_merger([eps])["rows"][0]
    geo = make_crossing_squares(1.5, 0.75, eps)
    backend = U1Backend(eps)
    d = {k: deformation_value(geo.subject, geo.sites[k], backend)
         for k in ("e", "e1", "e3")}
    assert row["triples"] == [d["e"] - 0.5 * d["e1"] - 0.5 * d["e3"]]


@pytest.mark.parametrize("geo", [
    make_figure_eight(0.5, 0.5, 0.25),
    make_figure_eight_reversed(0.5, 0.5, 0.25),
    make_coil(0.5, 0.25),
    make_limacon(0.5, 0.5, 0.25),
    make_crossing_squares(1.5, 0.75, 0.25),
], ids=lambda geo: geo.kind)
def test_wedge_derivatives_match_finite_differences(geo):
    # absolute bound: the limacon's wedge 4 has winding 0, so d_4 = 0
    faces = geo.lattice_faces()
    wedges = geo.wedge_face_indices()
    derivs = geo.wedge_derivatives()
    assert set(derivs) == {1, 2, 3, 4}
    for m, k in wedges.items():
        if k is None:
            assert derivs[m] == 0.0
        else:
            assert abs(derivs[m] - area_derivative(faces, k, "fd")) < 1e-8


def test_degenerate_checks_all_pass():
    out = degenerate_checks(0.25)
    for kind in ("limacon", "coil"):
        assert out[kind]["identity_gap"] < 1e-8
        assert out[kind]["reduces_to_alternating"] < 1e-12
        assert out[kind]["surgery_gap"] < 1e-12
    assert out["coil"]["unbounded_derivative"] == 0.0


def test_alternating_area_derivative_signs():
    geo = make_figure_eight(0.5, 0.5, 0.25)
    # n2 = +1 (west), n4 = -1 (east): (d1-d2+d3-d4) E = E
    val = alternating_area_derivative(geo)
    ew = math.exp(-0.5)
    assert val == pytest.approx(ew, rel=1e-12)


def test_evaluate_mc_u1_shared_stream():
    # shared-randomness MC on an exactly known residual: z-score within 3
    eps = 0.6
    loop, _ = make_rectangle(0.36 * 2, eps)
    spec = EquationSpec(U1, eps, loop, (0, 0))
    terms, meta = assemble(spec)
    sched = MCSchedule(sweeps=2000, burn_in=200, thin=2, chains=8, seed=31)
    rep = evaluate_mc(terms, meta, ActionParams(U1, eps), sched)
    assert abs(rep.residual) <= 3.0 * rep.residual_sigma
    # all terms are estimated on one stream (same sample count throughout)
    assert len({v.n_samples for v in rep.values}) == 1


def test_unified_reports_structure():
    sched = MCSchedule(sweeps=600, burn_in=150, thin=3, chains=6, seed=41)
    out = unified_equation_reports(GroupSpec("SO", 3), 0.5, sched,
                                   t2=1.0, t4=1.0)
    assert set(out["reports"]) == {"at_e", "at_e1", "at_e3"}
    for rep in out["reports"].values():
        assert abs(rep.residual) <= 4.0 * rep.residual_sigma
    assert out["coefficients"]["twist"] == pytest.approx(-1.0 / 3.0)
    assert out["expansion_pair"] is None  # gamma = 0 for SO(N)


def test_finite_differences_share_one_chain(monkeypatch):
    # the four shifted figure-eights are measured on one sample stream, and
    # sigma is the blocked error of the per-measurement alternating sum
    calls = []

    def counted(params, subjects, schedule, margin=4):
        samples, meta = sample_iid(params, subjects, schedule, margin=margin)
        calls.append((subjects, samples, meta))
        return samples, meta

    monkeypatch.setattr(equations, "sample_iid", counted)
    su2, eps, h = GroupSpec("SU", 2), 0.5, 2 * 0.5**2
    sched = MCSchedule(sweeps=8, burn_in=4, thin=2, chains=2, seed=5)
    fd = finite_difference_alternating(su2, eps, sched, t2=1.0, t4=1.0)
    assert len(calls) == 1
    subjects, samples, meta = calls[0]
    shifted = [make_figure_eight(1.0 + d2, 1.0 + d4, eps).subject
               for d2, d4 in ((h, 0), (-h, 0), (0, h), (0, -h))]
    assert [s.word for s in subjects] == [s.word for s in shifted]
    assert meta["box"] == LatticeBox(14, 10)
    w = dict(zip(("t2+", "t2-", "t4+", "t4-"), samples.real.transpose(1, 0, 2)))
    m = {label: x.mean() for label, x in w.items()}
    value = -(m["t2+"] - m["t2-"]) / (2 * h) - (m["t4+"] - m["t4-"]) / (2 * h)
    assert abs(fd["value"] - value) < 1e-12
    combined = make_estimate(-(w["t2+"] - w["t2-"]) / (2 * h)
                             - (w["t4+"] - w["t4-"]) / (2 * h))
    assert fd["sigma"] == combined.sigma
    assert fd["run_meta"] is meta


def test_orientation_variant_sign_flip_same_limit():
    # crossing edge traversed as e then e^-1: the splitting changes sign
    # (negative instead of positive) and the combination reaches the same
    # continuum identity
    from loopfield.driver import make_figure_eight_reversed
    from loopfield.equations import alternating_area_derivative
    gaps = []
    for eps in (0.25, 0.125):
        geo = make_figure_eight_reversed(0.5, 0.5, eps)
        backend = U1Backend(eps)
        terms, meta = assemble(EquationSpec(U1, eps, geo.subject,
                                            geo.annotation.e_first[0]))
        tags = [t.tag for t in terms]
        assert "split-neg" in tags and "split-pos" not in tags
        rep = evaluate_exact_u1(terms, meta, backend)
        assert abs(rep.residual) < 1e-12
        dvals = crossing_deformation_data(geo, backend)
        comb = dvals["e"] - 0.5 * dvals["e1"] - 0.5 * dvals["e3"]
        target = alternating_area_derivative(geo)
        gaps.append(abs(comb - target))
        # same magnitude of limit as the standard orientation
        std = make_figure_eight(0.5, 0.5, eps)
        assert target == pytest.approx(-alternating_area_derivative(std))
    assert gaps[0] > gaps[1]


@pytest.mark.slow
def test_mc_residual_pass_rate_randomized_trials():
    # z <= 3 in at least 95% of randomized (loop, bond) trials at eps = 0.5
    rng = np.random.default_rng(321)
    sched = MCSchedule(sweeps=1200, burn_in=200, thin=3, chains=8, seed=55)
    trials, passes = 0, 0
    for spec in (GroupSpec("SU", 2), GroupSpec("SO", 3)):
        for _ in range(10):
            loop = random_loop(rng, 2, 2)
            loc = int(rng.integers(len(loop.word)))
            espec = EquationSpec(spec, 0.5, loop, (0, loc))
            rep = evaluate_mc(*assemble(espec), ActionParams(spec, 0.5),
                              MCSchedule(sweeps=sched.sweeps, burn_in=sched.burn_in,
                                         thin=sched.thin, chains=sched.chains,
                                         seed=sched.seed + trials), margin=3)
            trials += 1
            if abs(rep.residual) <= 3.0 * rep.residual_sigma:
                passes += 1
    assert passes >= 0.95 * trials - 1e-9, f"{passes}/{trials}"
