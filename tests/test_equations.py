import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from loopfield.groups import GroupSpec
from loopfield.action import ActionParams, char_coefficient, standard_label
from loopfield.loops import (DIR_CHARS, LoopString, bond_inverse,
                             compatible_triples, make_loop, occurrences,
                             random_loop, walk_moves)
from loopfield.driver import (U1Backend, CrossingGeometry, make_figure_eight,
                              make_figure_eight_reversed, make_rectangle,
                              make_coil, make_limacon, make_crossing_squares,
                              winding_number)
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
from oracles import (area_derivative_by_faces, area_derivative_fd,
                     correction_term_im_by_faces, deformation_value_by_surgery,
                     lattice_faces, u1_continuum_by_faces, wedge_face_indices)

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


def _walk(start, dirs):
    return walk_moves(start, "".join(DIR_CHARS[d % 4] for d in dirs))[0]


def _loop_with_second_pass(rng, hx, hy, negative):
    """A random loop with a bond e that it passes again, as e or (negative)
    as e^-1, and the location of e.

    The loop's word, rotated to start with e at the vertex v, is followed by
    a closed path from v: the plaquette left of e, or a two-plaquette path
    that runs back along e^-1 and turns away at both ends, so that neither
    junction backtracks."""
    word = random_loop(rng, hx, hy).word
    start = int(rng.integers(len(word)))
    word = word[start:] + word[:start]
    e, d = word[0], word[0][2]
    if negative:
        # side s: not back along the last bond into v
        s = d + 3 if (word[-1][2] + 2) % 4 == (d + 1) % 4 else d + 1
        tail = _walk(e[:2], [s, d, s + 2, d + 2, d + 2, s + 2, d, s])
    else:
        tail = _walk(e[:2], [d, d + 1, d + 2, d + 3])
    loop = make_loop(list(word) + tail)
    return loop, e, occurrences(loop, e)[0]


def _loop_through(rng, bond, hx, hy):
    """A random loop translated so that one of its bonds is `bond`."""
    word = random_loop(rng, hx, hy).word
    x, y, _ = word[int(rng.choice([i for i, b in enumerate(word) if b[2] == bond[2]]))]
    return make_loop([(bx + bond[0] - x, by + bond[1] - y, bd) for bx, by, bd in word])


def _string_sharing_bonds(rng, n_loops, negative):
    """A random string of n_loops loops and the site (comp, loc) of its
    loop that passes its bond e again; every other loop runs along e or
    e^-1."""
    loop, e, loc = _loop_with_second_pass(rng, 3, 3, negative)
    others = [_loop_through(rng, bond_inverse(e) if rng.random() < 0.5 else e, 3, 3)
              for _ in range(n_loops - 1)]
    comp = int(rng.integers(n_loops))
    return LoopString(others[:comp] + [loop] + others[comp:]), (comp, loc)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 3), st.booleans(),
       st.sampled_from([0.5, 0.25]))
def test_exact_residuals_on_strings_that_share_bonds(seed, n_loops, negative, eps):
    # one loop passes its site bond e again (a splitting); every other loop
    # runs along e or e^-1 (a merger); the exact U(1) equation still holds
    string, site = _string_sharing_bonds(np.random.default_rng(seed), n_loops,
                                         negative)
    terms, meta = assemble(EquationSpec(U1, eps, string, site))
    tags = {t.tag for t in terms}
    assert ("split-neg" if negative else "split-pos") in tags
    assert tags & {"merge-pos", "merge-neg"}
    rep = evaluate_exact_u1(terms, meta, U1Backend(eps))
    assert abs(rep.residual) < 1e-12


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


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([("U", 1), ("SU", 2), ("U", 2), ("SO", 3)]),
       st.floats(0.03, 1.2))
def test_first_trace_power_is_the_standard_coefficient(group, eps):
    # S^eps is a class function invariant under Q -> Q^-1 and d_std = N, so
    # q1 = a_std; convergence_simple relies on the equality holding to the bit
    spec = GroupSpec(*group)
    params = ActionParams(spec, eps)
    assert trace_power_integral(spec, params, 1) == \
        char_coefficient(standard_label(spec), params)


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


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.booleans(),
       st.sampled_from([0.5, 0.25, 0.125]))
def test_deformation_value_is_the_loop_surgery_value_on_strings(seed, n_loops,
                                                                negative, eps):
    # every bond of a random string whose loops share bonds: the one-cell
    # change of the winding counts gives the loop-surgery value to the bit
    string, _ = _string_sharing_bonds(np.random.default_rng(seed), n_loops,
                                      negative)
    subject = string if n_loops > 1 else string.loops[0]
    backend = U1Backend(eps)
    for c, l in enumerate(string.loops):
        for loc in range(len(l.word)):
            assert deformation_value(subject, (c, loc), backend) == \
                deformation_value_by_surgery(subject, (c, loc), backend)


_GEOMETRIES = {
    "figure-eight": lambda eps: make_figure_eight(0.5, 0.5, eps),
    "figure-eight-reversed": lambda eps: make_figure_eight_reversed(0.5, 0.5, eps),
    "coil": lambda eps: make_coil(0.5, eps),
    "limacon": lambda eps: make_limacon(0.5, 0.5, eps),
    "crossing-squares": lambda eps: make_crossing_squares(1.5, 0.75, eps),
}


@pytest.mark.parametrize("eps", [0.25, 0.125, 0.0625, 0.03125])
@pytest.mark.parametrize("kind", sorted(_GEOMETRIES) + ["rectangle"])
def test_deformation_value_is_the_loop_surgery_value_on_geometries(kind, eps):
    # the canonical and triple sites of each crossing factory, and every
    # bond of the rectangle, bit for bit
    if kind == "rectangle":
        subject, _ = make_rectangle(0.5, eps)
        sites = [(0, loc) for loc in range(len(subject.word))]
    else:
        geo = _GEOMETRIES[kind](eps)
        subject = geo.subject
        sites = set(geo.sites.values())
        for tr in compatible_triples(geo.annotation):
            sites |= {tr.site_e, tr.site_a, tr.site_b}
    backend = U1Backend(eps)
    for site in sorted(sites):
        assert deformation_value(subject, site, backend) == \
            deformation_value_by_surgery(subject, site, backend), site


def _assert_continuum_is_the_face_product(subject, eps, wedge_cells):
    """The measure's continuum E W, d_m and I_m, read off the winding field,
    equal the face-by-face values to 4 ulp of the largest of them."""
    geo = CrossingGeometry("wedges", eps, subject, None, wedge_cells)
    faces, wedges = lattice_faces(geo), wedge_face_indices(geo)
    want = [u1_continuum_by_faces(subject, eps)]
    want += [0.0 if wedges[m] is None else area_derivative_by_faces(faces, wedges[m])
             for m in (1, 2, 3, 4)]
    want += [correction_term_im_by_faces(faces, m, wedges[m]) for m in (1, 2, 3, 4)]
    measure = U1Backend(eps)
    d, i_m = measure.wedge_derivatives(geo), measure.correction_terms(geo)
    got = [measure.continuum(subject)] + [d[m] for m in (1, 2, 3, 4)]
    got += [i_m[m] for m in (1, 2, 3, 4)]
    bound = 4 * np.finfo(float).eps * max(abs(v) for v in want)
    assert max(abs(a - b) for a, b in zip(got, want)) <= bound, (got, want)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.booleans(),
       st.sampled_from([0.5, 0.25, 0.125]))
def test_continuum_side_is_the_face_product_on_strings(seed, n_loops, negative,
                                                       eps):
    # wedge cells drawn from the whole box, its unbounded margin included,
    # or None
    rng = np.random.default_rng(seed)
    string, _ = _string_sharing_bonds(rng, n_loops, negative)
    (x0, y0), wind = winding_number(string)
    cells = [None] + [(x0 + i, y0 + j) for i in range(wind.shape[0])
                      for j in range(wind.shape[1])]
    picks = rng.integers(len(cells), size=4)
    _assert_continuum_is_the_face_product(
        string, eps, {m: cells[k] for m, k in zip((1, 2, 3, 4), picks)})


@pytest.mark.parametrize("eps", [0.25, 0.125, 0.0625, 0.03125])
@pytest.mark.parametrize("kind", sorted(_GEOMETRIES) + ["rectangle"])
def test_continuum_side_is_the_face_product_on_geometries(kind, eps):
    # each crossing factory at its own wedge cells; the rectangle at a cell
    # inside it, one outside and None
    if kind == "rectangle":
        loop, _ = make_rectangle(0.5, eps)
        wedge_cells = {1: (0, 0), 2: (-1, 0), 3: None, 4: (0, 0)}
        _assert_continuum_is_the_face_product(loop, eps, wedge_cells)
    else:
        geo = _GEOMETRIES[kind](eps)
        _assert_continuum_is_the_face_product(geo.subject, eps, geo.wedge_cells)


@pytest.mark.parametrize("eps", [0.25, 0.125, 0.0625])
@pytest.mark.parametrize("kind", ["limacon", "coil"])
def test_the_class_of_the_north_wedge_is_the_s_face(kind, eps):
    # degenerate_checks splits the class of |w(c_1)|: every cell of that
    # winding is in the s-face, the bounded face holding c_1 and c_3
    geo = _GEOMETRIES[kind](eps)
    (x0, y0), wind = winding_number(geo.subject)
    c1, c3 = geo.wedge_cells[1], geo.wedge_cells[3]
    i, j = np.nonzero(np.abs(wind) == abs(wind[c1[0] - x0, c1[1] - y0]))
    the_class = set(zip((i + x0).tolist(), (j + y0).tolist()))
    g = geo.graph
    assert g.cell_to_face[c3] == g.cell_to_face[c1]
    assert the_class == g.faces[g.cell_to_face[c1]].cells


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
    faces = lattice_faces(geo)
    wedges = wedge_face_indices(geo)
    derivs = U1Backend(geo.epsilon).wedge_derivatives(geo)
    assert set(derivs) == {1, 2, 3, 4}
    for m, k in wedges.items():
        if k is None:
            assert derivs[m] == 0.0
        else:
            assert abs(derivs[m] - area_derivative_fd(faces, k)) < 1e-8


def test_degenerate_checks_all_pass():
    out = degenerate_checks(0.25)
    for kind in ("limacon", "coil"):
        assert out[kind]["identity_gap"] < 1e-8
        assert out[kind]["reduces_to_alternating"] < 1e-12
        assert out[kind]["surgery_gap"] < 1e-12
    assert out["coil"]["unbounded_derivative"] == 0.0


class _RecordingMeasure:
    """A stand-in for U1Backend with the same methods: it records each call
    and returns fixed floats, so that every number of a sweep run on it
    comes from the measure."""

    LATTICE, CONTINUUM, SPLIT = 0.5, 0.25, 0.125
    DEFORMED = (0.75, 0.5, 0.25, 0.125)  # the D- and then the D+ values
    WEDGES = {1: 0.1, 2: 0.2, 3: 0.3, 4: 0.4}
    I_M = {1: 0.01, 2: 0.02, 3: 0.03, 4: 0.04}

    def __init__(self, calls, epsilon):
        self.calls = calls
        self.calls.append("__init__")
        self.params = ActionParams(U1, epsilon)
        self.epsilon = epsilon

    def expectation(self, obj):
        self.calls.append("expectation")
        return self.LATTICE

    def cell_change_expectations(self, obj, changes):
        self.calls.append("cell_change_expectations")
        assert len(changes) == len(self.DEFORMED)
        return list(self.DEFORMED)

    @classmethod
    def deformation(cls, eps):
        """The D value that deformation_value forms from DEFORMED."""
        return (cls.DEFORMED[0] + cls.DEFORMED[1] - cls.DEFORMED[2]
                - cls.DEFORMED[3]) / (2.0 * eps**2)

    def continuum(self, obj, split=None):
        self.calls.append("continuum")
        return self.CONTINUUM

    def wedge_derivatives(self, geometry):
        self.calls.append("wedge_derivatives")
        return dict(self.WEDGES)

    def correction_terms(self, geometry):
        self.calls.append("correction_terms")
        return dict(self.I_M)

    def continuum_splitting(self, geometry):
        self.calls.append("continuum_splitting")
        return self.SPLIT


def test_exact_sweeps_take_every_u1_value_from_the_measure(monkeypatch):
    from loopfield import driver

    def formula(*args, **kwargs):
        raise AssertionError("a U(1) formula was called outside the measure")

    for name in ("continuum_product", "area_derivative", "correction_term_im",
                 "char_coefficient"):
        monkeypatch.setattr(driver, name, formula)
    calls = []
    monkeypatch.setattr(equations, "U1Backend",
                        lambda eps: _RecordingMeasure(calls, eps))
    m = _RecordingMeasure
    d, i_m = m.WEDGES, m.I_M
    alt = d[1] - d[2] + d[3] - d[4]
    eps_list = (0.25, 0.125)

    rows = convergence_crossing(eps_list, max_triples=1)["rows"]
    rows += convergence_merger(eps_list)["rows"]
    assert calls.count("__init__") == 2 * len(eps_list)  # one measure per eps
    for row in rows:
        assert row["target"] == alt
        assert row["E_W"] == m.LATTICE
        assert row["split_term"] == m.LATTICE  # merger weight 1/N^2 = 1

    calls.clear()
    for row in crossing_im_sweep(eps_list)["rows"]:
        limit_e = 2.0 * alt + i_m[1] + i_m[3]
        assert row["identity_loop1"] == abs(limit_e - m.SPLIT - m.CONTINUUM)
        assert row["identity_g2"] == abs(2.0 * (d[1] - d[4]) + 2.0 * i_m[1]
                                         - m.CONTINUUM)
        # the D values, and so the gaps, come from the measure too
        assert row["gap_e"] == abs(m.deformation(row["epsilon"]) - limit_e)
        assert row["I"] == i_m
    assert calls.count("__init__") == len(eps_list)

    calls.clear()
    out = degenerate_checks(0.25)
    assert calls.count("__init__") == 1
    for entry in out.values():
        assert entry["identity_gap"] == abs(2.0 * d[1] - d[2] - d[4] - m.SPLIT)
        assert entry["E_W"] == m.CONTINUUM and entry["surgery_gap"] == 0.0
    # the coil's unbounded wedge is F2: the clause reads the measure's d_2
    assert out["coil"]["unbounded_wedges"] == [2]
    assert out["coil"]["unbounded_derivative"] == d[2]

    interface = {name for name in vars(U1Backend) if not name.startswith("_")}
    assert set(calls) - {"__init__"} <= interface
    for name in ("continuum_product", "correction_term_im", "area_derivative"):
        assert not hasattr(equations, name), name


def test_exact_sweeps_read_no_face(monkeypatch):
    # the sweeps' rows, apart from the realized geometry and the timings,
    # come out the same when no planar graph can be built
    from loopfield import driver

    def rows():
        eps_list = (0.25, 0.125)
        out = convergence_crossing(eps_list, max_triples=2)["rows"]
        out += convergence_merger(eps_list)["rows"]
        for family in ("coil", "limacon", "figure-eight"):
            out += crossing_im_sweep(eps_list, family=family)["rows"]
        out += list(degenerate_checks(0.25).values())
        return [{k: v for k, v in row.items() if k not in ("geometry", "seconds")}
                for row in out]

    expected = rows()

    def no_faces(obj):
        raise AssertionError("a value path built a planar graph")

    monkeypatch.setattr(driver, "build_graph", no_faces)
    monkeypatch.setattr(CrossingGeometry, "realized", lambda self: {})
    assert rows() == expected


def test_exact_sweeps_build_no_deformed_string(monkeypatch):
    # every D of the sweeps is a one-cell change of the winding counts
    def surgery(*args, **kwargs):
        raise AssertionError("a sweep built deformed strings")

    monkeypatch.setattr(equations, "string_deformation_sets", surgery)
    convergence_crossing((0.25, 0.125), max_triples=1)
    convergence_merger((0.25, 0.125))
    crossing_im_sweep((0.25, 0.125))
    degenerate_checks(0.25)


def test_alternating_area_derivative_signs():
    geo = make_figure_eight(0.5, 0.5, 0.25)
    # n2 = +1 (west), n4 = -1 (east): (d1-d2+d3-d4) E = E
    val = alternating_area_derivative(U1Backend(0.25).wedge_derivatives(geo))
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
        target = alternating_area_derivative(backend.wedge_derivatives(geo))
        gaps.append(abs(comb - target))
        # same magnitude of limit as the standard orientation
        std = make_figure_eight(0.5, 0.5, eps)
        assert target == pytest.approx(
            -alternating_area_derivative(backend.wedge_derivatives(std)))
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
