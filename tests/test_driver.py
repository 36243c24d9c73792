import decimal
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from loopfield.groups import GroupSpec
from loopfield.loops import (DIRS, Loop, make_loop, make_loop_from_moves,
                             plaquette_loop, LoopString, as_string, bond_inverse,
                             occurrences, random_loop)
from loopfield.action import ActionParams, char_coefficient
from loopfield.driver import (build_graph, winding_number, U1Backend,
                              _bond_arrays, _label_cells, _wall_grid,
                              continuum_product, area_derivative,
                              make_rectangle, make_figure_eight, make_coil,
                              make_limacon, make_crossing_squares,
                              DriverError)
from oracles import (area_derivative_fd, correction_term_im_bruteforce,
                     edge_graph, euler_characteristic, lattice_faces,
                     u1_bruteforce_expectation, u1_face_product,
                     wedge_face_indices)


def test_plaquette_graph():
    g = build_graph(plaquette_loop((0, 0)))
    assert len(g.faces) == 1
    assert g.faces[0].plaquettes == 1
    assert g.faces[0].winding == 1  # canonical plaquettes are counterclockwise
    assert euler_characteristic(g) == 2


def test_doubled_loop_windings_double():
    loop = make_loop_from_moves((0, 0), "RRUULLDD")
    doubled = make_loop(loop.word + loop.word)
    g1 = build_graph(loop)
    g2 = build_graph(doubled)
    assert g1.faces[0].winding == 1
    assert g2.faces[0].winding == 2
    assert g1.faces[0].cells == g2.faces[0].cells


def test_figure_eight_windings_and_wedges():
    geo = make_figure_eight(0.5, 0.5, 0.25)
    g = geo.graph
    assert sorted(f.winding for f in g.faces) == [-1, 1]
    wedges = wedge_face_indices(geo)
    assert wedges[1] is None and wedges[3] is None  # unbounded north/south
    assert g.faces[wedges[2]].winding == 1          # west lobe
    assert g.faces[wedges[4]].winding == -1         # east lobe
    # both lobes are realized at the requested area 0.5
    assert geo.realized()["areas"] == pytest.approx([0.5, 0.5])


def _reversed(loop):
    return make_loop([bond_inverse(b) for b in reversed(loop.word)])


def test_winding_number_field():
    loop = make_loop_from_moves((0, 0), "RRUULLDD")
    (x0, y0), w = winding_number(loop)
    assert (x0, y0) == (-1, -1) and w.shape == (4, 4)
    assert w[0 - x0, 0 - y0] == 1
    assert w[2 - x0, 0 - y0] == 0
    (x0, y0), w = winding_number(_reversed(loop))
    assert w[0 - x0, 0 - y0] == -1


def _face_windings(subject):
    return {f.cells: f.winding for f in build_graph(subject).faces}


def _shoelace_area(subject):
    """Signed enclosed area from the vertical bonds alone: +x up, -x down."""
    return sum(x if d == 1 else -x for loop in as_string(subject)
               for x, _, d in loop.word if d in (1, 3))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 4), st.integers(1, 4),
       st.none() | st.tuples(st.integers(-4, 4), st.integers(-4, 4)))
def test_winding_field_properties(seed, hx, hy, offset):
    # a random loop, or a string of two random loops the second translated
    rng = np.random.default_rng(seed)
    loops = [random_loop(rng, hx, hy)]
    if offset is not None:
        dx, dy = offset
        loops.append(make_loop([(x + dx, y + dy, d)
                                for x, y, d in random_loop(rng, hx, hy).word]))
    subject = loops[0] if len(loops) == 1 else LoopString(loops)
    windings = _face_windings(subject)
    assert sum(n * len(cells) for cells, n in windings.items()) == \
        _shoelace_area(subject)
    assert _face_windings(LoopString(map(_reversed, loops))) == \
        {cells: -n for cells, n in windings.items()}
    assert _face_windings(LoopString(make_loop(l.word * 2) for l in loops)) == \
        {cells: 2 * n for cells, n in windings.items()}


def _flood_fill_faces(subject):
    """The former build_graph, kept as an oracle: a flood fill over the cells
    of the winding box, seeded at the unassigned cells in raster order.
    Returns (cells, winding) of the bounded faces, in order, each with the
    winding of its seed; a nonzero winding anywhere on the unbounded face
    is a DriverError."""
    from loopfield.driver import _edge_key
    occ = {_edge_key(b) for l in as_string(subject) for b in l.word}
    (x0, y0), wind = winding_number(subject)
    x1, y1 = x0 + wind.shape[0], y0 + wind.shape[1]
    unassigned = {(i, j) for i in range(x0, x1) for j in range(y0, y1)}
    faces = []
    for seed in [(i, j) for i in range(x0, x1) for j in range(y0, y1)]:
        if seed not in unassigned:
            continue
        unassigned.discard(seed)
        comp, stack, border = {seed}, [seed], False
        while stack:
            i, j = stack.pop()
            border |= i in (x0, x1 - 1) or j in (y0, y1 - 1)
            for di, dj in DIRS:
                cell = (i + di, j + dj)
                wall = ((i + max(di, 0), j + max(dj, 0)), "V" if di else "H")
                if cell in unassigned and wall not in occ:
                    unassigned.discard(cell)
                    comp.add(cell)
                    stack.append(cell)
        if border:
            if any(wind[i - x0, j - y0] for i, j in comp):
                raise DriverError("unbounded face with nonzero winding")
            continue
        faces.append((frozenset(comp), int(wind[seed[0] - x0, seed[1] - y0])))
    return faces


def _faces_or_error(build, subject):
    try:
        return build(subject)
    except DriverError:
        return "DriverError"


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 5), st.integers(1, 5),
       st.sampled_from(["loop", "pair", "doubled", "open"]),
       st.tuples(st.integers(-4, 4), st.integers(-4, 4)))
def test_build_graph_matches_flood_fill(seed, hx, hy, kind, offset):
    # random loops, two-loop strings whose second loop is shifted by up to 4
    # (so bonds may be shared), doubled words, and open paths (DriverError)
    rng = np.random.default_rng(seed)
    loop = random_loop(rng, hx, hy)
    if kind == "pair":
        dx, dy = offset
        subject = LoopString((loop, make_loop(
            [(x + dx, y + dy, d) for x, y, d in random_loop(rng, hx, hy).word])))
    elif kind == "doubled":
        subject = make_loop(loop.word * 2)
    elif kind == "open":
        subject = Loop(loop.word[:1 + seed % (len(loop.word) - 1)])
    else:
        subject = loop
    expected = _faces_or_error(_flood_fill_faces, subject)
    graph = _faces_or_error(build_graph, subject)
    if expected == "DriverError" or graph == "DriverError":
        assert graph == expected
        return
    assert [(f.cells, f.winding, f.plaquettes) for f in graph.faces] == \
        [(cells, n, len(cells)) for cells, n in expected]
    assert graph.cell_to_face == {c: k for k, (cells, _) in enumerate(expected)
                                  for c in cells}


@pytest.mark.parametrize("layout", ["row", "grid"])
def test_build_graph_matches_flood_fill_on_many_faces(layout):
    # 24 disjoint plaquettes, some reversed and some doubled, so that the
    # face order is checked over many labels
    corners = ([(2 * k, 0) for k in range(24)] if layout == "row"
               else [(3 * (k % 6) - 7, 2 * (k // 6) + 1) for k in range(24)])
    loops = []
    for k, corner in enumerate(corners):
        p = plaquette_loop(corner)
        p = _reversed(p) if k % 3 == 1 else make_loop(p.word * 2) if k % 3 == 2 else p
        loops.append(p)
    subject = LoopString(loops)
    expected = _flood_fill_faces(subject)
    graph = build_graph(subject)
    assert len(expected) == 24
    assert [(f.cells, f.winding, f.plaquettes) for f in graph.faces] == \
        [(cells, n, len(cells)) for cells, n in expected]


def test_build_graph_unbounded_winding_error():
    # an open path, up then right: the cell under its right bond, on the box's
    # top border, winds once
    path = Loop(((0, 0, 1), (0, 1, 0)))
    with pytest.raises(DriverError, match="unbounded face"):
        _flood_fill_faces(path)
    with pytest.raises(DriverError, match="unbounded face"):
        build_graph(path)


def _ndimage_cell_labels(grid):
    from scipy import ndimage  # the reference only; loopfield never loads it
    return ndimage.label(grid)[0][1::2, 1::2]


def _random_subject(rng, hx, hy, kind, offset):
    loop = random_loop(rng, hx, hy)
    if kind == "pair":  # the second loop shifted by up to 4: bonds may be shared
        dx, dy = offset
        return LoopString((loop, make_loop(
            [(x + dx, y + dy, d) for x, y, d in random_loop(rng, hx, hy).word])))
    if kind == "nested":  # a rectangle around the loop, off its centre
        lo, hi = 1 + abs(offset[0]), 1 + abs(offset[1])
        x0 = min(x for x, _, _ in loop.word) - lo
        y0 = min(y for _, y, _ in loop.word) - lo
        w = max(x for x, _, _ in loop.word) + hi - x0
        h = max(y for _, y, _ in loop.word) + hi - y0
        frame = make_loop_from_moves((x0, y0), "R" * w + "U" * h + "L" * w + "D" * h)
        return LoopString((frame, loop))
    if kind == "doubled":
        return make_loop(loop.word * 2)
    return loop


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 6), st.integers(1, 6),
       st.sampled_from(["loop", "pair", "nested", "doubled"]),
       st.tuples(st.integers(-4, 4), st.integers(-4, 4)))
def test_label_cells_matches_ndimage(seed, hx, hy, kind, offset):
    # the run-merge labelling gives every cell of a loop's or string's box
    # the label, and the dtype, of a raster-scan labelling of the grid
    subject = _random_subject(np.random.default_rng(seed), hx, hy, kind, offset)
    x, y, d = _bond_arrays(subject)
    origin, wind = winding_number(subject)
    grid = _wall_grid(x, y, d, origin, wind.shape)
    ref = _ndimage_cell_labels(grid)
    ids = _label_cells(grid)
    assert ids.dtype == ref.dtype and ids.shape == ref.shape
    assert np.array_equal(ids, ref)
    assert np.array_equal(build_graph(subject).ids, ref)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12), st.integers(1, 12), st.floats(0.0, 1.0),
       st.integers(0, 2**32 - 1))
def test_label_cells_matches_ndimage_on_any_walls(nx, ny, p_open, seed):
    # arbitrary open and closed walls, including mazes and spirals whose
    # components are long paths of runs
    grid = np.zeros((2 * nx + 1, 2 * ny + 1), dtype=bool)
    grid[1::2, 1::2] = True
    rng = np.random.default_rng(seed)
    grid[1::2, 2:-1:2] = rng.random((nx, ny - 1)) < p_open
    grid[2:-1:2, 1::2] = rng.random((nx - 1, ny)) < p_open
    ref = _ndimage_cell_labels(grid)
    ids = _label_cells(grid)
    assert ids.dtype == ref.dtype and np.array_equal(ids, ref)


def test_label_cells_on_a_serpentine():
    # one face that snakes through every column: the runs join in a chain
    nx, ny = 9, 7
    grid = np.zeros((2 * nx + 1, 2 * ny + 1), dtype=bool)
    grid[1::2, 1::2] = True
    grid[1::2, 2:-1:2] = True
    for i in range(nx - 1):
        grid[2 * i + 2, 1 if i % 2 else 2 * ny - 1] = True
    assert np.array_equal(_label_cells(grid), _ndimage_cell_labels(grid))
    assert (_label_cells(grid) == 1).all()


def test_euler_relation_all_families():
    for geo in (make_figure_eight(0.5, 0.5, 0.25), make_coil(0.5, 0.25),
                make_limacon(0.5, 0.5, 0.25)):
        g = geo.graph
        assert euler_characteristic(g) == 2
        assert edge_graph(g.subject)[2] == 1


def test_product_formula_vs_bruteforce():
    eps = 0.25
    for subject in (make_rectangle(0.5, eps)[0],
                    make_figure_eight(0.5, 0.5, eps).subject,
                    make_coil(0.5, eps).subject):
        product = U1Backend(eps).expectation(subject)
        brute = u1_bruteforce_expectation(subject, eps, grid=96)
        assert abs(product - brute) < 1e-8


def test_trivial_loop_expectations():
    from loopfield.loops import TRIVIAL_LOOP
    assert U1Backend(0.5).expectation(TRIVIAL_LOOP) == 1.0
    assert U1Backend(0.5).continuum(TRIVIAL_LOOP) == 1.0


def test_edge_subdivision_invariance():
    # expectations depend only on the cyclic bond word, however the loop is
    # decomposed into edges; rebuilding from any rotation is bit-stable
    eps = 0.25
    geo = make_figure_eight(0.5, 0.5, eps)
    loop = geo.subject
    backend = U1Backend(eps)
    v1 = backend.expectation(loop)
    v2 = backend.expectation(make_loop(loop.rotated(7)))
    assert v1 == v2


def test_simple_loop_expectation_values():
    # a simple loop of area t = T eps^2: a_1^T on the lattice, exp(-t/2) in
    # the continuum
    eps = 0.25
    loop, t = make_rectangle(1.0, eps)
    a1 = char_coefficient(1, ActionParams(GroupSpec("U", 1), eps))
    assert U1Backend(eps).expectation(loop) == pytest.approx(
        a1 ** round(t / eps**2), abs=1e-12)
    assert U1Backend(eps).continuum(loop) == pytest.approx(math.exp(-0.5 * t))


def test_discrete_to_continuum_convergence():
    # |discrete(eps) - continuum| decreases along halving eps (e:conv-loop)
    gaps = []
    for eps in (0.4, 0.2, 0.1, 0.05):
        loop, t = make_rectangle(0.8, eps)
        gaps.append(abs(U1Backend(eps).expectation(loop)
                        - math.exp(-0.5 * t)))
    assert all(a > b for a, b in zip(gaps, gaps[1:]))


def test_area_derivative_analytic_vs_fd():
    faces = [(0.7, 1), (0.4, -2), (1.1, 1)]
    for i, (_, n) in enumerate(faces):
        a = area_derivative(n, continuum_product(faces))
        f = area_derivative_fd(faces, i)
        assert abs(a - f) < 1e-6
    # simple loop: d/dt e^{-t/2} = -e^{-t/2}/2
    assert area_derivative(1, math.exp(-0.5)) == pytest.approx(-0.5 * math.exp(-0.5))


def test_figure_eight_continuum_value():
    # oppositely wound lobes of areas (ta, tb): E W = exp(-(ta + tb)/2)
    geo = make_figure_eight(0.4, 0.6, 0.1)
    val = U1Backend(0.1).continuum(geo.subject)
    assert val == pytest.approx(math.exp(-0.5 * sum(geo.realized()["areas"])))


@pytest.mark.parametrize("family,kwargs", [
    ("figure-eight", {"t2": 0.5, "t4": 0.5}),
    ("coil", {"t4": 0.5}),
    ("limacon", {"t4": 0.5, "t2": 0.5}),
], ids=lambda v: str(v))
def test_correction_terms_fourier_vs_bruteforce(family, kwargs):
    factory = {"figure-eight": make_figure_eight, "coil": make_coil,
               "limacon": make_limacon}[family]
    geo = factory(epsilon=0.25, **kwargs)
    faces = lattice_faces(geo)
    wedges = wedge_face_indices(geo)
    terms = U1Backend(0.25).correction_terms(geo)
    for m in (1, 2, 3, 4):
        b = correction_term_im_bruteforce(faces, m, wedges[m], grid=40)
        assert abs(terms[m] - b) < 1e-9


def test_lattice_approximation_contract():
    # |e^eps| = 2 bonds; area defects O(eps); wedge faces realized
    for eps in (0.25, 0.125):
        geo = make_figure_eight(0.5, 0.5, eps)
        assert len(geo.annotation.e_first) == 2
        assert len(geo.annotation.e_second) == 2
        g = geo.graph
        realized = geo.realized()
        # the west lobe winds +1 at t2 = 0.5, the east lobe -1 at t4 = 0.5
        for t_limit, n in ((0.5, 1), (0.5, -1)):
            match = [t for (_, w), t in zip(realized["faces"], realized["areas"])
                     if w == n]
            assert match
            assert abs(match[0] - t_limit) <= 2 * eps
        # i_eps(boundary) consistency: the designated edge bonds lie on the
        # boundary of the faces they were assigned to
        wedges = wedge_face_indices(geo)
        comp, loc = geo.annotation.e1[0]
        bond = geo.subject.word[loc]
        from loopfield.driver import _edge_key
        assert _edge_key(bond) in {e for b in g.boundaries()
                                   for e in b} or wedges[4] is not None


def test_crossing_squares_structure():
    geo = make_crossing_squares(1.5, 0.75, 0.25)
    g = geo.graph
    windings = sorted(f.winding for f in g.faces)
    assert windings == [1, 1, 2]
    wedges = wedge_face_indices(geo)
    assert wedges[4] is None  # the southeast wedge is unbounded
    assert g.faces[wedges[2]].winding == 2
    s = geo.subject
    assert isinstance(s, LoopString) and len(s) == 2
    # both components traverse the crossing edge upward
    (c1, l1), (c2, l2) = geo.annotation.e_first[0], geo.annotation.e_second[0]
    assert c1 != c2
    assert s.loops[c1].word[l1][2] == 1
    assert s.loops[c2].word[l2][2] == 1


def test_string_expectation_multiplicativity():
    # for U(1) the string expectation factorizes only through the joint
    # face structure; for disjoint far-apart loops it is the plain product
    eps = 0.25
    l1 = make_loop_from_moves((0, 0), "RULD")
    l2 = make_loop_from_moves((40, 40), "RULD")
    be = U1Backend(eps)
    joint = be.expectation(LoopString((l1, l2)))
    assert joint == pytest.approx(be.expectation(l1) * be.expectation(l2))


def test_graph_dump_round_trip():
    import json
    geo = make_figure_eight(0.5, 0.5, 0.5)
    payload = json.loads(geo.graph.dump())
    assert set(payload) == {"faces", "areas", "windings", "boundaries"}
    assert sorted(payload["windings"]) == [-1, 1]
    assert payload["areas"] == [f.plaquettes for f in geo.graph.faces]


def test_u1_value_reads_the_winding_field(monkeypatch):
    # the lattice value takes the winding field and the coefficients through
    # the module's names, as a wrapper bound there would see them, and
    # labels no faces
    import loopfield.driver as driver
    calls = {"winding_number": 0, "char_coefficient": 0}

    def counting(name):
        original = getattr(driver, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return counted

    def no_faces(obj):
        raise AssertionError("the lattice value built a planar graph")

    for name in calls:
        monkeypatch.setattr(driver, name, counting(name))
    monkeypatch.setattr(driver, "build_graph", no_faces)
    driver._u1_coefficient.cache_clear()
    eps = 0.25
    subject = make_coil(0.5, eps).subject  # cells of winding 1 and 2
    value = U1Backend(eps).expectation(subject)
    assert calls == {"winding_number": 1, "char_coefficient": 2}
    assert U1Backend(eps).expectation(subject) == value
    assert calls == {"winding_number": 2, "char_coefficient": 2}


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from(["loop", "pair", "nested", "doubled"]))
def test_u1_value_agrees_with_the_face_product(seed, kind):
    subject = _random_subject(np.random.default_rng(seed), 3, 3, kind, (2, -1))
    value = U1Backend(0.5).expectation(subject)
    assert value == pytest.approx(u1_face_product(subject, 0.5), rel=1e-14, abs=0)


def _relative_error_and_k(subject, eps):
    """The lattice value's relative distance from the product of the same
    float coefficients taken at 50 digits, and the number k of distinct
    nonzero |winding| in the subject's field."""
    _, wind = winding_number(subject)
    counts = np.bincount(np.abs(wind).ravel())
    windings = np.flatnonzero(counts[1:]) + 1
    params = ActionParams(GroupSpec("U", 1), eps)
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        exact = decimal.Decimal(1)
        for n in windings.tolist():
            a = char_coefficient(n, params, tol=1e-12)
            exact *= decimal.Decimal(a) ** int(counts[n])
        value = decimal.Decimal(U1Backend(eps).expectation(subject))
        return float(abs(value - exact) / exact), windings.size


ULP = sys.float_info.epsilon  # one ulp of 1.0: the relative rounding unit


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 6), st.integers(1, 6),
       st.sampled_from(["loop", "pair", "nested", "doubled"]),
       st.sampled_from([0.5, 0.25, 0.125]))
def test_u1_value_within_2k_ulp_of_an_exact_product(seed, hx, hy, kind, eps):
    # k correctly rounded powers and k - 1 products: at most about 1.5k ulp
    subject = _random_subject(np.random.default_rng(seed), hx, hy, kind, (2, -1))
    err, k = _relative_error_and_k(subject, eps)
    assert err <= 2 * k * ULP


@pytest.mark.parametrize("make", [
    lambda eps: make_figure_eight(0.5, 0.5, eps), lambda eps: make_coil(0.5, eps),
    lambda eps: make_limacon(0.5, 0.5, eps),
    lambda eps: make_crossing_squares(1.5, 0.75, eps)])
def test_u1_value_within_2k_ulp_on_fine_geometries(make):
    # powers of a few hundred to a few thousand plaquettes at eps = 1/32
    err, k = _relative_error_and_k(make(1 / 32).subject, 1 / 32)
    assert err <= 2 * k * ULP
