"""Exact Wilson-loop expectations on the plane for U(1).

After an axial gauge the plaquette holonomies of U(1) are independent, each
distributed by the Wilson action (lattice) or the heat kernel (continuum),
so the expectation of a loop (or string) depends only on the winding number
of the loop around each unit cell:

    E W  =  prod_{n >= 1} a_n(eps)^{count_n}   (lattice)
    E W  =  prod_F exp(-n_F^2 t_F / 2)         (continuum)

with count_n the number of cells of winding +-n, multiplied in ascending n,
and F the bounded faces, of winding n_F and area t_F.  Winding numbers form
one integer field over the cells of the loop's bounding box: the winding
around the cell (i, j) is the signed count of the horizontal bonds in column
i at heights y <= j (+1 for a bond going right, -1 for one going left), a
running sum up each column.  Each coefficient a_n(eps) is computed once per
(n, eps, tol), in a bounded memo that every U1Backend shares.

Faces, for the continuum side and the wedges of a crossing, are the
connected components of the unit cells of the bounding box, with the
occupied edges as walls, labelled in NumPy on a doubled grid of cells and
walls: runs of cells up each column, merged across open walls by min-label
propagation (_label_cells).

U1Backend is the exact measure of the sweeps in loopfield.equations: it
holds both sides of each U(1) identity, the lattice expectations above,
read off the winding field alone (a deformation's from a one-cell change of
the subject's counts), and the continuum values, wedge area
derivatives, crossing correction integrals I_m and splitting term, over the
formulas continuum_product, area_derivative and correction_term_im.  The
module also builds the lattice geometry families (rectangle, figure-eight,
coil, limacon, crossing squares) that the convergence experiments sweep.
"""

from __future__ import annotations

import itertools
import json
import math
from collections.abc import Mapping
from dataclasses import dataclass, field, fields
from functools import cached_property, lru_cache

import numpy as np

from loopfield.groups import GroupSpec
from loopfield.action import ActionParams, char_coefficient
from loopfield.loops import (DIRS, Loop, LoopString, as_string, bond_edge,
                             CrossingAnnotation, make_loop, walk_moves,
                             _canonical_rotation)


class DriverError(ValueError):
    pass


# ---------------------------------------------------------------------------
# planar graphs of lattice loops


@dataclass(frozen=True, eq=False)
class FaceData:
    winding: int
    plaquettes: int
    label: int  # the face's label in ids
    origin: tuple = field(repr=False)  # the cell (x0, y0) at ids[0, 0]
    ids: np.ndarray = field(repr=False)  # the face label of every cell of the box

    @cached_property
    def cells(self) -> frozenset:
        """Unit cells (i, j), the squares [i, i+1] x [j, j+1], of this face."""
        i, j = np.nonzero(self.ids == self.label)
        return frozenset(zip((i + self.origin[0]).tolist(),
                             (j + self.origin[1]).tolist()))


class _CellToFace(Mapping):
    """cell (i, j) -> index in graph.faces, read off the label array on each
    lookup, so that no per-cell dict is built."""

    def __init__(self, graph):
        self._graph = graph
        self._index = {f.label: k for k, f in enumerate(graph.faces)}

    def __getitem__(self, cell):
        g = self._graph
        i, j = cell[0] - g.origin[0], cell[1] - g.origin[1]
        if g.ids is not None and 0 <= i < g.ids.shape[0] and 0 <= j < g.ids.shape[1]:
            face = self._index.get(int(g.ids[i, j]))
            if face is not None:
                return face
        raise KeyError(cell)

    def __iter__(self):
        for f in self._graph.faces:
            yield from f.cells

    def __len__(self):
        return sum(f.plaquettes for f in self._graph.faces)


@dataclass(eq=False)
class PlanarLoopGraph:
    subject: object
    faces: list  # bounded faces only
    origin: tuple = (0, 0)
    ids: np.ndarray | None = None  # the face label of every cell of the box

    @cached_property
    def cell_to_face(self) -> Mapping:
        """The index in faces of each cell of a bounded face."""
        return _CellToFace(self)

    def face_of_cell(self, cell):
        return self.cell_to_face.get(tuple(cell))

    def boundaries(self):
        """Occupied undirected edges bordering each face, for fixture dumps."""
        occ = _occupied_edges(self.subject)
        out = []
        for f in self.faces:
            edges = set()
            for (i, j) in f.cells:
                for e in (((i, j), "H"), ((i, j + 1), "H"),
                          ((i, j), "V"), ((i + 1, j), "V")):
                    if e in occ:
                        edges.add(e)
            out.append(sorted(edges))
        return out

    def dump(self) -> str:
        payload = {
            "faces": [sorted(f.cells) for f in self.faces],
            "areas": [f.plaquettes for f in self.faces],
            "windings": [f.winding for f in self.faces],
            "boundaries": [[[list(base), axis] for base, axis in b]
                           for b in self.boundaries()],
        }
        return json.dumps(payload, sort_keys=True)


def _all_bonds(obj):
    for l in as_string(obj):
        for b in l.word:
            yield b


def _edge_key(b):
    """The undirected edge ((x, y), "H" or "V") that bond b runs along."""
    orient, x, y, _ = bond_edge(b)
    return ((x, y), "HV"[orient])


def _occupied_edges(obj):
    return {_edge_key(b) for b in _all_bonds(obj)}


def _bond_arrays(obj):
    """x, y and direction d of every bond of a loop or string, as int arrays."""
    coords = itertools.chain.from_iterable(_all_bonds(obj))
    return np.fromiter(coords, dtype=np.int64).reshape(-1, 3).T


def _winding_field(x, y, d):
    x0, y0 = x.min() - 1, y.min() - 1  # closed loops: every vertex starts a bond
    w = np.zeros((x.max() + 1 - x0, y.max() + 1 - y0), dtype=np.int64)
    right, left = d == 0, d == 2
    np.add.at(w, (x[right] - x0, y[right] - y0), 1)
    np.add.at(w, (x[left] - 1 - x0, y[left] - y0), -1)
    return (int(x0), int(y0)), np.cumsum(w, axis=1)


def winding_number(obj):
    """The winding-number field of a loop or string over its bounding box.

    Returns ((x0, y0), w) with w[i - x0, j - y0] the winding number around
    the unit cell (i, j): the signed count of the horizontal bonds in column
    i at heights y <= j, +1 going right and -1 going left.  The box keeps a
    margin of one cell on every side, so its border cells are unbounded.
    """
    return _winding_field(*_bond_arrays(obj))


_STEPS = np.array(DIRS, dtype=np.int64)


@lru_cache(maxsize=128)
def _pop_order(x0, y0, nx, ny):
    """The cells of the box [x0, x0 + nx) x [y0, y0 + ny) in the iteration
    order of the set of their (i, j) tuples, as positions i' * ny + j' of
    the box (i' = i - x0, j' = j - y0).

    The faces of build_graph come in the order in which a flood fill would
    pop its seeds from that set.  The face order is the order of the faces
    in the fixture dump and of the factors of the continuum products over a
    geometry's faces, so it fixes those bytes and the last bits of those
    values; no lattice value depends on it.  That order is CPython's: tuple
    hashing and the slot order of a set filled in row order, which set.pop
    walks from the front and which no later removal reorders.  Another
    interpreter may give other bits.  The cache holds every distinct box of
    one exact-sweep benchmark pass (16 boxes, 208 KB in all, the largest
    83 KB).
    """
    cells = set(itertools.product(range(x0, x0 + nx), range(y0, y0 + ny)))
    ij = np.fromiter(itertools.chain.from_iterable(cells), dtype=np.int32,
                     count=2 * nx * ny).reshape(-1, 2)
    order = (ij[:, 0] - x0) * ny + (ij[:, 1] - y0)
    order.flags.writeable = False
    return order


def _wall_grid(x, y, d, origin, shape):
    """The doubled grid of the box of `shape` cells at `origin`: cell (i, j)
    at [2i' + 1, 2j' + 1] (i' = i - x0, j' = j - y0), the walls between
    cells at the mixed positions, True where open; every wall on which a
    bond x, y, d lies is closed."""
    (x0, y0), (nx, ny) = origin, shape
    grid = np.zeros((2 * nx + 1, 2 * ny + 1), dtype=bool)
    grid[1::2, 1:-1] = True  # cells, and the walls between j and j + 1
    grid[1:-1, 1::2] = True  # cells, and the walls between i and i + 1
    step = _STEPS[d]
    grid[2 * (x - x0) + step[:, 0], 2 * (y - y0) + step[:, 1]] = False
    return grid


def _label_cells(grid):
    """The connected components of the cells of a doubled grid, as int32
    labels 1, 2, ... in the raster order of each component's first cell.

    Cell (i, j) sits at grid[2i + 1, 2j + 1] and the walls between cells at
    the mixed positions; True is open.  Each column of cells splits into runs
    at its closed walls; one cumsum numbers the runs in row-major order.
    Runs joined by an open wall to the next column are merged by min-label
    propagation with pointer jumping, so every run ends at the smallest run
    id of its component, and the rank of that id is the label.  A run starts
    at its first cell, so a component's smallest run holds its first cell in
    raster order: these are the labels that a raster-scan labelling of the
    whole grid (4-connected, numbered by first pixel) gives the cells.
    """
    open_up = grid[1::2, 2:-1:2]     # between cells (i, j) and (i, j + 1)
    open_right = grid[2:-1:2, 1::2]  # between cells (i, j) and (i + 1, j)
    nx, ny = open_right.shape[0] + 1, open_up.shape[1] + 1
    start = np.ones((nx, ny), dtype=bool)
    start[:, 1:] = ~open_up
    run = np.cumsum(start, dtype=np.int32).reshape(nx, ny) - 1
    a, b = run[:-1][open_right], run[1:][open_right]
    # a and b ascend in row-major order, so repeated pairs of runs are
    # adjacent: keep the first of each
    keep = np.ones(a.size, dtype=bool)
    keep[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
    a, b = a[keep], b[keep]
    root = np.arange(run[-1, -1] + 1, dtype=np.int32)
    while True:
        ra, rb = root[a], root[b]
        if (ra == rb).all():
            break
        low = np.minimum(ra, rb)
        np.minimum.at(root, ra, low)  # hook each root to the lower one
        np.minimum.at(root, rb, low)
        while True:
            jumped = root[root]
            if (jumped == root).all():
                break
            root = jumped
    rank = np.cumsum(root == np.arange(root.size), dtype=np.int32)
    return rank[root][run]


def build_graph(obj) -> PlanarLoopGraph:
    """Faces and winding numbers of a loop or string.

    The cells of the winding box sit at the odd positions of a doubled
    grid, the walls between them at the mixed ones; a wall is closed where
    an occupied edge lies.  _label_cells then gives each face one label,
    numbered in the raster order of the face's first cell, and the box's
    margin cell labels the unbounded face.  The faces come in the order in
    which the cells of _pop_order first meet each label; one comparison of
    the popped labels with every label finds those first cells, with no
    sort over the box.
    """
    string = as_string(obj)
    if all(l.is_trivial for l in string):
        return PlanarLoopGraph(obj, [])
    x, y, d = _bond_arrays(string)
    (x0, y0), wind = _winding_field(x, y, d)
    nx, ny = wind.shape
    ids = _label_cells(_wall_grid(x, y, d, (x0, y0), (nx, ny)))

    order = _pop_order(x0, y0, nx, ny)
    popped = ids.ravel()[order]
    plaquettes = np.bincount(ids.ravel())
    # the position in pop order of each label's first cell, in pop order
    first = np.sort((popped == np.arange(1, plaquettes.size)[:, None]).argmax(axis=1))
    outer = ids[0, 0]
    faces = []
    for label, cell in zip(popped[first].tolist(), order[first].tolist()):
        n = int(wind.flat[cell])
        if label == outer:
            if n != 0:
                raise DriverError("unbounded face with nonzero winding")
            continue
        faces.append(FaceData(n, int(plaquettes[label]), label, (x0, y0), ids))
    return PlanarLoopGraph(obj, faces, (x0, y0), ids)


# ---------------------------------------------------------------------------
# abelian expectations


@lru_cache(maxsize=256)
def _u1_coefficient(n: int, epsilon: float, tol: float) -> float:
    """a_n(eps) of U(1) for n >= 1, once per (n, eps, tol) for every
    U1Backend; char_coefficient is reached through this module's name."""
    return char_coefficient(n, ActionParams(GroupSpec("U", 1), epsilon), tol=tol)


class U1Backend:
    """The exact U(1) measure at one lattice spacing.

    Every U(1) value the exact sweeps use comes from here: the lattice
    expectation of a loop or string from the cell counts of its winding
    field, the lattice expectations of its deformations from one-cell
    changes of those counts, and the continuum side that the lattice values
    converge to, read off a crossing geometry's faces at their lattice areas
    (plaquettes * eps^2): the expectation, the wedge area derivatives, the
    correction terms I_m and the splitting term.
    """

    def __init__(self, epsilon: float, tol: float = 1e-12):
        self.params = ActionParams(GroupSpec("U", 1), epsilon)
        self.tol = tol
        self._fields = {}  # subject -> (origin, winding field, counts by |n|)

    @property
    def epsilon(self):
        return self.params.epsilon

    def expectation(self, obj) -> float:
        """E W for a loop or string, exactly (up to quadrature certification):
        prod_n a_n(eps)^{count_n} over the counts of the cells with winding
        |n| >= 1, multiplied in ascending n."""
        if all(l.is_trivial for l in as_string(obj)):
            return 1.0
        _, wind = winding_number(obj)
        return self._product(np.bincount(np.abs(wind).ravel()).tolist())

    def _product(self, counts) -> float:
        val = 1.0
        for n in range(1, len(counts)):
            if counts[n]:
                val *= _u1_coefficient(n, self.epsilon, self.tol) ** counts[n]
        return val

    def cell_change_expectations(self, obj, changes) -> list:
        """E W of the loop or string obj with the winding around one cell
        moved by dn, for each ((i, j), dn) of changes, dn = +1 or -1.

        The winding field of obj and the counts of its cells by |n| are
        computed once per subject; each value is expectation's product over
        those counts with the one cell moved from |n| to |n + dn|.  A cell
        outside the field's box has winding 0.
        """
        if obj not in self._fields:
            origin, wind = winding_number(obj)
            self._fields[obj] = (origin, wind,
                                 np.bincount(np.abs(wind).ravel()).tolist())
        (x0, y0), wind, counts = self._fields[obj]
        values = []
        for (i, j), dn in changes:
            i, j = i - x0, j - y0
            inside = 0 <= i < wind.shape[0] and 0 <= j < wind.shape[1]
            n = int(wind[i, j]) if inside else 0
            moved = counts + [0]  # room for |n + dn| = max |n| + 1
            moved[abs(n)] -= 1
            moved[abs(n + dn)] += 1
            values.append(self._product(moved))
        return values

    def continuum(self, faces) -> float:
        """Continuum E W over (t, n) face data."""
        return continuum_product(faces)

    def wedge_derivatives(self, geometry) -> dict:
        """{m: d_m E W} over the four wedges of a crossing geometry; 0.0 where
        the wedge belongs to the unbounded face (the planar convention)."""
        faces = geometry.lattice_faces()
        return {m: 0.0 if k is None else area_derivative(faces, k)
                for m, k in geometry.wedge_face_indices().items()}

    def correction_terms(self, geometry) -> dict:
        """{m: I_m} over the four wedges of a crossing geometry."""
        faces = geometry.lattice_faces()
        wedges = geometry.wedge_face_indices()
        return {m: correction_term_im(faces, m, wedges[m]) for m in (1, 2, 3, 4)}

    def continuum_splitting(self, geometry) -> float:
        """Continuum E W_{l1} W_{l2} of the splitting at the crossing.  In
        U(1) the Wilson loop factorizes over the two sub-loops, so this is
        E W_l of the whole loop."""
        return self.continuum(geometry.lattice_faces())


def continuum_product(faces) -> float:
    """prod exp(-n^2 t / 2) over (t, n) face data."""
    val = 1.0
    for t, n in faces:
        val *= math.exp(-0.5 * n * n * t)
    return val


def u1_expectation_continuum(obj, epsilon: float) -> float:
    """Continuum value of a lattice loop, areas read off as plaquettes * eps^2."""
    graph = build_graph(obj)
    return continuum_product([(f.plaquettes * epsilon**2, f.winding)
                              for f in graph.faces])


def area_derivative(faces, index: int) -> float:
    """d/dt_index of the continuum product over (t, n) faces: -n^2/2 * E W."""
    faces = list(faces)
    _, n = faces[index]
    return -0.5 * n * n * continuum_product(faces)


# ---------------------------------------------------------------------------
# crossing correction integrals

# For the canonical crossing word l = e e1 A e4^-1 e e2 B e3^-1, the pivot
# edge variable of the correction integral is a1 for m in {1, 4} and a3 for
# m in {2, 3}; its net power in the loop times its power in the face
# boundary gives the sign pattern below.
CROSSING_SIGNS = {1: 1.0, 2: 1.0, 3: -1.0, 4: -1.0}


def correction_term_im(faces, m: int, wedge_face: int | None) -> float:
    """I_m on a crossing graph by Fourier reduction of the face integrals.

    faces: (t, n) data for the bounded faces; wedge_face: index of the face
    F_m in that list, or None when the wedge belongs to the unbounded face
    (then I_m = 0: the heat-kernel factor degenerates to the constant).
    """
    if m not in (1, 2, 3, 4):
        raise DriverError("m must be 1..4")
    if wedge_face is None:
        return 0.0
    val = CROSSING_SIGNS[m]
    for idx, (t, n) in enumerate(faces):
        if idx == wedge_face:
            # int e^{i n theta} * (d/dtheta p_t)(theta) dtheta/2pi = -i n e^{-n^2 t/2};
            # with the i from the loop derivative this contributes n e^{-n^2 t/2}
            val *= n * math.exp(-0.5 * n * n * t)
        else:
            val *= math.exp(-0.5 * n * n * t)
    return val


# ---------------------------------------------------------------------------
# geometry families


@dataclass
class CrossingGeometry:
    """A lattice loop/string realizing a crossing, with all the bookkeeping.

    wedge_cells maps m in {1..4} to a representative unit cell of the face
    F_m adjacent to the crossing, or None when that wedge belongs to the
    unbounded face.  limit_faces lists (t, winding) of the bounded faces of
    the continuum design.
    """

    kind: str
    epsilon: float
    subject: object
    annotation: CrossingAnnotation
    wedge_cells: dict
    limit_faces: list
    extra: dict = field(default_factory=dict)

    @cached_property
    def graph(self) -> PlanarLoopGraph:
        return build_graph(self.subject)

    def wedge_face_indices(self) -> dict:
        return {m: None if cell is None else self.graph.face_of_cell(cell)
                for m, cell in self.wedge_cells.items()}

    def lattice_faces(self):
        return [(f.plaquettes * self.epsilon**2, f.winding) for f in self.graph.faces]

    @property
    def sites(self) -> dict:
        """The canonical (component, location) of each span: the first bond
        of the crossing edge's two traversals (e, e_) and of e1..e4."""
        ann = self.annotation
        return {"e": ann.e_first[0], "e_": ann.e_second[0], "e1": ann.e1[0],
                "e2": ann.e2[0], "e3": ann.e3[0], "e4": ann.e4[0]}

    def realized(self) -> dict:
        """The shape built at this eps: [plaquettes, winding] of each bounded
        face and its area plaquettes * eps^2 (small areas are clamped to a
        minimum plaquette count, so these can exceed the requested ones)."""
        return {"epsilon": self.epsilon,
                "faces": [[f.plaquettes, f.winding] for f in self.graph.faces],
                "areas": [t for t, _ in self.lattice_faces()]}


def _annotated_loops(*components):
    """Canonical loops, one per list of (bonds, span) pieces, and the
    CrossingAnnotation of the pieces whose span names one of its fields
    (span None marks bonds outside the annotation)."""
    spans = {f.name: [] for f in fields(CrossingAnnotation)}
    loops = []
    for comp, pieces in enumerate(components):
        word = [b for bonds, _ in pieces for b in bonds]
        canon, shift = _canonical_rotation(word)
        loops.append(Loop(canon))
        start = 0
        for bonds, span in pieces:
            if span is not None:
                spans[span].extend((comp, (i - shift) % len(word))
                                   for i in range(start, start + len(bonds)))
            start += len(bonds)
    return loops, CrossingAnnotation(**{k: tuple(sorted(v)) for k, v in spans.items()})


def _crossing_loop(e_first, lobe_a, e_second, lobe_b):
    """The one-loop crossing word e_first, lobe_a, e_second, lobe_b: the
    first and last two bonds of lobe_a are e1 and e4, those of lobe_b are
    e2 and e3."""
    (loop,), ann = _annotated_loops([
        (e_first, "e_first"), (lobe_a[:2], "e1"), (lobe_a[2:-2], None),
        (lobe_a[-2:], "e4"), (e_second, "e_second"), (lobe_b[:2], "e2"),
        (lobe_b[2:-2], None), (lobe_b[-2:], "e3")])
    return loop, ann


def _near_square_dims(count: int):
    """(height, width) with height * width = count, height as even as possible."""
    h = max(2, int(round(math.sqrt(count))))
    while count % h:
        h -= 1
    if h < 2 and count >= 2:
        h = 2 if count % 2 == 0 else 1
    return h, count // h


def _lobe_dims(t: float, epsilon: float, min_count: int = 2):
    """Even plaquette count near t/eps^2 and a rectangle with height >= 2.

    The count is clamped to at least min_count plaquettes, so an area below
    about min_count * eps^2 silently gets the larger lobe (2 plaquettes at
    t = 1, eps = 1); the realized area is count * eps^2.
    """
    count = max(min_count, 2 * int(round(t / (2.0 * epsilon**2))))
    h, w = _near_square_dims(count)
    if h < 2:
        h, w = 2, count // 2
    assert h * w == count and h >= 2
    return count, h, w


def make_rectangle(t: float, epsilon: float):
    """Simple rectangular loop of area ~ t, counterclockwise (winding +1).

    Returns the loop and its realized area count * eps^2, with the count
    t/eps^2 rounded and clamped to at least one plaquette: make_rectangle(0.5,
    1.0) is the unit plaquette, of area 1.
    """
    count = max(1, int(round(t / epsilon**2)))
    h, w = _near_square_dims(count)
    word, _ = walk_moves((0, 0), "R" * w + "U" * h + "L" * w + "D" * h)
    loop = make_loop(word)
    return loop, count * epsilon**2


def make_figure_eight(t2: float, t4: float, epsilon: float) -> CrossingGeometry:
    """Two oppositely wound rectangular lobes joined at a 2-bond crossing edge.

    West lobe winding +1 (area ~ t2), east lobe winding -1 (area ~ t4); the
    north and south wedges at the crossing edge belong to the unbounded face.
    """
    c2, h2, w2 = _lobe_dims(t2, epsilon)
    c4, h4, w4 = _lobe_dims(t4, epsilon)

    e_eps, _ = walk_moves((0, -1), "UU")
    east, endp = walk_moves((0, 1), "U" * (h4 - 2) + "R" * w4 + "D" * h4 + "L" * w4)
    assert endp == (0, -1)
    west, endp = walk_moves((0, 1), "L" * w2 + "D" * h2 + "R" * w2 + "U" * (h2 - 2))
    assert endp == (0, -1)
    loop, ann = _crossing_loop(e_eps, east, e_eps, west)
    return CrossingGeometry(
        kind="figure-eight",
        epsilon=epsilon,
        subject=loop,
        annotation=ann,
        wedge_cells={1: None, 2: (-1, 0), 3: None, 4: (0, 0)},
        limit_faces=[(t2, 1), (t4, -1)],
        extra={"t2_eps": c2 * epsilon**2, "t4_eps": c4 * epsilon**2},
    )


def make_figure_eight_reversed(t2: float, t4: float, epsilon: float) -> CrossingGeometry:
    """The orientation variant: the crossing edge appears as e then e^-1.

    One lobe hangs north of the crossing edge, the other south, and the
    second traversal of the edge runs downward.  The co-occurrence of the
    crossing bond is then its inverse, so the loop equation at it carries a
    negative splitting (sign flip relative to the standard figure-eight)
    while the combination converges to the same continuum identity.
    """
    c2, h2, w2 = _lobe_dims(t2, epsilon)
    c4, h4, w4 = _lobe_dims(t4, epsilon)

    north, endp = walk_moves((0, 1), "U" * h4 + "R" * w4 + "D" * h4 + "L" * w4)
    assert endp == (0, 1)
    south, endp = walk_moves((0, -1), "L" * w2 + "D" * h2 + "R" * w2 + "U" * h2)
    assert endp == (0, -1)
    loop, ann = _crossing_loop(walk_moves((0, -1), "UU")[0], north,
                               walk_moves((0, 1), "DD")[0], south)
    return CrossingGeometry(
        kind="figure-eight-reversed",
        epsilon=epsilon,
        subject=loop,
        annotation=ann,
        wedge_cells={1: (0, 1), 2: None, 3: (-1, -2), 4: None},
        limit_faces=[(c4 * epsilon**2, -1), (c2 * epsilon**2, 1)],
        extra={"t2_eps": c2 * epsilon**2, "t4_eps": c4 * epsilon**2},
    )


# continuum gap between the coil's wrap (the limacon's frame) and the lobes
# it encloses; at least 1 bond for the coil and 2 for the limacon
WRAP_MARGIN = 0.5


def make_coil(t4: float, epsilon: float) -> CrossingGeometry:
    """A doubly wound configuration: pocket (|winding| 2) inside a wrap.

    The pocket is the east lobe; the wrap encloses it at a fixed physical
    margin, so the north and south wedges at the crossing share one bounded
    annulus face while the west wedge is unbounded.  Realizes the
    degenerate unbounded-face crossing with F1 = F3 bounded.
    """
    c4, h4, w4 = _lobe_dims(t4, epsilon)
    g = max(1, int(round(WRAP_MARGIN / epsilon)))
    east_x = w4 + g  # wrap east column
    top_y = h4 - 1 + g
    bot_y = -1 - g

    e_eps, _ = walk_moves((0, -1), "UU")
    east, endp = walk_moves((0, 1), "U" * (h4 - 2) + "R" * w4 + "D" * h4 + "L" * w4)
    assert endp == (0, -1)
    wrap, endp = walk_moves(
        (0, 1),
        "L"
        + "U" * (top_y - 1)
        + "R" * (east_x + 1)
        + "D" * (top_y - bot_y)
        + "L" * (east_x + 1)
        + "U" * (-1 - bot_y)
        + "R",
    )
    assert endp == (0, -1), endp
    loop, ann = _crossing_loop(e_eps, east, e_eps, wrap)
    annulus = (east_x + 1) * (top_y - bot_y) - c4 - 2
    return CrossingGeometry(
        kind="coil",
        epsilon=epsilon,
        subject=loop,
        annotation=ann,
        wedge_cells={1: (0, h4 - 1), 2: None, 3: (0, -2), 4: (0, 0)},
        limit_faces=[(annulus * epsilon**2, -1), (c4 * epsilon**2, -2)],
        extra={"t4_eps": c4 * epsilon**2, "ts_eps": annulus * epsilon**2},
    )


def make_limacon(t4: float, t2: float, epsilon: float) -> CrossingGeometry:
    """Three bounded faces at the crossing: bulb (east), lens (west), and a
    surrounding face owning both the north and south wedges.

    The surrounding frame is attached by a second transversal crossing on
    the lens boundary, as in the degenerate three-face configuration.
    """
    c4, h4, w4 = _lobe_dims(t4, epsilon)
    c2, h2, w2 = _lobe_dims(t2, epsilon, min_count=4)
    if w2 < 2:
        h2, w2 = w2, h2
    if w2 < 2 or h2 < 2:
        raise DriverError("lens too small at this epsilon")
    g = max(2, int(round(WRAP_MARGIN / epsilon)))
    gx = w2 + g          # frame west column at x = -gx
    east_x = w4 + g      # frame east column
    top_y = max(h4 - 1, h2) + g
    bot_y = min(-1, 1 - h2) - g

    e_eps, _ = walk_moves((0, -1), "UU")
    east, endp = walk_moves((0, 1), "U" * (h4 - 2) + "R" * w4 + "D" * h4 + "L" * w4)
    assert endp == (0, -1)
    # lens top to J, excursion frame, back through J, lens west/bottom/east
    moves = (
        "L" * w2                                 # lens top to J = (-w2, 1)
        + "L" * (gx - w2)                        # excursion west
        + "D" * (1 - bot_y)                      # frame west column down
        + "R" * (gx + east_x)                    # frame bottom
        + "U" * (top_y - bot_y)                  # frame east column up
        + "L" * (east_x + w2 + 1)                # frame top to x = -w2 - 1
        + "D" * (top_y - 2)                      # descend to y = 2
        + "R"                                    # stub to x = -w2
        + "D"                                    # into J from the north
        + "D" * h2                               # lens west side
        + "R" * w2                               # lens bottom
        + "U" * (h2 - 2)                         # lens east side up to u
    )
    west, endp = walk_moves((0, 1), moves)
    assert endp == (0, -1), endp
    loop, ann = _crossing_loop(e_eps, east, e_eps, west)
    frame_area = (gx + east_x) * (top_y - bot_y) - (top_y - 2) * 1
    s_area = frame_area - c4 - c2 - 2
    return CrossingGeometry(
        kind="limacon",
        epsilon=epsilon,
        subject=loop,
        annotation=ann,
        wedge_cells={1: (0, max(h4 - 1, h2)), 2: (-1, 0), 3: (0, -2), 4: (0, 0)},
        limit_faces=[(s_area * epsilon**2, 1), (c2 * epsilon**2, 2),
                     (c4 * epsilon**2, 0)],
        extra={"t2_eps": c2 * epsilon**2, "t4_eps": c4 * epsilon**2,
               "ts_eps": s_area * epsilon**2},
    )


def make_crossing_squares(side: float, overlap: float, epsilon: float) -> CrossingGeometry:
    """Two counterclockwise squares crossing in a corner region.

    Returns the two-loop string (l1, l2) of the merger theorem:
    l1 = e3^-1 e e1 A (the square [0, s]^2, rerouted through the crossing
    edge by a jog and a bump), l2 = e4^-1 e e2 B (the square [k-s, k]^2,
    whose east side runs straight through the crossing edge).  Wedge faces:
    F1 = sq1 only, F2 = overlap (winding 2), F3 = sq2 only, F4 unbounded.
    The overlap side is clamped to at least 3 bonds and the full side to at
    least the overlap side plus 3, so very small squares run on that shape.
    """
    k = max(3, int(round(overlap / epsilon)))      # overlap square side
    s = max(k + 3, int(round(side / epsilon)))     # full square side
    lo = k - s

    rest, endp = walk_moves((k + 1, 0), "R" * (s - k - 1) + "U" * s + "L" * s + "D" * s)
    assert endp == (0, 0)
    rest2, endp = walk_moves((k, 3), "U" * (k - 3) + "L" * s + "D" * s)
    assert endp == (lo, lo), endp
    loops, ann = _annotated_loops(
        [(walk_moves((0, 0), "R" * (k - 1))[0], None),
         (walk_moves((k - 1, 0), "DR")[0], "e3"),    # traversed bonds of e3^-1
         (walk_moves((k, -1), "UU")[0], "e_first"),
         (walk_moves((k, 1), "RD")[0], "e1"),        # bump back to the bottom row
         (rest, None)],
        [(walk_moves((lo, lo), "R" * s + "U" * (-3 - lo))[0], None),
         (walk_moves((k, -3), "UU")[0], "e4"),
         (walk_moves((k, -1), "UU")[0], "e_second"),
         (walk_moves((k, 1), "UU")[0], "e2"),
         (rest2, None)])
    string = LoopString(tuple(loops))
    area = float(s * s) * epsilon**2
    olap = float(k * k) * epsilon**2
    return CrossingGeometry(
        kind="crossing-squares",
        epsilon=epsilon,
        subject=string,
        annotation=ann,
        wedge_cells={1: (k, 1), 2: (k - 1, 0), 3: (k - 1, -2), 4: None},
        limit_faces=[(area - olap, 1), (olap, 2), (area - olap, 1)],
        extra={"side_eps": s * epsilon, "overlap_eps": k * epsilon},
    )
