"""Independent references that the tests compare loopfield against.

None of these runs in an experiment: each is a slower or more direct
evaluation of something the package computes another way (brute-force
integrals, finite differences, closed forms, the edge graph of a loop), or
a check or reader used only to test the package's output.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

from loopfield.action import (ActionParams, CharCoeffTable, action_exponent_scale,
                              build_char_table_adaptive, char_coefficient,
                              heat_kernel_eval, heat_kernel_theta_derivative_u1,
                              wilson_kfold_eval)
from loopfield.driver import (CROSSING_SIGNS, build_graph, continuum_product,
                              _occupied_edges)
from loopfield.groups import GroupSpec, GroupError, adjoint_deviation
from loopfield.loops import (TRIVIAL_LOOP, Loop, LoopError, as_string, bond_end,
                             bond_inverse, bond_start, make_loop_from_moves,
                             string_deformation_sets)
from loopfield.sampler import plaquette_product

U1 = GroupSpec("U", 1)


# ---------------------------------------------------------------------------
# exact U(1) values


def u1_bruteforce_expectation(obj, epsilon: float, grid: int = 96,
                              tol: float = 1e-10) -> float:
    """Direct evaluation of the discrete Driver integral for U(1).

    Integrates the per-face k-fold Wilson actions against the loop phase
    over independent face variables (the axial-gauge reduction), on an
    outer-product grid.  Exponential-cost oracle for graphs with <= 4
    bounded faces.
    """
    graph = build_graph(obj)
    nf = len(graph.faces)
    if nf == 0:
        return 1.0
    if nf > 4:
        raise ValueError("brute force limited to <= 4 bounded faces")
    params = ActionParams(U1, epsilon)
    kmin = min(f.plaquettes for f in graph.faces)
    table = build_char_table_adaptive(params, k_min=kmin, tol=tol)
    th = (np.arange(grid) + 0.5) * (2 * np.pi / grid)
    grids = np.meshgrid(*([th] * nf), indexing="ij")
    integrand = np.ones_like(grids[0], dtype=complex)
    for idx, f in enumerate(graph.faces):
        sk = wilson_kfold_eval(table, f.plaquettes, (grids[idx].ravel(),), tol=tol)
        integrand = integrand * sk.reshape(grids[idx].shape)
        integrand = integrand * np.exp(1j * f.winding * grids[idx])
    mean = complex(integrand.mean())
    if abs(mean.imag) > 1e-8:
        raise ValueError(f"brute-force value not real: {mean}")
    return mean.real


def u1_face_product(obj, epsilon: float, tol: float = 1e-12) -> float:
    """prod_F a_{|n_F|}(eps)^{plaquettes_F} over the bounded faces of the
    loop's planar graph, in face order: the lattice value face by face."""
    params = ActionParams(U1, epsilon)
    val = 1.0
    for f in build_graph(obj).faces:
        n = abs(f.winding)
        val *= (char_coefficient(n, params, tol=tol) if n else 1.0) ** f.plaquettes
    return val


def deformation_value_by_surgery(subject, site, backend) -> float:
    """equations.deformation_value from the deformed strings themselves: the
    loop surgery of string_deformation_sets, and backend.expectation of each
    deformed string."""
    s = as_string(subject)
    comp, loc = site
    e = s.loops[comp].word[loc]
    d_minus, d_plus = string_deformation_sets(s, comp, e, loc)
    tot = 0.0
    for s2, _ in d_minus:
        tot += backend.expectation(s2)
    for s2, _ in d_plus:
        tot -= backend.expectation(s2)
    return tot / (2.0 * backend.epsilon**2)


# ---------------------------------------------------------------------------
# the U(1) continuum side, face by face: loopfield reads it off the winding
# field; these are the former face-list bodies, over build_graph's faces


def lattice_faces(geometry):
    """(t, n) of each bounded face of a crossing geometry: its area
    plaquettes * eps^2 and its winding."""
    return [(f.plaquettes * geometry.epsilon**2, f.winding)
            for f in geometry.graph.faces]


def wedge_face_indices(geometry) -> dict:
    """{m: the index in lattice_faces of the face holding the wedge cell
    c_m}, None where c_m is None or lies in the unbounded face."""
    cell_to_face = geometry.graph.cell_to_face
    return {m: None if cell is None else cell_to_face.get(cell)
            for m, cell in geometry.wedge_cells.items()}


def u1_continuum_by_faces(obj, epsilon: float) -> float:
    """Continuum E W of a loop or string over its bounded faces, areas read
    off as plaquettes * eps^2."""
    return continuum_product([(f.plaquettes * epsilon**2, f.winding)
                              for f in build_graph(obj).faces])


def area_derivative_by_faces(faces, index: int) -> float:
    """d/dt_index of the continuum product over (t, n) faces: -n^2/2 * E W."""
    faces = list(faces)
    _, n = faces[index]
    return -0.5 * n * n * continuum_product(faces)


def correction_term_im_by_faces(faces, m: int, wedge_face: int | None) -> float:
    """I_m by Fourier reduction of the face integrals over (t, n) faces, the
    wedge face F_m at index wedge_face (None: an unbounded wedge, I_m = 0)."""
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


def correction_term_im_bruteforce(faces, m: int, wedge_face: int | None,
                                  grid: int = 48, tol: float = 1e-10) -> float:
    """Multidimensional quadrature oracle for I_m (coarse, for validation)."""
    if wedge_face is None:
        return 0.0
    faces = list(faces)
    nf = len(faces)
    if nf > 4:
        raise ValueError("brute-force I_m limited to <= 4 bounded faces")
    th = (np.arange(grid) + 0.5) * (2 * np.pi / grid)
    grids = np.meshgrid(*([th] * nf), indexing="ij")
    integrand = np.ones_like(grids[0], dtype=complex)
    for idx, (t, n) in enumerate(faces):
        integrand = integrand * np.exp(1j * n * grids[idx])
        if idx == wedge_face:
            integrand = integrand * heat_kernel_theta_derivative_u1(t, grids[idx], tol=tol)
        else:
            vals, _ = heat_kernel_eval(U1, t, (grids[idx],), tol=tol)
            integrand = integrand * vals
    mean = complex(integrand.mean())
    return CROSSING_SIGNS[m] * float((1j * mean).real)


def area_derivative_fd(faces, index: int) -> float:
    """d/dt_index of the continuum product by central differences, with step
    1e-4 * t_index."""
    faces = list(faces)
    t, n = faces[index]
    h = 1e-4 * t
    up, dn = list(faces), list(faces)
    up[index] = (t + h, n)
    dn[index] = (t - h, n)
    return (continuum_product(up) - continuum_product(dn)) / (2.0 * h)


def edge_graph(obj):
    """(vertices, edges, components) of the graph of a loop's occupied edges."""
    occ = _occupied_edges(obj)
    adj = {}
    for (base, axis) in occ:
        b = (base[0] + 1, base[1]) if axis == "H" else (base[0], base[1] + 1)
        adj.setdefault(base, set()).add(b)
        adj.setdefault(b, set()).add(base)
    seen, ncomp = set(), 0
    for v in adj:
        if v in seen:
            continue
        ncomp += 1
        stack = [v]
        seen.add(v)
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    return len(adj), len(occ), ncomp


def euler_characteristic(graph) -> int:
    """V - E + F of a planar loop graph, counting the one unbounded face."""
    vertices, edges, _ = edge_graph(graph.subject)
    return vertices - edges + len(graph.faces) + 1


# ---------------------------------------------------------------------------
# loops


def check_word_reference(word):
    """loops._check_word written with bond_start and bond_end."""
    if not word:
        raise LoopError("empty word")
    for a, b in zip(word, word[1:]):
        if bond_end(a) != bond_start(b):
            raise LoopError(f"word not adjacent at {a} -> {b}")
    if bond_end(word[-1]) != bond_start(word[0]):
        raise LoopError("word not closed")


def erase_backtracking_reference(word):
    """loops._erase_backtracking written with bond_inverse and list.pop(0)."""
    stack = []
    for b in word:
        if stack and b == bond_inverse(stack[-1]):
            stack.pop()
        else:
            stack.append(b)
    while len(stack) >= 2 and stack[-1] == bond_inverse(stack[0]):
        stack.pop()
        stack.pop(0)
    return stack


# ---------------------------------------------------------------------------
# groups

GROUP_TOL = 1e-12


def is_in_group(q: np.ndarray, spec: GroupSpec, tol: float = GROUP_TOL) -> bool:
    """Whether every element of q, of shape (..., N, N), lies in the group."""
    if adjoint_deviation(q) > tol:
        return False
    if spec.family in ("SU", "SO"):
        if np.max(np.abs(np.linalg.det(q) - 1.0)) > tol:
            return False
    if spec.is_real and np.iscomplexobj(q) and np.max(np.abs(q.imag)) > tol:
        return False
    return True


def gaussian_lie_sample(spec: GroupSpec, rng: np.random.Generator,
                        sigma: float = 1.0) -> np.ndarray:
    """Coordinates of a Gaussian Lie-algebra vector, i.i.d. normal(0, sigma^2)."""
    if sigma <= 0:
        raise GroupError("sigma must be positive")
    return sigma * rng.standard_normal(spec.dim_lie)


def directional_derivative(f, x_mat: np.ndarray, a: np.ndarray, h: float = 1e-5,
                           richardson: bool = False):
    """Central-difference d/dt f(exp(t X) a) at t = 0, O(h^2) error.

    With richardson=True combines steps h and h/2 for O(h^4).
    """

    def central(step):
        ep = scipy.linalg.expm(step * x_mat)
        em = scipy.linalg.expm(-step * x_mat)
        return (f(ep @ a) - f(em @ a)) / (2.0 * step)

    d1 = central(h)
    if not richardson:
        return d1
    d2 = central(h / 2.0)
    return (4.0 * d2 - d1) / 3.0


def casimir_standard_expected(spec: GroupSpec) -> float:
    """Closed-form Casimir of the standard representation."""
    if spec.family == "U":
        return -1.0
    if spec.family == "SU":
        return -1.0 + 1.0 / spec.n**2
    return -1.0 + 1.0 / spec.n


# ---------------------------------------------------------------------------
# sampler


def total_action(cfg):
    """Exponent sum (beta_g N / 2 eps^2) sum_p Re Tr(I - Q_p), per chain."""
    scale = action_exponent_scale(cfg.params)
    n = cfg.spec.n
    qp = plaquette_product(cfg)
    if cfg.is_u1:
        retr = 1.0 - np.cos(qp)
    else:
        retr = n - np.trace(qp, axis1=-2, axis2=-1).real
    return scale * retr.sum(axis=(1, 2))


def compatible(estimate, value: float, n_sigma: float = 3.0) -> bool:
    """Whether an Estimate lies within n_sigma of a value."""
    return abs(estimate.mean - value) <= n_sigma * max(estimate.sigma, 1e-300)


# ---------------------------------------------------------------------------
# readers of the fixture text formats


def loop_from_text(text: str) -> Loop:
    """The loop of a '(x,y):RULD...' line, as loops.loop_to_text writes it."""
    head, _, moves = text.partition(":")
    base = tuple(int(v) for v in head.strip("()").split(","))
    if not moves:
        return TRIVIAL_LOOP
    return make_loop_from_moves(base, moves)


def load_char_table(path, spec: GroupSpec, epsilon: float) -> CharCoeffTable:
    """The table of a 'label d c a' file, as CharCoeffTable.save_text writes it."""
    recs = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            lab, d, c, a = line.split()
            label = (tuple(int(v) for v in lab.split(","))
                     if spec == GroupSpec("U", 2) else int(lab))
            recs.append((label, int(d), float(c), float(a)))
    return CharCoeffTable(spec, epsilon, recs)
