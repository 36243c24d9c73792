"""Wilson action, character coefficients, heat kernels, convolution powers.

All integrals over the supported groups (U(1), SU(2), U(2), SO(3)) are
reduced to maximal-torus integrals with the Weyl weight and evaluated by
composite trapezoid quadrature on uniform periodic grids (spectrally
accurate for smooth periodic integrands).  Grids are doubled until two
successive resolutions agree, so every returned value carries a
certificate.

Representation ladders carry (label, dimension, Casimir) data under the
group inner product <X, Y> = (beta_g N / 2) Tr(X^* Y):

    U(1):  chi_n,      d = 1,       c = -n^2
    SU(2): spin j,     d = 2j + 1,  c = -j(j+1)
    U(2):  (l1 >= l2), d = l1-l2+1, c = -(l1(l1+1) + l2(l2-1))/2
    SO(3): integer l,  d = 2l + 1,  c = -l(l+1)/3
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from loopfield.groups import GroupSpec, lie_basis, exp_map, identity

SUPPORTED_LADDERS = {("U", 1), ("SU", 2), ("U", 2), ("SO", 3)}


class QuadratureError(RuntimeError):
    """Raised when grid doubling fails to certify the requested tolerance."""


class TailBudgetError(RuntimeError):
    """Raised when a character-sum tail cannot be certified within budget."""


@dataclass(frozen=True)
class ActionParams:
    spec: GroupSpec
    epsilon: float

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")


def _require_ladder(spec: GroupSpec):
    if (spec.family, spec.n) not in SUPPORTED_LADDERS:
        raise NotImplementedError(
            f"character ladder not implemented for {spec}; supported: U(1), SU(2), U(2), SO(3)")


# ---------------------------------------------------------------------------
# torus quadrature


def _grids(spec: GroupSpec, m: int):
    """Uniform half-offset angle grid(s) of m points per circle.

    U(2) gets its two angles as broadcast axes, shapes (m, 1) and (1, m):
    a function of one angle runs on m points, and the m x m grid appears
    only where the two angles meet.  Each grid point then sees the same
    floating-point operations as on a full meshgrid, so the values keep
    their bits.  An integrand must not write into an angle-shaped array:
    its result has the broadcast shape, not the shape of either angle.
    """
    th = (np.arange(m) + 0.5) * (2 * np.pi / m)
    if spec == GroupSpec("U", 2):
        return th[:, None], th[None, :]
    return (th,)


def weyl_weight(spec: GroupSpec, angles):
    """Weight w with integral over class functions = mean(w * f) on the grid."""
    if spec == GroupSpec("U", 1):
        return np.ones_like(angles[0])
    if spec == GroupSpec("SU", 2):
        return 2.0 * np.sin(angles[0]) ** 2
    if spec == GroupSpec("SO", 3):
        return 1.0 - np.cos(angles[0])
    if spec == GroupSpec("U", 2):
        return 1.0 - np.cos(angles[0] - angles[1])
    raise NotImplementedError(f"no torus reduction for {spec}")


# The quadrature weights are cached per grid, read-only, because a sweep
# integrates many functions on the same grids: the angles and the Weyl
# weight per (group, m), the Boltzmann weight per (params, m).  The
# integrals at one eps reach at most four grid sizes, and the next eps
# needs new Boltzmann weights, so four of those are kept.  The U(2) angles
# are two m-vectors; its Weyl and Boltzmann weights are m x m, 2 MB each
# at m = 512.


def _read_only(*arrays):
    for a in arrays:
        a.flags.writeable = False


@functools.lru_cache(maxsize=16)
def _quadrature_grid(spec: GroupSpec, m: int):
    """(angles, Weyl weight) on the grid of m points per circle."""
    angles = _grids(spec, m)
    weyl = weyl_weight(spec, angles)
    _read_only(*angles, weyl)
    return angles, weyl


@functools.lru_cache(maxsize=4)
def _boltzmann_weight(params: ActionParams, m: int):
    """unnormalized_weight(params, .) on the grid of m points per circle."""
    weight = unnormalized_weight(params, _quadrature_grid(params.spec, m)[0])
    _read_only(weight)
    return weight


def integrate_class_function(spec: GroupSpec, fn, tol: float = 1e-11,
                             start: int = 256, max_points: int = 1 << 21,
                             weight: ActionParams | None = None):
    """Certified Haar integral of a class function given in angle coordinates.

    fn(*angles) -> array over the grid, times the Boltzmann weight
    unnormalized_weight(weight, angles) when weight is given.  Doubles the
    grid until two resolutions agree to tol (relative to max(1, |I|)).
    """
    _require_ladder(spec)
    two_d = spec == GroupSpec("U", 2)
    m = 64 if two_d else start
    prev = None
    while (m * m if two_d else m) <= max_points:
        angles, weyl = _quadrature_grid(spec, m)
        vals = fn(*angles)
        if weight is not None:
            vals = vals * _boltzmann_weight(weight, m)
        vals = np.mean(weyl * vals)
        if prev is not None and abs(vals - prev) <= tol * max(1.0, abs(vals)):
            return vals
        prev = vals
        m *= 2
    raise QuadratureError(f"quadrature on {spec} did not certify tol={tol}")


def retrace_identity_minus(spec: GroupSpec, angles):
    """Re Tr(I - Q) in angle coordinates."""
    if spec == GroupSpec("U", 1):
        return 1.0 - np.cos(angles[0])
    if spec == GroupSpec("SU", 2):
        return 2.0 - 2.0 * np.cos(angles[0])
    if spec == GroupSpec("SO", 3):
        return 2.0 - 2.0 * np.cos(angles[0])
    if spec == GroupSpec("U", 2):
        return 2.0 - np.cos(angles[0]) - np.cos(angles[1])
    raise NotImplementedError


def action_exponent_scale(params: ActionParams) -> float:
    """Prefactor beta_g * N / (2 eps^2) of Re Tr(I - Q) in the action."""
    return params.spec.beta_g * params.spec.n / (2.0 * params.epsilon**2)


def unnormalized_weight(params: ActionParams, angles):
    return np.exp(-action_exponent_scale(params) * retrace_identity_minus(params.spec, angles))


def partition_function(params: ActionParams, tol: float = 1e-11) -> float:
    """Z^eps = int exp(-(beta_g N / 2 eps^2) Re Tr(I - Q)) dQ.

    Computed once per (params, tol); positional and keyword calls share the
    cached value."""
    return _partition_function(params, tol)


@functools.lru_cache(maxsize=128)
def _partition_function(params: ActionParams, tol: float) -> float:
    return float(integrate_class_function(params.spec, lambda *a: 1.0, tol=tol,
                                          weight=params))


# ---------------------------------------------------------------------------
# irreducible characters


@dataclass(frozen=True)
class Irrep:
    label: object
    dim: int
    casimir: float


def irrep(spec: GroupSpec, label) -> Irrep:
    if spec == GroupSpec("U", 1):
        n = int(label)
        return Irrep(n, 1, -float(n * n))
    if spec == GroupSpec("SU", 2):
        two_j = int(label)
        j = two_j / 2.0
        return Irrep(two_j, two_j + 1, -j * (j + 1.0))
    if spec == GroupSpec("SO", 3):
        l = int(label)
        return Irrep(l, 2 * l + 1, -l * (l + 1.0) / 3.0)
    if spec == GroupSpec("U", 2):
        l1, l2 = label
        if l1 < l2:
            raise ValueError("U(2) labels are pairs l1 >= l2")
        return Irrep((l1, l2), l1 - l2 + 1,
                     -0.5 * (l1 * (l1 + 1.0) + l2 * (l2 - 1.0)))
    raise NotImplementedError


def standard_label(spec: GroupSpec):
    return {("U", 1): 1, ("SU", 2): 1, ("SO", 3): 1, ("U", 2): (1, 0)}[
        (spec.family, spec.n)]


def trivial_label(spec: GroupSpec):
    return {("U", 1): 0, ("SU", 2): 0, ("SO", 3): 0, ("U", 2): (0, 0)}[
        (spec.family, spec.n)]


def character_values(spec: GroupSpec, label, angles):
    """chi_tau on the angle grid (complex for U families, real for SO)."""
    if spec == GroupSpec("U", 1):
        return np.exp(1j * int(label) * angles[0])
    if spec == GroupSpec("SU", 2):
        two_j = int(label)
        th = angles[0]
        out = np.zeros_like(th)
        for m in range(-two_j, two_j + 1, 2):
            out = out + np.cos(m * th)
        return out
    if spec == GroupSpec("SO", 3):
        l = int(label)
        th = angles[0]
        out = np.ones_like(th)
        for m in range(1, l + 1):
            out = out + 2.0 * np.cos(m * th)
        return out
    if spec == GroupSpec("U", 2):
        l1, l2 = label
        t1, t2 = angles
        m = l1 - l2
        acc = np.zeros(np.broadcast(t1, t2).shape, dtype=complex)
        for i in range(m + 1):
            # i t1 + (m - i) t2, on one axis where a coefficient vanishes:
            # on the positive angles of a quadrature grid 0 * t is +0, and
            # +0 + x is x
            arg = m * t2 if i == 0 else m * t1 if i == m else i * t1 + (m - i) * t2
            acc += np.exp(1j * arg)
        if l2 == 0:
            return acc  # the factor exp(0j) is 1
        return np.multiply(np.exp(1j * l2 * (t1 + t2)), acc, out=acc)
    raise NotImplementedError


def gen_labels(spec: GroupSpec):
    """Yield all irrep labels in nondecreasing |casimir| order (lazy)."""
    if spec == GroupSpec("U", 1):
        yield 0
        n = 1
        while True:
            yield n
            yield -n
            n += 1
    elif spec in (GroupSpec("SU", 2), GroupSpec("SO", 3)):
        k = 0
        while True:
            yield k
            k += 1
    elif spec == GroupSpec("U", 2):
        # shells by k = max(|l1|, |l2|); |casimir| grows with k, so emitting
        # whole shells sorted by |casimir| keeps the order nondecreasing
        # across shells up to within-shell reordering handled by sorting the
        # union of two consecutive shells.
        pending = []
        k = 0
        while True:
            shell = []
            for l1 in range(-k, k + 1):
                for l2 in range(-k, min(l1, k) + 1):
                    if max(abs(l1), abs(l2)) == k and l1 >= l2:
                        shell.append((l1, l2))
            pending.extend(shell)
            pending.sort(key=lambda lb: (abs(irrep(spec, lb).casimir), str(lb)))
            # anything with |c| below the floor of the next shell is safe to emit
            next_floor = 0.5 * (k + 1) * ((k + 1) - 1)  # min |c| at max-index k+1
            while pending and abs(irrep(spec, pending[0]).casimir) <= next_floor:
                yield pending.pop(0)
            k += 1
    else:
        raise NotImplementedError


def iter_labels(spec: GroupSpec, max_casimir: float):
    """All labels with |casimir| <= max_casimir, sorted by |casimir|."""
    labels = []
    for lb in gen_labels(spec):
        if abs(irrep(spec, lb).casimir) > max_casimir:
            break
        labels.append(lb)
    return labels


# ---------------------------------------------------------------------------
# character coefficients a_tau(eps)


def char_coefficient(label, params: ActionParams, tol: float = 1e-11) -> float:
    """a_tau(eps) = (1/d_tau) int chi_tau(Q^-1) S^eps(Q) dQ.

    This is the spectral weight in S^eps = sum_tau d_tau a_tau chi_tau;
    real for all supported groups.
    """
    spec = params.spec
    if label == trivial_label(spec):
        return 1.0

    def conj_char(*angles):
        return np.conj(character_values(spec, label, angles))

    z = partition_function(params, tol=tol)
    val = integrate_class_function(spec, conj_char, tol=tol, weight=params) / z
    return float(np.real(val)) / irrep(spec, label).dim


@dataclass
class CharCoeffTable:
    """Character coefficients of the Wilson action at one (group, epsilon)."""

    spec: GroupSpec
    epsilon: float
    records: list = field(default_factory=list)  # (label, dim, casimir, a)

    def coefficient(self, label) -> float:
        for lb, _, _, a in self.records:
            if lb == label:
                return a
        raise KeyError(f"label {label!r} not in table")

    def labels(self):
        return [r[0] for r in self.records]

    def validate(self, floor: float = 1e-13):
        """Invariants: a_trivial = 1, a in (0, 1], monotone in |casimir|.

        Positivity is only assertable above the quadrature noise floor;
        below it a coefficient may evaluate to a tiny negative number.
        """
        by_c = sorted(self.records, key=lambda r: abs(r[2]))
        assert by_c[0][0] == trivial_label(self.spec) and by_c[0][3] == 1.0
        blocks = {}
        for _, _, c, a in by_c:
            if not (-floor < a <= 1.0 + 1e-12):
                raise AssertionError(f"coefficient out of range: {a}")
            if abs(a) > floor and not a > 0.0:
                raise AssertionError(f"coefficient not positive: {a}")
            blocks.setdefault(abs(c), []).append(a)
        # monotone across strictly increasing |casimir|; irreps sharing a
        # Casimir (e.g. the U(2) standard and determinant reps) only agree
        # to O(eps^4) and carry no ordering among themselves
        keys = sorted(blocks)
        for k0, k1 in zip(keys, keys[1:]):
            if max(blocks[k1]) > min(blocks[k0]) + 1e-10:
                raise AssertionError("coefficients not monotone in |casimir|")

    def save_text(self, path):
        with open(path, "w") as fh:
            fh.write(f"# loopfield char table {self.spec} eps={self.epsilon!r}\n")
            for lb, d, c, a in self.records:
                fh.write(f"{_label_str(lb)} {d} {c!r} {a!r}\n")

def _label_str(label):
    if isinstance(label, tuple):
        return ",".join(str(v) for v in label)
    return str(label)


def build_char_table(params: ActionParams, max_casimir: float,
                     tol: float = 1e-11) -> CharCoeffTable:
    spec = params.spec
    _require_ladder(spec)
    recs = []
    for lb in iter_labels(spec, max_casimir):
        rep = irrep(spec, lb)
        recs.append((lb, rep.dim, rep.casimir, char_coefficient(lb, params, tol=tol)))
    table = CharCoeffTable(spec, params.epsilon, recs)
    table.validate()
    return table


def build_char_table_adaptive(params: ActionParams, k_min: int = 1,
                              tol: float = 1e-10, quad_tol: float = 1e-12,
                              max_labels: int = 4000) -> CharCoeffTable:
    """Table long enough that wilson_kfold_eval certifies for any k >= k_min.

    Extends the ladder until the last two ceil(|casimir|) blocks of
    d^2 a^{k_min} pass the tail test with margin.
    """
    spec = params.spec
    _require_ladder(spec)
    recs = []
    complete = []  # bound sums of completed ceil(|c|) blocks, in order
    cur_key = None
    cur_sum = 0.0
    for lb in gen_labels(spec):
        rep = irrep(spec, lb)
        key = math.ceil(abs(rep.casimir))
        if cur_key is not None and key != cur_key:
            complete.append(cur_sum)
            cur_sum = 0.0
            if (len(complete) >= 2 and complete[-2] > 0
                    and complete[-1] < 0.1 * tol
                    and complete[-1] / complete[-2] < 0.4):
                break
        cur_key = key
        a = char_coefficient(lb, params, tol=quad_tol)
        recs.append((lb, rep.dim, rep.casimir, a))
        cur_sum += rep.dim**2 * max(a, 0.0) ** k_min
        if len(recs) >= max_labels:
            raise TailBudgetError("adaptive table exceeded the label budget")
    table = CharCoeffTable(spec, params.epsilon, recs)
    table.validate()
    return table


# ---------------------------------------------------------------------------
# heat kernel and k-fold convolution evaluation with certified truncation


def _sum_with_tail(spec: GroupSpec, weight_fn, angles, tol: float,
                   max_terms: int = 200000):
    """Sum d * weight(irrep) * chi(irrep) over the ladder with a certified tail.

    weight_fn(rep) must be positive and decay super-geometrically in
    |casimir| (true of e^{c t / 2} and of a_tau^k).  Terms are grouped into
    blocks by ceil(|casimir|); once a block's bound sum (with |chi| <= d)
    drops below tol/4 and halves relative to the previous block, the
    remainder is dominated by a geometric series of block bounds.
    """
    shape = np.broadcast(*angles).shape if len(angles) > 1 else angles[0].shape
    acc = np.zeros(shape, dtype=complex)
    block_key = None
    block_bound = 0.0
    prev_block_bound = None
    tail = None
    n_used = 0
    for lb in gen_labels(spec):
        rep = irrep(spec, lb)
        key = math.ceil(abs(rep.casimir))
        if block_key is not None and key != block_key:
            if prev_block_bound is not None and prev_block_bound > 0:
                ratio = block_bound / prev_block_bound
                if block_bound < 0.25 * tol and ratio < 0.5:
                    tail = 2.0 * block_bound / (1.0 - ratio)
                    break
            prev_block_bound = block_bound
            block_bound = 0.0
        block_key = key
        w = weight_fn(rep)
        block_bound += rep.dim**2 * abs(w)  # |chi| <= d
        if w != 0.0:
            acc = acc + rep.dim * w * character_values(spec, lb, angles)
        n_used += 1
        if n_used > max_terms:
            raise TailBudgetError("character sum exceeded the term budget")
    if tail is None:
        raise TailBudgetError("ladder exhausted without certifying the tail")
    if np.max(np.abs(acc.imag)) < 1e-9 * max(1.0, float(np.max(np.abs(acc.real)))):
        return acc.real, tail
    return acc, tail


def heat_kernel_eval(spec: GroupSpec, t: float, angles, tol: float = 1e-12):
    """p_t on the angle grid: sum_tau d_tau e^{c_tau t / 2} chi_tau, certified.

    Returns (values, certified_tail).  Raises TailBudgetError when t is too
    small for the term budget.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    _require_ladder(spec)
    angles = tuple(np.atleast_1d(np.asarray(a, dtype=float)) for a in angles)
    return _sum_with_tail(spec, lambda rep: math.exp(0.5 * rep.casimir * t), angles, tol)


def heat_kernel_theta_derivative_u1(t: float, theta, tol: float = 1e-12):
    """d/dtheta p_t on U(1) (used by the convergence-lemma validators)."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    n = 1
    acc = np.zeros_like(theta)
    while True:
        w = math.exp(-0.5 * n * n * t)
        if 2 * n * w < 0.25 * tol and n > 2:
            break
        acc = acc - 2.0 * n * w * np.sin(n * theta)
        n += 1
        if n > 100000:
            raise TailBudgetError("U(1) derivative sum exceeded budget")
    return acc


def wilson_kfold_eval(table: CharCoeffTable, k: int, angles, tol: float = 1e-10):
    """S^eps_k on the angle grid from a character table: sum d a^k chi.

    The table must extend far enough that its last coefficient certifies the
    tail (checked; raises TailBudgetError otherwise).
    """
    spec = table.spec
    angles = tuple(np.atleast_1d(np.asarray(a, dtype=float)) for a in angles)
    shape = np.broadcast(*angles).shape if len(angles) > 1 else angles[0].shape
    acc = np.zeros(shape, dtype=complex)
    by_c = sorted(table.records, key=lambda r: abs(r[2]))
    blocks = {}
    for lb, d, c, a in by_c:
        acc = acc + d * a**k * character_values(spec, lb, angles)
        key = math.ceil(abs(c))
        blocks[key] = blocks.get(key, 0.0) + d * d * a**k
    bounds = [blocks[key] for key in sorted(blocks)]
    if len(bounds) < 3:
        raise TailBudgetError("table too short to certify a tail")
    ratio = bounds[-1] / bounds[-2] if bounds[-2] > 0 else 0.0
    if not (bounds[-1] < 0.25 * tol and ratio < 0.5):
        raise TailBudgetError(
            f"table tail not certified: last block {bounds[-1]:.2e}, ratio {ratio:.2f}")
    if np.max(np.abs(acc.imag)) < 1e-9 * max(1.0, float(np.max(np.abs(acc.real)))):
        return acc.real
    return acc


def heat_kernel_u1_wrapped_gaussian(t: float, theta, kmax: int = 40):
    """Poisson-summation evaluation of the U(1) heat kernel (oracle)."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    acc = np.zeros_like(theta)
    for k in range(-kmax, kmax + 1):
        acc += np.exp(-((theta - 2 * np.pi * k) ** 2) / (2.0 * t))
    return np.sqrt(2.0 * np.pi / t) * acc


# ---------------------------------------------------------------------------
# Gaussian approximation lemma and convergence-lemma validators


def laplacian_at_identity(spec: GroupSpec, f_matrix, h: float = 1e-4) -> float:
    """Delta f(I) = sum_j d^2/dt^2 f(e^{t L_j}) at 0, by Richardson differences."""
    basis = lie_basis(spec)
    eye = identity(spec)
    f0 = f_matrix(eye)

    def second(step):
        acc = 0.0
        for lj in basis:
            acc += (f_matrix(exp_map(spec, step * lj))
                    + f_matrix(exp_map(spec, -step * lj)) - 2.0 * f0) / step**2
        return acc

    d1 = second(h)
    d2 = second(h / 2.0)
    return float((4.0 * d2 - d1) / 3.0)


def gaussian_lemma_check(spec: GroupSpec, f_angles, f_matrix, eps_list,
                         delta_identity: float | None = None, tol: float = 1e-11):
    """Numerical validator of the small-field approximation of int f S^eps.

    f must satisfy f(I) = 0 and be a class function given both in angle
    coordinates (for certified quadrature) and matrix form (for the
    Laplacian).  Returns a dict with per-eps residuals
    |int f S^eps - (eps^2 / 2) Delta f(I)| and the fitted log-log slope.
    """
    if delta_identity is None:
        delta_identity = laplacian_at_identity(spec, f_matrix)
    rows = []
    for eps in eps_list:
        params = ActionParams(spec, eps)
        z = partition_function(params, tol=tol)
        val = integrate_class_function(spec, f_angles, tol=tol, weight=params) / z
        resid = abs(float(np.real(val)) - 0.5 * eps**2 * delta_identity)
        rows.append({"epsilon": eps, "integral": float(np.real(val)),
                     "target": 0.5 * eps**2 * delta_identity, "residual": resid})
    slope = _loglog_slope([r["epsilon"] for r in rows],
                          [max(r["residual"], 1e-300) for r in rows])
    return {"delta_identity": delta_identity, "rows": rows, "slope": slope}


def _loglog_slope(xs, ys):
    lx = np.log(np.asarray(xs, dtype=float))
    ly = np.log(np.asarray(ys, dtype=float))
    return float(np.polyfit(lx, ly, 1)[0])


def lemma_j1_check(phi1: float, phi2: float, t: float, eps_list,
                   tol: float = 1e-10, max_casimir: float = 2500.0):
    """U(1) validator of the deformation-pair limit.

    LHS(eps) = (1 / 2 eps^2) int tr((Q - Q^-1) a1) S^eps_k(Q a2) S^eps(Q) dQ
    with k = round(t / eps^2), against the limit
    (d/dtheta tr)(a1) paired with (d/dtheta p_t)(a2).
    Returns per-eps gaps (should decrease along a refining eps list).
    """
    spec = GroupSpec("U", 1)
    rhs = 1j * np.exp(1j * phi1) * complex(
        _u1_pt_derivative_scalar(t, phi2, tol=tol))
    rows = []
    for eps in eps_list:
        params = ActionParams(spec, eps)
        k = int(round(t / eps**2))
        t_eps = k * eps**2
        table = build_char_table(params, max_casimir=max_casimir, tol=tol)

        def integrand(theta):
            sk = wilson_kfold_eval(table, k, (theta + phi2,), tol=tol)
            return (2j * np.sin(theta) * np.exp(1j * phi1)) * sk

        z = partition_function(params, tol=tol)
        lhs = integrate_class_function(spec, integrand, tol=tol,
                                       weight=params) / (2.0 * eps**2 * z)
        rows.append({"epsilon": eps, "t_eps": t_eps,
                     "lhs": complex(lhs), "rhs": complex(rhs),
                     "gap": abs(complex(lhs) - complex(rhs))})
    return {"rows": rows}


def _u1_pt_derivative_scalar(t: float, theta: float, tol: float = 1e-12):
    return heat_kernel_theta_derivative_u1(t, np.array([theta]), tol=tol)[0]
