"""Compact matrix group backends: U(N), SU(N), SO(N).

Provides Haar sampling, orthonormal Lie-algebra frames, the exponential
map, polar projection and Casimir data.  This
module is the one home of the group-element operations: `haar_sample`,
`exp_map`, `exp_coords`, `project_to_group` and `inverse` act on stacks of
matrices, arrays of shape (..., N, N), and give each element of a stack the
same bits as a call on that element alone.  The Lie-algebra inner product is
<X, Y> = (beta_g * N / 2) * Tr(X^* Y), which for the unitary families
(beta_g = 2) reduces to N * Tr(X Y^*).  All frames built here are
orthonormal with respect to that inner product.

`exp_map` is a closed form for every group the experiments use: one 2x2
formula for U(2), SU(2) and SO(2), and Rodrigues' formula for SO(3).  Only
its fallback for the other N >= 3 groups (U(3), SU(3), SO(N >= 4)) calls
scipy.linalg.expm, and it imports scipy.linalg there, on first use: at
module level that import would be about half of the set-up time of every
run.

SU(2) elements also have a pair form.  In Cayley-Klein form
U = [[a, b], [-b*, a*]], so the planes a = U[..., 0, 0] and b = U[..., 0, 1]
fix a stack (`su2_pair`), and products, inverses, traces and exponentials
of pairs are a few elementwise complex operations on arrays of the stack's
shape.  A 2x2 `@` on a stack costs one BLAS call per element, so the
Metropolis sweep and the SU(2) Wilson loops work on pairs
(`su2_pair_multiply`, `su2_pair_inverse`, `su2_pair_trace`,
`su2_exp_pair`) and write matrices back with `su2_pair_matrix`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np


class GroupError(ValueError):
    pass


@dataclass(frozen=True)
class GroupSpec:
    """One of the supported compact groups, identified by family and size."""

    family: str  # "U" | "SU" | "SO"
    n: int

    def __post_init__(self):
        if self.family not in ("U", "SU", "SO"):
            raise GroupError(f"unknown family {self.family!r}")
        if self.n < 1:
            raise GroupError("matrix size must be positive")
        if self.family == "SU" and self.n < 2:
            raise GroupError("SU(1) is trivial; use U(1)")
        if self.family == "SO" and self.n < 2:
            raise GroupError("SO(N) needs N >= 2")

    @property
    def beta_g(self) -> int:
        return 1 if self.family == "SO" else 2

    @property
    def gamma_g(self) -> int:
        return 1 if self.family == "SU" else 0

    @property
    def is_real(self) -> bool:
        return self.family == "SO"

    @property
    def dim_lie(self) -> int:
        n = self.n
        if self.family == "U":
            return n * n
        if self.family == "SU":
            return n * n - 1
        return n * (n - 1) // 2

    @property
    def dtype(self):
        return np.float64 if self.is_real else np.complex128

    def __str__(self):
        return f"{self.family}({self.n})"


def parse_group(text: str) -> GroupSpec:
    text = text.strip()
    fam = text.rstrip("0123456789)").rstrip("(").strip()
    num = text[len(fam):].strip("()")
    return GroupSpec(fam, int(num))


def identity(spec: GroupSpec) -> np.ndarray:
    return np.eye(spec.n, dtype=spec.dtype)


def multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.shape != b.shape:
        raise GroupError(f"shape mismatch {a.shape} vs {b.shape}")
    return a @ b


def inverse(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose over the last two axes: the inverse of each group
    element.  For a real stack (SO(N)) it is a transposed view of `a`, not a
    copy, so callers must not write into it."""
    if np.isrealobj(a):
        return a.swapaxes(-1, -2)
    return np.conj(a).swapaxes(-1, -2)


def adjoint_deviation(q: np.ndarray) -> float:
    """Max-norm of Q Q^* - I (and |det Q - 1| for SU/SO is checked separately)."""
    n = q.shape[-1]
    return float(np.max(np.abs(q @ inverse(q) - np.eye(n))))


def _to_special(q: np.ndarray, spec: GroupSpec) -> np.ndarray:
    """Move a stack of U(N) or O(N) elements into SU(N) or SO(N).

    SU(N): scale by det^(-1/N).  SO(N): negate column 0 of q where det < 0.
    """
    if spec.family == "U":
        return q
    det = np.linalg.det(q)
    if spec.is_real:
        flip = (det < 0)[..., None]
        q[..., :, 0] = np.where(flip, -q[..., :, 0], q[..., :, 0])
        return q
    return q * (det.astype(complex) ** (-1.0 / spec.n))[..., None, None]


def project_to_group(q: np.ndarray, spec: GroupSpec) -> np.ndarray:
    """Polar projection of a stack back onto the group; controls drift in long chains."""
    u, _, vh = np.linalg.svd(q)
    return _to_special(u @ vh, spec)


def inner_product(spec: GroupSpec, x: np.ndarray, y: np.ndarray) -> float:
    val = (spec.beta_g * spec.n / 2.0) * np.trace(np.conj(x).T @ y)
    return float(val.real)


@functools.lru_cache(maxsize=8)
def lie_basis(spec: GroupSpec) -> np.ndarray:
    """Orthonormal basis of the Lie algebra, shape (dim_lie, N, N).

    Generalized Gell-Mann construction, each element scaled to unit norm
    under the group's inner product.  Built once per group and returned
    read-only, since every caller shares the one array.
    """
    n = spec.n
    mats = []
    if spec.family in ("U", "SU"):
        for k in range(n):
            for l in range(k + 1, n):
                s = np.zeros((n, n), dtype=complex)
                s[k, l] = 1.0
                s[l, k] = 1.0
                mats.append(1j * s)
                a = np.zeros((n, n), dtype=complex)
                a[k, l] = 1.0
                a[l, k] = -1.0
                mats.append(a)
        if spec.family == "U":
            for k in range(n):
                d = np.zeros((n, n), dtype=complex)
                d[k, k] = 1j
                mats.append(d)
        else:
            for m in range(1, n):
                v = np.zeros(n)
                v[:m] = 1.0
                v[m] = -m
                mats.append(1j * np.diag(v).astype(complex))
    else:
        for k in range(n):
            for l in range(k + 1, n):
                a = np.zeros((n, n))
                a[k, l] = 1.0
                a[l, k] = -1.0
                mats.append(a)
    out = []
    for m in mats:
        norm = np.sqrt(inner_product(spec, m, m))
        out.append(m / norm)
    basis = np.array(out)
    assert basis.shape[0] == spec.dim_lie
    basis.flags.writeable = False
    return basis


def lie_vector_matrix(spec: GroupSpec, coords: np.ndarray) -> np.ndarray:
    """Reconstruct A = sum_j coords_j L_j; coords shape (..., dim_lie)."""
    basis = lie_basis(spec)
    return np.tensordot(np.asarray(coords, dtype=float), basis, axes=(-1, 0))


def exp_map(spec: GroupSpec, a: np.ndarray) -> np.ndarray:
    """Matrix exponential of Lie-algebra elements, a stack of shape (..., N, N).

    N = 2 (U(2), SU(2), SO(2)):
    exp(A) = e^m (cos(theta) I + sin(theta)/theta (A - m I)) with
    m = tr A / 2 and theta^2 = |A - m I|_F^2 / 2, since A - m I is traceless
    and skew-Hermitian, so its square is -theta^2 I (Moler and Van Loan,
    SIAM Review 45, 2003).  SU(2) and SO(2) skip the trace step, their
    algebras being traceless, so SU(2) keeps the bits of its own closed form.
    SO(3) uses Rodrigues' formula.  The clamp on theta^2 keeps
    sin(theta)/theta finite at A = m I.  The other N >= 3 groups fall back
    to scipy.linalg.expm, imported on first use (see the module docstring).
    """
    a = np.asarray(a)
    if spec.n == 1:
        return np.exp(a)
    if spec.n == 2:
        traceless = spec.family != "U"
        if traceless:
            b = a
        else:
            m = 0.5 * (a[..., 0, 0] + a[..., 1, 1])[..., None, None]
            b = a - m * np.eye(2)
        sq = np.einsum("...ij,...ij->...", b, np.conj(b)).real
        th = np.sqrt(np.maximum(0.5 * sq, 1e-300))[..., None, None]
        out = np.cos(th) * np.eye(2) + np.sin(th) / th * b
        return out if traceless else np.exp(m) * out
    if spec == GroupSpec("SO", 3):
        sq = np.einsum("...ij,...ij->...", a, a)
        th = np.sqrt(np.maximum(0.5 * sq, 1e-300))[..., None, None]
        return np.eye(3) + np.sin(th) / th * a + (1.0 - np.cos(th)) / th**2 * (a @ a)
    import scipy.linalg
    return scipy.linalg.expm(a)


def exp_coords(spec: GroupSpec, coords: np.ndarray) -> np.ndarray:
    """exp(sum_j coords_j L_j); coords shape (..., dim_lie)."""
    return exp_map(spec, lie_vector_matrix(spec, coords))


def su2_pair(u: np.ndarray):
    """The Cayley-Klein pair (a, b) of a stack of SU(2) matrices: views of
    the planes U[..., 0, 0] and U[..., 0, 1]."""
    return u[..., 0, 0], u[..., 0, 1]


def su2_pair_multiply(p, q):
    """Pairs of the products of two SU(2) stacks given by their pairs:
    (a, b)(c, d) = (a c - b d*, a d + b c*)."""
    a, b = p
    c, d = q
    return a * c - b * np.conj(d), a * d + b * np.conj(c)


def su2_pair_inverse(p):
    """Pairs of the inverses of an SU(2) stack given by its pairs: (a*, -b)."""
    a, b = p
    return np.conj(a), -b


def su2_pair_trace(p, k):
    """Re Tr(U K) = 2 Re(a alpha - b beta*) for U = (a, b), K = (alpha, beta).

    K may be any sum of SU(2) matrices, such as a staple, since such sums
    keep the Cayley-Klein form."""
    a, b = p
    alpha, beta = k
    return 2.0 * np.real(a * alpha - b * np.conj(beta))


def su2_pair_matrix(p) -> np.ndarray:
    """The SU(2) matrices [[a, b], [-b*, a*]] of a stack of pairs (a, b)."""
    a, b = p
    out = np.empty(np.shape(a) + (2, 2), dtype=complex)
    out[..., 0, 0] = a
    out[..., 0, 1] = b
    out[..., 1, 0] = -np.conj(b)
    out[..., 1, 1] = np.conj(a)
    return out


def su2_exp_pair(coords: np.ndarray):
    """The pairs of exp_coords(SU(2), coords); coords shape (..., 3).

    The first row of A = sum_j c_j L_j is (i h3, h2 + i h1) with h = c / 2:
    each entry of the first rows of `lie_basis` has one nonzero part, so
    this is the basis expansion bit for bit (up to the sign of a zero where
    a coordinate is zero).  That row carries half of |A|^2, summed here as
    h3^2 + (h2^2 + h1^2), the order of an einsum over the row, so theta is
    exp_map's, with the same clamp at A = 0, and the pair is
    (cos theta + i s h3, s h2 + i s h1) with s = sin(theta) / theta.
    """
    h = 0.5 * np.asarray(coords, dtype=float)
    sq = h * h
    th = np.sqrt(np.maximum(sq[..., 2] + (sq[..., 1] + sq[..., 0]), 1e-300))
    sh = (np.sin(th) / th)[..., None] * h
    return np.cos(th) + 1j * sh[..., 2], sh[..., 1] + 1j * sh[..., 0]


def haar_sample(spec: GroupSpec, rng: np.random.Generator, size=()) -> np.ndarray:
    """Haar-distributed group elements, shape size + (N, N).

    QR of a Gaussian matrix, with the phases of R's diagonal moved into Q
    (Mezzadri 2007, Notices AMS 54, 592).  Each element draws its real and
    then its imaginary normals, so a stack holds the same draws, and leaves
    `rng` in the same state, as the same number of single calls.
    """
    n = spec.n
    size = (size,) if np.isscalar(size) else tuple(size)
    if spec.is_real:
        z = rng.standard_normal(size + (n, n))
    else:
        re_im = rng.standard_normal(size + (2, n, n))
        z = (re_im[..., 0, :, :] + 1j * re_im[..., 1, :, :]) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    phases = np.sign(d) if spec.is_real else d / np.abs(d)
    return _to_special(q * phases[..., None, :], spec)


def casimir_standard(spec: GroupSpec) -> float:
    """Casimir constant of the standard representation: sum_j L_j^2 = c I."""
    basis = lie_basis(spec)
    total = np.zeros((spec.n, spec.n), dtype=complex)
    for lj in basis:
        total += lj @ lj
    c = np.trace(total) / spec.n
    off = np.max(np.abs(total - c * np.eye(spec.n)))
    if off > 1e-10:
        raise GroupError(f"Casimir sum not scalar (off-diagonal {off:.2e})")
    return float(c.real)
