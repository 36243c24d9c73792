import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from loopfield.groups import (GroupSpec, parse_group, identity, multiply, inverse,
                              trace_normalized, lie_basis, inner_product,
                              exp_map, exp_coords, haar_sample, is_in_group,
                              directional_derivative, casimir_standard,
                              casimir_standard_expected, gaussian_lie_sample,
                              lie_vector_matrix, project_to_group, su2_exp_pair,
                              su2_pair, su2_pair_inverse, su2_pair_matrix,
                              su2_pair_multiply, su2_pair_trace, GroupError)

ALL_SPECS = [GroupSpec("U", 1), GroupSpec("U", 2), GroupSpec("U", 3),
             GroupSpec("SU", 2), GroupSpec("SU", 3),
             GroupSpec("SO", 2), GroupSpec("SO", 3)]


def test_parse_group():
    assert parse_group("U(2)") == GroupSpec("U", 2)
    assert parse_group("SO3") == GroupSpec("SO", 3)
    with pytest.raises(GroupError):
        GroupSpec("SP", 2)


def test_beta_gamma_constants():
    assert GroupSpec("SO", 3).beta_g == 1
    assert GroupSpec("SU", 2).beta_g == 2
    assert GroupSpec("U", 2).beta_g == 2
    assert GroupSpec("SU", 3).gamma_g == 1
    assert GroupSpec("U", 1).gamma_g == 0
    assert GroupSpec("SO", 3).gamma_g == 0


@pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
def test_identity_and_inverse(spec):
    rng = np.random.default_rng(1)
    eye = identity(spec)
    q = haar_sample(spec, rng)
    assert np.allclose(multiply(eye, q), q)
    assert abs(trace_normalized(multiply(q, inverse(q))) - 1.0) < 1e-12
    assert abs(trace_normalized(identity(GroupSpec("U", 3))) - 1.0) < 1e-15


@pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
def test_lie_basis_orthonormal(spec):
    basis = lie_basis(spec)
    assert basis.shape[0] == spec.dim_lie
    gram = np.array([[inner_product(spec, a, b) for b in basis] for a in basis])
    assert np.max(np.abs(gram - np.eye(len(basis)))) < 1e-12
    for a in basis:
        # skew-Hermitian; traceless for SU; real antisymmetric for SO
        assert np.max(np.abs(a + np.conj(a).T)) < 1e-14
        if spec.family == "SU":
            assert abs(np.trace(a)) < 1e-14
        if spec.family == "SO":
            assert np.max(np.abs(a.imag)) == 0.0


@pytest.mark.parametrize("spec,expected", [
    (GroupSpec("U", 1), -1.0), (GroupSpec("U", 2), -1.0), (GroupSpec("U", 3), -1.0),
    (GroupSpec("SU", 2), -0.75), (GroupSpec("SU", 3), -1.0 + 1.0 / 9.0),
    (GroupSpec("SO", 3), -2.0 / 3.0)], ids=lambda v: str(v))
def test_casimir_standard(spec, expected):
    assert abs(casimir_standard(spec) - expected) < 1e-10
    assert abs(casimir_standard_expected(spec) - expected) < 1e-15


def test_is_in_group_checks_a_whole_stack():
    # one bool for a (..., N, N) stack: one element off the group fails it
    su2 = GroupSpec("SU", 2)
    q = haar_sample(su2, np.random.default_rng(4), 3)
    assert is_in_group(q, su2) is True
    q[1] *= 1.01
    assert is_in_group(q, su2) is False
    assert is_in_group(q[[0, 2]], su2) is True


@pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
def test_group_closure(spec):
    rng = np.random.default_rng(2)
    n_mult = 10_000 if spec == GroupSpec("SU", 2) else 300
    q = identity(spec)
    for g in haar_sample(spec, rng, n_mult):
        q = multiply(q, g)
    assert is_in_group(q, spec, tol=1e-10)
    q = project_to_group(q, spec)
    assert is_in_group(q, spec, tol=1e-12)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
def test_exp_map(spec):
    rng = np.random.default_rng(3)
    coords = gaussian_lie_sample(spec, rng, 0.7)
    q = exp_coords(spec, coords)
    assert is_in_group(q, spec, tol=1e-10)
    qinv = exp_coords(spec, -coords)
    assert np.max(np.abs(multiply(q, qinv) - identity(spec))) < 1e-10
    assert np.max(np.abs(exp_coords(spec, 0 * coords) - identity(spec))) < 1e-14


def test_exp_map_u1_angle_normalization():
    # <L1, L1> = 1 fixes the U(1) frame; exp(theta L1) is the phase theta
    spec = GroupSpec("U", 1)
    basis = lie_basis(spec)
    assert abs(inner_product(spec, basis[0], basis[0]) - 1.0) < 1e-15
    theta = 0.37
    q = exp_coords(spec, np.array([theta]))
    assert abs(q[0, 0] - np.exp(1j * theta)) < 1e-14


def test_haar_character_orthogonality():
    rng = np.random.default_rng(4)
    n = 200_000
    # U(1): mean of the charge-1 character vanishes
    th = rng.uniform(-np.pi, np.pi, n)
    m = np.mean(np.exp(1j * th))
    assert abs(m) < 3.0 / np.sqrt(n)
    # SU(2): E chi_std = 0 and E |chi_std|^2 = 1
    spec = GroupSpec("SU", 2)
    tr = np.trace(haar_sample(spec, rng, 20_000), axis1=-2, axis2=-1)
    assert abs(tr.mean().real) < 3.0 * tr.real.std() / np.sqrt(len(tr))
    m2 = np.abs(tr) ** 2
    assert abs(m2.mean() - 1.0) < 3.0 * m2.std() / np.sqrt(len(m2))


def test_haar_u1_angle_uniform():
    from scipy import stats
    rng = np.random.default_rng(5)
    angles = np.angle(haar_sample(GroupSpec("U", 1), rng, 4000)[:, 0, 0])
    p = stats.kstest((angles + np.pi) / (2 * np.pi), "uniform").pvalue
    assert p > 0.01


def _stacked_singles(fn, stack, n):
    return np.array([fn(m) for m in stack.reshape(-1, n, n)]).reshape(stack.shape)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ALL_SPECS), st.lists(st.integers(1, 3), max_size=3),
       st.integers(0, 2**32 - 1))
def test_batched_ops_match_single_calls(spec, shape, seed):
    # a stack holds bit for bit what one call per element gives, and the
    # Haar draws leave the generator where the single calls leave it
    n = spec.n
    shape = tuple(shape)
    rng = np.random.default_rng(seed)
    stack = haar_sample(spec, rng, shape)
    rng_single = np.random.default_rng(seed)
    singles = np.array([haar_sample(spec, rng_single)
                        for _ in range(int(np.prod(shape)))])
    assert stack.shape == shape + (n, n) and stack.dtype == spec.dtype
    assert stack.tobytes() == singles.tobytes()
    assert rng.bit_generator.state == rng_single.bit_generator.state

    a = lie_vector_matrix(spec, rng.normal(0.0, 0.8, shape + (spec.dim_lie,)))
    expected = _stacked_singles(lambda m: exp_map(spec, m), a, n)
    assert exp_map(spec, a).tobytes() == expected.tobytes()

    q = stack + 1e-3 * rng.standard_normal(stack.shape)
    expected = _stacked_singles(lambda m: project_to_group(m, spec), q, n)
    assert project_to_group(q, spec).tobytes() == expected.tobytes()


# The Cayley-Klein row operations on first rows (a, b), stacks of shape
# (..., 2), that the pair operations replaced: the reference their bits must
# match.

def _row_second(p):
    out = np.conj(p[..., ::-1])
    out[..., 0] = -out[..., 0]
    return out


def _row_multiply(p, q):
    return p[..., :1] * q + p[..., 1:] * _row_second(q)


def _row_inverse(p):
    out = np.conj(p)
    out[..., 1] = -p[..., 1]
    return out


def _row_trace(u, k):
    return 2.0 * np.real(u[..., 0] * k[..., 0] - u[..., 1] * np.conj(k[..., 1]))


def _exp_row(coords):
    a = np.dot(np.asarray(coords, dtype=float), lie_basis(GroupSpec("SU", 2))[:, 0, :])
    sq = np.einsum("...i,...i->...", a, np.conj(a)).real
    th = np.sqrt(np.maximum(sq, 1e-300))[..., None]
    out = np.sin(th) / th * a
    out[..., 0] += np.cos(th[..., 0])
    return out


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 3), max_size=3), st.sampled_from([0.0, 1e-9, 0.8, 4.0]),
       st.integers(0, 2**32 - 1))
def test_su2_rows_match_matrix_ops(shape, width, seed):
    # the Cayley-Klein pair operations give the bits of the row operations
    # they replaced, and the first rows of the matrix product, inverse and
    # exponential; a pair fixes its matrix.  At a zero coordinate (width 0)
    # the exponential's zeros may differ in sign from the basis expansion's,
    # so there the values must agree and the bits need not.
    spec = GroupSpec("SU", 2)
    shape = tuple(shape)
    rng = np.random.default_rng(seed)
    p, q = haar_sample(spec, rng, shape), haar_sample(spec, rng, shape)
    coords = rng.normal(0.0, 1.0, shape + (3,)) * width
    row_p, row_q = p[..., 0, :], q[..., 0, :]
    for pair, row, want, same_bits in (
            (su2_pair_multiply(su2_pair(p), su2_pair(q)), _row_multiply(row_p, row_q),
             (p @ q)[..., 0, :], True),
            (su2_pair_inverse(su2_pair(p)), _row_inverse(row_p), inverse(p)[..., 0, :], True),
            (su2_exp_pair(coords), _exp_row(coords), exp_coords(spec, coords)[..., 0, :],
             width != 0.0)):
        got = np.stack(pair, axis=-1)
        assert got.shape == want.shape
        assert np.array_equal(got, row)
        assert not same_bits or got.tobytes() == np.ascontiguousarray(row).tobytes()
        assert np.max(np.abs(got - want)) < 1e-14
    trace = su2_pair_trace(su2_pair(p), su2_pair(q))
    assert np.shape(trace) == shape
    assert np.asarray(trace).tobytes() == np.asarray(_row_trace(row_p, row_q)).tobytes()
    assert np.max(np.abs(trace - np.trace(p @ q, axis1=-2, axis2=-1).real)) < 1e-14
    matrix = su2_pair_matrix(su2_pair(p))
    assert matrix.shape == p.shape and np.max(np.abs(matrix - p)) < 1e-14


def test_project_su3_stack():
    spec = GroupSpec("SU", 3)
    rng = np.random.default_rng(17)
    q = haar_sample(spec, rng, 3) + 1e-4 * rng.standard_normal((3, 3, 3))
    p = project_to_group(q, spec)
    assert all(is_in_group(m, spec) for m in p)
    assert p.tobytes() == np.array([project_to_group(m, spec) for m in q]).tobytes()


def test_lie_basis_shared_read_only():
    spec = GroupSpec("SU", 2)
    basis = lie_basis(spec)
    assert lie_basis(spec) is basis
    with pytest.raises(ValueError):
        basis[0, 0, 0] = 1.0


def test_directional_derivative_closed_form():
    rng = np.random.default_rng(6)
    for spec in (GroupSpec("U", 2), GroupSpec("SU", 2), GroupSpec("SO", 3)):
        basis = lie_basis(spec)
        a = identity(spec)
        for lj in basis:
            # d/dt tr(exp(tX) a)|_0 = tr(X a)
            val = directional_derivative(lambda q: np.trace(q) / spec.n, lj, a)
            assert abs(val - np.trace(lj) / spec.n) < 1e-8
        # constant function
        assert abs(directional_derivative(lambda q: 2.5, basis[0], a)) < 1e-12


def test_directional_derivative_u1_character():
    # L_X chi_n at a: i n chi scaled by the frame normalization (unit here)
    spec = GroupSpec("U", 1)
    basis = lie_basis(spec)
    a = np.array([[np.exp(0.9j)]])
    val = directional_derivative(lambda q: q[0, 0], basis[0], a)
    assert abs(val - 1j * a[0, 0]) < 1e-8


def test_directional_derivative_richardson_ratio():
    spec = GroupSpec("SU", 2)
    basis = lie_basis(spec)
    rng = np.random.default_rng(7)
    a = haar_sample(spec, rng)

    def f(q):
        return float(np.trace(q @ q).real)

    exact = directional_derivative(f, basis[0], a, h=1e-5, richardson=True)
    e1 = abs(directional_derivative(f, basis[0], a, h=1e-2) - exact)
    e2 = abs(directional_derivative(f, basis[0], a, h=5e-3) - exact)
    assert 3.0 < e1 / e2 < 5.0  # central differences: error ratio ~ 4


@pytest.mark.parametrize("spec", [GroupSpec("U", 2), GroupSpec("SU", 2),
                                  GroupSpec("SO", 3)], ids=str)
def test_gaussian_casimir_characterization(spec):
    # E[(tau(A))^2] = c_std I for standard Gaussian Lie-algebra vectors
    rng = np.random.default_rng(8)
    n = spec.n
    total = np.zeros((n, n), dtype=complex)
    n_samp = 20_000
    for _ in range(n_samp):
        a = lie_vector_matrix(spec, gaussian_lie_sample(spec, rng, 1.0))
        total += a @ a
    avg = total / n_samp
    c = casimir_standard(spec)
    # entrywise 3-sigma-ish tolerance at this sample size
    assert np.max(np.abs(avg - c * np.eye(n))) < 0.1


def test_gaussian_lie_sample_mean():
    rng = np.random.default_rng(9)
    spec = GroupSpec("SU", 2)
    coords = np.stack([gaussian_lie_sample(spec, rng, 1.0) for _ in range(20000)])
    assert np.max(np.abs(coords.mean(axis=0))) < 3.0 / np.sqrt(20000)
    with pytest.raises(GroupError):
        gaussian_lie_sample(spec, rng, 0.0)
