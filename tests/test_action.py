import math

import numpy as np
import pytest
import scipy.special as sp
from hypothesis import given, settings, strategies as st

from loopfield.groups import GroupSpec
from loopfield.action import (ActionParams, partition_function,
                              char_coefficient, build_char_table,
                              build_char_table_adaptive,
                              wilson_kfold_eval, heat_kernel_eval,
                              heat_kernel_u1_wrapped_gaussian, irrep,
                              standard_label, trivial_label, iter_labels,
                              integrate_class_function, unnormalized_weight,
                              gaussian_lemma_check, lemma_j1_check,
                              laplacian_at_identity, character_values,
                              QuadratureError, TailBudgetError)
from oracles import load_char_table

U1 = GroupSpec("U", 1)
SU2 = GroupSpec("SU", 2)
U2 = GroupSpec("U", 2)
SO3 = GroupSpec("SO", 3)


def test_partition_function_u1_bessel():
    eps = 0.5
    beta = eps**-2
    z = partition_function(ActionParams(U1, eps))
    assert abs(z - sp.i0(beta) * np.exp(-beta)) < 1e-12


def test_partition_function_runs_quadrature_once(monkeypatch):
    # the second call, positional or keyword, reuses the first value
    import loopfield.action as action
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return integrate_class_function(*args, **kwargs)

    monkeypatch.setattr(action, "integrate_class_function", counted)
    action._partition_function.cache_clear()
    params = ActionParams(SU2, 0.4321)
    z = partition_function(params)
    assert len(calls) == 1
    assert partition_function(params, 1e-11) == z
    assert partition_function(params, tol=1e-11) == z
    assert len(calls) == 1
    partition_function(params, tol=1e-10)
    assert len(calls) == 2


def test_partition_function_limits():
    z = partition_function(ActionParams(U1, 1e3))
    assert abs(z - 1.0) < 1e-6  # exponent -> 0


def test_char_coefficient_u1_bessel_ratio():
    eps = 0.5
    beta = eps**-2
    p = ActionParams(U1, eps)
    for n in (1, 2, 3):
        assert abs(char_coefficient(n, p) - sp.iv(n, beta) / sp.i0(beta)) < 1e-11


def test_trivial_coefficient_is_one():
    for spec in (U1, SU2, U2, SO3):
        assert char_coefficient(trivial_label(spec), ActionParams(spec, 0.4)) == 1.0


def _approx_constant(table):
    """Smallest C with |a - exp(c eps^2 / 2)| <= C c^2 eps^4 on the table."""
    worst = 0.0
    for _, _, c, a in table.records:
        if c == 0.0:
            continue
        gap = abs(a - math.exp(0.5 * c * table.epsilon**2))
        worst = max(worst, gap / (c * c * table.epsilon**4))
    return worst


@pytest.mark.parametrize("spec", [U1, SU2, U2, SO3], ids=str)
def test_coefficient_approximation_bound(spec):
    # |a_tau - exp(c eps^2 / 2)| <= C c^2 eps^4 with one module constant
    consts = []
    for eps in (0.4, 0.2, 0.1):
        table = build_char_table(ActionParams(spec, eps), max_casimir=6.0)
        consts.append(_approx_constant(table))
        table.validate()
    assert max(consts) < 1.0  # empirically ~0.1; the bound holds uniformly


def test_casimir_values_in_ladder():
    assert irrep(U1, 3).casimir == -9.0
    assert irrep(SU2, 1).casimir == -0.75
    assert irrep(SU2, 2).casimir == -2.0
    assert irrep(SO3, 1).casimir == pytest.approx(-2.0 / 3.0)
    assert irrep(U2, (1, 0)).casimir == -1.0
    assert irrep(U2, (1, 1)).casimir == -1.0  # determinant representation


def test_density_normalization_across_eps():
    for spec in (U1, SU2, U2, SO3):
        for eps in (0.05, 0.3, 1.0):
            params = ActionParams(spec, eps)
            z = partition_function(params)
            total = integrate_class_function(
                spec, lambda *a: unnormalized_weight(params, a)) / z
            assert abs(total - 1.0) < 1e-10


@pytest.mark.parametrize("spec", [U1, SU2], ids=str)
def test_spectral_consistency(spec):
    params = ActionParams(spec, 0.6)
    table = build_char_table(params, max_casimir=900.0)
    th = np.linspace(0.1, 3.0, 7)
    vals = wilson_kfold_eval(table, 1, (th,), tol=1e-9)
    direct = unnormalized_weight(params, (th,)) / partition_function(params)
    assert np.max(np.abs(vals - direct)) < 1e-9


def test_convolution_power_against_fft_oracle():
    params = ActionParams(U1, 0.5)
    table = build_char_table(params, max_casimir=400.0)
    k, m = 4, 8192
    grid = np.arange(m) * 2 * np.pi / m
    s1 = unnormalized_weight(params, (grid,)) / partition_function(params)
    f = s1.copy()
    for _ in range(k - 1):
        f = np.fft.irfft(np.fft.rfft(f) * np.fft.rfft(s1), m) / m
    sk = wilson_kfold_eval(table, k, (grid[:64],))
    assert np.max(np.abs(f[:64] - sk)) < 1e-8


def test_convolution_semigroup_heat_kernel():
    # p_t * p_s = p_{t+s} by circular convolution on U(1)
    m = 4096
    grid = np.arange(m) * 2 * np.pi / m
    pt, _ = heat_kernel_eval(U1, 0.7, (grid,))
    ps, _ = heat_kernel_eval(U1, 0.5, (grid,))
    conv = np.fft.irfft(np.fft.rfft(pt) * np.fft.rfft(ps), m) / m
    pts, _ = heat_kernel_eval(U1, 1.2, (grid,))
    assert np.max(np.abs(conv - pts)) < 1e-9


def test_kfold_converges_to_heat_kernel():
    # S^eps_{t/eps^2} -> p_t uniformly
    t = 1.0
    th = np.linspace(0, 2 * np.pi, 33)
    pt, _ = heat_kernel_eval(U1, t, (th,))
    sups = []
    for eps in (0.4, 0.2, 0.1):
        params = ActionParams(U1, eps)
        table = build_char_table_adaptive(params, k_min=int(round(t / eps**2)))
        sk = wilson_kfold_eval(table, int(round(t / eps**2)), (th,))
        sups.append(np.max(np.abs(sk - pt)))
    assert sups[0] > sups[1] > sups[2]
    assert sups[-1] < 1e-2


def test_std_coefficient_power_limit():
    # a_std^{t/eps^2} -> e^{c_std t / 2} for U(2)
    t, target = 1.0, np.exp(-0.5)
    gaps = []
    for eps in (0.2, 0.1):
        a = char_coefficient((1, 0), ActionParams(U2, eps))
        gaps.append(abs(a ** round(t / eps**2) - target))
    assert gaps[1] < gaps[0] < 5e-3


def test_heat_kernel_wrapped_gaussian_oracle():
    th = np.array([0.0, 0.3, 1.0, 3.0])
    vals, tail = heat_kernel_eval(U1, 1.0, (th,), tol=1e-12)
    oracle = heat_kernel_u1_wrapped_gaussian(1.0, th)
    assert np.max(np.abs(vals - oracle)) < 1e-10
    assert tail < 1e-12


def test_heat_kernel_normalization():
    for spec in (U1, SU2, SO3):
        def pt(*angles):
            vals, _ = heat_kernel_eval(spec, 1.0, angles)
            return vals
        total = integrate_class_function(spec, pt)
        assert abs(total - 1.0) < 1e-10


def test_heat_kernel_tail_budget_error():
    with pytest.raises(TailBudgetError):
        heat_kernel_eval(U1, 1e-9, (np.array([0.1]),), tol=1e-12)


def test_quadrature_certification_error():
    with pytest.raises(QuadratureError):
        # a discontinuous integrand never certifies
        integrate_class_function(U1, lambda th: np.sign(np.sin(37.123 * th)),
                                 tol=1e-13, max_points=2048)


def test_table_text_round_trip(tmp_path):
    params = ActionParams(U2, 0.5)
    table = build_char_table(params, max_casimir=4.0)
    path = tmp_path / "table.txt"
    table.save_text(path)
    loaded = load_char_table(path, U2, 0.5)
    assert loaded.records == table.records  # bit-exact via repr round-trip


def test_monotone_in_casimir():
    table = build_char_table(ActionParams(SU2, 0.5), max_casimir=30.0)
    recs = sorted(table.records, key=lambda r: abs(r[2]))
    avals = [r[3] for r in recs]
    assert all(a >= b - 1e-12 for a, b in zip(avals, avals[1:]))


def test_gaussian_lemma_zero_function():
    rep = gaussian_lemma_check(U2, lambda t1, t2: 0.0 * t1,
                               lambda q: 0.0, [0.4, 0.2])
    assert all(r["residual"] < 1e-13 for r in rep["rows"])


def test_gaussian_lemma_slope_u2():
    rep = gaussian_lemma_check(
        U2, lambda t1, t2: 2.0 - np.cos(t1) - np.cos(t2),
        lambda q: float(np.trace(np.eye(2) - q).real),
        [0.4, 0.28, 0.2, 0.14, 0.1])
    assert 3.5 <= rep["slope"] <= 4.5
    # Delta f(I) = -N c_std = 2 for f = Re Tr(I - Q) (unnormalized trace)
    assert abs(rep["delta_identity"] - 2.0) < 1e-5


def test_gaussian_lemma_j_type_u1():
    # f = tr((Q - Q^-1) a1) chi_std(Q a2): the limit of the scaled integral
    # is the product of the two first derivatives (convergence lemma form)
    phi1, phi2 = 0.9, -0.4
    rhs = 1j * np.exp(1j * phi1) * 1j * np.exp(1j * phi2)
    gaps = []
    for eps in (0.4, 0.2, 0.1):
        params = ActionParams(U1, eps)
        z = partition_function(params)

        def f(th):
            return (2j * np.sin(th) * np.exp(1j * phi1)
                    * np.exp(1j * (th + phi2)))

        val = integrate_class_function(
            U1, lambda th: f(th) * unnormalized_weight(params, (th,))) / z
        gaps.append(abs(val / (2 * eps**2) - 2.0 * rhs / 2.0))
    assert gaps[0] > gaps[1] > gaps[2]


def test_lemma_j1_gap_decreasing():
    rep = lemma_j1_check(0.7, 1.3, 1.0, [0.4, 0.2, 0.1])
    gaps = [r["gap"] for r in rep["rows"]]
    assert gaps[0] > gaps[1] > gaps[2]
    # t(eps) rounding satisfies |t(eps) - t| <= eps
    for r, eps in zip(rep["rows"], (0.4, 0.2, 0.1)):
        assert abs(r["t_eps"] - 1.0) <= eps


def test_lemma_j1_vanishes_at_identity():
    rep = lemma_j1_check(0.0, 0.0, 1.0, [0.3])
    assert abs(rep["rows"][0]["lhs"]) < 1e-10
    assert abs(rep["rows"][0]["rhs"]) < 1e-12


def test_j1_rhs_matches_finite_differences():
    # the theta-derivative of p_t agrees with finite differences of p_t
    from loopfield.action import heat_kernel_theta_derivative_u1
    t, phi = 0.8, 0.9
    d = heat_kernel_theta_derivative_u1(t, np.array([phi]))[0]
    h = 1e-5
    vals, _ = heat_kernel_eval(U1, t, (np.array([phi - h, phi + h]),))
    assert abs(d - (vals[1] - vals[0]) / (2 * h)) < 1e-8


def test_laplacian_at_identity_su2():
    # Delta tr(Q) (I) = c_std for the standard representation
    val = laplacian_at_identity(SU2, lambda q: float(np.trace(q).real) / 2.0)
    assert abs(val - (-0.75)) < 1e-6


@pytest.mark.parametrize("name, f_matrix, exact, before", [
    ("retrace", lambda q: float(np.trace(np.eye(2) - q).real), 2.0, 2.0000002246926365),
    ("trace-square", lambda q: float(1.0 - abs(np.trace(q))**2 / 4.0), 1.5,
     1.5000001833224512)])
def test_laplacian_at_identity_u2_no_farther_from_exact(name, f_matrix, exact, before):
    # gauss-lemma's two U(2) Laplacians; `before` is the value computed with
    # scipy.linalg.expm in place of the 2x2 closed form
    val = laplacian_at_identity(U2, f_matrix)
    assert abs(val - exact) <= abs(before - exact), name


def test_character_values_dimensions():
    zero = (np.array([0.0]),)
    assert character_values(SU2, 3, zero)[0] == pytest.approx(4.0)
    assert character_values(SO3, 2, zero)[0] == pytest.approx(5.0)
    z2 = (np.array([0.0]), np.array([0.0]))
    assert character_values(U2, (2, 0), z2)[0] == pytest.approx(3.0)
    labels = iter_labels(U2, 3.0)
    assert (1, 0) in labels and (0, -1) in labels


# ---------------------------------------------------------------------------
# the quadrature weight caches


def _weight_caches():
    import loopfield.action as action
    return (action._quadrature_grid, action._boltzmann_weight,
            action._partition_function)


def _meshgrid(spec, m):
    """The half-offset grid of m points per circle, U(2)'s as two full m x m
    arrays, built here so that the oracle does not share action's axes."""
    th = (np.arange(m) + 0.5) * (2 * np.pi / m)
    if spec == U2:
        return np.meshgrid(th, th, indexing="ij")
    return (th,)


def _fresh_integral(spec, fn, tol=1e-11):
    """integrate_class_function as it was before the weight caches: new
    meshgrids and weights at every level, the Boltzmann weight inside the
    integrand."""
    import loopfield.action as action
    m = 64 if spec == U2 else 256
    prev = None
    while True:
        angles = _meshgrid(spec, m)
        vals = np.mean(action.weyl_weight(spec, angles) * fn(*angles))
        if prev is not None and abs(vals - prev) <= tol * max(1.0, abs(vals)):
            return vals
        prev = vals
        m *= 2


@pytest.mark.parametrize("spec", [U1, SU2, SO3, U2])
def test_weighted_quadrature_keeps_every_bit(spec):
    # weyl * (g * boltzmann), the old product order, on the cached grids
    params = ActionParams(spec, 0.4)
    label = standard_label(spec)

    def g(*angles):
        return np.conj(character_values(spec, label, angles))

    weighted = integrate_class_function(spec, g, weight=params)
    assert weighted == _fresh_integral(
        spec, lambda *a: g(*a) * unnormalized_weight(params, a))
    assert partition_function(params) == _fresh_integral(
        spec, lambda *a: unnormalized_weight(params, a))


@pytest.mark.parametrize("spec", [U1, SU2, SO3, U2])
def test_cached_quadrature_gives_the_cold_floats(spec):
    from loopfield.equations import trace_power_integral

    def values():
        out = []
        for eps in (0.5, 0.3):
            params = ActionParams(spec, eps)
            out += [partition_function(params),
                    char_coefficient(standard_label(spec), params),
                    trace_power_integral(spec, params, 1),
                    trace_power_integral(spec, params, 2)]
        return out

    for cache in _weight_caches():
        cache.cache_clear()
    cold = values()
    _weight_caches()[2].cache_clear()  # Z again, now on the cached weights
    warm = values()
    assert warm == cold
    assert _weight_caches()[1].cache_info().hits > 0


def _u2_character_on_meshgrid(label, t1, t2):
    """chi_(l1, l2) with every exponential taken over the full grid."""
    l1, l2 = label
    m = l1 - l2
    acc = np.zeros(t1.shape, dtype=complex)
    for i in range(m + 1):
        acc += np.exp(1j * (i * t1 + (m - i) * t2))
    return np.exp(1j * l2 * (t1 + t2)) * acc


# the two integrands of the gauss-lemma experiment (harness.run_gauss_lemma)
GAUSS_LEMMA_INTEGRANDS = (
    lambda t1, t2: 2.0 - np.cos(t1) - np.cos(t2),
    lambda t1, t2: 1.0 - np.abs(np.exp(1j*t1) + np.exp(1j*t2))**2 / 4.0)


def _same_bits(x, y):
    return np.asarray(x).tobytes() == np.asarray(y).tobytes()


@settings(max_examples=20, deadline=None)
@given(st.integers(-4, 4), st.integers(-4, 4), st.integers(1, 3),
       st.floats(0.05, 0.6))
def test_u2_axes_match_the_meshgrid_oracle(la, lb, power, eps):
    # every U(2) integral on the broadcast axes against full meshgrids
    from loopfield.equations import trace_power_integral
    label = (max(la, lb), min(la, lb))
    params = ActionParams(U2, eps)

    def boltzmann(t1, t2):
        return unnormalized_weight(params, (t1, t2))

    z = _fresh_integral(U2, boltzmann)
    assert _same_bits(partition_function(params), z)
    chi = integrate_class_function(
        U2, lambda *a: np.conj(character_values(U2, label, a)), weight=params)
    assert _same_bits(chi, _fresh_integral(U2, lambda t1, t2: np.conj(
        _u2_character_on_meshgrid(label, t1, t2)) * boltzmann(t1, t2)))
    tr_power = _fresh_integral(U2, lambda t1, t2: (
        np.exp(1j * power * t1) + np.exp(1j * power * t2)) * boltzmann(t1, t2))
    assert _same_bits(trace_power_integral(U2, params, power),
                      float(np.real(tr_power / z)) / 2)
    for f in GAUSS_LEMMA_INTEGRANDS:
        assert _same_bits(
            integrate_class_function(U2, f, weight=params),
            _fresh_integral(U2, lambda t1, t2: f(t1, t2) * boltzmann(t1, t2)))


def test_every_cache_is_bounded():
    # an unbounded cache would grow with every eps and grid a process meets
    import sys
    import loopfield.harness  # noqa: F401  (imports every module)
    caches = {f"{name}.{attr}": value
              for name, module in sorted(sys.modules.items())
              if name.startswith("loopfield") and module is not None
              for attr, value in vars(module).items()
              if callable(getattr(value, "cache_parameters", None))}
    assert {"loopfield.action._quadrature_grid", "loopfield.action._boltzmann_weight",
            "loopfield.action._partition_function",
            "loopfield.driver._u1_coefficient"} <= set(caches)
    unbounded = [k for k, c in caches.items() if c.cache_parameters()["maxsize"] is None]
    assert not unbounded, unbounded


def test_cached_quadrature_arrays_are_read_only():
    import loopfield.action as action
    for spec in (U1, SU2, U2):
        angles, weyl = action._quadrature_grid(spec, 64)
        for a in (*angles, weyl):
            assert not a.flags.writeable
    weight = action._boltzmann_weight(ActionParams(U2, 0.5), 64)
    assert not weight.flags.writeable
    with pytest.raises(ValueError):
        weight[0, 0] = 0.0
