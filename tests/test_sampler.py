import numpy as np
import pytest
from scipy import stats

from loopfield.groups import GroupSpec, haar_sample
from loopfield.action import ActionParams, char_coefficient, partition_function, \
    unnormalized_weight, standard_label, action_exponent_scale
from loopfield.loops import plaquette_loop, make_loop_from_moves
from loopfield.sampler import (LatticeBox, MCSchedule, init_config,
                               total_action, _staple_u1, _staples_matrix,
                               sweep_metropolis, sweep_heatbath_u1,
                               plaquette_product, WilsonObservable,
                               box_for_subjects, run_chain, make_estimate,
                               estimate_wilson, gauge_transform,
                               integrated_autocorrelation, SamplerError)

U1 = GroupSpec("U", 1)
SU2 = GroupSpec("SU", 2)
SO3 = GroupSpec("SO", 3)


def test_box_counts():
    box = LatticeBox(3, 2)
    assert box.n_plaquettes == 6
    assert box.n_bonds == 3 * 3 + 4 * 2
    with pytest.raises(SamplerError):
        LatticeBox(0, 3)


def test_init_modes():
    rng = np.random.default_rng(0)
    params = ActionParams(SU2, 0.7)
    cold = init_config(LatticeBox(2, 2), params, "cold", rng, chains=3)
    qp = plaquette_product(cold)
    assert np.allclose(np.trace(qp, axis1=-2, axis2=-1).real, 2.0)
    hot = init_config(LatticeBox(2, 2), params, "hot", rng, chains=3)
    assert np.max(np.abs(np.trace(plaquette_product(hot),
                                  axis1=-2, axis2=-1))) <= 2.0 + 1e-12


def test_hot_start_plaquette_mean_vanishes():
    rng = np.random.default_rng(1)
    params = ActionParams(SU2, 0.7)
    vals = []
    for _ in range(300):
        hot = init_config(LatticeBox(2, 2), params, "hot", rng, chains=4)
        vals.append(np.trace(plaquette_product(hot),
                             axis1=-2, axis2=-1).real / 2.0)
    vals = np.concatenate(vals).ravel()
    assert abs(vals.mean()) < 3.0 * vals.std() / np.sqrt(vals.size)


def test_deterministic_under_seed():
    params = ActionParams(U1, 0.6)
    sched = MCSchedule(sweeps=40, burn_in=10, thin=2, chains=3, seed=99)
    s1, _ = run_chain(params, [plaquette_loop((0, 0))], sched)
    s2, _ = run_chain(params, [plaquette_loop((0, 0))], sched)
    assert np.array_equal(s1, s2)


@pytest.mark.parametrize("spec", [U1, SU2, SO3], ids=str)
def test_staples_give_local_action_change(spec):
    # the sweeps weigh a new link U' by scale * (Re Tr(U' K) - Re Tr(U K));
    # that must be the drop in the total action, at interior bonds (two
    # plaquettes) and at every side of the boundary (one plaquette)
    rng = np.random.default_rng(7)
    params = ActionParams(spec, 0.7)
    cfg = init_config(LatticeBox(3, 2), params, "hot", rng, chains=2)
    scale = action_exponent_scale(params)
    for orient, x, y in ((0, 1, 1), (1, 2, 0), (0, 0, 2), (1, 3, 1),
                         (0, 2, 0), (1, 0, 1)):
        u = cfg.links[orient][:, x, y]
        if spec == U1:
            new = rng.uniform(-np.pi, np.pi, cfg.n_chains)
            k = _staple_u1(cfg, orient)[:, x, y]
            gain = np.real(np.exp(1j * new) * k) - np.real(np.exp(1j * u) * k)
        else:
            new = haar_sample(spec, rng, cfg.n_chains)
            k = _staples_matrix(cfg, orient)[:, x, y]
            gain = (np.einsum("cij,cji->c", new, k).real
                    - np.einsum("cij,cji->c", u, k).real)
        after = cfg.copy()
        after.links[orient][:, x, y] = new
        drop = total_action(cfg) - total_action(after)
        assert np.max(np.abs(scale * gain - drop)) < 1e-10


def test_plaquette_expectation_heatbath_u1():
    params = ActionParams(U1, 0.7)
    sched = MCSchedule(sweeps=3000, burn_in=200, thin=2, chains=8, seed=5)
    ests, _, meta = estimate_wilson(params, [plaquette_loop((0, 0))], sched,
                                    margin=1)
    assert meta["algorithm"] == "heatbath"
    a1 = char_coefficient(1, params)
    assert ests[0].compatible_with(a1, 3.0)


@pytest.mark.parametrize("spec", [SU2, SO3], ids=str)
def test_plaquette_expectation_metropolis(spec):
    params = ActionParams(spec, 0.7)
    sched = MCSchedule(sweeps=2500, burn_in=300, thin=2, chains=8, seed=6)
    ests, _, meta = estimate_wilson(params, [plaquette_loop((0, 0))], sched,
                                    margin=1)
    a = char_coefficient(standard_label(spec), params)
    assert meta["algorithm"] == "metropolis"
    assert ests[0].compatible_with(a, 3.0)


def test_trivial_loop_measures_one():
    from loopfield.loops import TRIVIAL_LOOP
    params = ActionParams(U1, 0.7)
    sched = MCSchedule(sweeps=20, burn_in=5, thin=1, chains=2, seed=1)
    ests, samples, _ = estimate_wilson(params, [TRIVIAL_LOOP], sched)
    assert ests[0].mean == 1.0 and ests[0].sigma == 0.0


def test_u1_rectangle_matches_exact_backend():
    from loopfield.driver import u1_expectation_discrete
    eps = 0.7
    loop = make_loop_from_moves((0, 0), "RRUULLDD")
    params = ActionParams(U1, eps)
    sched = MCSchedule(sweeps=4000, burn_in=300, thin=2, chains=8, seed=8)
    ests, _, _ = estimate_wilson(params, [loop], sched, margin=3)
    exact = u1_expectation_discrete(loop, eps)
    assert ests[0].compatible_with(exact, 3.0)


def test_heatbath_histogram_matches_density():
    params = ActionParams(U1, 0.7)
    rng = np.random.default_rng(11)
    cfg = init_config(LatticeBox(1, 1), params, "hot", rng, chains=4)
    draws = []
    for _ in range(4000):
        sweep_heatbath_u1(cfg, rng)
        draws.append(plaquette_product(cfg)[:, 0, 0].copy())
    flat = np.mod(np.concatenate(draws) + np.pi, 2 * np.pi) - np.pi
    nbins = 20
    edges = np.linspace(-np.pi, np.pi, nbins + 1)
    centers = 0.5 * (edges[1:] + edges[:-1])
    dens = unnormalized_weight(params, (centers,)) / partition_function(params)
    probs = dens / dens.sum()
    counts, _ = np.histogram(flat, bins=edges)
    expected = probs * counts.sum()
    mask = expected > 8
    chi2 = np.sum((counts[mask] - expected[mask]) ** 2 / expected[mask])
    p = stats.chi2.sf(chi2, mask.sum() - 1)
    assert p > 0.01


def test_metropolis_acceptance_tuning():
    params = ActionParams(SU2, 0.5)
    rng = np.random.default_rng(12)
    cfg = init_config(LatticeBox(3, 3), params, "hot", rng, chains=4)
    sched = MCSchedule(sweeps=100, burn_in=400, thin=10, chains=4, seed=12)
    _, meta = run_chain(params, [plaquette_loop((0, 0))], sched, margin=2)
    # after tuning, a fresh sweep accepts near 50%
    cfg2 = init_config(LatticeBox(3, 3), params, "hot", rng, chains=4)
    for _ in range(50):
        acc = sweep_metropolis(cfg2, rng, meta["proposal_scale"])
    assert 0.35 < acc < 0.65


def test_gauge_invariance_all_groups():
    rng = np.random.default_rng(13)
    for spec in (U1, SU2, SO3):
        params = ActionParams(spec, 0.8)
        box = LatticeBox(4, 4)
        cfg = init_config(box, params, "hot", rng, chains=2)
        loop = make_loop_from_moves((1, 1), "RURULLDD")
        obs = WilsonObservable(loop, box, (0, 0))
        before = obs.measure(cfg)
        if spec == U1:
            g = rng.uniform(-np.pi, np.pi, (5, 5))
        else:
            g = haar_sample(spec, rng, (5, 5))
        cfg2 = gauge_transform(cfg, g)
        after = obs.measure(cfg2)
        assert np.max(np.abs(after - before)) < 1e-12
        # plaquette traces are invariant too
        tr1 = plaquette_product(cfg)
        tr2 = plaquette_product(cfg2)
        if spec == U1:
            assert np.max(np.abs(np.exp(1j * tr1) - np.exp(1j * tr2))) < 1e-12
        else:
            assert np.max(np.abs(
                np.trace(tr1, axis1=-2, axis2=-1)
                - np.trace(tr2, axis1=-2, axis2=-1))) < 1e-12


def test_identity_gauge_is_noop():
    rng = np.random.default_rng(14)
    params = ActionParams(SU2, 0.8)
    cfg = init_config(LatticeBox(2, 2), params, "hot", rng, chains=1)
    g = np.broadcast_to(np.eye(2, dtype=complex), (3, 3, 2, 2)).copy()
    cfg2 = gauge_transform(cfg, g)
    for o in (0, 1):
        assert np.allclose(cfg.links[o], cfg2.links[o])


def test_loop_exits_box_error():
    box = LatticeBox(2, 2)
    with pytest.raises(SamplerError):
        WilsonObservable(make_loop_from_moves((0, 0), "RRRULLLD"), box, (0, 0))


def test_box_for_subjects_margin():
    loop = make_loop_from_moves((0, 0), "RULD")
    box, offset = box_for_subjects([loop], margin=4)
    assert box.width == 9 and box.height == 9
    WilsonObservable(loop, box, offset)  # fits


def test_blocked_error_exceeds_naive_on_correlated_series():
    rng = np.random.default_rng(15)
    # an AR(1) series has tau_int > 1 and blocked sigma > naive sigma
    n, rho = 4096, 0.9
    x = np.zeros((n, 2))
    for i in range(1, n):
        x[i] = rho * x[i - 1] + rng.normal(size=2)
    est = make_estimate(x)
    assert est.sigma > 1.5 * est.sigma_naive
    assert est.tau_int > 3.0
    assert integrated_autocorrelation(x[:, 0]) > 3.0


def test_estimate_of_iid_series():
    rng = np.random.default_rng(16)
    x = rng.normal(size=(2048, 4))
    est = make_estimate(x)
    assert abs(est.mean) < 4.0 / np.sqrt(x.size)
    assert 0.5 < est.sigma / est.sigma_naive < 2.0
