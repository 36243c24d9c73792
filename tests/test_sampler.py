import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from loopfield.groups import (GroupSpec, exp_coords, haar_sample, inverse,
                              su2_exp_pair, su2_pair, su2_pair_inverse, su2_pair_matrix,
                              su2_pair_multiply, su2_pair_trace)
from loopfield.action import ActionParams, char_coefficient, partition_function, \
    unnormalized_weight, standard_label, action_exponent_scale
from loopfield.loops import (plaquette_loop, make_loop_from_moves, LoopString,
                             TRIVIAL_LOOP, as_string)
from loopfield.sampler import (LatticeBox, MCSchedule, init_config,
                               _sweep_plan,
                               sweep_metropolis, sweep_heatbath_u1,
                               plaquette_product, WilsonObservable,
                               box_for_subjects, run_chain, make_estimate,
                               estimate_wilson, gauge_transform,
                               integrated_autocorrelation, SamplerError,
                               sample_iid, class_angles, _axial_draw,
                               IID_GROUPS, CLASS_CDF_BOUND)
from oracles import compatible, is_in_group, total_action

U1 = GroupSpec("U", 1)
SU2 = GroupSpec("SU", 2)
SO3 = GroupSpec("SO", 3)


def test_box_counts():
    box = LatticeBox(3, 2)
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
    # that must be the drop in the total action at every bond of every
    # sublattice: interior bonds (two plaquettes) and boundary bonds (one)
    rng = np.random.default_rng(7)
    params = ActionParams(spec, 0.7)
    scale = action_exponent_scale(params)
    for width, height in ((3, 2), (1, 1), (1, 3), (4, 1)):
        cfg = init_config(LatticeBox(width, height), params, "hot", rng, chains=2)
        checked = 0
        plan = _sweep_plan(cfg)
        for (orient, parity), step in zip(itertools.product((0, 1), (0, 1)), plan.steps):
            # U(1): complex staples from the phases e^{i theta} of the links;
            # SU(2): the pairs of the staples, from the pairs of the links
            k_sub = plan.staples(step)
            for x, y in np.ndindex(cfg.links[orient].shape[1:3]):
                along = y if orient == 0 else x
                if along % 2 != parity:
                    continue
                at = np.s_[:, x, along // 2] if orient == 0 else np.s_[:, along // 2, y]
                u = cfg.links[orient][:, x, y]
                if spec == U1:
                    k = k_sub[at]
                    new = rng.uniform(-np.pi, np.pi, cfg.n_chains)
                    gain = np.real(np.exp(1j * new) * k) - np.real(np.exp(1j * u) * k)
                elif spec == SU2:
                    k = tuple(plane[at] for plane in k_sub)
                    new = haar_sample(spec, rng, cfg.n_chains)
                    gain = su2_pair_trace(su2_pair(new), k) - su2_pair_trace(su2_pair(u), k)
                else:
                    k = k_sub[at]
                    new = haar_sample(spec, rng, cfg.n_chains)
                    gain = (np.einsum("cij,cji->c", new, k).real
                            - np.einsum("cij,cji->c", u, k).real)
                after = cfg.copy()
                after.links[orient][:, x, y] = new
                drop = total_action(cfg) - total_action(after)
                assert np.max(np.abs(scale * gain - drop)) < 1e-10
                checked += 1
        assert checked == cfg.box.n_bonds


# Oracle: the full-field sweeps that build the staples of every bond of an
# orientation, then gather and scatter one parity class by a boolean mask.
# U(1) runs the same staple products on the phases e^{i theta}, and SU(2) on
# the Cayley-Klein pairs (a, b).  With su2_pairs=False the SU(2) branch
# multiplies 2x2 matrices: the reference arithmetic that the pair sweep must
# track.

def _oracle_staples(cfg, orient, su2_pairs=True):
    u0, u1 = cfg.links
    w, h = cfg.box.width, cfg.box.height
    mul, inv = np.matmul, inverse
    if cfg.is_u1:
        u0, u1, mul, inv = np.exp(1j * u0), np.exp(1j * u1), np.multiply, np.conj
    elif cfg.spec == SU2 and su2_pairs:
        u0, u1, mul, inv = su2_pair(u0), su2_pair(u1), su2_pair_multiply, su2_pair_inverse
    pairs = isinstance(u0, tuple)

    def at(field, index):
        return tuple(plane[index] for plane in field) if pairs else field[index]

    k = (tuple(np.zeros(plane.shape, dtype=plane.dtype) for plane in (u0, u1)[orient])
         if pairs else np.zeros((u0, u1)[orient].shape, dtype=u0.dtype))

    def add(index, term):
        for plane, t in zip(k, term) if pairs else ((k, term),):
            plane[index] += t

    if orient == 0:
        add(np.s_[:, :, :h], mul(mul(at(u1, np.s_[:, 1:, :]), inv(at(u0, np.s_[:, :, 1:]))),
                                 inv(at(u1, np.s_[:, :w, :]))))
        add(np.s_[:, :, 1:], inv(mul(mul(inv(at(u1, np.s_[:, :w, :])), at(u0, np.s_[:, :, :h])),
                                     at(u1, np.s_[:, 1:, :]))))
    else:
        add(np.s_[:, 1:, :], mul(mul(inv(at(u0, np.s_[:, :, 1:])), inv(at(u1, np.s_[:, :w, :]))),
                                 at(u0, np.s_[:, :, :h])))
        add(np.s_[:, :w, :], inv(mul(mul(at(u0, np.s_[:, :, :h]), at(u1, np.s_[:, 1:, :])),
                                     inv(at(u0, np.s_[:, :, 1:])))))
    return k


def _oracle_masks(arr, orient):
    idx = np.indices(arr.shape[1:3])[1 if orient == 0 else 0]
    return idx % 2 == 0, idx % 2 == 1


def _oracle_metropolis(cfg, rng, proposal_scale, su2_pairs=True):
    spec, scale = cfg.spec, action_exponent_scale(cfg.params)
    accepted = total = 0
    for orient in (0, 1):
        arr = cfg.links[orient]
        for mask in _oracle_masks(arr, orient):
            k = _oracle_staples(cfg, orient, su2_pairs)
            u = arr[:, mask]
            if spec == SU2 and su2_pairs:
                km = tuple(plane[:, mask] for plane in k)
                coords = rng.normal(0.0, proposal_scale, u.shape[:-2] + (3,))
                prop = su2_pair_multiply(su2_exp_pair(coords), su2_pair(u))
                logw = scale * (su2_pair_trace(prop, km) - su2_pair_trace(su2_pair(u), km))
                acc = np.log(rng.uniform(size=logw.shape)) < logw
                arr[:, mask] = np.where(acc[..., None, None], su2_pair_matrix(prop), u)
            else:
                km = k[:, mask]
                coords = rng.normal(0.0, proposal_scale, u.shape[:-2] + (spec.dim_lie,))
                prop = exp_coords(spec, coords) @ u
                logw = scale * (np.einsum("...ij,...ji->...", prop, km).real
                                - np.einsum("...ij,...ji->...", u, km).real)
                acc = np.log(rng.uniform(size=logw.shape)) < logw
                arr[:, mask] = np.where(acc[..., None, None], prop, u)
            accepted += int(acc.sum())
            total += acc.size
    return accepted / total


def _oracle_heatbath(cfg, rng):
    scale = action_exponent_scale(cfg.params)
    for orient in (0, 1):
        arr = cfg.links[orient]
        for mask in _oracle_masks(arr, orient):
            k = _oracle_staples(cfg, orient)[:, mask]
            arr[:, mask] = rng.vonmises(-np.angle(k), scale * np.abs(k))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([U1, SU2, SO3]), st.integers(1, 5), st.integers(1, 5),
       st.integers(0, 2**32 - 1))
def test_sublattice_sweeps_match_full_field_oracle(spec, width, height, seed):
    # the strided sublattice sweeps give the links, acceptances and
    # generator state of the full-field masked sweeps, bit for bit: the
    # heat bath for U(1), Metropolis for the matrix groups
    params = ActionParams(spec, 0.7)
    runs = []
    for metropolis, heatbath in ((sweep_metropolis, sweep_heatbath_u1),
                                 (_oracle_metropolis, _oracle_heatbath)):
        rng = np.random.default_rng(seed)
        cfg = init_config(LatticeBox(width, height), params, "hot", rng, chains=2)
        accs = []
        for _ in range(3):
            if spec == U1:
                heatbath(cfg, rng)
            else:
                accs.append(metropolis(cfg, rng, 0.5))
        runs.append(([a.tobytes() for a in cfg.links], accs,
                     rng.bit_generator.state))
    assert runs[0] == runs[1]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([U1, SU2, SO3]), st.integers(1, 5), st.integers(1, 5),
       st.integers(0, 1), st.integers(0, 2**32 - 1))
def test_rebound_links_get_a_new_sweep_plan(spec, width, height, orient, seed):
    # a sweep plan views the link arrays it was built on: after
    # cfg.links[o] is rebound the next sweep must update the new array, and
    # sweeping a gauge transform or a copy must leave the original alone;
    # links, acceptances and generator state match the full-field oracle
    params = ActionParams(spec, 0.7)
    runs = []
    for metropolis, heatbath in ((sweep_metropolis, sweep_heatbath_u1),
                                 (_oracle_metropolis, _oracle_heatbath)):
        def sweep(cfg):  # the acceptance, None for the heat bath
            if spec == U1:
                heatbath(cfg, rng)
                return None
            return metropolis(cfg, rng, 0.5)

        rng = np.random.default_rng(seed)
        box = LatticeBox(width, height)
        cfg = init_config(box, params, "hot", rng, chains=2)
        g = (rng.uniform(-np.pi, np.pi, (width + 1, height + 1)) if spec == U1
             else haar_sample(spec, rng, (width + 1, height + 1)))
        accs = [sweep(cfg)]
        cfg.links[orient] = cfg.links[orient].copy()
        accs.append(sweep(cfg))
        before = [a.tobytes() for a in cfg.links]
        others = [gauge_transform(cfg, g), cfg.copy()]
        for other in others:
            accs += [sweep(other), sweep(other)]
        assert [a.tobytes() for a in cfg.links] == before
        runs.append((before, [[a.tobytes() for a in o.links] for o in others], accs,
                     rng.bit_generator.state))
    assert runs[0] == runs[1]


def _assert_sweep_refused(sweep, spec):
    # the sweep raises before it draws a number or writes a link
    rng = np.random.default_rng(3)
    cfg = init_config(LatticeBox(2, 3), ActionParams(spec, 0.7), "hot", rng, chains=2)
    links, state = [a.copy() for a in cfg.links], rng.bit_generator.state
    with pytest.raises(SamplerError):
        sweep(cfg, rng)
    assert all(np.array_equal(a, b) for a, b in zip(cfg.links, links))
    assert rng.bit_generator.state == state


def test_metropolis_refuses_u1():
    # U(1) chains have one kernel, the heat bath
    _assert_sweep_refused(lambda cfg, rng: sweep_metropolis(cfg, rng, 0.5), U1)


@pytest.mark.parametrize("spec", [SU2, SO3], ids=str)
def test_heatbath_refuses_matrix_groups(spec):
    _assert_sweep_refused(sweep_heatbath_u1, spec)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_su2_pair_sweep_tracks_matrix_arithmetic(width, height, seed):
    # the pair sweep makes the accept/reject decisions of the matrix sweep and
    # draws the same numbers; its links differ from the matrix sweep's only
    # by rounding, and stay in SU(2)
    params = ActionParams(SU2, 0.7)
    runs = []
    for metropolis in (sweep_metropolis,
                       lambda cfg, rng, s: _oracle_metropolis(cfg, rng, s, su2_pairs=False)):
        rng = np.random.default_rng(seed)
        cfg = init_config(LatticeBox(width, height), params, "hot", rng, chains=2)
        accs = [metropolis(cfg, rng, 0.5) for _ in range(20)]
        runs.append((cfg.links, accs, rng.bit_generator.state))
    (pairs, accs, state), (matrices, ref_accs, ref_state) = runs
    assert accs == ref_accs and state == ref_state
    for arr, ref in zip(pairs, matrices):
        assert np.max(np.abs(arr - ref)) < 1e-12
        assert is_in_group(arr, SU2, tol=1e-12)


def test_plaquette_expectation_heatbath_u1():
    params = ActionParams(U1, 0.7)
    sched = MCSchedule(sweeps=3000, burn_in=200, thin=2, chains=8, seed=5)
    ests, _, meta = estimate_wilson(params, [plaquette_loop((0, 0))], sched,
                                    margin=1)
    assert meta["algorithm"] == "heatbath"
    a1 = char_coefficient(1, params)
    assert compatible(ests[0], a1, 3.0)


@pytest.mark.parametrize("spec", [SU2, SO3], ids=str)
def test_plaquette_expectation_metropolis(spec):
    params = ActionParams(spec, 0.7)
    sched = MCSchedule(sweeps=2500, burn_in=300, thin=2, chains=8, seed=6)
    ests, _, meta = estimate_wilson(params, [plaquette_loop((0, 0))], sched,
                                    margin=1)
    a = char_coefficient(standard_label(spec), params)
    assert meta["algorithm"] == "metropolis"
    assert compatible(ests[0], a, 3.0)


def test_trivial_loop_measures_one():
    from loopfield.loops import TRIVIAL_LOOP
    params = ActionParams(U1, 0.7)
    sched = MCSchedule(sweeps=20, burn_in=5, thin=1, chains=2, seed=1)
    ests, samples, _ = estimate_wilson(params, [TRIVIAL_LOOP], sched)
    assert ests[0].mean == 1.0 and ests[0].sigma == 0.0


def test_u1_rectangle_matches_exact_backend():
    from loopfield.driver import U1Backend
    eps = 0.7
    loop = make_loop_from_moves((0, 0), "RRUULLDD")
    params = ActionParams(U1, eps)
    sched = MCSchedule(sweeps=4000, burn_in=300, thin=2, chains=8, seed=8)
    ests, _, _ = estimate_wilson(params, [loop], sched, margin=3)
    exact = U1Backend(eps).expectation(loop)
    assert compatible(ests[0], exact, 3.0)


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
        obs = WilsonObservable([loop], box, (0, 0))
        before = obs.measure(cfg)[0]
        if spec == U1:
            g = rng.uniform(-np.pi, np.pi, (5, 5))
        else:
            g = haar_sample(spec, rng, (5, 5))
        cfg2 = gauge_transform(cfg, g)
        after = obs.measure(cfg2)[0]
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
        WilsonObservable([make_loop_from_moves((0, 0), "RRRULLLD")], box, (0, 0))


def test_box_for_subjects_margin():
    loop = make_loop_from_moves((0, 0), "RULD")
    box, offset = box_for_subjects([loop], margin=4)
    assert box.width == 9 and box.height == 9
    WilsonObservable([loop], box, offset)  # fits


def _reference_measure(parts, cfg):
    """W per chain of one subject, bond by bond: the fold `measure` batches."""
    vals = np.ones(cfg.n_chains, dtype=complex)
    for idx in parts:
        if not idx:
            continue
        if cfg.is_u1:
            tot = np.zeros(cfg.n_chains)
            for orient, bx, by, sgn in idx:
                tot = tot + sgn * cfg.links[orient][:, bx, by]
            vals = vals * np.exp(1j * tot)
        else:
            hol = None
            for orient, bx, by, sgn in idx:
                u = cfg.links[orient][:, bx, by]
                u = u if sgn > 0 else inverse(u)
                hol = u if hol is None else hol @ u
            vals = vals * np.trace(hol, axis1=-2, axis2=-1) / cfg.spec.n
    return vals


def _rectangle(x, y, w, h, ccw):
    moves = "R" * w + "U" * h + "L" * w + "D" * h
    if not ccw:
        moves = "U" * h + "R" * w + "D" * h + "L" * w
    return make_loop_from_moves((x, y), moves)


@st.composite
def _rectangles(draw, width, height):
    w, h = draw(st.integers(1, width)), draw(st.integers(1, height))
    return _rectangle(draw(st.integers(0, width - w)), draw(st.integers(0, height - h)),
                      w, h, draw(st.booleans()))


@settings(max_examples=40, deadline=None)
@given(data=st.data(), spec=st.sampled_from((U1, GroupSpec("U", 2), SU2, SO3,
                                             GroupSpec("SU", 3))),
       width=st.integers(1, 4), height=st.integers(1, 4),
       chains=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_batched_measure_matches_bond_by_bond_fold(data, spec, width, height,
                                                   chains, seed):
    # rectangle boundaries, two-loop strings and TRIVIAL_LOOP, on hot links
    rect = _rectangles(width, height)
    subject = st.one_of(rect, st.just(TRIVIAL_LOOP),
                        st.builds(lambda a, b: LoopString([a, b]), rect,
                                  st.one_of(rect, st.just(TRIVIAL_LOOP))))
    subjects = data.draw(st.lists(subject, min_size=1, max_size=5))
    box = LatticeBox(width, height)
    cfg = init_config(box, ActionParams(spec, 0.7), "hot",
                      np.random.default_rng(seed), chains=chains)
    obs = WilsonObservable(subjects, box)
    values = obs.measure(cfg)
    assert values.shape == (len(subjects), chains)
    k = 0
    for subject, value in zip(subjects, values):
        n_loops = len(as_string(subject))
        ref = _reference_measure(obs.parts[k:k + n_loops], cfg)
        k += n_loops
        if spec in (U1, GroupSpec("U", 2), GroupSpec("SU", 3)):
            assert np.array_equal(value.view(np.float64), ref.view(np.float64))
        else:
            assert np.max(np.abs(value - ref)) <= 1e-13
        if all(not loop.word for loop in as_string(subject)):
            assert np.all(value == 1.0)
    assert k == len(obs.parts)
    # one subject outside the box anywhere in the list
    outside = _rectangle(width, 0, 1, 1, True)
    at = data.draw(st.integers(0, len(subjects)))
    with pytest.raises(SamplerError):
        WilsonObservable(subjects[:at] + [outside] + subjects[at:], box)


@pytest.mark.parametrize("draw", [run_chain, sample_iid], ids=lambda f: f.__name__)
def test_one_measure_call_per_row(monkeypatch, draw):
    # every subject of a stream is measured by one call per measurement row,
    # and `parts` holds every bond of every subject once
    calls = []
    measure = WilsonObservable.measure

    def counted(self, cfg):
        calls.append(self)
        return measure(self, cfg)

    monkeypatch.setattr(WilsonObservable, "measure", counted)
    subjects = [plaquette_loop((0, 0)), make_loop_from_moves((0, 0), "RRULLD"),
                LoopString([plaquette_loop((1, 0)), plaquette_loop((0, 1))]),
                TRIVIAL_LOOP]
    sched = MCSchedule(sweeps=10, burn_in=4, thin=2, chains=3, seed=8)
    samples, _ = draw(ActionParams(SU2, 0.7), subjects, sched, margin=1)
    assert samples.shape == (5, 4, 3)
    assert len(calls) == 5 and len(set(map(id, calls))) == 1
    words = sum(len(loop.word) for s in subjects for loop in as_string(s))
    assert sum(len(idx) for idx in calls[0].parts) == words == 18


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


def _scalar_tau_int(x):
    # the one-series Sokal window, lag by lag: the reference for the batched one
    x = np.asarray(x, dtype=float)
    n = len(x)
    if n < 8:
        return 1.0
    x = x - x.mean()
    var = float(np.mean(x * x))
    if var <= 0:
        return 1.0
    tau = 1.0
    for lag in range(1, n // 4):
        rho = float(np.mean(x[:-lag] * x[lag:])) / var
        if rho < 0.05:
            break
        tau += 2.0 * rho
        if lag > 6.0 * tau:
            break
    return tau


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(0, 300), st.sampled_from([0.0, 0.5, 0.95, 0.999]),
       st.integers(0, 2**32 - 1))
def test_batched_tau_int_matches_scalar_loop(chains, n, rho, seed):
    # one lag loop over all chains gives each chain's scalar tau_int bit for
    # bit: AR(1) series from white to strongly autocorrelated, a constant
    # chain, and series shorter than the window's minimum of 8
    rng = np.random.default_rng(seed)
    x = np.zeros((n, chains))
    for i in range(1, n):
        x[i] = rho * x[i - 1] + rng.normal(size=chains)
    if chains > 1:
        x[:, 0] = 0.25  # no variance
    want = [_scalar_tau_int(x[:, c]) for c in range(chains)]
    assert integrated_autocorrelation(x.T).tolist() == want
    assert [integrated_autocorrelation(x[:, c]) for c in range(chains)] == want
    if n > 1:
        assert make_estimate(x).tau_int == float(np.mean(want))


def test_estimate_of_iid_series():
    rng = np.random.default_rng(16)
    x = rng.normal(size=(2048, 4))
    est = make_estimate(x)
    assert abs(est.mean) < 4.0 / np.sqrt(x.size)
    assert 0.5 < est.sigma / est.sigma_naive < 2.0


def test_run_chain_meta_reports_acceptance_and_sweeps():
    sched = MCSchedule(sweeps=12, burn_in=40, thin=3, chains=2, seed=3)
    _, meta = run_chain(ActionParams(SU2, 0.7), [plaquette_loop((0, 0))], sched,
                        margin=1)
    assert 0.0 < meta["acceptance_burn_in"] < 1.0
    assert 0.0 < meta["acceptance_measure"] < 1.0
    assert meta["sweeps"] == 52
    assert meta["reunitarize_drift"] is None
    _, meta = run_chain(ActionParams(U1, 0.7), [plaquette_loop((0, 0))], sched,
                        margin=1)
    assert meta["algorithm"] == "heatbath"
    assert meta["proposal_scale"] is None
    assert meta["acceptance_burn_in"] is None and meta["acceptance_measure"] is None



def test_reunitarize_reports_small_drift():
    # one projection after 2500 measured sweeps; it removes only roundoff
    sched = MCSchedule(sweeps=2500, burn_in=0, thin=2500, chains=2, seed=4)
    _, meta = run_chain(ActionParams(SU2, 0.7), [plaquette_loop((0, 0))], sched,
                        margin=0)
    assert meta["box"] == LatticeBox(1, 1)
    assert meta["reunitarize_drift"] is not None
    assert 0.0 <= meta["reunitarize_drift"] <= 1e-12


# ---------------------------------------------------------------------------
# exact i.i.d. draws


@pytest.mark.parametrize("spec", IID_GROUPS, ids=str)
def test_iid_plaquette_and_rectangle_match_char_coefficient(spec):
    # plaquettes are i.i.d., so a loop enclosing T plaquettes has E W = a^T
    params = ActionParams(spec, 0.7)
    a = char_coefficient(standard_label(spec), params)
    subjects = [plaquette_loop((0, 0)), make_loop_from_moves((0, 0), "RRULLD")]
    sched = MCSchedule(sweeps=400, thin=1, chains=16, seed=9)
    samples, _ = sample_iid(params, subjects, sched, margin=1)
    for i, target in enumerate((a, a * a)):
        assert compatible(make_estimate(samples[:, i, :]), target, 3.0)


@settings(max_examples=30, deadline=None)
@given(spec=st.sampled_from(IID_GROUPS), eps=st.sampled_from((0.3, 0.5, 1.0, 2.0)),
       u=st.floats(0.0, 1.0, exclude_max=True))
def test_class_angle_cdf_within_stated_bound(spec, eps, u):
    # the drawn angle theta(u) has exact CDF u up to the stated bound; the
    # exact CDF here is an adaptive quadrature of the same density
    from scipy.integrate import quad
    from loopfield.action import weyl_weight
    params = ActionParams(spec, eps)

    def dens(t):
        return float(weyl_weight(spec, (np.array([t]),))[0]
                     * unnormalized_weight(params, (np.array([t]),))[0])

    theta = float(class_angles(params, np.array([u]))[0])
    assert 0.0 <= theta < 2 * np.pi
    opts = {"epsabs": 1e-14, "epsrel": 1e-13, "limit": 500}
    total = quad(dens, 0.0, np.pi, **opts)[0] + quad(dens, np.pi, 2 * np.pi, **opts)[0]
    assert abs(quad(dens, 0.0, theta, **opts)[0] / total - u) <= CLASS_CDF_BOUND


@settings(max_examples=20, deadline=None)
@given(spec=st.sampled_from(IID_GROUPS), width=st.integers(1, 4),
       height=st.integers(1, 3), chains=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
def test_axial_draw_links_and_plaquettes(spec, width, height, chains, seed):
    # links lie in the group; horizontal and column-0 vertical links are the
    # identity; each plaquette has the class angle drawn for it
    box = LatticeBox(width, height)
    params = ActionParams(spec, 0.7)
    cfg = _axial_draw(box, params, np.random.default_rng(seed), chains)
    theta = class_angles(params, np.random.default_rng(seed).random((chains, width, height)))
    qp = plaquette_product(cfg)
    if spec == U1:
        assert np.all(cfg.links[0] == 0.0) and np.all(cfg.links[1][:, 0] == 0.0)
        assert np.max(np.abs(np.exp(1j * qp) - np.exp(1j * theta))) < 1e-12
        return
    eye = np.eye(spec.n)
    assert np.all(cfg.links[0] == eye) and np.all(cfg.links[1][:, 0] == eye)
    for arr in cfg.links:
        assert is_in_group(arr, spec, tol=1e-12)
    tr = np.trace(qp, axis1=-2, axis2=-1).real
    expected = 2 * np.cos(theta) if spec == SU2 else 1 + 2 * np.cos(theta)
    assert np.max(np.abs(tr - expected)) < 1e-12


def test_sample_iid_contract():
    params = ActionParams(SU2, 0.7)
    subjects = [plaquette_loop((0, 0)), make_loop_from_moves((1, 0), "RRULLD")]
    sched = MCSchedule(sweeps=7, burn_in=3, thin=2, chains=5, seed=12)
    s1, meta = sample_iid(params, subjects, sched, margin=2)
    s2, _ = sample_iid(params, subjects, sched, margin=2)
    assert s1.shape == (3, 2, 5) and np.iscomplexobj(s1)
    assert np.array_equal(s1, s2)
    assert not np.array_equal(s1, sample_iid(params, subjects,
                                             MCSchedule(7, 3, 2, 5, 13), margin=2)[0])
    box, offset = box_for_subjects(subjects, margin=2)
    assert meta.pop("sample_s") > 0.0 and meta.pop("measure_s") > 0.0
    assert meta == {"box": box, "offset": offset, "proposal_scale": None,
                    "algorithm": "iid-axial", "acceptance_burn_in": None,
                    "acceptance_measure": None, "sweeps": 0,
                    "reunitarize_drift": None}
    with pytest.raises(SamplerError):
        sample_iid(ActionParams(GroupSpec("U", 2), 0.7), subjects, sched)


def test_iid_matches_metropolis_on_so3_figure_eight():
    # the chain and the exact draws estimate the same crossing loop
    from loopfield.driver import make_figure_eight
    params = ActionParams(SO3, 0.5)
    loop = make_figure_eight(1.0, 1.0, 0.5).subject
    sched = MCSchedule(sweeps=1200, burn_in=200, thin=2, chains=8, seed=21)
    chain = make_estimate(run_chain(params, [loop], sched, margin=1)[0][:, 0, :])
    iid = make_estimate(sample_iid(params, [loop], sched, margin=1)[0][:, 0, :])
    assert abs(chain.mean - iid.mean) <= 3.0 * np.hypot(chain.sigma, iid.sigma)
