"""Monte-Carlo sampling of the lattice Yang-Mills measure on a finite box.

Configurations live on the positively oriented bonds of a W x H box of
plaquettes (free boundary); the weight is

    exp( - (beta_g N / 2 eps^2) * sum_p Re Tr(I - Q_p) ).

Each group has one Markov kernel.  U(1) chains use the exact heat bath
(von Mises conditional), `sweep_heatbath_u1`; the matrix groups use
`sweep_metropolis`, a vectorized Metropolis sweep over four independent
sublattices (orientation x bond-row parity), with proposals Q -> exp(dA) Q
whose width starts at PROPOSAL_SCALE and is tuned toward 50% acceptance
during burn-in.  Each sweep raises SamplerError for the other groups.
Both updates compute staples per sublattice: each sublattice is a strided
view of its link array, and its staples multiply strided views of the
neighbouring links, so no staple is built for a bond the update leaves
alone.  The view keeps row-major bond order, so the random streams are
unchanged from a full-field update that selects one parity by a mask.
Chains are carried as a leading batch axis; one master seed drives them all.
The group operations (Haar draws for the hot start, the exponential map,
the adjoint and the polar projection in `reunitarize`) are the batched ones
in `loopfield.groups`, applied to whole link arrays at once.

The views are built once per configuration, not once per sweep: a
`_SweepPlan`, cached on the configuration at its first sweep and rebuilt
when `cfg.links` no longer holds the arrays it views, holds for each of the
four steps the view of the links it writes, its staple accumulator and the
side views of the two staple terms, so the plaquette geometry exists once
and small boxes do not pay for slicing on every sweep.  The views are over
the arrays each kernel multiplies: U(1) takes the phases e^{i theta} into a
buffer the plan owns, once per sweep, and refreshes them only on the
sublattice each update writes; SO(3) multiplies its link matrices with `@`.
SU(2) links are stored as 2x2 matrices, but the plan views their
Cayley-Klein planes a = U[..., 0, 0] and b = U[..., 0, 1], and the SU(2)
sweep uses the pair operations of `loopfield.groups`, since a 2x2 `@` on a
stack costs one BLAS call per link and a pair costs a few elementwise
complex operations per stack; it weighs proposals by
Re Tr(U K) = 2 Re(a alpha - b beta*) and writes accepted links back as
matrices.  The draws and the accept/reject decisions are those of the
matrix arithmetic; only the rounding of the SU(2) links differs.

Wilson loops and strings are measured on a thinned schedule after burn-in;
estimates carry naive and blocked standard errors plus an integrated
autocorrelation time.  One `WilsonObservable` holds every subject of a
stream and measures them all in one call per measurement row: it gathers
only the links the subjects use (inverting those a loop runs backwards)
and folds hol = hol U_j over the bond positions of all loops at once, in
the bond order of each loop.  U(1) sums the signed angles in that order and
U(2) and SU(3) multiply matrices, with the bits of one loop at a time; SU(2)
multiplies Cayley-Klein pairs and takes Tr = 2 Re a, so its values
may differ from a loop-at-a-time matrix product by rounding, as SO(3)'s
stacked real products may.

`sample_iid` draws the same measure exactly, with no chain.  On a box with a
free boundary the plaquette holonomies are independent, each with density
S^eps (Driver 1989, Commun. Math. Phys. 123), so in the axial gauge (every
horizontal link and every column-0 vertical link the identity) a
configuration is W batched products of i.i.d. plaquettes.  It serves U(1),
SU(2) and SO(3), whose classes carry one angle; each measurement row is
`chains` independent configurations, so it has no burn-in and no
autocorrelation, and `[mc]` there means `sweeps // thin` draws per chain.
The chains above stay as the oracle it is checked against.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass

import numpy as np

from loopfield.groups import (GroupSpec, adjoint_deviation, exp_coords,
                              haar_sample, inverse, project_to_group, su2_exp_pair,
                              su2_pair, su2_pair_inverse, su2_pair_matrix,
                              su2_pair_multiply, su2_pair_trace)
from loopfield.action import (ActionParams, QuadratureError, action_exponent_scale,
                              unnormalized_weight, weyl_weight)
from loopfield.loops import as_string, bond_edge, bond_start, bond_end


PROPOSAL_SCALE = 0.6  # initial Metropolis step width in Lie-algebra coordinates
U1, SU2, SO3 = GroupSpec("U", 1), GroupSpec("SU", 2), GroupSpec("SO", 3)
# the groups sample_iid draws: their conjugacy classes carry one angle
IID_GROUPS = (U1, SU2, SO3)
CLASS_CDF_BOUND = 1e-9  # sup-norm error of the class-angle CDF sample_iid draws from


class SamplerError(ValueError):
    pass


@dataclass(frozen=True)
class LatticeBox:
    """A width x height box of plaquettes; vertices (width+1) x (height+1)."""

    width: int
    height: int

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise SamplerError("box must contain at least one plaquette")

    @property
    def n_bonds(self):
        return self.width * (self.height + 1) + (self.width + 1) * self.height

    @property
    def n_plaquettes(self):
        return self.width * self.height


@dataclass
class MCSchedule:
    sweeps: int = 2000
    burn_in: int = 500
    thin: int = 5
    chains: int = 8
    seed: int = 12345


@dataclass
class Estimate:
    mean: float
    sigma: float
    sigma_naive: float
    n_samples: int
    tau_int: float

    def compatible_with(self, value: float, n_sigma: float = 3.0) -> bool:
        return abs(self.mean - value) <= n_sigma * max(self.sigma, 1e-300)


class LatticeConfiguration:
    """Link variables on a box, batched over chains.

    links[0]: horizontal bonds, shape (chains, W, H+1[, N, N])
    links[1]: vertical bonds,   shape (chains, W+1, H[, N, N])
    U(1) stores bare angles; matrix groups store the matrices.  The sweeps
    cache their plan of views on the configuration (`_sweep_plan`); a copy
    starts without one.
    """

    def __init__(self, box: LatticeBox, params: ActionParams, links):
        self.box = box
        self.params = params
        self.links = links
        self._plan = None  # the sweep plan, built at the first sweep

    @property
    def spec(self) -> GroupSpec:
        return self.params.spec

    @property
    def n_chains(self) -> int:
        return self.links[0].shape[0]

    @property
    def is_u1(self) -> bool:
        return self.spec == U1

    def copy(self):
        return LatticeConfiguration(self.box, self.params,
                                    [self.links[0].copy(), self.links[1].copy()])


def init_config(box: LatticeBox, params: ActionParams, mode: str,
                rng: np.random.Generator, chains: int = 1) -> LatticeConfiguration:
    spec = params.spec
    n = spec.n
    h_shape = (chains, box.width, box.height + 1)
    v_shape = (chains, box.width + 1, box.height)
    if spec == U1:
        if mode == "cold":
            links = [np.zeros(h_shape), np.zeros(v_shape)]
        elif mode == "hot":
            links = [rng.uniform(-np.pi, np.pi, h_shape),
                     rng.uniform(-np.pi, np.pi, v_shape)]
        else:
            raise SamplerError(f"unknown init mode {mode!r}")
        return LatticeConfiguration(box, params, links)
    if mode == "hot":
        links = [haar_sample(spec, rng, h_shape), haar_sample(spec, rng, v_shape)]
    elif mode == "cold":
        eye = np.eye(n, dtype=spec.dtype)
        links = [np.broadcast_to(eye, h_shape + (n, n)).copy(),
                 np.broadcast_to(eye, v_shape + (n, n)).copy()]
    else:
        raise SamplerError(f"unknown init mode {mode!r}")
    return LatticeConfiguration(box, params, links)


# ---------------------------------------------------------------------------
# action bookkeeping


def plaquette_product(cfg: LatticeConfiguration):
    """Holonomies around every plaquette, lower-left convention, ccw."""
    u0, u1 = cfg.links
    w, h = cfg.box.width, cfg.box.height
    if cfg.is_u1:
        return (u0[:, :, :h] + u1[:, 1:, :] - u0[:, :, 1:] - u1[:, :w, :])
    a = u0[:, :, :h]
    b = u1[:, 1:, :]
    c = inverse(u0[:, :, 1:])
    d = inverse(u1[:, :w, :])
    return a @ b @ c @ d


def total_action(cfg: LatticeConfiguration):
    """Exponent sum (beta_g N / 2 eps^2) sum_p Re Tr(I - Q_p), per chain."""
    scale = action_exponent_scale(cfg.params)
    n = cfg.spec.n
    qp = plaquette_product(cfg)
    if cfg.is_u1:
        retr = 1.0 - np.cos(qp)
    else:
        retr = n - np.trace(qp, axis1=-2, axis2=-1).real
    return scale * retr.sum(axis=(1, 2))


# ---------------------------------------------------------------------------
# staples and sweeps


def _sublattice(orient, parity):
    """Strided index of one sublattice of an orientation's links (or plaquettes).

    Horizontal bonds in rows y = parity, parity+2, ... (vertical bonds in
    columns x = parity, parity+2, ...) share no plaquette.  The view lists
    them in the row-major order of the full array.
    """
    step = slice(parity, None, 2)
    return (slice(None), slice(None), step) if orient == 0 else (slice(None), step)


def _take(field, index):
    """field[index] of an array, or of each plane of an SU(2) pair."""
    return tuple(c[index] for c in field) if isinstance(field, tuple) else field[index]


@dataclass
class _SweepStep:
    """One (orientation, parity) step of a sweep: the strided view of the
    links it writes, the same bonds over the kernel's arrays, the staple
    accumulator `k`, and its two terms (the sides a, b, c, d of the
    plaquettes each term runs over, and the slice of `k` it adds into)."""

    orient: int
    links: np.ndarray
    bonds: object
    k: object
    terms: tuple


class _SweepPlan:
    """The sweep geometry of one configuration, built once and reused.

    Its views are over the arrays the kernel multiplies: for U(1) the phase
    buffers e^{i theta} that the plan owns (`phases`, empty for the other
    groups), for SU(2) the pairs (a, b) of the stored matrices
    (`su2_pair`), for SO(3) the matrices themselves; `mul` and `inv` are
    that kernel's product and inverse.  `links` holds the link arrays the
    views are over, so a configuration whose links were rebound gets a new
    plan (`_sweep_plan`).
    """

    def __init__(self, cfg: LatticeConfiguration):
        self.links = tuple(cfg.links)
        self.phases = []
        if cfg.is_u1:
            self.phases = [np.empty(u.shape, dtype=complex) for u in cfg.links]
            fields, self.mul, self.inv = self.phases, np.multiply, np.conj
        elif cfg.spec == SU2:
            fields = [su2_pair(u) for u in cfg.links]
            self.mul, self.inv = su2_pair_multiply, su2_pair_inverse
        else:
            fields, self.mul, self.inv = list(cfg.links), np.matmul, inverse
        self.steps = [self._step(fields, orient, parity)
                      for orient in (0, 1) for parity in (0, 1)]

    def _step(self, fields, orient, parity):
        """Sublattice `parity` bonds border the plaquettes of start `parity`
        (the leading bonds of the sublattice, one each) and of start
        1 - parity (every bond from sublattice index 1 - parity on, one
        each); plaquettes of start s lie in rows (orient 0) or columns
        (orient 1) s, s+2, ..."""
        u0, u1 = fields
        w, h = self.links[0].shape[1], self.links[1].shape[2]
        sub = _sublattice(orient, parity)
        bonds = _take(fields[orient], sub)
        k = (tuple(np.zeros(c.shape, dtype=complex) for c in bonds)
             if isinstance(bonds, tuple) else np.zeros(bonds.shape, dtype=bonds.dtype))

        def sides(start):  # bottom, right, top, left: Qp = a b c^-1 d^-1
            s = _sublattice(orient, start)
            return (_take(_take(u0, np.s_[:, :, :h]), s), _take(_take(u1, np.s_[:, 1:]), s),
                    _take(_take(u0, np.s_[:, :, 1:]), s), _take(_take(u1, np.s_[:, :w]), s))

        # the own-start term covers the first len(range(parity, h or w, 2)) bonds
        if orient == 0:
            terms = ((sides(parity), _take(k, np.s_[:, :, :len(range(parity, h, 2))])),
                     (sides(1 - parity), _take(k, np.s_[:, :, 1 - parity:])))
        else:
            terms = ((sides(1 - parity), _take(k, np.s_[:, 1 - parity:])),
                     (sides(parity), _take(k, np.s_[:, :len(range(parity, w, 2))])))
        return _SweepStep(orient, self.links[orient][sub], bonds, k, terms)

    def staples(self, step: _SweepStep):
        """Staples K of one step's bonds: Re Tr(U K) sums the plaquette
        traces a bond's update changes.  U(1) gets complex staples,
        Re(e^{i theta} K) for a link; SU(2) gets the pairs of its staples,
        since a sum of SU(2) matrices keeps the Cayley-Klein form."""
        mul, inv = self.mul, self.inv
        for plane in (step.k if isinstance(step.k, tuple) else (step.k,)):
            plane.fill(0.0)
        (a, b, c, d), dest = step.terms[0]
        if step.orient == 0:
            # Qp(x, y) = U0[x,y] U1[x+1,y] U0[x,y+1]^* U1[x,y]^*  (bond first)
            _add_into(dest, mul(mul(b, inv(c)), inv(d)))
        else:
            # Qp(x, y) = U0[x,y] U1[x+1,y] U0[x,y+1]^* U1[x,y]^*: vertical bond
            # (x+1, y) enters as U1[x+1,y]: Tr = Tr(U1[x+1,y] B),
            # B = U0[x,y+1]^* U1[x,y]^* U0[x,y]
            _add_into(dest, mul(mul(inv(c), inv(d)), a))
        (a, b, c, d), dest = step.terms[1]
        if step.orient == 0:
            # Qp(x, y-1) = U0[x,y-1] U1[x+1,y-1] U0[x,y]^* U1[x,y-1]^*; cyclic so
            # Tr = Tr(U0[x,y]^* A) with A = U1[x,y-1]^* U0[x,y-1] U1[x+1,y-1];
            # Re Tr(U0^* A) = Re Tr(U0 A^*), so the staple adds A^*.
            _add_into(dest, inv(mul(mul(inv(d), a), b)))
        else:
            # and as U1[x,y]^*: Tr = Tr(U1[x,y]^* C), C = U0[x,y] U1[x+1,y] U0[x,y+1]^*
            _add_into(dest, inv(mul(mul(a, b), inv(c))))
        return step.k


def _add_into(dest, term):
    """dest += term, for arrays or for the planes of SU(2) pairs."""
    for d, t in (zip(dest, term) if isinstance(dest, tuple) else ((dest, term),)):
        d += t


def _sweep_plan(cfg: LatticeConfiguration) -> _SweepPlan:
    """The sweep plan of cfg, built at its first sweep and rebuilt when
    `cfg.links` no longer holds the arrays it views; U(1) phases are
    refreshed from the links on every call."""
    plan = cfg._plan
    if plan is None or plan.links[0] is not cfg.links[0] or plan.links[1] is not cfg.links[1]:
        plan = cfg._plan = _SweepPlan(cfg)
    for z, u in zip(plan.phases, cfg.links):
        np.exp(1j * u, out=z)
    return plan


def sweep_metropolis(cfg: LatticeConfiguration, rng: np.random.Generator,
                     proposal_scale: float):
    """One Metropolis sweep over all bonds (4 independent sublattices) of a
    matrix group; U(1) chains use `sweep_heatbath_u1`.

    Returns the acceptance rate.  Horizontal bonds of equal y-parity (and
    vertical of equal x-parity) share no plaquette, so each sublattice
    updates in parallel while keeping detailed balance.  Each sublattice is
    read, given its staples and written back through the strided views of
    the configuration's sweep plan, so no staple is built for a bond the
    update leaves alone; the bonds come in row-major order, which fixes the
    order of the random draws: the proposal coordinates of a sublattice,
    then its accept/reject uniforms.  SU(2) works on pairs (a, b) and writes
    accepted links as [[a, b], [-b*, a*]]; rejected links keep their stored
    matrix.
    """
    spec = cfg.spec
    if cfg.is_u1:
        raise SamplerError("U(1) chains use the heat bath, sweep_heatbath_u1")
    scale = action_exponent_scale(cfg.params)
    plan = _sweep_plan(cfg)
    su2 = spec == SU2
    accepted = 0
    total = 0
    for step in plan.steps:
        u = step.bonds
        coords = rng.normal(0.0, proposal_scale, step.links.shape[:-2] + (spec.dim_lie,))
        k = plan.staples(step)
        if su2:
            prop = su2_pair_multiply(su2_exp_pair(coords), u)
            logw = scale * (su2_pair_trace(prop, k) - su2_pair_trace(u, k))
            prop = su2_pair_matrix(prop)
        else:
            prop = exp_coords(spec, coords) @ u
            tr_old = np.einsum("...ij,...ji->...", u, k).real
            tr_new = np.einsum("...ij,...ji->...", prop, k).real
            logw = scale * (tr_new - tr_old)
        acc = np.log(rng.uniform(size=logw.shape)) < logw
        np.copyto(step.links, prop, where=acc[..., None, None])
        accepted += int(acc.sum())
        total += acc.size
    return accepted / max(total, 1)


def reunitarize(cfg: LatticeConfiguration) -> float:
    """Polar-project every link back onto the group (drift control), and
    return the largest |U U^* - I| that the projection removed.

    Long Metropolis chains accumulate roundoff in the link matrices; this
    is applied periodically (every few thousand sweeps) inside run_chain.
    U(1) angles cannot leave the group, so there it does nothing and
    returns 0.
    """
    drift = 0.0
    if cfg.is_u1:
        return drift
    for arr in cfg.links:
        drift = max(drift, adjoint_deviation(arr))
        arr[...] = project_to_group(arr, cfg.spec)
    return drift


def sweep_heatbath_u1(cfg: LatticeConfiguration, rng: np.random.Generator):
    """Exact conditional resampling for U(1): von Mises per bond.

    The staples come from the sweep plan's phases e^{i theta}, multiplied
    by `np.multiply` and inverted by `np.conj`; a bond's local weight is
    exp(scale Re(e^{i theta} K)), so theta ~ von Mises(-arg K, scale |K|).
    """
    if not cfg.is_u1:
        raise SamplerError("heat bath implemented for U(1) only")
    scale = action_exponent_scale(cfg.params)
    plan = _sweep_plan(cfg)
    for step in plan.steps:
        k = plan.staples(step)
        theta = rng.vonmises(-np.angle(k), scale * np.abs(k))
        step.links[...] = theta
        np.exp(1j * theta, out=step.bonds)
    return cfg


# ---------------------------------------------------------------------------
# observables


class WilsonObservable:
    """The loops and strings of one stream, with their bonds compiled to one table.

    `parts` lists the bonds `(orient, bx, by, sign)` of every loop, subject
    by subject.  The table numbers the distinct (direction, bond) pairs the
    subjects use, forward ones first, then reversed ones, then one identity
    slot, and holds each non-empty loop as a row of those numbers, padded
    with the identity slot to the longest loop.  A subject with fewer
    non-empty loops than the most (a loop beside strings, an empty loop,
    TRIVIAL_LOOP) gets identity rows that `measure` skips, so they
    contribute exactly 1.
    """

    def __init__(self, subjects, box: LatticeBox, offset=(0, 0)):
        self.box = box
        self.parts = []
        ox, oy = offset
        per_subject = []  # the non-empty loops of each subject
        for subject in subjects:
            loops = []
            for loop in as_string(subject):
                idx = [(orient, x + ox, y + oy, 1 if forward else -1)
                       for orient, x, y, forward in map(bond_edge, loop.word)]
                for orient, bx, by, _ in idx:
                    lim = (box.width, box.height + 1) if orient == 0 else (box.width + 1, box.height)
                    if not (0 <= bx < lim[0] and 0 <= by < lim[1]):
                        raise SamplerError("loop exits the box; enlarge it or shift the offset")
                self.parts.append(idx)
                if idx:
                    loops.append([(sgn < 0, o, bx, by) for o, bx, by, sgn in idx])
            per_subject.append(loops)
        used = sorted({key for loops in per_subject for loop in loops for key in loop})
        slot = {key: i for i, key in enumerate(used)}
        rev, orient, xs, ys = np.array(used, dtype=np.intp).reshape(-1, 4).T
        # per direction (forward, reversed), the x and y arrays of each orientation
        self._bonds = [[(o, xs[(rev == r) & (orient == o)], ys[(rev == r) & (orient == o)])
                        for o in (0, 1)] for r in (0, 1)]
        n_loops = max(map(len, per_subject), default=0) or 1
        length = max((len(loop) for loops in per_subject for loop in loops), default=1)
        table = np.full((len(per_subject), n_loops, length), len(used))
        self._real = np.zeros((len(per_subject), n_loops), dtype=bool)
        for s, loops in enumerate(per_subject):
            for k, loop in enumerate(loops):
                table[s, k, :len(loop)] = [slot[key] for key in loop]
                self._real[s, k] = True
        self._table = table.reshape(-1, length)

    def measure(self, cfg: LatticeConfiguration) -> np.ndarray:
        """W of every subject per chain (complex), shape (n_subjects, n_chains).

        Gathers the links the subjects use, inverted where a loop runs a bond
        backwards, and folds hol = hol U_j over the bond positions for all
        loops at once: U(1) sums signed angles, SU(2) multiplies pairs
        (a, b) and takes the trace 2 Re a, the other groups multiply
        matrices.  Each subject's value is the product of its loops' Tr / n,
        in loop order.
        """
        spec, chains, n = cfg.spec, cfg.n_chains, cfg.spec.n
        forward, backward = (np.concatenate([cfg.links[o][:, bx, by] for o, bx, by in bonds],
                                            axis=1) for bonds in self._bonds)
        if cfg.is_u1:
            inv, mul, one = np.negative, np.add, np.zeros((chains, 1))
        elif spec == SU2:
            forward, backward = su2_pair(forward), su2_pair(backward)
            inv, mul = su2_pair_inverse, su2_pair_multiply
            one = (np.ones((chains, 1), dtype=complex), np.zeros((chains, 1), dtype=complex))
        else:
            inv, mul = inverse, np.matmul
            one = np.broadcast_to(np.eye(n, dtype=spec.dtype), (chains, 1, n, n))
        parts = (forward, inv(backward), one)
        links = (tuple(np.concatenate(planes, axis=1) for planes in zip(*parts))
                 if spec == SU2 else np.concatenate(parts, axis=1))
        hol = _take(links, np.s_[:, self._table[:, 0]])
        for j in range(1, self._table.shape[1]):
            hol = mul(hol, _take(links, np.s_[:, self._table[:, j]]))
        if cfg.is_u1:
            tr = np.exp(1j * hol)
        elif spec == SU2:
            tr = 2.0 * hol[0].real
        else:
            tr = np.trace(hol, axis1=-2, axis2=-1)
        tr = tr.reshape((chains,) + self._real.shape).transpose(1, 2, 0)
        vals = np.ones((len(self._real), chains), dtype=complex)
        for k in range(self._real.shape[1]):
            vals = np.where(self._real[:, k, None], vals * tr[:, k] / n, vals)
        return vals


def box_for_subjects(subjects, margin: int = 4):
    """Smallest box holding every subject with the given bond margin."""
    xs, ys = [], []
    for s in subjects:
        for loop in as_string(s):
            for b in loop.word:
                for vx, vy in (bond_start(b), bond_end(b)):
                    xs.append(vx)
                    ys.append(vy)
    if not xs:
        return LatticeBox(2 * margin, 2 * margin), (margin, margin)
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    return (LatticeBox(x1 - x0 + 2 * margin, y1 - y0 + 2 * margin),
            (margin - x0, margin - y0))


# ---------------------------------------------------------------------------
# chains and estimates


def run_chain(params: ActionParams, subjects, schedule: MCSchedule,
              margin: int = 4):
    """Sample and measure the subjects; returns (samples, meta).

    The chains start hot on the smallest box that holds every subject with
    `margin` bonds to spare.  samples: complex array (n_meas, n_subjects,
    n_chains), measured every `thin` sweeps after `burn_in`.  U(1) uses the
    heat bath; for the other groups the proposal width is tuned toward 50%
    acceptance during burn-in only.  meta holds the final proposal width,
    the mean Metropolis acceptance over the burn-in and over the measurement
    sweeps (each None for the heat bath, or when there were no such sweeps),
    the number of sweeps, the largest drift `reunitarize` removed (None
    when no projection ran) and the seconds spent sampling (`sample_s`: hot
    start and sweeps) and measuring (`measure_s`).
    """
    box, offset = box_for_subjects(subjects, margin=margin)
    obs = WilsonObservable(subjects, box, offset)
    start, measure_s = time.perf_counter(), 0.0
    rng = np.random.default_rng(schedule.seed)
    cfg = init_config(box, params, "hot", rng, chains=schedule.chains)
    use_hb = cfg.is_u1
    scale = PROPOSAL_SCALE
    acc_hist = []
    for sweep in range(schedule.burn_in):
        if use_hb:
            sweep_heatbath_u1(cfg, rng)
        else:
            acc = sweep_metropolis(cfg, rng, scale)
            acc_hist.append(acc)
            if (sweep + 1) % 20 == 0:
                recent = float(np.mean(acc_hist[-20:]))
                scale *= math.exp(0.8 * (recent - 0.5))
                scale = min(max(scale, 1e-3), 4.0)
    rows = []
    meas_acc = []
    drifts = []
    n_meas = schedule.sweeps // schedule.thin
    sweeps_done = 0
    for _ in range(n_meas):
        for _ in range(schedule.thin):
            if use_hb:
                sweep_heatbath_u1(cfg, rng)
            else:
                meas_acc.append(sweep_metropolis(cfg, rng, scale))
            sweeps_done += 1
            if not use_hb and sweeps_done % 2500 == 0:
                drifts.append(reunitarize(cfg))
        t = time.perf_counter()
        rows.append(obs.measure(cfg))
        measure_s += time.perf_counter() - t
    sample_s = time.perf_counter() - start - measure_s
    samples = np.stack(rows)  # (n_meas, n_subjects, n_chains)
    meta = {"box": box, "offset": offset,
            "proposal_scale": None if use_hb else scale,
            "algorithm": "heatbath" if use_hb else "metropolis",
            "acceptance_burn_in": _mean_or_none(acc_hist),
            "acceptance_measure": _mean_or_none(meas_acc),
            "sweeps": schedule.burn_in + sweeps_done,
            "reunitarize_drift": max(drifts, default=None),
            "sample_s": sample_s, "measure_s": measure_s}
    return samples, meta


def _mean_or_none(values):
    return float(np.mean(values)) if values else None


# ---------------------------------------------------------------------------
# exact i.i.d. draws in axial gauge


@functools.cache
def class_angle_table(params: ActionParams):
    """(F, f): the CDF and the normalized density of a plaquette's class
    angle theta in [0, 2 pi) at the nodes 2 pi j / M, j = 0..M.

    theta has density f = weyl_weight * unnormalized_weight, the torus
    reduction `loopfield.action` integrates.  F at the nodes is the
    antiderivative of f's Fourier series, from one FFT of f on the nodes;
    M doubles from 1024 until the coefficients above M/4 are below 1e-12 of
    the mean, so aliasing moves F by far less than the bound below.
    `class_angles` draws from the CDF G that equals F at the nodes and takes
    f linear inside each cell.  In a cell of width h, interpolating f costs
    at most h^3 max|f''| / 8 and the trapezoid rule's cell mass at most
    h^3 max|f''| / 12, so |G - F| <= (5/24) h^3 max|f''|.  The Fourier
    series bounds max|f''| by the sum of k^2 |c_k| (within 10% of the
    largest |f''| on the nodes for these densities), and M also doubles
    until the bound is at most CLASS_CDF_BOUND = 1e-9; past 2^21 nodes it
    raises QuadratureError.
    """
    m = 1024
    while m <= 1 << 21:
        theta = np.arange(m) * (2.0 * np.pi / m)
        f = weyl_weight(params.spec, (theta,)) * unnormalized_weight(params, (theta,))
        coef = np.fft.rfft(f)
        k = np.arange(coef.size)
        coef[m // 2] = 0.0  # the Nyquist term has no antiderivative on the grid
        norm = m / (2.0 * np.pi * coef[0].real)  # 1 / integral of f
        max_f2 = 2.0 / m * norm * np.sum(k**2 * np.abs(coef))
        resolved = np.max(np.abs(coef[m // 4:])) <= 1e-12 * coef[0].real
        if resolved and (5.0 / 24.0) * (2.0 * np.pi / m) ** 3 * max_f2 <= CLASS_CDF_BOUND:
            break
        m *= 2
    else:
        raise QuadratureError(f"class-angle CDF on {params.spec} did not certify "
                              f"{CLASS_CDF_BOUND:g} with 2^21 nodes")
    anti = np.zeros_like(coef)  # Fourier coefficients of f's periodic antiderivative
    anti[1:] = coef[1:] / (1j * k[1:])
    periodic = np.fft.irfft(anti, n=m) * norm
    cdf = np.append(theta / (2.0 * np.pi) + periodic - periodic[0], 1.0)
    cdf = np.maximum.accumulate(np.clip(cdf, 0.0, 1.0))
    return cdf, np.append(f, f[0]) * norm


def class_angles(params: ActionParams, u):
    """Class angles in [0, 2 pi) of plaquettes drawn from S^eps, one per
    uniform u in [0, 1): the inverse of the CDF of `class_angle_table`,
    which is within CLASS_CDF_BOUND of the exact one."""
    cdf, dens = class_angle_table(params)
    j = np.searchsorted(cdf, u, side="right") - 1
    a, b = dens[j], dens[j + 1]
    c = (u - cdf[j]) / (cdf[j + 1] - cdf[j])
    # the root in [0, 1] of a t + (b - a) t^2 / 2 = c (a + b) / 2
    den = a + np.sqrt((1.0 - c) * a * a + c * b * b)
    t = np.divide(c * (a + b), den, out=c.copy(), where=den > 0)
    theta = (j + t) * (2.0 * np.pi / (cdf.size - 1))
    return np.minimum(theta, np.nextafter(2.0 * np.pi, 0.0))  # rounding can reach 2 pi


def _axial_draw(box: LatticeBox, params: ActionParams, rng, chains: int):
    """`chains` configurations whose plaquettes are i.i.d. with density S^eps.

    Every horizontal link and every column-0 vertical link is the identity,
    so Q_p(x, y) = U1[x+1, y] U1[x, y]^-1 and U1[x+1, y] = Q_p(x, y) U1[x, y].
    Q_p has its class angle from `class_angles` and a uniform axis: SU(2)
    cos(theta) I + i sin(theta) n.sigma, SO(3) the rotation by theta about n
    (Rodrigues), U(1) the bare angle.
    """
    spec = params.spec
    w, h = box.width, box.height
    cfg = init_config(box, params, "cold", rng, chains=chains)
    theta = class_angles(params, rng.random((chains, w, h)))
    u1 = cfg.links[1]
    if spec == U1:
        u1[:, 1:] = np.cumsum(theta, axis=1)
        return cfg
    n = rng.standard_normal(theta.shape + (3,))  # uniform axes: normalized normals
    n /= np.linalg.norm(n, axis=-1, keepdims=True)
    cos, sin = np.cos(theta), np.sin(theta)
    if spec == SU2:
        qa, qb = cos + 1j * sin * n[..., 2], sin * (n[..., 1] + 1j * n[..., 0])
        a, b = np.ones(u1.shape[:3], dtype=complex), np.zeros(u1.shape[:3], dtype=complex)
        for x in range(w):
            a[:, x + 1], b[:, x + 1] = su2_pair_multiply((qa[:, x], qb[:, x]), (a[:, x], b[:, x]))
        u1[:, 1:] = su2_pair_matrix((a[:, 1:], b[:, 1:]))
        return cfg
    nx, ny, nz = n[..., 0], n[..., 1], n[..., 2]
    zero = np.zeros_like(nx)
    cross = np.stack([np.stack([zero, -nz, ny], -1),
                      np.stack([nz, zero, -nx], -1),
                      np.stack([-ny, nx, zero], -1)], -2)
    q = (cos[..., None, None] * np.eye(3) + sin[..., None, None] * cross
         + (1.0 - cos)[..., None, None] * n[..., :, None] * n[..., None, :])
    for x in range(w):
        u1[:, x + 1] = q[:, x] @ u1[:, x]
    return cfg


def sample_iid(params: ActionParams, subjects, schedule: MCSchedule,
               margin: int = 4):
    """`run_chain`'s contract with exact i.i.d. configurations.

    Same box and offset, and samples of shape (n_meas, n_subjects, chains)
    with n_meas = sweeps // thin; each row measures `chains` fresh axial-gauge
    draws, so burn_in plays no part.  meta has run_chain's keys, with
    algorithm "iid-axial", sweeps 0 and None for the proposal scale, both
    acceptances and the drift; `sample_s` times the draws.  Groups:
    IID_GROUPS.
    """
    if params.spec not in IID_GROUPS:
        raise SamplerError(f"no class-angle sampler for {params.spec}")
    box, offset = box_for_subjects(subjects, margin=margin)
    obs = WilsonObservable(subjects, box, offset)
    start, measure_s = time.perf_counter(), 0.0
    rng = np.random.default_rng(schedule.seed)
    rows = []
    for _ in range(schedule.sweeps // schedule.thin):
        cfg = _axial_draw(box, params, rng, schedule.chains)
        t = time.perf_counter()
        rows.append(obs.measure(cfg))
        measure_s += time.perf_counter() - t
    meta = {"box": box, "offset": offset, "proposal_scale": None,
            "algorithm": "iid-axial", "acceptance_burn_in": None,
            "acceptance_measure": None, "sweeps": 0, "reunitarize_drift": None,
            "sample_s": time.perf_counter() - start - measure_s,
            "measure_s": measure_s}
    return np.stack(rows), meta


def integrated_autocorrelation(x: np.ndarray):
    """Sokal-windowed tau_int of each series along the last axis of x.

    A series of length n < 8, or one with no variance, gets 1.  Otherwise
    tau sums 2 rho over lags 1, 2, ... below n // 4, and the window of each
    series closes at the first rho < 0.05 or once lag > 6 tau.  All series
    run in one loop over lags, on a contiguous copy with per-series means,
    and a closed window keeps its tau; a 1-d x gives a scalar.
    """
    x = np.ascontiguousarray(x, dtype=float)
    n = x.shape[-1]
    rows = x.reshape(math.prod(x.shape[:-1]), n)
    tau = np.ones(rows.shape[0])
    if n >= 8:
        rows = rows - rows.mean(axis=1, keepdims=True)
        var = np.mean(rows * rows, axis=1)
        live = var > 0
        var[~live] = 1.0
        for lag in range(1, n // 4):
            if not live.any():
                break
            rho = np.mean(rows[:, :-lag] * rows[:, lag:], axis=1) / var
            live &= ~(rho < 0.05)
            tau = np.where(live, tau + 2.0 * rho, tau)
            live &= ~(lag > 6.0 * tau)
    return tau.reshape(x.shape[:-1])[()]


def make_estimate(samples: np.ndarray, n_blocks: int = 16) -> Estimate:
    """Combine (n_meas, n_chains) real samples into a blocked estimate."""
    samples = np.asarray(samples)
    if np.iscomplexobj(samples):
        samples = samples.real
    n_meas, n_chains = samples.shape
    mean = float(samples.mean())
    flat = samples.T.reshape(-1)
    sigma_naive = float(flat.std(ddof=1) / math.sqrt(flat.size)) if flat.size > 1 else 0.0
    # blocked error: within each chain, average consecutive blocks
    nb = max(2, min(n_blocks, n_meas // 2)) if n_meas >= 4 else 1
    if nb > 1:
        bs = n_meas // nb
        blocks = samples[: nb * bs].reshape(nb, bs, n_chains).mean(axis=1)
        bvals = blocks.T.reshape(-1)
        sigma = float(bvals.std(ddof=1) / math.sqrt(bvals.size))
    else:
        sigma = sigma_naive
    tau = float(np.mean(integrated_autocorrelation(samples.T)))
    return Estimate(mean, sigma, sigma_naive,
                    int(samples.size), tau)


def estimate_wilson(params: ActionParams, subjects, schedule: MCSchedule,
                    margin: int = 4):
    """Thinned, burned-in estimates of E W for each subject."""
    samples, meta = run_chain(params, subjects, schedule, margin=margin)
    ests = [make_estimate(samples[:, i, :]) for i in range(len(subjects))]
    return ests, samples, meta


# ---------------------------------------------------------------------------
# gauge transformations


def gauge_transform(cfg: LatticeConfiguration, g_field) -> LatticeConfiguration:
    """Q_e -> g(u(e)) Q_e g(v(e))^-1 with g a vertex field.

    g_field: array (W+1, H+1) of angles for U(1), or (W+1, H+1, N, N)
    matrices for the matrix groups.
    """
    out = cfg.copy()
    u0, u1 = out.links
    if cfg.is_u1:
        g = np.asarray(g_field)
        u0 += (g[None, : cfg.box.width, :] - g[None, 1:, :])
        u1 += (g[None, :, : cfg.box.height] - g[None, :, 1:])
        return out
    g = np.asarray(g_field)
    ginv = inverse(g)
    out.links[0] = g[None, : cfg.box.width, :] @ u0 @ ginv[None, 1:, :]
    out.links[1] = g[None, :, : cfg.box.height] @ u1 @ ginv[None, :, 1:]
    return out
