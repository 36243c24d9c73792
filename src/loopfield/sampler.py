"""Monte-Carlo sampling of the lattice Yang-Mills measure on a finite box.

Configurations live on the positively oriented bonds of a W x H box of
plaquettes (free boundary); the weight is

    exp( - (beta_g N / 2 eps^2) * sum_p Re Tr(I - Q_p) ).

U(1) has an exact heat-bath (von Mises conditional); all groups have a
vectorized Metropolis sweep over four independent sublattices (orientation
x bond-row parity), with proposals Q -> exp(dA) Q.  Chains are carried as
a leading batch axis; per-chain seeds derive from a master seed.

Wilson loops and strings are measured on a thinned schedule after burn-in;
estimates carry naive and blocked standard errors plus an integrated
autocorrelation time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from loopfield.groups import GroupSpec
from loopfield.action import ActionParams, action_exponent_scale
from loopfield.loops import as_string, bond_start, bond_end


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
    proposal_scale: float = 0.6
    tune: bool = True


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
    U(1) stores bare angles; matrix groups store the matrices.
    """

    def __init__(self, box: LatticeBox, params: ActionParams, links):
        self.box = box
        self.params = params
        self.links = links

    @property
    def spec(self) -> GroupSpec:
        return self.params.spec

    @property
    def n_chains(self) -> int:
        return self.links[0].shape[0]

    @property
    def is_u1(self) -> bool:
        return self.spec == GroupSpec("U", 1)

    def copy(self):
        return LatticeConfiguration(self.box, self.params,
                                    [self.links[0].copy(), self.links[1].copy()])


def init_config(box: LatticeBox, params: ActionParams, mode: str,
                rng: np.random.Generator, chains: int = 1) -> LatticeConfiguration:
    spec = params.spec
    n = spec.n
    h_shape = (chains, box.width, box.height + 1)
    v_shape = (chains, box.width + 1, box.height)
    if spec == GroupSpec("U", 1):
        if mode == "cold":
            links = [np.zeros(h_shape), np.zeros(v_shape)]
        elif mode == "hot":
            links = [rng.uniform(-np.pi, np.pi, h_shape),
                     rng.uniform(-np.pi, np.pi, v_shape)]
        else:
            raise SamplerError(f"unknown init mode {mode!r}")
        return LatticeConfiguration(box, params, links)
    dtype = np.float64 if spec.is_real else np.complex128
    eye = np.eye(n, dtype=dtype)
    links = [np.broadcast_to(eye, h_shape + (n, n)).copy(),
             np.broadcast_to(eye, v_shape + (n, n)).copy()]
    if mode == "hot":
        from loopfield.groups import haar_sample
        for arr in links:
            it = arr.reshape(-1, n, n)
            for i in range(it.shape[0]):
                it[i] = haar_sample(spec, rng)
    elif mode != "cold":
        raise SamplerError(f"unknown init mode {mode!r}")
    return LatticeConfiguration(box, params, links)


# ---------------------------------------------------------------------------
# action bookkeeping


def _adj(m):
    return np.conj(np.swapaxes(m, -1, -2))


def plaquette_product(cfg: LatticeConfiguration):
    """Holonomies around every plaquette, lower-left convention, ccw."""
    u0, u1 = cfg.links
    w, h = cfg.box.width, cfg.box.height
    if cfg.is_u1:
        return (u0[:, :, :h] + u1[:, 1:, :] - u0[:, :, 1:] - u1[:, :w, :])
    a = u0[:, :, :h]
    b = u1[:, 1:, :]
    c = _adj(u0[:, :, 1:])
    d = _adj(u1[:, :w, :])
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


def local_action_delta(cfg: LatticeConfiguration, bond, new_value) -> np.ndarray:
    """Action change from setting one bond, via its <= 2 plaquettes only."""
    orient, x, y = bond
    test = cfg.copy()
    before = _bond_local_retrace(cfg, orient, x, y)
    test.links[orient][:, x, y] = new_value
    after = _bond_local_retrace(test, orient, x, y)
    return action_exponent_scale(cfg.params) * (after - before)


def _bond_local_retrace(cfg, orient, x, y):
    w, h = cfg.box.width, cfg.box.height
    qp = plaquette_product(cfg)
    cells = []
    if orient == 0:
        if y < h:
            cells.append((x, y))
        if y > 0:
            cells.append((x, y - 1))
    else:
        if x < w:
            cells.append((x, y))
        if x > 0:
            cells.append((x - 1, y))
    n = cfg.spec.n
    out = np.zeros(cfg.n_chains)
    for (i, j) in cells:
        if cfg.is_u1:
            out += 1.0 - np.cos(qp[:, i, j])
        else:
            out += n - np.trace(qp[:, i, j], axis1=-2, axis2=-1).real
    return out


# ---------------------------------------------------------------------------
# staples and sweeps


def _staple_u1(cfg, orient):
    """Complex staple K per bond: the local weight is exp(scale * Re(e^{i theta} K)).

    Sums the two adjacent plaquette contributions; the plaquette where the
    bond appears reversed enters through the conjugate product.
    """
    u0, u1 = cfg.links
    w, h = cfg.box.width, cfg.box.height
    z0 = np.exp(1j * u0)
    z1 = np.exp(1j * u1)
    if orient == 0:
        k = np.zeros((cfg.n_chains, w, h + 1), dtype=complex)
        # bond at the bottom of Qp(x, y): theta + (u1[x+1,y] - u0[x,y+1] - u1[x,y])
        k[:, :, :h] += z1[:, 1:, :] * np.conj(z0[:, :, 1:]) * np.conj(z1[:, :w, :])
        # bond at the top of Qp(x, y-1): -theta + (u0[x,y-1] + u1[x+1,y-1] - u1[x,y-1])
        k[:, :, 1:] += np.conj(z0[:, :, :h] * z1[:, 1:, :] * np.conj(z1[:, :w, :]))
        return k
    k = np.zeros((cfg.n_chains, w + 1, h), dtype=complex)
    # bond as the right side of Qp(x-1, y): theta + (u0[x-1,y] - u0[x-1,y+1] - u1[x-1,y])
    k[:, 1:, :] += z0[:, :, :h] * np.conj(z0[:, :, 1:]) * np.conj(z1[:, :w, :])
    # bond as the left side of Qp(x, y): -theta + (u0[x,y] + u1[x+1,y] - u0[x,y+1])
    k[:, :w, :] += np.conj(z0[:, :, :h] * z1[:, 1:, :] * np.conj(z0[:, :, 1:]))
    return k


def _staples_matrix(cfg, orient):
    """Matrix staples such that Re Tr(U K) sums the affected plaquette traces."""
    u0, u1 = cfg.links
    w, h = cfg.box.width, cfg.box.height
    n = cfg.spec.n
    dtype = u0.dtype
    if orient == 0:
        k = np.zeros((cfg.n_chains, w, h + 1, n, n), dtype=dtype)
        # Qp(x, y) = U0[x,y] U1[x+1,y] U0[x,y+1]^* U1[x,y]^*  (bond first)
        k[:, :, :h] += u1[:, 1:, :] @ _adj(u0[:, :, 1:]) @ _adj(u1[:, :w, :])
        # Qp(x, y-1) = U0[x,y-1] U1[x+1,y-1] U0[x,y]^* U1[x,y-1]^*; cyclic so
        # Tr = Tr(U0[x,y]^* A) with A = U1[x,y-1]^* U0[x,y-1] U1[x+1,y-1];
        # Re Tr(U0^* A) = Re Tr(U0 A^*), so the staple adds A^*.
        a = _adj(u1[:, :w, :]) @ u0[:, :, :h] @ u1[:, 1:, :]
        k[:, :, 1:] += _adj(a)
        return k
    k = np.zeros((cfg.n_chains, w + 1, h, n, n), dtype=dtype)
    # Qp(x, y) = U0[x,y] U1[x+1,y] U0[x,y+1]^* U1[x,y]^*: vertical bond (x+1, y)
    # enters as U1[x+1,y]: Tr = Tr(U1[x+1,y] B), B = U0[x,y+1]^* U1[x,y]^* U0[x,y]
    k[:, 1:, :] += _adj(u0[:, :, 1:]) @ _adj(u1[:, :w, :]) @ u0[:, :, :h]
    # and as U1[x,y]^*: Tr = Tr(U1[x,y]^* C), C = U0[x,y] U1[x+1,y] U0[x,y+1]^*
    c = u0[:, :, :h] @ u1[:, 1:, :] @ _adj(u0[:, :, 1:])
    k[:, :w, :] += _adj(c)
    return k


def _exp_lie_batch(spec: GroupSpec, coords):
    """exp of Lie-algebra elements, batched; coords shape (..., dim_lie)."""
    from loopfield.groups import lie_basis
    basis = lie_basis(spec)
    a = np.tensordot(coords, basis, axes=(-1, 0))
    n = spec.n
    if spec == GroupSpec("SU", 2):
        theta = np.sqrt(np.maximum(0.5 * np.einsum("...ij,...ij->...", a, np.conj(a)).real, 1e-300))
        th = theta[..., None, None]
        return np.cos(th) * np.eye(2) + np.divide(np.sin(th), th) * a
    if spec == GroupSpec("SO", 3):
        theta = np.sqrt(np.maximum(0.5 * np.einsum("...ij,...ij->...", a, a), 1e-300))
        th = theta[..., None, None]
        a2 = a @ a
        return (np.eye(3) + np.divide(np.sin(th), th) * a
                + np.divide(1.0 - np.cos(th), th**2) * a2)
    import scipy.linalg
    flat = a.reshape(-1, n, n)
    out = np.stack([scipy.linalg.expm(m) for m in flat])
    return out.reshape(a.shape)


_PARITY_SLICES = {}


def _parity_masks(shape2, axis):
    key = (shape2, axis)
    if key not in _PARITY_SLICES:
        idx = np.indices(shape2)[axis]
        _PARITY_SLICES[key] = (idx % 2 == 0, idx % 2 == 1)
    return _PARITY_SLICES[key]


def sweep_metropolis(cfg: LatticeConfiguration, rng: np.random.Generator,
                     proposal_scale: float):
    """One Metropolis sweep over all bonds (4 independent sublattices).

    Returns the acceptance rate.  Horizontal bonds of equal y-parity (and
    vertical of equal x-parity) share no plaquette, so each sublattice
    updates in parallel while keeping detailed balance.
    """
    spec = cfg.spec
    scale = action_exponent_scale(cfg.params)
    accepted = 0
    total = 0
    for orient in (0, 1):
        arr = cfg.links[orient]
        shape2 = arr.shape[1:3]
        axis = 1 if orient == 0 else 0
        for mask in _parity_masks(shape2, axis):
            if cfg.is_u1:
                k = _staple_u1(cfg, orient)
                theta = arr[:, mask]
                prop = theta + rng.normal(0.0, proposal_scale, theta.shape)
                km = k[:, mask]
                logw = scale * (np.real(np.exp(1j * prop) * km)
                                - np.real(np.exp(1j * theta) * km))
                acc = np.log(rng.uniform(size=theta.shape)) < logw
                arr[:, mask] = np.where(acc, prop, theta)
            else:
                k = _staples_matrix(cfg, orient)
                u = arr[:, mask]
                km = k[:, mask]
                coords = rng.normal(0.0, proposal_scale,
                                    u.shape[:-2] + (spec.dim_lie,))
                g = _exp_lie_batch(spec, coords)
                if spec.is_real and np.iscomplexobj(g):
                    g = g.real
                prop = g @ u
                tr_old = np.einsum("...ij,...ji->...", u, km).real
                tr_new = np.einsum("...ij,...ji->...", prop, km).real
                logw = scale * (tr_new - tr_old)
                acc = np.log(rng.uniform(size=logw.shape)) < logw
                arr[:, mask] = np.where(acc[..., None, None], prop, u)
            accepted += int(acc.sum())
            total += acc.size
    return accepted / max(total, 1)


def reunitarize(cfg: LatticeConfiguration):
    """Polar-project every link back onto the group (drift control).

    Long Metropolis chains accumulate roundoff in the link matrices; this
    is applied periodically (every few thousand sweeps) inside run_chain.
    """
    if cfg.is_u1:
        return cfg
    spec = cfg.spec
    for orient in (0, 1):
        arr = cfg.links[orient]
        u, _, vh = np.linalg.svd(arr)
        out = u @ vh
        if spec.family in ("SU", "SO"):
            det = np.linalg.det(out)
            if spec.is_real:
                flip = (det < 0)[..., None]
                out[..., :, 0] = np.where(flip, -out[..., :, 0], out[..., :, 0])
                arr[...] = out
                continue
            out = out * (det.astype(complex) ** (-1.0 / spec.n))[..., None, None]
        arr[...] = out
    return cfg


def sweep_heatbath_u1(cfg: LatticeConfiguration, rng: np.random.Generator):
    """Exact conditional resampling for U(1): von Mises per bond."""
    if not cfg.is_u1:
        raise SamplerError("heat bath implemented for U(1) only")
    scale = action_exponent_scale(cfg.params)
    for orient in (0, 1):
        arr = cfg.links[orient]
        shape2 = arr.shape[1:3]
        axis = 1 if orient == 0 else 0
        for mask in _parity_masks(shape2, axis):
            k = _staple_u1(cfg, orient)[:, mask]
            kappa = scale * np.abs(k)
            mu = -np.angle(k)
            arr[:, mask] = _vonmises(rng, mu, kappa)
    return cfg


def _vonmises(rng, mu, kappa):
    out = rng.vonmises(mu, np.maximum(kappa, 1e-12))
    flat = kappa < 1e-12
    if np.any(flat):
        out = np.where(flat, rng.uniform(-np.pi, np.pi, mu.shape), out)
    return out


# ---------------------------------------------------------------------------
# observables


class WilsonObservable:
    """A loop or string with bonds resolved to box indices."""

    def __init__(self, subject, box: LatticeBox, offset=(0, 0)):
        self.subject = subject
        self.box = box
        self.parts = []
        ox, oy = offset
        for loop in as_string(subject):
            idx = []
            for (x, y, d) in loop.word:
                bx, by = x + ox, y + oy
                if d == 0:
                    idx.append((0, bx, by, +1))
                elif d == 2:
                    idx.append((0, bx - 1, by, -1))
                elif d == 1:
                    idx.append((1, bx, by, +1))
                else:
                    idx.append((1, bx, by - 1, -1))
            for orient, bx, by, _ in idx:
                lim = (box.width, box.height + 1) if orient == 0 else (box.width + 1, box.height)
                if not (0 <= bx < lim[0] and 0 <= by < lim[1]):
                    raise SamplerError("loop exits the box; enlarge it or shift the offset")
            self.parts.append(idx)

    def measure(self, cfg: LatticeConfiguration) -> np.ndarray:
        """W per chain (complex)."""
        vals = np.ones(cfg.n_chains, dtype=complex)
        n = cfg.spec.n
        for idx in self.parts:
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
                    u = u if sgn > 0 else _adj(u)
                    hol = u if hol is None else hol @ u
                vals = vals * np.trace(hol, axis1=-2, axis2=-1) / n
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
              box: LatticeBox | None = None, offset=None, margin: int = 4,
              algorithm: str = "auto", start: str = "hot",
              progress=None):
    """Sample and measure the subjects; returns (samples, meta).

    samples: complex array (n_meas, n_subjects, n_chains), measured every
    `thin` sweeps after `burn_in`.  Proposal width is tuned toward 50%
    acceptance during burn-in only.
    """
    if box is None:
        box, offset = box_for_subjects(subjects, margin=margin)
    rng = np.random.default_rng(schedule.seed)
    cfg = init_config(box, params, start, rng, chains=schedule.chains)
    obs = [WilsonObservable(s, box, offset) for s in subjects]
    use_hb = algorithm == "heatbath" or (algorithm == "auto" and cfg.is_u1)
    scale = schedule.proposal_scale
    acc_hist = []
    for sweep in range(schedule.burn_in):
        if use_hb:
            sweep_heatbath_u1(cfg, rng)
        else:
            acc = sweep_metropolis(cfg, rng, scale)
            acc_hist.append(acc)
            if schedule.tune and (sweep + 1) % 20 == 0:
                recent = float(np.mean(acc_hist[-20:]))
                scale *= math.exp(0.8 * (recent - 0.5))
                scale = min(max(scale, 1e-3), 4.0)
    rows = []
    n_meas = schedule.sweeps // schedule.thin
    sweeps_done = 0
    for m in range(n_meas):
        for _ in range(schedule.thin):
            if use_hb:
                sweep_heatbath_u1(cfg, rng)
            else:
                sweep_metropolis(cfg, rng, scale)
            sweeps_done += 1
            if not use_hb and sweeps_done % 2500 == 0:
                reunitarize(cfg)
        rows.append(np.stack([o.measure(cfg) for o in obs]))
        if progress is not None:
            progress(m, n_meas)
    samples = np.stack(rows)  # (n_meas, n_subjects, n_chains)
    meta = {"box": box, "offset": offset, "proposal_scale": scale,
            "algorithm": "heatbath" if use_hb else "metropolis"}
    return samples, meta


def integrated_autocorrelation(x: np.ndarray) -> float:
    """Sokal-windowed tau_int of a 1-d series."""
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
    tau = float(np.mean([integrated_autocorrelation(samples[:, c])
                         for c in range(n_chains)]))
    return Estimate(mean, sigma, sigma_naive,
                    int(samples.size), tau)


def estimate_wilson(params: ActionParams, subjects, schedule: MCSchedule,
                    margin: int = 4, algorithm: str = "auto"):
    """Thinned, burned-in estimates of E W for each subject."""
    samples, meta = run_chain(params, subjects, schedule, margin=margin,
                              algorithm=algorithm)
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
    ginv = _adj(g)
    out.links[0] = g[None, : cfg.box.width, :] @ u0 @ ginv[None, 1:, :]
    out.links[1] = g[None, :, : cfg.box.height] @ u1 @ ginv[None, :, 1:]
    return out
