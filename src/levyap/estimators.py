"""Top-Lyapunov-exponent estimators.

Three routes are provided:

* ``lyapunov_direct``      tangent-growth accumulation with periodic
                           renormalization;
* ``lyapunov_khasminskii`` ergodic average of the log-radius drift of the
                           rescaled angle process (martingale parts are not
                           accumulated -- their time average vanishes);
* ``lyapunov_theorem33_estimate``  leading-order formula: eps^(2/3) times
                           the occupation average of the growth-rate
                           integrand (constant-shear systems only).

plus ``scaling_sweep`` fitting the log-log slope across a list of epsilons.

Constant-shear systems dispatch to vectorized lane kernels, which step the
exact linear tangent: the direct route its growth, the Khasminskii and
leading-order routes the angle of the rescaled tangent, read from one pass
(``angle_lane_rows``) that a run of both can share.  Everything else runs
through the generic Marcus integrator and moving-frame machinery, whose
Khasminskii route integrates the angle by an Euler scheme.
Replicates are split into contiguous index chunks across worker processes;
per-replicate streams depend only on (seed, index), so results are
bit-identical for any worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import frame as fr
from ._lanes import shear_angle_lanes, shear_direct_lanes
from .errors import (AllTrajectoriesExited, EmptyMeasure, ExitDetected,
                     InvalidParameter, NonPositiveEstimate)
from .marcus import StepperConfig, check_epsilon, integrate, step
from .noise import (JumpMeasureSpec, NoiseModel, jump_nodes, sample_block,
                    trajectory_streams)
from .systems import shear_growth_profile


@dataclass
class EstimatorConfig:
    dt: float = 1e-3
    horizon: float = 1000.0
    replicates: int = 16
    seed: int = 0
    burn_in: float = 0.1
    renorm_interval: int = 10
    beta: float = 2.0 / 3.0
    workers: int = 1
    drift_stride: int = 10
    theta_bins: int = 256
    block_steps: int = 16384
    max_restarts: int = 64
    x0: Optional[Sequence[float]] = None
    v0: Sequence[float] = (1.0, 0.5)
    theta0: float = 0.7

    def __post_init__(self):
        for name in ("dt", "horizon"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise InvalidParameter(f"{name} must be finite and positive, got {value}")
        n = int(round(self.horizon / self.dt))
        if n < 1:
            raise InvalidParameter(f"horizon {self.horizon} is under half a step "
                                   f"dt = {self.dt}: no step would be taken")
        if self.replicates < 1:
            raise InvalidParameter("replicates must be >= 1")
        if not 0.0 <= self.burn_in < 1.0:
            raise InvalidParameter("burn_in fraction must lie in [0, 1)")
        if int(round(self.burn_in * n)) >= n:
            raise InvalidParameter(f"burn_in {self.burn_in} of {n} steps leaves "
                                   "no step to average over")
        v0 = np.asarray(self.v0, dtype=float)
        if not (np.all(np.isfinite(v0)) and np.any(v0)):
            raise InvalidParameter(f"tangent v0 must be finite and nonzero, got {v0}")


@dataclass
class LyapunovEstimate:
    value: float
    stderr: float
    method: str
    epsilon: float
    beta: float
    horizon: float
    replicates: int
    per_replicate: list = field(default_factory=list)
    restarts: int = 0
    exits: int = 0
    unreliable: bool = False
    extras: dict = field(default_factory=dict)


@dataclass
class SweepResult:
    epsilons: list
    estimates: list
    slope: float
    intercept: float
    residual: float
    excluded: list = field(default_factory=list)


def _chunks(n: int, workers: int):
    workers = max(1, min(workers, n))
    base, extra = divmod(n, workers)
    out, lo = [], 0
    for w in range(workers):
        hi = lo + base + (1 if w < extra else 0)
        if hi > lo:
            out.append(tuple(range(lo, hi)))
        lo = hi
    return out


def _run_chunked(worker: Callable, payload: tuple, n: int, workers: int) -> list:
    chunks = _chunks(n, workers)
    if len(chunks) == 1:
        return worker(payload, chunks[0])
    from concurrent.futures import ProcessPoolExecutor   # loads multiprocessing
    results = []
    with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
        futures = [pool.submit(worker, payload, ch) for ch in chunks]
        for f in futures:
            results.extend(f.result())
    return results


def _spread(values) -> tuple[float, float]:
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    if len(arr) < 2:
        return mean, 0.0
    return mean, float(arr.std(ddof=1) / math.sqrt(len(arr)))


def _aggregate(rows, method: str, epsilon: float,
               cfg: EstimatorConfig) -> LyapunovEstimate:
    """Estimate from per-replicate rows (rate, restarts, failed, ...): mean
    and standard error over the replicates that did not fail."""
    restarts = sum(r[1] for r in rows)
    failures = sum(1 for r in rows if r[2])
    if failures == cfg.replicates:
        raise AllTrajectoriesExited(
            "every replicate exited before accumulating half the horizon")
    value, stderr = _spread([r[0] for r in rows if not r[2]])
    return LyapunovEstimate(value, stderr, method, epsilon, cfg.beta,
                            cfg.horizon, cfg.replicates,
                            per_replicate=[r[0] for r in rows],
                            restarts=restarts, exits=failures,
                            unreliable=restarts > 0.1 * cfg.replicates)


# ---------------------------------------------------------------------------
# direct route
# ---------------------------------------------------------------------------

def _direct_lane_worker(payload, indices):
    """Per replicate, the tuple of its direct rates at every epsilon: each
    epsilon runs as a block of lanes over the same replicate streams."""
    system, noise, eps_list, cfg = payload
    eps = np.repeat(np.asarray(eps_list, dtype=float), len(indices))
    # Gaussian draws do not depend on the block length (jump draws do: the
    # Poisson counts are per block), so a Brownian-only batch shortens its
    # blocks to keep the noise table at the size of one epsilon's
    block = cfg.block_steps
    if noise.jump_rate == 0.0:
        block = max(1, block // len(eps_list))
    res = shear_direct_lanes(system.a, system.sigma, eps, noise,
                             cfg.dt, cfg.horizon, cfg.seed,
                             list(indices) * len(eps_list),
                             burn_in=cfg.burn_in, block_steps=block,
                             v0=cfg.v0)
    lam = (res.log_growth / res.growth_time).reshape(len(eps_list), -1)
    return [tuple(float(v) for v in col) for col in lam.T]


def _direct_generic_one(system, noise, epsilon, cfg, index):
    fields = system.fields(epsilon)
    scfg = StepperConfig(dt=cfg.dt, tol_crit=system.tol_crit,
                         block_steps=cfg.block_steps)
    x0 = np.asarray(cfg.x0 if cfg.x0 is not None else system.default_x0, float)
    growth = 0.0
    gtime = 0.0
    consumed = 0.0
    restarts = 0
    attempt = 0
    burn = cfg.burn_in * cfg.horizon
    while consumed < cfg.horizon and attempt <= cfg.max_restarts:
        streams = trajectory_streams(cfg.seed, index, attempt)
        summary = integrate(fields, noise, x0, cfg.horizon - consumed, scfg,
                            streams, v0=np.asarray(cfg.v0, float),
                            renorm_interval=cfg.renorm_interval,
                            burn_in_time=max(burn - consumed, 0.0))
        growth += summary.log_growth
        gtime += summary.growth_time
        consumed += summary.final.t
        if not summary.exited:
            break
        restarts += 1
        attempt += 1
    failed = gtime < 0.5 * (1.0 - cfg.burn_in) * cfg.horizon
    lam = growth / gtime if gtime > 0 else math.nan
    return lam, restarts, failed


def _direct_generic_worker(payload, indices):
    system, noise, epsilon, cfg = payload
    return [_direct_generic_one(system, noise, epsilon, cfg, i) for i in indices]


def _direct_estimates(system, noise, eps_list, cfg) -> list:
    """Direct estimates at each epsilon of eps_list.  Constant shear runs
    one lanes pass for the whole list: a step costs about the same for
    5 x 16 lanes as for 16, and each lane's arithmetic is unchanged.  Other
    systems run the generic integrator once per epsilon."""
    if not system.constant_shear:
        return [_aggregate(_run_chunked(_direct_generic_worker,
                                        (system, noise, e, cfg),
                                        cfg.replicates, cfg.workers),
                           "direct", e, cfg) for e in eps_list]
    rows = _run_chunked(_direct_lane_worker, (system, noise, eps_list, cfg),
                        cfg.replicates, cfg.workers)
    return [_aggregate([(r[j], 0, False) for r in rows], "direct", e, cfg)
            for j, e in enumerate(eps_list)]


def lyapunov_direct(system, noise: NoiseModel, epsilon: float,
                    cfg: EstimatorConfig) -> LyapunovEstimate:
    """Tangent-growth estimate; replicate spread gives the standard error."""
    return _direct_estimates(system, noise, [check_epsilon(epsilon)], cfg)[0]


# ---------------------------------------------------------------------------
# Khasminskii drift-averaging route
# ---------------------------------------------------------------------------

def _khas_lane_worker(payload, indices):
    """Rows (rate, restarts, failed, martingale rate, occupation)."""
    system, noise, epsilon, cfg = payload
    res = shear_angle_lanes(system.a, system.sigma,
                            np.full(len(indices), epsilon), cfg.beta, noise,
                            cfg.dt, cfg.horizon, cfg.seed, indices,
                            burn_in=cfg.burn_in, drift_stride=cfg.drift_stride,
                            theta_bins=cfg.theta_bins,
                            block_steps=cfg.block_steps,
                            theta0=cfg.theta0)
    return [(float(res.lam[j]), 0, False, float(res.martingale_rate[j]),
             res.occupation[j]) for j in range(len(indices))]


def _khas_generic_one(system, noise, epsilon, cfg, index):
    """Pair (x, theta) simulation with drift accumulation.

    On exit the pair restarts from the initial point with a fresh stream
    (the rest of the current noise block is discarded) and accumulation
    resumes; restarts are counted.
    """
    beta = cfg.beta
    fields = system.fields(epsilon)
    scfg = StepperConfig(dt=cfg.dt, tol_crit=system.tol_crit,
                         block_steps=cfg.block_steps)
    coeffs_fn = system.coeffs
    frame, sigma = system.frame, system.sigma
    rate = noise.gaussian_rate
    dt = cfg.dt
    n = int(round(cfg.horizon / dt))
    burn_steps = int(round(cfg.burn_in * n))
    x0 = np.asarray(cfg.x0 if cfg.x0 is not None else system.default_x0, float)
    x = x0.copy()
    theta = cfg.theta0
    acc = 0.0
    acc_irho = 0.0
    n_acc = 0
    n_irho = 0
    restarts = 0
    attempt = 0
    e_sh = epsilon ** beta
    step_no = 0
    streams = trajectory_streams(cfg.seed, index, attempt)
    while step_no < n:
        m = min(cfg.block_steps, n - step_no)
        block = sample_block(noise, dt, m, *streams)
        gauss = block.gauss.tolist()
        marks = block.jump_marks.tolist()
        for i, (jlo, jhi) in enumerate(block.step_slices()):
            co = system.coeffs_with_actions(x)
            wz1, wz2 = fr.wz_corrections(co, theta, epsilon, beta)
            sc = math.sin(theta) * math.cos(theta)
            if step_no >= burn_steps:
                acc += e_sh * co.shear * sc + 0.5 * rate * wz2
                n_acc += 1
                if step_no % cfg.drift_stride == 0:
                    acc_irho += compute_Irho(system, noise.measure, x, theta,
                                             epsilon, beta, noise=noise)
                    n_irho += 1
            drift_th = (-e_sh * co.shear * math.sin(theta) ** 2
                        + 0.5 * rate * wz1)
            try:
                _, p1, p2, _, _ = step(fields, scfg, 0.0, float(x[0]),
                                       float(x[1]), None, None, gauss[i])
            except ExitDetected:
                restarts += 1
                attempt += 1
                step_no += 1
                if attempt > cfg.max_restarts:
                    return math.nan, restarts, True
                x = x0.copy()
                theta = cfg.theta0
                streams = trajectory_streams(cfg.seed, index, attempt)
                break
            theta = theta + dt * drift_th
            s1, _ = fr.polar_fields(coeffs_fn((p1, p2)), theta, epsilon, beta)
            theta = theta + s1 * gauss[i]
            for z in marks[jlo:jhi]:
                p1, p2, theta, _ = fr.angle_jump_flow(frame, sigma, epsilon * z,
                                                      p1, p2, theta, epsilon, beta)
            x = (p1, p2)
            step_no += 1
    if n_acc == 0:
        return math.nan, restarts, True
    lam = acc / n_acc + (acc_irho / n_irho if n_irho else 0.0)
    return lam, restarts, False


def _khas_generic_worker(payload, indices):
    system, noise, epsilon, cfg = payload
    # the generic path records no martingale rate
    return [_khas_generic_one(system, noise, epsilon, cfg, i) + (math.nan,)
            for i in indices]


def angle_lane_rows(system, noise: NoiseModel, epsilon: float,
                    cfg: EstimatorConfig) -> list:
    """The rows of one angle-lane pass of a constant-shear system, per
    replicate; ``lyapunov_khasminskii`` and ``lyapunov_theorem33_estimate``
    both read them, so a run of both methods can pass one set to each."""
    return _run_chunked(_khas_lane_worker, (system, noise, epsilon, cfg),
                        cfg.replicates, cfg.workers)


def lyapunov_khasminskii(system, noise: NoiseModel, epsilon: float,
                         cfg: EstimatorConfig,
                         lane_rows: Optional[list] = None) -> LyapunovEstimate:
    """Ergodic average of the log-radius drift of the rescaled pair process.

    Accumulates the shear drift term, the Wong-Zakai correction of the
    continuous noise, and the jump compensator integral (by quadrature on a
    sample stride).  Brownian and compensated-jump martingale increments are
    not accumulated.  A constant-shear system reads ``lane_rows`` when given
    (``angle_lane_rows`` of the same inputs).
    """
    epsilon = check_epsilon(epsilon)
    if system.constant_shear:
        rows = lane_rows or angle_lane_rows(system, noise, epsilon, cfg)
    else:
        rows = _run_chunked(_khas_generic_worker, (system, noise, epsilon, cfg),
                            cfg.replicates, cfg.workers)
    est = _aggregate(rows, "khasminskii", epsilon, cfg)
    mart = [r[3] for r in rows if not math.isnan(r[3])]
    if mart:
        est.extras["martingale_rate"] = _spread(mart)
    return est


# ---------------------------------------------------------------------------
# compensator integral of the log-radius equation
# ---------------------------------------------------------------------------

def compute_Irho(system, measure: Optional[JumpMeasureSpec], x, theta: float,
                 epsilon: float, beta: float = 2.0 / 3.0,
                 noise: Optional[NoiseModel] = None) -> float:
    """int [ zeta2(z)(x, theta) - z sigma2(x, theta) ] nu(dz).

    The marks run from the sampling floor of ``noise`` (the measure's floor
    without it) to the cutoff: a Gaussian substitute for the band below the
    sampling floor is already in the continuous part.  The closed-form
    Marcus jump of the pair is summed over the quadrature marks; the
    constant-shear routes use ``rho_jump_profile`` instead.
    """
    if measure is None or not measure.has_jumps:
        return 0.0
    lo = noise.sampling_floor if noise is not None else measure.floor_delta
    return fr.compute_Irho_generic(system.frame, system.sigma, measure, x,
                                   theta, epsilon, beta=beta, lo=lo)


# ---------------------------------------------------------------------------
# leading-order formula route
# ---------------------------------------------------------------------------

def shear_sigma0_profile(system, noise: NoiseModel, epsilon: float,
                         theta_grid: np.ndarray, beta: float = 2.0 / 3.0):
    """Scaled growth-rate integrand ``shear_growth_profile`` on an angle
    grid, constant shear only: the Gaussian part at ``noise.gaussian_rate``
    and the jump marks from the sampling floor (zero at eps = 0).  Along the
    shear d^2 rho / ds^2 = cos 2zeta cos^2 zeta, so by Taylor's theorem with
    integral remainder the compensator is eps^(2-2beta) times the (1 -
    b)-weighted flow integral of the jump term."""
    m = noise.measure
    nodes = (jump_nodes(m, noise.sampling_floor)
             if m is not None and m.has_jumps else None)
    return shear_growth_profile(theta_grid, system.a, system.sigma, epsilon,
                                beta, noise.gaussian_rate, nodes)


def lyapunov_theorem33_estimate(system, noise: NoiseModel, epsilon: float,
                                cfg: EstimatorConfig,
                                lane_rows: Optional[list] = None) -> LyapunovEstimate:
    """Leading-order formula per replicate: the scaled growth-rate integrand
    ``shear_sigma0_profile`` at the bin centres, averaged under the
    replicate's normalized occupation histogram from the angle lanes
    (``lane_rows`` when given; at beta = 2/3, eps^(2/3) times the unscaled
    average).  A system whose shear depends on the position is refused
    before any replicate runs."""
    epsilon = check_epsilon(epsilon)
    if not system.constant_shear:
        raise InvalidParameter(f"the leading-order formula needs a "
                               f"constant-shear system, not {system.name!r}")
    rows = lane_rows or angle_lane_rows(system, noise, epsilon, cfg)
    bins = cfg.theta_bins
    centers = (np.arange(bins) + 0.5) * 2.0 * math.pi / bins
    profile = shear_sigma0_profile(system, noise, epsilon, centers, beta=cfg.beta)

    def value(occupation):
        total = float(np.sum(occupation))
        if total <= 0.0:
            raise EmptyMeasure("occupation measure has no mass")
        return float((np.asarray(occupation, dtype=float) / total) @ profile)

    return _aggregate([(value(r[4]), r[1], r[2]) for r in rows], "theorem33",
                      epsilon, cfg)


# ---------------------------------------------------------------------------
# epsilon sweep
# ---------------------------------------------------------------------------

def check_sweep_epsilons(eps_list) -> list:
    """The epsilons as floats; InvalidParameter unless there are at least
    4, each in (0, 1), strictly increasing, spanning at least a factor of 4."""
    eps_list = [check_epsilon(e) for e in eps_list]
    if any(e == 0.0 for e in eps_list):
        raise InvalidParameter("sweep epsilons must be positive")
    if len(eps_list) < 4:
        raise InvalidParameter("a sweep needs at least 4 epsilon values")
    if any(e2 <= e1 for e1, e2 in zip(eps_list, eps_list[1:])):
        raise InvalidParameter("epsilon values must be strictly increasing")
    if max(eps_list) < 4.0 * min(eps_list):
        raise InvalidParameter("epsilon values must span at least a factor of 4")
    return eps_list


def scaling_sweep(system, noise: NoiseModel, eps_list,
                  cfg: EstimatorConfig) -> SweepResult:
    """Direct estimates per epsilon and a least-squares log-log slope fit.

    Nonpositive estimates are excluded from the fit (reported in
    ``excluded``); fewer than three positive values raise
    NonPositiveEstimate.
    """
    eps_list = check_sweep_epsilons(eps_list)
    estimates = _direct_estimates(system, noise, eps_list, cfg)
    pts = [(e, est.value) for e, est in zip(eps_list, estimates)]
    excluded = [e for e, v in pts if v <= 0.0]
    kept = [(e, v) for e, v in pts if v > 0.0]
    if len(kept) < 3:
        raise NonPositiveEstimate(
            f"only {len(kept)} positive estimates; cannot fit the log-log slope")
    lx = np.log([e for e, _ in kept])
    ly = np.log([v for _, v in kept])
    A = np.vstack([lx, np.ones_like(lx)]).T
    (slope, intercept), res, *_ = np.linalg.lstsq(A, ly, rcond=None)
    resid = float(np.sqrt(res[0] / len(kept))) if len(res) else 0.0
    return SweepResult(eps_list, estimates, float(slope), float(intercept),
                       resid, excluded)
