"""Reference implementations the tests compare the package against.

* ``array_step``, ``array_integrate`` and ``array_direct_one``: the Marcus
  stepper on numpy arrays, with array-valued fields of both example systems
  (``array_fields``).  It keeps the general Ito correction, the tangent
  correction with its finite-difference second derivative and the Jacobian
  Gaussian tangent term, which the package drops: on the shear noise field
  they add exact zeros.  The package steps Python floats with the shear
  written inline; this is the same scheme with other arithmetic, so the two
  agree pathwise to rounding on the same noise.
* ``noise_field``: the noise field V(x) = (0, sigma x1) of both example
  systems and its tangent map, as component callbacks.
* ``marcus_jump_map``, ``marcus_jump_jacobian`` and ``rk4_jump``: the Marcus
  jump flow ODE along V solved by RK4, the oracle of the stepper's
  closed-form shear jumps.
* ``rk4_angle_jump``: the joint Marcus flow of (x, theta, log-radius) solved
  by RK4 on the polar noise fields, the oracle of the closed-form
  ``frame.angle_jump_flow``.
* ``frame_oracle``: a system's linearization read in its ``frame``, rebuilt
  from its ``fields`` (the drift callbacks and V), the oracle of the
  closed-form ``coeffs``.
* ``sigma0`` and ``compute_R0``: the leading-order growth-rate integrand at
  a point, with its jump term by flow quadrature on the closed-form angle
  jump, the oracle of ``estimators.shear_sigma0_profile``.
* ``shear_exponent``: the exact top exponent of the Brownian shear system.
* ``pw_route``: the Pinsky-Wihstutz limit by the circle Fokker-Planck solve,
  the Brownian problem with the jumps folded into the variance rate; its
  Richardson value is ``shear_exponent`` and ``fpcircle.pw_limit``.
* ``lane_blocks``: every lane's Gaussian and summed-mark tables of a noise
  block kept apart, unscaled, for the per-step lane references.
* ``per_step_angle_lanes``: the shear's Khasminskii averages from an Euler
  scheme for the rescaled angle, one step and one lane array at a time, with
  the closed-form angle and log-radius jumps.  The generic Khasminskii route
  takes the same steps, so the two agree pathwise to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from levyap._lanes import AngleLanesResult
from levyap.errors import ExitDetected, LevyapError
from levyap.fpcircle import (build_generator, lyapunov_quadrature,
                             solve_stationary)
from levyap.frame import angle_jump_flow, polar_fields
from levyap.marcus import StepperConfig, TrajectoryState, TrajectorySummary
from levyap.noise import (gauss_legendre, jump_moment, jump_nodes,
                          sample_block, trajectory_streams)
from levyap.systems import exact_rho_jump, exact_theta_jump, rho_jump_profile


class FlowEscape(LevyapError):
    """The jump-flow ODE left the admissible domain before time one."""


LAMBDA1 = math.sqrt(math.pi) * 0.75 ** (1.0 / 3.0) / math.gamma(1.0 / 6.0)


def shear_exponent(a: float, eps: float, sigma: float, rate: float = 1.0) -> float:
    """Top Lyapunov exponent of du1 = a u2 dt, du2 = eps sigma u1 dW, where
    W has variance rate ``rate`` per unit time (the shear system without
    jumps):

        lambda(eps) = LAMBDA1 (a eps sigma sqrt(rate))^(2/3),
        LAMBDA1 = sqrt(pi) (3/4)^(1/3) / Gamma(1/6) = 0.28930826...

    The noise matrix B = [[0, 0], [1, 0]] has B^2 = 0, so the Ito and
    Stratonovich forms coincide.  Write s = eps sigma sqrt(rate) and
    W = sqrt(rate) B_t with B a standard Brownian motion.  Rescale time and
    the second coordinate: t = tau r, u2 = kappa w2.  Then
    du1/dr = a tau kappa w2 and dw2 = (s sqrt(tau) / kappa) u1 dB'_r, with
    B' a standard Brownian motion in r.  Choosing kappa = s sqrt(tau) and
    a tau kappa = 1, i.e. tau = (a s)^(-2/3), leaves the parameter-free
    system du1 = w2 dr, dw2 = u1 dB'.  A constant diagonal change of
    coordinates leaves exponents unchanged, so lambda = LAMBDA1 / tau with
    LAMBDA1 the exponent of the parameter-free system.  That exponent is
    the stationary mean of the Riccati process omega = w2 / u1,
    d omega = -omega^2 dr + dB', which gives the closed form above
    (Pardoux & Wihstutz, SIAM J. Appl. Math. 48, 1988; the circle
    Fokker-Planck solve reproduces it, see tests/test_fpcircle.py).
    """
    return LAMBDA1 * (a * eps * sigma * math.sqrt(rate)) ** (2.0 / 3.0)


def pw_route(eps: float, measure, grid):
    """(density, growth rate) of the PW limit of the shear system at a = 1,
    sigma = 1, with the Brownian part, on the circle grid.

    Rescaled by eps^(2/3), the leading-order angle generator is the Brownian
    shear generator at eps = 1 with the variance rate 1 + m2, where m2 is the
    jump second moment over [floor_delta, cutoff).  So the plain circle
    problem at sigma_pw = sqrt(1 + m2), eps = 1 and no measure, its growth
    rate times eps^(2/3), is the PW exponent up to the grid error.
    """
    m2 = 0.0
    if measure is not None:
        m2 = jump_moment(measure, 2.0, measure.floor_delta, measure.cutoff_c)
    sigma_pw = math.sqrt(1.0 + m2)
    dens = solve_stationary(build_generator(1.0, sigma_pw, 1.0, None, grid))
    return dens, eps ** (2.0 / 3.0) * lyapunov_quadrature(dens, 1.0, sigma_pw,
                                                          1.0, None)


def duffing_energy(x1: float, x2: float) -> float:
    """H(x, y) = x^2/2 + x^4/4 + y^2/2 of ``make_duffing``."""
    return 0.5 * x1 * x1 + 0.25 * x1 ** 4 + 0.5 * x2 * x2


def noise_field(sigma: float):
    """(V, DV): V(x1, x2) = (0, sigma x1), the noise field of both example
    systems, and DV(x1, x2, v1, v2) = (0, sigma v1), its tangent map."""
    return ((lambda x1, x2: (0.0, sigma * x1)),
            (lambda x1, x2, v1, v2: (0.0, sigma * v1)))


def frame_coordinates(frame, x1: float, x2: float, v1: float, v2: float):
    """(w1, w2) with v = w1 U1 + w2 U2 when det[U1 U2] = 1 (angle_jump_flow)."""
    (a1, a2), (b1, b2) = frame(x1, x2)
    return v1 * b2 - v2 * b1, a1 * v2 - a2 * v1


def frame_oracle(frame, fields, x1: float, x2: float):
    """(drift matrix, noise matrix) of the linearization read in ``frame``:
    F^-1 (DX F - DF[X]) with F = [U1 U2] for X the drift and the noise field
    V = (0, fields.sigma x1).  DX F comes from the tangent callbacks, DF[X] = Im F(x + i h X) / h
    with h = 1e-30 (complex step, exact to rounding: the callbacks are float
    products).  A Hamiltonian drift gives [[0, shear], [0, 0]], the noise
    field ``coeffs(x).mats``."""
    F = np.array(frame(x1, x2)).T

    def in_frame(field, tangent):
        X = field(x1, x2)
        DXF = np.array([tangent(x1, x2, *u) for u in F.T]).T
        DFX = np.array(frame(x1 + 1e-30j * X[0], x2 + 1e-30j * X[1])).T.imag * 1e30
        return np.linalg.solve(F, DXF - DFX)

    return (in_frame(fields.drift, fields.drift_tangent),
            in_frame(*noise_field(fields.sigma)))


# ---------------------------------------------------------------------------
# leading-order growth-rate integrand at a point
# ---------------------------------------------------------------------------

def compute_R0(coeffs_fn: Callable, frame: Callable, sigma: float, measure,
               x, theta: float, epsilon: float, beta: float = 2.0 / 3.0,
               inner_nodes: int = 8, z_panel_nodes: int = 16,
               lo: Optional[float] = None) -> float:
    """Jump term of the leading-order growth-rate integrand.

    For each mark z the inner double integral over the flow time collapses
    by Fubini to a single (1 - b)-weighted integral of

        (z d(xi(b z)))^2 cos(2 z1(b z)) cos^2(z1(b z)),

    evaluated on Gauss-Legendre nodes b; the outer integral runs over the
    symmetrized jump measure from ``lo`` (default: the measure's floor) to
    the cutoff.  The flow along z V stopped at time b is the time-one flow
    along b z V, V = (0, sigma x1), so the state at b is the closed-form
    jump of mark b z (``angle_jump_flow``).
    """
    if not measure.has_jumps:
        return 0.0
    x1, x2 = float(x[0]), float(x[1])
    bq, bw = gauss_legendre(inner_nodes, 0.0, 1.0)
    flow_w = (bw * (1.0 - bq)).tolist()
    zq, wq, quadratic = jump_nodes(measure, lo, z_panel_nodes)
    total = 0.0
    for z, wt in zip(zq.tolist(), wq.tolist()):
        for zs in (z, -z):
            val = 0.0
            for b, fw in zip(bq.tolist(), flow_w):
                y1, y2, th, _ = angle_jump_flow(frame, sigma, epsilon * b * zs,
                                                x1, x2, theta, epsilon, beta)
                zd = zs * coeffs_fn((y1, y2)).d
                ct = math.cos(th)
                val += fw * zd * zd * math.cos(2.0 * th) * ct * ct
            if quadratic:
                val /= z * z
            total += wt * val
    return total


def sigma0(coeffs_fn: Callable, frame: Callable, sigma: float, measure,
           x, theta: float, epsilon: float, beta: float = 2.0 / 3.0,
           rate: float = 1.0, **quad_kw) -> float:
    """Leading-order growth-rate integrand at (x, theta).

    Drift shear term + Gaussian quadratic-variation term (at variance
    ``rate`` per unit time) + the separated jump term ``compute_R0``.  A
    ``lo`` in ``quad_kw`` starts the jump marks there; the band below it
    then belongs in ``rate``.
    """
    co = coeffs_fn(x)
    s, c = math.sin(theta), math.cos(theta)
    base = co.shear * s * c + rate * (co.d * co.d) * (0.5 * c * c - s * s * c * c)
    if measure is None or not measure.has_jumps:
        return base
    return base + compute_R0(coeffs_fn, frame, sigma, measure, x, theta,
                             epsilon, beta=beta, **quad_kw)


# ---------------------------------------------------------------------------
# numpy stepper
# ---------------------------------------------------------------------------

@dataclass
class ArrayFields:
    """The fields with array-valued callbacks: x -> R^2 values, x -> 2x2
    Jacobians, and jump(w, x, v) -> (x', v') with v None kept None."""

    drift: Callable
    drift_jacobian: Callable
    diffusion: Callable
    diffusion_jacobian: Callable
    epsilon: float
    jump: Callable
    grad_h: Optional[Callable] = None


def array_fields(system, epsilon: float) -> ArrayFields:
    """Array-valued fields of ``make_nilpotent`` or ``make_duffing``."""
    s = system.sigma

    def jump(w, u, v):
        k = s * w
        u = np.array([u[0], u[1] + k * u[0]])
        if v is not None:
            v = np.array([v[0], v[1] + k * v[0]])
        return u, v

    noise = dict(diffusion=lambda p: np.array([0.0, s * p[0]]),
                 diffusion_jacobian=lambda p: np.array([[0.0, 0.0], [s, 0.0]]),
                 epsilon=epsilon, jump=jump)
    if system.name == "nilpotent":
        a = system.a
        return ArrayFields(drift=lambda u: np.array([a * u[1], 0.0]),
                           drift_jacobian=lambda u: np.array([[0.0, a], [0.0, 0.0]]),
                           **noise)
    return ArrayFields(
        drift=lambda p: np.array([p[1], -p[0] - p[0] ** 3]),
        drift_jacobian=lambda p: np.array([[0.0, 1.0], [-1.0 - 3.0 * p[0] ** 2, 0.0]]),
        grad_h=lambda p: np.array([p[0] + p[0] ** 3, p[1]]),
        **noise)


def _rk4(f: Callable, y: np.ndarray, h: float) -> np.ndarray:
    k1 = f(y)
    k2 = f(y + 0.5 * h * k1)
    k3 = f(y + 0.5 * h * k2)
    k4 = f(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _check_exit(fields: ArrayFields, state: TrajectoryState,
                cfg: StepperConfig) -> Optional[str]:
    if not np.all(np.isfinite(state.x)) or np.linalg.norm(state.x) > cfg.bound_explode:
        return "explosion"
    if fields.grad_h is not None and cfg.tol_crit > 0.0:
        if np.linalg.norm(fields.grad_h(state.x)) < cfg.tol_crit:
            return "critical-point"
    return None


def _tangent_correction(fields: ArrayFields, x, v, rate: float, dt: float):
    eps = fields.epsilon
    dv = fields.diffusion_jacobian
    J = dv(x)
    out = J @ (J @ v)
    vx = fields.diffusion(x)
    nv = np.linalg.norm(vx)
    if nv > 0.0:
        h = 1e-6 * (1.0 + np.linalg.norm(x)) / nv
        out = out + ((dv(x + h * vx) - dv(x - h * vx)) / (2.0 * h)) @ v
    return 0.5 * eps * eps * rate * dt * out


def array_step(fields: ArrayFields, rate: float, cfg: StepperConfig,
               state: TrajectoryState, dw, jumps=()) -> TrajectoryState:
    """One step with ``dw`` and ``jumps`` as ``marcus.step`` takes them;
    raises ExitDetected on exit."""
    eps = fields.epsilon
    dt = cfg.dt
    x = np.array(state.x, dtype=float)
    v = None if state.v is None else np.array(state.v, dtype=float)
    if v is None:
        x = _rk4(fields.drift, x, dt)
    else:
        def f(y):
            return np.concatenate([fields.drift(y[:2]),
                                   fields.drift_jacobian(y[:2]) @ y[2:]])

        y = _rk4(f, np.concatenate([x, v]), dt)
        x, v = y[:2], y[2:]
    if eps > 0.0:
        if rate > 0.0:
            corr = fields.diffusion_jacobian(x) @ fields.diffusion(x)
            x = x + 0.5 * eps * eps * rate * dt * corr
            if v is not None:
                v = v + _tangent_correction(fields, x, v, rate, dt)
        if dw:
            inc = fields.diffusion(x) * dw
            if v is not None:
                v = v + eps * ((fields.diffusion_jacobian(x) @ v) * dw)
            x = x + eps * inc
        for mark in jumps:
            x, v = fields.jump(eps * mark, x, v)
    out = TrajectoryState(state.t + dt, x, v)
    out.exit_flag = _check_exit(fields, out, cfg)
    if out.exit_flag is not None:
        raise ExitDetected(out)
    return out


def array_integrate(fields: ArrayFields, noise, x0, horizon: float,
                    cfg: StepperConfig, rng_or_seed, v0=None,
                    renorm_interval: int = 0, burn_in_time: float = 0.0,
                    observer: Optional[Callable] = None,
                    raise_on_exit: bool = True) -> TrajectorySummary:
    """``levyap.marcus.integrate`` on arrays; ``observer(state)``."""
    if isinstance(rng_or_seed[0], np.random.Generator):
        rng_b, rng_j = rng_or_seed
    else:
        rng_b, rng_j = trajectory_streams(*rng_or_seed)
    v0 = None if v0 is None else np.array(v0, dtype=float)
    state = TrajectoryState(0.0, np.array(x0, dtype=float), v0)
    flag = _check_exit(fields, state, cfg)
    if flag is not None:
        state.exit_flag = flag
        if raise_on_exit:
            raise ExitDetected(state)
        return TrajectorySummary(state, 0, 0, exited=True)
    rate = noise.gaussian_rate
    n_total = int(round(horizon / cfg.dt))
    summary = TrajectorySummary(state, 0, 0)
    done = 0
    since_renorm = 0
    growth_start = None if burn_in_time > 0.0 else 0.0
    while done < n_total:
        m = min(cfg.block_steps, n_total - done)
        block = sample_block(noise, cfg.dt, m, rng_b, rng_j)
        for i, (jlo, jhi) in enumerate(block.step_slices()):
            try:
                state = array_step(fields, rate, cfg, state, block.gauss[i],
                                   block.jump_marks[jlo:jhi])
            except ExitDetected as exc:
                summary.final = exc.state
                summary.exited = True
                if raise_on_exit:
                    raise
                return summary
            summary.n_steps += 1
            summary.n_jumps += jhi - jlo
            if observer is not None:
                observer(state)
            if state.v is not None:
                if growth_start is None and state.t >= burn_in_time:
                    state.v = state.v / np.linalg.norm(state.v)
                    growth_start = state.t
                    since_renorm = 0
                    continue
                since_renorm += 1
                nv = float(np.linalg.norm(state.v))
                if since_renorm >= max(renorm_interval, 1) or abs(math.log(nv)) > 20.0:
                    if growth_start is not None:
                        summary.log_growth += math.log(nv)
                        summary.growth_time = state.t - growth_start
                    state.v = state.v / nv
                    since_renorm = 0
        done += m
    if state.v is not None and since_renorm > 0 and growth_start is not None:
        summary.log_growth += math.log(float(np.linalg.norm(state.v)))
        summary.growth_time = state.t - growth_start
    summary.final = state
    return summary


def array_direct_one(system, noise, epsilon: float, cfg, index: int):
    """(rate, restarts, failed) of one direct replicate, restarting on exit
    as ``levyap.estimators`` does, stepped by ``array_integrate``."""
    fields = array_fields(system, epsilon)
    scfg = StepperConfig(dt=cfg.dt, tol_crit=system.tol_crit,
                         block_steps=cfg.block_steps)
    x0 = np.asarray(cfg.x0 if cfg.x0 is not None else system.default_x0, float)
    growth = gtime = consumed = 0.0
    restarts = attempt = 0
    burn = cfg.burn_in * cfg.horizon
    while consumed < cfg.horizon and attempt <= cfg.max_restarts:
        summary = array_integrate(fields, noise, x0, cfg.horizon - consumed, scfg,
                                  trajectory_streams(cfg.seed, index, attempt),
                                  v0=cfg.v0, renorm_interval=cfg.renorm_interval,
                                  burn_in_time=max(burn - consumed, 0.0),
                                  raise_on_exit=False)
        growth += summary.log_growth
        gtime += summary.growth_time
        consumed += summary.final.t
        if not summary.exited:
            break
        restarts += 1
        attempt += 1
    failed = gtime < 0.5 * (1.0 - cfg.burn_in) * cfg.horizon
    return (growth / gtime if gtime > 0 else math.nan), restarts, failed


# ---------------------------------------------------------------------------
# Marcus jump flow along V by RK4
# ---------------------------------------------------------------------------

def _flow_rhs(fields, w):
    """y -> (w V(x), w DV(x) J) on y = (x, J.ravel())."""
    V, DV = noise_field(fields.sigma)

    def f(y):
        x, J = y[:2], y[2:].reshape(2, 2)
        dJ = np.array([DV(*x, *J[:, 0]), DV(*x, *J[:, 1])]).T
        return w * np.concatenate([V(*x), dJ.ravel()])

    return f


def jump_flow(fields, w, x, substeps: int = 8):
    """(x', J): the flow along w V at time one from x, and its Jacobian at
    x, by RK4 on the variational system."""
    w = float(w)
    y = np.concatenate([np.asarray(x, dtype=float), np.eye(2).ravel()])
    if w:
        f = _flow_rhs(fields, w)
        for _ in range(substeps):
            y = _rk4(f, y, 1.0 / substeps)
            if not np.all(np.isfinite(y)):
                raise FlowEscape("jump flow left the domain")
    return y[:2], y[2:].reshape(2, 2)


def marcus_jump_map(fields, z, x, substeps: int = 8) -> np.ndarray:
    """Value at time one of the flow along eps z V from x."""
    return jump_flow(fields, fields.epsilon * z, x, substeps)[0]


def marcus_jump_jacobian(fields, z, x, substeps: int = 8) -> np.ndarray:
    """Derivative of the jump map at x, by the variational equation."""
    return jump_flow(fields, fields.epsilon * z, x, substeps)[1]


def rk4_jump(fields, substeps: int = 8):
    """An ``ArrayFields.jump`` callback, (w, x, v) -> (x', v'), that solves
    the flow along V = (0, fields.sigma x1) by RK4 instead of in closed
    form."""

    def jump(w, x, v):
        y, J = jump_flow(fields, w, x, substeps)
        return y, (None if v is None else J @ v)

    return jump


def rk4_angle_jump(system, z, x, theta: float, eps: float, beta: float,
                   substeps: int = 8, b_points=None):
    """Joint Marcus flow of (x, theta, log-radius increment) for the mark
    z, by RK4.

    Integrates d(xi, z1, z2)/dtau = (eps z V, z sigma1, z sigma2) from
    (x, theta, 0) to tau = 1, with V = (0, system.sigma x1) and sigma the
    polar fields of its ``coeffs``.
    Returns the state (x1, x2, theta, rho) at tau = 1, or with ``b_points``
    (sorted, in [0, 1]) the pair (states at those times, final state).
    """
    z = float(z)
    V = noise_field(system.sigma)[0]

    def rhs(y):
        s1, s2 = polar_fields(system.coeffs(y[:2]), y[2], eps, beta)
        v1, v2 = V(y[0], y[1])
        return np.array([eps * z * v1, eps * z * v2, z * s1, z * s2])

    def advance(y, gap):
        nsub = max(1, int(math.ceil(substeps * gap)))
        for _ in range(nsub):
            y = _rk4(rhs, y, gap / nsub)
        return y

    y = np.array([x[0], x[1], theta, 0.0], dtype=float)
    if b_points is None:
        return advance(y, 1.0)
    recorded, pos = [], 0.0
    for tb in b_points:
        if tb > pos:
            y = advance(y, tb - pos)
        pos = tb
        recorded.append(y.copy())
    return recorded, advance(y, 1.0 - pos) if pos < 1.0 else y


def lane_blocks(noise, dt: float, n_steps: int, seed: int, indices,
                block_steps: int):
    """Yield (offset, gauss (m, L), mark_sums (m, L) or None) block tables
    drawn from the lanes' streams as the lane kernels draw them."""
    streams = [trajectory_streams(seed, int(i)) for i in indices]
    done = 0
    while done < n_steps:
        m = min(block_steps, n_steps - done)
        gauss = np.empty((m, len(streams)))
        sums = None
        for j, (rb, rj) in enumerate(streams):
            blk = sample_block(noise, dt, m, rb, rj)
            gauss[:, j] = blk.gauss
            if blk.jump_marks.size:
                if sums is None:
                    sums = np.zeros((m, len(streams)))
                sums[:, j] = blk.step_mark_sums()
        yield done, gauss, sums
        done += m


def per_step_angle_lanes(a, sigma, eps, beta, noise, dt, horizon, seed,
                         indices, burn_in=0.1, drift_stride=10,
                         theta_bins=256, block_steps=16384, theta0=0.7):
    """Euler scheme for the rescaled angle theta of every lane.

    A step adds sin cos and cos^2 / 2 - sin^2 cos^2 to the shear and
    quadratic-variation sums, takes the drift step
    theta += dt (-eps^beta a sin^2 - e_wz sin cos^3), adds the Gaussian kick
    e_ang cos^2 dW at the new angle (its martingale part e_ang sin cos dW to
    the martingale sum) and applies the step's jumps as one shear with the
    summed marks, adding their log-radius change to the martingale sum;
    e_ang = eps^(1 - beta) sigma, e_wz = rate eps^(2 - 2 beta) sigma^2.
    After burn-in every drift_stride-th step also records the compensator
    profile at its start angle and the occupation bin of its end angle.
    """
    eps = np.asarray(eps, dtype=float)
    L = len(eps)
    n = int(round(horizon / dt))
    burn_steps = int(round(burn_in * n))
    rate = noise.gaussian_rate
    e_ang = eps ** (1.0 - beta) * sigma
    e_sh = eps ** beta
    e_wz = rate * eps ** (2.0 - 2.0 * beta) * sigma ** 2
    k_sh = -e_sh * a

    theta = np.full(L, float(theta0))
    acc_sc = np.zeros(L)
    acc_qv = np.zeros(L)
    acc_irho = np.zeros(L)
    n_irho = 0
    n_drift = 0
    occ = np.zeros((L, theta_bins))
    mart = np.zeros(L)
    bin_w = 2.0 * math.pi / theta_bins

    nodes = None
    if noise.jump_rate > 0.0:
        nodes = jump_nodes(noise.measure, noise.sampling_floor)

    for off, gauss, sums in lane_blocks(noise, dt, n, seed, indices, block_steps):
        m = gauss.shape[0]
        for i in range(m):
            step_no = off + i
            st = np.sin(theta)
            ct = np.cos(theta)
            sc = st * ct
            c2 = ct * ct
            if step_no >= burn_steps:
                acc_sc += sc
                acc_qv += 0.5 * c2 - sc * sc
                n_drift += 1
                if step_no % drift_stride == 0:
                    if nodes is not None:
                        acc_irho += rho_jump_profile(theta, e_ang, nodes)
                    n_irho += 1
            theta = theta + dt * (k_sh * st * st - e_wz * sc * c2)
            ct = np.cos(theta)
            g = e_ang * ct ** 2 * gauss[i]
            if step_no >= burn_steps:
                mart += e_ang * np.sin(theta) * ct * gauss[i]
            theta = theta + g
            if sums is not None:
                s = e_ang * sums[i]
                if step_no >= burn_steps:
                    mart += exact_rho_jump(theta, s)
                theta = exact_theta_jump(theta, s)
            if step_no >= burn_steps and step_no % drift_stride == 0:
                idx = np.floor((theta % (2.0 * math.pi)) / bin_w).astype(int) % theta_bins
                occ[np.arange(L), idx] += 1.0

    lam_sc = e_sh * a * acc_sc / max(n_drift, 1)
    lam_qv = e_wz * acc_qv / max(n_drift, 1)
    lam_ir = acc_irho / max(n_irho, 1) if n_irho else np.zeros(L)
    T = max(n_drift, 1) * dt
    mart = mart - lam_ir * T
    return AngleLanesResult(lam_sc + lam_qv + lam_ir, lam_sc, lam_qv, lam_ir,
                            occ, mart / T, n_irho)
