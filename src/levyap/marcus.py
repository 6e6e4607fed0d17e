"""Marcus-canonical jump-SDE integrator.

A step advances the state in four sub-moves:

  1. deterministic drift, integrated with classical RK4;
  2. Euler increments for the Stratonovich-to-Ito correction of the
     continuous noise and for the net jump-compensator drift;
  3. Euler-Maruyama Gaussian increment;
  4. jumps of the batch applied in time order through the exact Marcus
     flow: the closed-form jump map of the fields when they carry one
     (``VectorFieldSet.jump``), otherwise the flow ODE solved by RK4 with a
     fixed number of substeps.

For a symmetric jump measure the compensator of the raw jump events cancels
the bracket drift of the Ito form exactly, leaving only the first-moment
term -eps * sum_k V_k(x) * int z nu(dz), which is identically zero.  The
integrator therefore applies no jump-related drift.

An optional tangent vector is transported alongside by the linearized
counterparts of each sub-move.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ExitDetected, FlowEscape, InvalidParameter
from .noise import NoiseModel, sample_block, trajectory_streams


@dataclass
class VectorFieldSet:
    """Drift and perturbation fields of the state equation.

    drift               x -> R^2, the unperturbed Hamiltonian field
    drift_jacobian      x -> 2x2, for tangent transport (optional)
    diffusion           d maps x -> R^2
    diffusion_jacobians d maps x -> 2x2 (optional; finite differences are
                        used for tangent corrections where needed)
    epsilon             perturbation scale in [0, 1)
    grad_h              x -> R^2 gradient of H, used for exit detection
                        (optional; disables the critical-point check if None)
    jump                (w, x, v) -> (x', v'), the closed-form Marcus jump of
                        scaled mark vector w = eps z: x' is the flow along
                        sum_k w_k V_k at time one, v' its Jacobian at x
                        applied to the tangent v (None stays None).  The
                        callback holds no copy of eps.  Optional; without it
                        jumps go through the RK4 flow (``marcus_jump_map``,
                        ``marcus_jump_jacobian``).
    """

    drift: Callable[[np.ndarray], np.ndarray]
    diffusion: Sequence[Callable[[np.ndarray], np.ndarray]]
    epsilon: float
    drift_jacobian: Optional[Callable[[np.ndarray], np.ndarray]] = None
    diffusion_jacobians: Optional[Sequence[Callable[[np.ndarray], np.ndarray]]] = None
    grad_h: Optional[Callable[[np.ndarray], np.ndarray]] = None
    jump: Optional[Callable] = None

    def __post_init__(self):
        if not 0.0 <= self.epsilon < 1.0:
            raise InvalidParameter("epsilon must lie in [0, 1)")

    @property
    def d(self) -> int:
        return len(self.diffusion)


@dataclass
class StepperConfig:
    dt: float
    flow_substeps: int = 8
    tol_crit: float = 1e-6
    bound_explode: float = 1e8
    block_steps: int = 16384

    def __post_init__(self):
        if self.dt <= 0:
            raise InvalidParameter("dt must be positive")
        if self.flow_substeps < 1:
            raise InvalidParameter("flow_substeps must be >= 1")


@dataclass
class TrajectoryState:
    t: float
    x: np.ndarray
    v: Optional[np.ndarray] = None
    exit_flag: Optional[str] = None  # None | "critical-point" | "explosion"


@dataclass
class TrajectorySummary:
    final: TrajectoryState
    n_steps: int
    n_jumps: int
    log_growth: float = 0.0      # accumulated log ||v|| over renormalizations
    growth_time: float = 0.0     # time over which log_growth was accumulated
    exited: bool = False


def _rk4(f: Callable, y: np.ndarray, h: float) -> np.ndarray:
    k1 = f(y)
    k2 = f(y + 0.5 * h * k1)
    k3 = f(y + 0.5 * h * k2)
    k4 = f(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _flow_field(fields: VectorFieldSet, z: np.ndarray):
    eps = fields.epsilon

    def f(x):
        out = np.zeros(2)
        for zk, vk in zip(z, fields.diffusion):
            if zk != 0.0:
                out += zk * vk(x)
        return eps * out

    return f


def marcus_jump_map(fields: VectorFieldSet, z, x: np.ndarray,
                    substeps: int = 8) -> np.ndarray:
    """Value at time one of the flow along eps * sum_k z_k V_k starting at x."""
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if not np.any(z):
        return np.array(x, dtype=float)
    f = _flow_field(fields, z)
    y = np.array(x, dtype=float)
    h = 1.0 / substeps
    for _ in range(substeps):
        y = _rk4(f, y, h)
        if not np.all(np.isfinite(y)):
            raise FlowEscape("jump flow left the domain")
    return y


def marcus_jump_jacobian(fields: VectorFieldSet, z, x: np.ndarray,
                         substeps: int = 8) -> np.ndarray:
    """Derivative of the jump map at x, by the variational equation."""
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if fields.diffusion_jacobians is None:
        raise InvalidParameter("diffusion_jacobians required for the jump jacobian")
    if not np.any(z):
        return np.eye(2)
    eps = fields.epsilon

    def f(y):
        x_, J = y[:2], y[2:].reshape(2, 2)
        dx = np.zeros(2)
        dJ = np.zeros((2, 2))
        for zk, vk, dvk in zip(z, fields.diffusion, fields.diffusion_jacobians):
            if zk != 0.0:
                dx += zk * vk(x_)
                dJ += zk * (dvk(x_) @ J)
        return np.concatenate([eps * dx, (eps * dJ).ravel()])

    y = np.concatenate([np.asarray(x, dtype=float), np.eye(2).ravel()])
    h = 1.0 / substeps
    for _ in range(substeps):
        y = _rk4(f, y, h)
        if not np.all(np.isfinite(y)):
            raise FlowEscape("variational flow left the domain")
    return y[2:].reshape(2, 2)


def _check_exit(fields: VectorFieldSet, state: TrajectoryState,
                cfg: StepperConfig) -> Optional[str]:
    if not np.all(np.isfinite(state.x)) or np.linalg.norm(state.x) > cfg.bound_explode:
        return "explosion"
    if fields.grad_h is not None and cfg.tol_crit > 0.0:
        if np.linalg.norm(fields.grad_h(state.x)) < cfg.tol_crit:
            return "critical-point"
    return None


def _tangent_correction(fields: VectorFieldSet, x: np.ndarray, v: np.ndarray,
                        rate: float, dt: float) -> np.ndarray:
    """Stratonovich correction of the tangent: 0.5 eps^2 sum_k
    (DV_k DV_k + D(DV_k)[V_k]) v, with the second-derivative part by a
    directional finite difference of DV_k."""
    if fields.diffusion_jacobians is None or rate == 0.0:
        return np.zeros(2)
    eps = fields.epsilon
    out = np.zeros(2)
    for vk, dvk in zip(fields.diffusion, fields.diffusion_jacobians):
        J = dvk(x)
        out += J @ (J @ v)
        vkx = vk(x)
        nv = np.linalg.norm(vkx)
        if nv > 0.0:
            h = 1e-6 * (1.0 + np.linalg.norm(x)) / nv
            d2 = (dvk(x + h * vkx) - dvk(x - h * vkx)) / (2.0 * h)
            out += d2 @ v
    return 0.5 * eps * eps * rate * dt * out


def step(fields: VectorFieldSet, noise: NoiseModel, state: TrajectoryState,
         batch, cfg: StepperConfig) -> TrajectoryState:
    """Advance one step of size batch.dt; raises ExitDetected on exit."""
    if state.exit_flag is not None:
        raise ExitDetected(state)
    eps = fields.epsilon
    dt = batch.dt
    x = np.array(state.x, dtype=float)
    v = None if state.v is None else np.array(state.v, dtype=float)

    # (i) deterministic drift, RK4 (joint with tangent when present)
    if v is None:
        x = _rk4(fields.drift, x, dt)
    else:
        if fields.drift_jacobian is None:
            raise InvalidParameter("drift_jacobian required for tangent transport")

        def f(y):
            return np.concatenate([fields.drift(y[:2]),
                                   fields.drift_jacobian(y[:2]) @ y[2:]])

        y = _rk4(f, np.concatenate([x, v]), dt)
        x, v = y[:2], y[2:]

    rate = noise.gaussian_rate
    if eps > 0.0:
        # (ii) Ito correction of the Stratonovich continuous part.  The net
        # jump-compensator drift is -eps * sum_k V_k(x) * int z nu(dz) = 0
        # for the symmetric measures supported here.
        if rate > 0.0:
            corr = np.zeros(2)
            if fields.diffusion_jacobians is not None:
                for vk, dvk in zip(fields.diffusion, fields.diffusion_jacobians):
                    corr += dvk(x) @ vk(x)
            x = x + 0.5 * eps * eps * rate * dt * corr
            if v is not None:
                v = v + _tangent_correction(fields, x, v, rate, dt)

        # (iii) Gaussian part, Euler-Maruyama
        db = batch.brownian
        if np.any(db):
            inc = np.zeros(2)
            vinc = np.zeros(2)
            for k, vk in enumerate(fields.diffusion):
                inc += vk(x) * db[k]
                if v is not None:
                    vinc += (fields.diffusion_jacobians[k](x) @ v) * db[k]
            x = x + eps * inc
            if v is not None:
                v = v + eps * vinc

        # (iv) jumps, in time order
        for j in range(batch.n_jumps):
            z = np.zeros(fields.d)
            z[batch.jump_components[j]] = batch.jump_marks[j]
            if fields.jump is not None:
                x, v = fields.jump(eps * z, x, v)
                continue
            if v is not None:
                J = marcus_jump_jacobian(fields, z, x, cfg.flow_substeps)
                v = J @ v
            x = marcus_jump_map(fields, z, x, cfg.flow_substeps)

    out = TrajectoryState(state.t + dt, x, v)
    out.exit_flag = _check_exit(fields, out, cfg)
    if out.exit_flag is not None:
        raise ExitDetected(out)
    return out


def integrate(fields: VectorFieldSet, noise: NoiseModel, x0, horizon: float,
              cfg: StepperConfig, rng_or_seed, v0=None,
              renorm_interval: int = 0, burn_in_time: float = 0.0,
              observer: Optional[Callable] = None,
              raise_on_exit: bool = True) -> TrajectorySummary:
    """Integrate from x0 until the horizon or an exit.

    ``rng_or_seed`` is either a (brownian, jump) generator pair or a
    (master_seed, index) pair fed to the documented splitting rule.  When a
    tangent v0 is given, log ||v|| is accumulated every ``renorm_interval``
    steps (or whenever |log ||v||| exceeds 20) after ``burn_in_time``.
    ``observer(state)`` is invoked after every step when provided.
    A tangent v0 must be finite and nonzero (InvalidParameter otherwise).
    """
    if v0 is not None:
        v0 = np.array(v0, dtype=float)
        if not (np.all(np.isfinite(v0)) and np.any(v0)):
            raise InvalidParameter(f"tangent v0 must be finite and nonzero, got {v0}")
    if isinstance(rng_or_seed[0], np.random.Generator):
        rng_b, rng_j = rng_or_seed
    else:
        rng_b, rng_j = trajectory_streams(*rng_or_seed)
    state = TrajectoryState(0.0, np.array(x0, dtype=float), v0)
    flag = _check_exit(fields, state, cfg)
    if flag is not None:
        state.exit_flag = flag
        summary = TrajectorySummary(state, 0, 0, exited=True)
        if raise_on_exit:
            raise ExitDetected(state)
        return summary

    n_total = int(round(horizon / cfg.dt))
    summary = TrajectorySummary(state, 0, 0)
    done = 0
    since_renorm = 0
    growth_start = None if burn_in_time > 0.0 else 0.0
    while done < n_total:
        m = min(cfg.block_steps, n_total - done)
        block = sample_block(noise, cfg.dt, m, rng_b, rng_j)
        for i, (jlo, jhi) in enumerate(block.step_slices()):
            batch = block.batch(i, jlo, jhi)
            try:
                state = step(fields, noise, state, batch, cfg)
            except ExitDetected as exc:
                summary.final = exc.state
                summary.exited = True
                if raise_on_exit:
                    raise
                return summary
            summary.n_steps += 1
            summary.n_jumps += batch.n_jumps
            if observer is not None:
                observer(state)
            if state.v is not None:
                if growth_start is None and state.t >= burn_in_time:
                    # burn-in crossed: drop transient growth, start the clock
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
