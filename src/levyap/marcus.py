"""Marcus-canonical jump-SDE integrator.

Both example systems are driven along one noise field, the shear
V(x) = (0, sigma x1).  DV is constant and nilpotent, so DV V = 0 and
DV DV = 0: the Ito and Stratonovich forms coincide, the tangent needs no
correction, and an Euler step along V is its exact Marcus flow.  A step
advances the state in three sub-moves:

  1. deterministic drift, integrated with classical RK4;
  2. the Gaussian increment along V;
  3. the step's jumps in time order, each the shear x2 += sigma eps z x1.

The tangent, if carried, moves by the linearized sub-moves (the same
shears).  For a symmetric jump measure the compensator of the raw jumps
cancels the bracket drift of the Ito form, leaving -eps V(x) int z nu(dz)
= 0, so no jump-related drift is applied.

The state is planar, so the drift callbacks take and return plain float
components and a step runs on Python floats only.  A step is a few dozen
float operations; a numpy array per sub-move would cost several times
more than that arithmetic, so nothing in the per-step path touches numpy:
``integrate`` turns each noise block into lists once and builds arrays only
for the state it hands back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ExitDetected, InvalidParameter
from .noise import NoiseModel, sample_block, trajectory_streams


def check_epsilon(epsilon) -> float:
    """epsilon as a float; InvalidParameter unless it lies in [0, 1), the
    small-noise range that the stepper and the estimators are built for."""
    epsilon = float(epsilon)
    if not 0.0 <= epsilon < 1.0:
        raise InvalidParameter(f"epsilon must lie in [0, 1), got {epsilon}")
    return epsilon


@dataclass
class VectorFieldSet:
    """Drift and noise field of the planar state equation.

    The callbacks take and return plain float components, not arrays (see
    the module docstring for why):

    drift               (x1, x2) -> (f1, f2), the unperturbed Hamiltonian field
    drift_tangent       (x1, x2, v1, v2) -> Df(x) v, for tangent transport
    sigma               strength of the noise field V(x) = (0, sigma x1)
    epsilon             perturbation scale in [0, 1)
    grad_h              (x1, x2) -> (g1, g2), the gradient of H, used for
                        exit detection (optional; disables the
                        critical-point check if None)
    """

    drift: Callable
    drift_tangent: Callable
    sigma: float
    epsilon: float
    grad_h: Optional[Callable] = None

    def __post_init__(self):
        check_epsilon(self.epsilon)


@dataclass
class StepperConfig:
    dt: float
    tol_crit: float = 1e-6
    bound_explode: float = 1e8
    block_steps: int = 16384

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise InvalidParameter(f"dt must be finite and positive, got {self.dt}")


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


def _state(t, x1, x2, v1, v2, flag=None) -> TrajectoryState:
    v = None if v1 is None else np.array([v1, v2])
    return TrajectoryState(t, np.array([x1, x2]), v, flag)


def _exit_flag(fields: VectorFieldSet, cfg: StepperConfig, x1, x2) -> Optional[str]:
    if not math.hypot(x1, x2) <= cfg.bound_explode:     # also catches NaN
        return "explosion"
    if fields.grad_h is not None and cfg.tol_crit > 0.0:
        if math.hypot(*fields.grad_h(x1, x2)) < cfg.tol_crit:
            return "critical-point"
    return None


def step(fields: VectorFieldSet, cfg: StepperConfig,
         t, x1, x2, v1, v2, dw, jumps=()):
    """Advance (t, x, v) by one step of size cfg.dt; returns the new
    (t, x1, x2, v1, v2).  v1 = v2 = None carries no tangent.

    ``dw`` is the step's Gaussian increment and ``jumps`` its marks in
    time order.
    Raises ExitDetected with the state after the step when that state
    exits.
    """
    dt = cfg.dt
    eps = fields.epsilon
    h2 = 0.5 * dt
    h6 = dt / 6.0

    # (i) deterministic drift, RK4; the tangent stages sit at the same points
    f = fields.drift
    a1, a2 = f(x1, x2)
    y1, y2 = x1 + h2 * a1, x2 + h2 * a2
    b1, b2 = f(y1, y2)
    z1, z2 = x1 + h2 * b1, x2 + h2 * b2
    c1, c2 = f(z1, z2)
    w1, w2 = x1 + dt * c1, x2 + dt * c2
    d1, d2 = f(w1, w2)
    if v1 is not None:
        g = fields.drift_tangent
        p1, p2 = g(x1, x2, v1, v2)
        q1, q2 = g(y1, y2, v1 + h2 * p1, v2 + h2 * p2)
        r1, r2 = g(z1, z2, v1 + h2 * q1, v2 + h2 * q2)
        s1, s2 = g(w1, w2, v1 + dt * r1, v2 + dt * r2)
        v1 += h6 * (p1 + 2.0 * q1 + 2.0 * r1 + s1)
        v2 += h6 * (p2 + 2.0 * q2 + 2.0 * r2 + s2)
    x1 += h6 * (a1 + 2.0 * b1 + 2.0 * c1 + d1)
    x2 += h6 * (a2 + 2.0 * b2 + 2.0 * c2 + d2)

    if eps > 0.0:
        sig = fields.sigma
        # (ii) Gaussian part along V = (0, sigma x1)
        if dw:
            if v1 is not None:
                v2 += eps * ((sig * v1) * dw)
            x2 += eps * ((sig * x1) * dw)

        # (iii) jumps in time order, each the time-one flow of eps z V
        for z in jumps:
            s = sig * (eps * z)
            x2 = x2 + s * x1
            if v1 is not None:
                v2 = v2 + s * v1

    t += dt
    flag = _exit_flag(fields, cfg, x1, x2)
    if flag is not None:
        raise ExitDetected(_state(t, x1, x2, v1, v2, flag))
    return t, x1, x2, v1, v2


def integrate(fields: VectorFieldSet, noise: NoiseModel, x0, horizon: float,
              cfg: StepperConfig, rng_or_seed, v0=None,
              renorm_interval: int = 0, burn_in_time: float = 0.0,
              observer: Optional[Callable] = None) -> TrajectorySummary:
    """Integrate from x0 until the horizon or an exit; an exit (at the start
    point or after a step) ends the run and is reported in the summary's
    ``exited`` and ``final.exit_flag``.

    ``rng_or_seed`` is either a (brownian, jump) generator pair or a
    (master_seed, index) pair fed to the documented splitting rule.  When a
    tangent v0 is given, log ||v|| is accumulated every ``renorm_interval``
    steps (or whenever |log ||v||| exceeds 20) after ``burn_in_time``.
    ``observer(t, x1, x2)`` is invoked after every step when provided.
    A tangent v0 must be finite and nonzero (InvalidParameter otherwise).
    """
    v1 = v2 = None
    if v0 is not None:
        v1, v2 = (float(c) for c in v0)
        if not (math.isfinite(v1) and math.isfinite(v2) and (v1 or v2)):
            raise InvalidParameter(f"tangent v0 must be finite and nonzero, got {v0}")
    if isinstance(rng_or_seed[0], np.random.Generator):
        rng_b, rng_j = rng_or_seed
    else:
        rng_b, rng_j = trajectory_streams(*rng_or_seed)
    t = 0.0
    x1, x2 = (float(c) for c in x0)
    flag = _exit_flag(fields, cfg, x1, x2)
    if flag is not None:
        return TrajectorySummary(_state(t, x1, x2, v1, v2, flag), 0, 0,
                                 exited=True)

    n_total = int(round(horizon / cfg.dt))
    n_steps = n_jumps = 0
    log_growth = growth_time = 0.0
    done = 0
    since_renorm = 0
    every = max(renorm_interval, 1)
    growth_start = None if burn_in_time > 0.0 else 0.0
    while done < n_total:
        m = min(cfg.block_steps, n_total - done)
        block = sample_block(noise, cfg.dt, m, rng_b, rng_j)
        marks = block.jump_marks.tolist()
        for dw, (jlo, jhi) in zip(block.gauss.tolist(), block.step_slices()):
            try:
                t, x1, x2, v1, v2 = step(fields, cfg, t, x1, x2, v1, v2, dw,
                                         marks[jlo:jhi])
            except ExitDetected as exc:
                return TrajectorySummary(exc.state, n_steps, n_jumps, log_growth,
                                         growth_time, exited=True)
            n_steps += 1
            n_jumps += jhi - jlo
            if observer is not None:
                observer(t, x1, x2)
            if v1 is not None:
                nv = math.hypot(v1, v2)
                if growth_start is None and t >= burn_in_time:
                    # burn-in crossed: drop transient growth, start the clock
                    v1, v2 = v1 / nv, v2 / nv
                    growth_start = t
                    since_renorm = 0
                    continue
                since_renorm += 1
                if since_renorm >= every or abs(math.log(nv)) > 20.0:
                    if growth_start is not None:
                        log_growth += math.log(nv)
                        growth_time = t - growth_start
                    v1, v2 = v1 / nv, v2 / nv
                    since_renorm = 0
        done += m
    if v1 is not None and since_renorm > 0 and growth_start is not None:
        log_growth += math.log(math.hypot(v1, v2))
        growth_time = t - growth_start
    return TrajectorySummary(_state(t, x1, x2, v1, v2), n_steps, n_jumps,
                             log_growth, growth_time)
