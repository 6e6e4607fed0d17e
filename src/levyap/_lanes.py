"""Vectorized replicate kernels for constant-shear (linear) systems.

For the linear shear system the tangent dynamics are autonomous with
constant matrices, the Brownian and jump updates act lane-wise, and all
jumps inside one step compose into a single shear with the summed marks.
That makes it possible to run every replicate (and every epsilon of a
sweep) as one lane of a small numpy array and still consume exactly the
same per-trajectory random streams as the generic integrator, so the two
paths can be cross-checked pathwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .noise import NoiseModel, jump_nodes, sample_block, trajectory_streams
from .systems import exact_rho_jump, exact_theta_jump, rho_jump_profile


def _lane_blocks(noise: NoiseModel, dt: float, n_steps: int, seed: int,
                 indices, block_steps: int):
    """Yield (offset, gauss (m, L), mark_sums (m, L) or None) block tables."""
    streams = [trajectory_streams(seed, int(i)) for i in indices]
    done = 0
    while done < n_steps:
        m = min(block_steps, n_steps - done)
        gauss = np.empty((m, len(streams)))
        sums = None
        for j, (rb, rj) in enumerate(streams):
            blk = sample_block(noise, dt, m, rb, rj)
            gauss[:, j] = blk.gauss[:, 0]
            if blk.jump_marks.size:
                if sums is None:
                    sums = np.zeros((m, len(streams)))
                sums[:, j] = blk.step_mark_sums()[:, 0]
        yield done, gauss, sums
        done += m


@dataclass
class DirectLanesResult:
    log_growth: np.ndarray
    growth_time: float


def shear_direct_lanes(a: float, sigma: float, eps, noise: NoiseModel,
                       dt: float, horizon: float, seed: int, indices,
                       renorm_interval: int = 10, burn_in: float = 0.1,
                       block_steps: int = 16384,
                       v0=(1.0, 0.5)) -> DirectLanesResult:
    """Tangent-growth kernel: v' = [[0, a], [0, 0]] v dt + noise shears."""
    eps = np.asarray(eps, dtype=float)
    L = len(eps)
    n = int(round(horizon / dt))
    burn_steps = int(round(burn_in * n))
    v_a = np.full(L, float(v0[0]))
    v_b = np.full(L, float(v0[1]))
    growth = np.zeros(L)
    dt_a = dt * a
    es = eps * sigma
    k = max(int(renorm_interval), 1)
    start_t = 0.0 if burn_steps == 0 else None
    for off, gauss, sums in _lane_blocks(noise, dt, n, seed, indices, block_steps):
        gauss *= es
        if sums is not None:
            sums *= es
        m = gauss.shape[0]
        for i in range(m):
            v_a += dt_a * v_b
            v_b += v_a * gauss[i]
            if sums is not None:
                v_b += v_a * sums[i]
            step_no = off + i + 1
            if step_no == burn_steps:
                # burn-in crossed: drop the transient growth, start the clock
                r = np.hypot(v_a, v_b)
                v_a /= r
                v_b /= r
                start_t = step_no * dt
            elif step_no % k == 0 and start_t is not None:
                r = np.hypot(v_a, v_b)
                growth += np.log(r)
                v_a /= r
                v_b /= r
    if start_t is None:
        start_t = burn_steps * dt
    r = np.hypot(v_a, v_b)
    growth += np.log(r)
    return DirectLanesResult(growth, n * dt - start_t)


@dataclass
class AngleLanesResult:
    """Per-lane ergodic averages of the log-radius drift and diagnostics."""

    lam: np.ndarray
    shear_term: np.ndarray
    gauss_term: np.ndarray
    jump_term: np.ndarray
    occupation: np.ndarray        # (L, bins) counts of theta mod 2 pi
    martingale_rate: np.ndarray   # (M1 + M2)/T, should vanish for large T
    theta_samples: int


def shear_angle_lanes(a: float, sigma: float, eps, beta: float,
                      noise: NoiseModel, dt: float, horizon: float,
                      seed: int, indices, burn_in: float = 0.1,
                      drift_stride: int = 10, theta_bins: int = 256,
                      block_steps: int = 16384,
                      theta0: float = 0.7) -> AngleLanesResult:
    """Angle-process kernel in rescaled coordinates, accumulating the
    log-radius drift (shear term, Gaussian quadratic-variation term and the
    jump compensator term by quadrature on a sample stride)."""
    eps = np.asarray(eps, dtype=float)
    L = len(eps)
    n = int(round(horizon / dt))
    burn_steps = int(round(burn_in * n))
    rate = noise.gaussian_rate
    e_ang = eps ** (1.0 - beta) * sigma          # sigma1 amplitude
    e_sh = eps ** beta                           # shear-drift scale
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

    for off, gauss, sums in _lane_blocks(noise, dt, n, seed, indices, block_steps):
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
        # lanes advance together; nothing per-block

    lam_sc = e_sh * a * acc_sc / max(n_drift, 1)
    lam_qv = e_wz * acc_qv / max(n_drift, 1)
    lam_ir = acc_irho / max(n_irho, 1) if n_irho else np.zeros(L)
    T = max(n_drift, 1) * dt
    # jump compensator part of the martingale: subtract the time integral
    mart = mart - lam_ir * T
    return AngleLanesResult(lam_sc + lam_qv + lam_ir, lam_sc, lam_qv, lam_ir,
                            occ, mart / T, n_irho)
