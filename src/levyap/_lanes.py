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
from .systems import rho_jump_profile, rho_jump_sc, theta_jump_sc

# steps per chunk of the angle kernel's history buffers
_CHUNK = 256


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
            del blk
        yield done, gauss, sums
        # hold no table of this block while the next one is drawn
        del gauss, sums
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


def _add_in_order(acc, rows):
    """acc + rows[0] + rows[1] + ..., one row at a time.

    A cumulative sum along the rows keeps that order for every lane, so the
    result has the bits of adding the rows in a loop; a reduction along the
    rows may sum pairwise instead (it does for a single lane).
    """
    return np.cumsum(np.concatenate([acc[None], rows]), axis=0)[-1]


def shear_angle_lanes(a: float, sigma: float, eps, beta: float,
                      noise: NoiseModel, dt: float, horizon: float,
                      seed: int, indices, burn_in: float = 0.1,
                      drift_stride: int = 10, theta_bins: int = 256,
                      block_steps: int = 16384,
                      theta0: float = 0.7) -> AngleLanesResult:
    """Angle-process kernel in rescaled coordinates, accumulating the
    log-radius drift (shear term, Gaussian quadratic-variation term and the
    jump compensator term by quadrature on a sample stride).

    One step of a lane, with st, ct the sine and cosine of the angle,
    e_ang = eps^(1 - beta) sigma and e_wz = rate eps^(2 - 2 beta) sigma^2:
    add st ct and ct^2 / 2 - st^2 ct^2 to the shear and quadratic-variation
    sums; take the drift step theta += dt (-eps^beta a st^2 - e_wz st ct^3);
    add the Gaussian kick e_ang cos^2 dW at the new angle, whose martingale
    part e_ang sin cos dW goes to the martingale sum; then apply the step's
    jumps as one shear with the summed marks (``theta_jump_sc``), adding
    its log-radius change (``rho_jump_sc``) to the martingale sum.  After
    burn-in, every drift_stride-th step also records the compensator
    profile (``rho_jump_profile``) at its start angle and the occupation
    bin of its end angle.

    The steps run in chunks of _CHUNK steps.  The Python loop over the
    steps of a chunk runs only the sequential recurrence (sin and cos, the
    drift update, the cosine after it, the Gaussian kick), writing into
    reused history buffers.  On a step where at least one lane's mark sum
    is nonzero it applies the jump to all lanes as one array shear, so a
    step costs the same few ufunc calls however many lanes jump; a zero
    sum maps the angle to itself and adds a zero, as in a loop that jumps
    every lane on every step.  All the rest is done once per chunk from
    the histories: sines and cosines are recomputed there, each sum is
    added lane by lane in step order (``_add_in_order``), the martingale
    with its Gaussian and jump terms interleaved as the steps produced
    them, and the compensator profile row by row (its rows have bits
    independent of the row count).  Every value is thus the same
    floating-point expression of the same inputs as in a loop that
    updates everything on every step, and the results are bit-identical
    to that loop (kept in the tests as the reference).
    """
    eps = np.asarray(eps, dtype=float)
    L = len(eps)
    n = int(round(horizon / dt))
    burn_steps = int(round(burn_in * n))
    rate = noise.gaussian_rate
    e_ang = eps ** (1.0 - beta) * sigma          # sigma1 amplitude
    e_sh = eps ** beta                           # shear-drift scale
    e_wz = rate * eps ** (2.0 - 2.0 * beta) * sigma ** 2
    k_sh = -e_sh * a

    acc_sc = np.zeros(L)
    acc_qv = np.zeros(L)
    acc_irho = np.zeros(L)
    mart = np.zeros(L)
    n_irho = 0
    n_drift = 0
    occ = np.zeros((L, theta_bins))
    bin_w = 2.0 * math.pi / theta_bins
    occ_base = np.arange(L) * theta_bins

    nodes = None
    if noise.jump_rate > 0.0:
        nodes = jump_nodes(noise.measure, noise.sampling_floor)

    # histories of one chunk: th[i] is the angle at the start of step i and
    # th[i + 1] at its end, td[i] the angle after the drift update, cd[i]
    # its cosine, and js[i], jc[i] the sine and cosine before the jump of
    # step i (rows of steps without a jump are left unwritten)
    th = np.empty((_CHUNK + 1, L))
    th[0] = theta0
    td = np.empty((_CHUNK, L))
    cd = np.empty((_CHUNK, L))
    js = np.empty((_CHUNK, L))
    jc = np.empty((_CHUNK, L))
    # per-step scratch; the time step is an array because a Python float
    # operand costs a conversion on every ufunc call
    st, ct, sc, c2, t1, t2 = np.empty((6, L))
    dt_l = np.full(L, dt)

    for off, gauss, sums in _lane_blocks(noise, dt, n, seed, indices, block_steps):
        for c0 in range(0, gauss.shape[0], _CHUNK):
            g = gauss[c0:c0 + _CHUNK]
            k = g.shape[0]
            # the scaled mark sums of the chunk, and the steps where at
            # least one lane jumps
            s_tab = None
            if sums is not None:
                s_tab = e_ang * sums[c0:c0 + k]
                jump_at = s_tab.any(axis=1).tolist()
            rows = zip(th[:k], th[1:k + 1], td, cd, g)
            for i, (th_i, th_e, td_i, cd_i, g_i) in enumerate(rows):
                # td = th + dt ((k_sh st) st - (e_wz sc) c2), cd = cos(td),
                # th_e = td + ((cd cd) e_ang) g; the grouping fixes the bits
                np.sin(th_i, st)
                np.cos(th_i, ct)
                np.multiply(st, ct, sc)
                np.multiply(ct, ct, c2)
                np.multiply(k_sh, st, t1)
                np.multiply(t1, st, t1)
                np.multiply(e_wz, sc, t2)
                np.multiply(t2, c2, t2)
                np.subtract(t1, t2, t1)
                np.multiply(t1, dt_l, t1)
                np.add(th_i, t1, td_i)
                np.cos(td_i, cd_i)
                np.multiply(cd_i, cd_i, t1)
                np.multiply(t1, e_ang, t1)
                np.multiply(t1, g_i, t1)
                np.add(td_i, t1, th_e)
                if s_tab is not None and jump_at[i]:
                    np.sin(th_e, js[i])
                    np.cos(th_e, jc[i])
                    theta_jump_sc(th_e, js[i], jc[i], s_tab[i], th_e, (t1, t2))

            step0 = off + c0
            lo = min(max(burn_steps - step0, 0), k)    # first step after burn-in
            if lo < k:
                first = lo + (-(step0 + lo)) % drift_stride   # first sampled step
                if first < k:
                    n_irho += len(range(first, k, drift_stride))
                    if nodes is not None:
                        acc_irho = _add_in_order(acc_irho, rho_jump_profile(
                            th[first:k:drift_stride], e_ang, nodes))
                    ends = th[first + 1:k + 1:drift_stride]
                    idx = np.floor((ends % (2.0 * math.pi)) / bin_w).astype(int) % theta_bins
                    occ += np.bincount((idx + occ_base).ravel(),
                                       minlength=L * theta_bins).reshape(L, theta_bins)
                n_drift += k - lo
                s_h = np.sin(th[lo:k])
                c_h = np.cos(th[lo:k])
                sc_h = s_h * c_h
                acc_sc = _add_in_order(acc_sc, sc_h)
                acc_qv = _add_in_order(acc_qv, 0.5 * (c_h * c_h) - sc_h * sc_h)
                terms = e_ang * np.sin(td[lo:k]) * cd[lo:k] * g[lo:k]
                if s_tab is not None:
                    # row 2j: the Gaussian terms of step lo + j; row 2j + 1:
                    # its jump terms, zero on a step without a jump
                    both = np.zeros((2 * (k - lo), L))
                    both[0::2] = terms
                    jr = np.flatnonzero(jump_at[lo:]) + lo
                    both[2 * (jr - lo) + 1] = rho_jump_sc(js[jr], jc[jr], s_tab[jr])
                    terms = both
                mart = _add_in_order(mart, terms)
            th[0] = th[k]
        # drop the kernel's references to this block's tables before the
        # next block is drawn; _lane_blocks drops its own after the yield
        del gauss, sums, g, s_tab

    lam_sc = e_sh * a * acc_sc / max(n_drift, 1)
    lam_qv = e_wz * acc_qv / max(n_drift, 1)
    lam_ir = acc_irho / max(n_irho, 1) if n_irho else np.zeros(L)
    T = max(n_drift, 1) * dt
    # jump compensator part of the martingale: subtract the time integral
    mart = mart - lam_ir * T
    return AngleLanesResult(lam_sc + lam_qv + lam_ir, lam_sc, lam_qv, lam_ir,
                            occ, mart / T, n_irho)
