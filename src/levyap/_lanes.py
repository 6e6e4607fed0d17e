"""Vectorized replicate kernels for constant-shear (linear) systems.

For the linear shear system the tangent step is linear with determinant 1,
the Brownian and jump updates act lane-wise, and all jumps inside one step
compose into a single shear with the summed marks.  That makes it possible
to run every replicate (and every epsilon of a sweep) as one lane of a
small numpy array and still consume exactly the same per-trajectory random
streams as the generic integrator, so the two paths can be cross-checked
pathwise; and a run of steps is one 2x2 transfer product.  Both kernels
step those products (``_segments``): the direct kernel reads the tangent
growth from them, the angle kernel also the tangent's direction at every
step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .noise import NoiseModel, jump_nodes, sample_block, trajectory_streams
from .systems import rho_jump_profile

# steps per segment (one transfer product each)
_SEGMENT = 64
# segments stepped in lockstep by the angle kernel, which keeps every
# step's partial product
_GROUP = 8


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
            gauss[:, j] = blk.gauss
            if blk.jump_marks.size:
                if sums is None:
                    sums = np.zeros((m, len(streams)))
                sums[:, j] = blk.step_mark_sums()
            del blk
        yield done, gauss, sums
        # hold no table of this block while the next one is drawn
        del gauss, sums
        done += m


def _add_in_order(acc, rows):
    """acc + rows[0] + rows[1] + ..., one row at a time.

    A cumulative sum along the rows keeps that order for every lane, so the
    result has the bits of adding the rows in a loop; a reduction along the
    rows may sum pairwise instead (it does for a single lane).
    """
    return np.cumsum(np.concatenate([acc[None], rows]), axis=0)[-1]


def _advance(prods, rows, h, hist=None):
    """Run the tangent step v1 += h v2, v2 += v1 g over the noise rows g on
    every column of the 2x2 products prods (rows first), in place; row t of
    ``hist``, when given, receives the products after step t + 1."""
    top, bot = prods
    tmp = np.empty_like(top)
    for t, g in enumerate(rows):
        np.multiply(bot, h, tmp)
        np.add(top, tmp, top)
        np.multiply(top, g, tmp)
        np.add(bot, tmp, bot)
        if hist is not None:
            hist[t] = prods


def _segments(noise: NoiseModel, dt: float, n: int, burn_steps: int,
              seed: int, indices, block_steps: int, h, amp,
              group: int = 0, history: bool = False):
    """Yield (ends, prods): the transfer products of the run's segments.

    A step is v1 += h v2, then v2 += v1 amp (dW + summed marks), per lane.
    Segments end at every multiple of _SEGMENT, at the burn-in step and at
    the last step, so none straddles the burn-in.  Each yield covers k
    segments of equal length in step order: ``ends`` (k,) are their end
    steps and prods[-1] (2, 2, k, L) their products.  With ``history``,
    prods has one row per step and one more: row t is the product of the
    first t steps (row 0 the identity).  The full segments of a noise block
    are stepped in lockstep, at most ``group`` of them at a time when it is
    positive.  A segment cut by a block edge carries its partial product
    into the next block, so the bits depend neither on ``block_steps``
    (the jump noise itself does) nor on which lanes share the call; its
    arrays are reused once the consumer asks for the next yield.
    """
    L = len(indices)
    S = _SEGMENT
    eye = np.eye(2)[:, :, None, None]
    carry = np.tile(eye, (1, 1, 1, L))     # product of the open segment,
    c_hist = None                          # its partial products
    if history:
        c_hist = np.empty((S + 1, 2, 2, 1, L))
        c_hist[0] = eye
    c = 0                                  # and its steps so far
    for off, gauss, sums in _lane_blocks(noise, dt, n, seed, indices, block_steps):
        if sums is not None:
            gauss += sums
        gauss *= amp
        m = gauss.shape[0]
        i = 0
        while i < m:
            g0 = off + i
            stop = burn_steps if g0 < burn_steps else n
            k = (min(off + m, stop) - g0) // S if g0 % S == 0 else 0
            if group:
                k = min(k, group)
            if k:
                # k full segments from g0 on, in lockstep
                prods = np.tile(eye, (1, 1, k, L))
                hist = None
                if history:
                    hist = np.empty((S + 1, 2, 2, k, L))
                    hist[0] = eye
                _advance(prods, gauss[i:i + k * S].reshape(k, S, L).swapaxes(0, 1),
                         h, None if hist is None else hist[1:])
                i += k * S
                yield g0 + S * np.arange(1, k + 1), prods[None] if hist is None else hist
                continue
            # the open segment, up to its end or to the block's
            seg_end = min((g0 // S + 1) * S, stop)
            end = min(seg_end, off + m)
            _advance(carry, gauss[i:end - off], h,
                     None if c_hist is None else c_hist[c + 1:c + 1 + end - g0])
            c += end - g0
            i = end - off
            if end < seg_end:
                continue
            yield np.array([seg_end]), carry[None] if c_hist is None else c_hist[:c + 1]
            carry[...] = eye
            c = 0
        # hold no table of this block while the next one is drawn
        del gauss, sums


def _apply(prods, v, starts=None):
    """Apply the products (2, 2, k, L) to the lane vectors v (2, L) in
    order, renormalising after each, and return the radii (k, L); the
    vectors before each product go to ``starts`` (2, k, L) when given."""
    r = np.empty(prods.shape[2:])
    for j, r_j in enumerate(r):
        if starts is not None:
            starts[:, j] = v
        w = prods[:, 0, j] * v[0] + prods[:, 1, j] * v[1]
        np.hypot(w[0], w[1], r_j)
        np.divide(w, r_j, v)
    return r


@dataclass
class DirectLanesResult:
    log_growth: np.ndarray
    growth_time: float


def shear_direct_lanes(a: float, sigma: float, eps, noise: NoiseModel,
                       dt: float, horizon: float, seed: int, indices,
                       burn_in: float = 0.1, block_steps: int = 16384,
                       v0=(1.0, 0.5)) -> DirectLanesResult:
    """Tangent-growth kernel: v' = [[0, a], [0, 0]] v dt + noise shears.

    A step is v1 += dt a v2 then v2 += v1 eps sigma (dW + summed marks).
    The segment products (``_segments``; all full segments of a noise block
    at once) are applied to the lane vectors in order, renormalising after
    each and adding log r to the growth after burn-in.
    """
    eps = np.asarray(eps, dtype=float)
    L = len(eps)
    n = int(round(horizon / dt))
    burn_steps = int(round(burn_in * n))
    v = np.outer(np.asarray(v0, dtype=float), np.ones(L))
    growth = np.zeros(L)
    for ends, prods in _segments(noise, dt, n, burn_steps, seed, indices,
                                 block_steps, dt * a, eps * sigma):
        r = _apply(prods[-1], v)
        growth = _add_in_order(growth, np.log(r[ends > burn_steps]))
    return DirectLanesResult(growth, n * dt - burn_steps * dt)


@dataclass
class AngleLanesResult:
    """Per-lane ergodic averages of the log-radius drift and diagnostics."""

    lam: np.ndarray
    shear_term: np.ndarray
    gauss_term: np.ndarray
    jump_term: np.ndarray
    occupation: np.ndarray        # (L, bins) counts of theta mod 2 pi
    martingale_rate: np.ndarray   # log-radius growth / T - lam, vanishes as T grows
    theta_samples: int


def shear_angle_lanes(a: float, sigma: float, eps, beta: float,
                      noise: NoiseModel, dt: float, horizon: float,
                      seed: int, indices, burn_in: float = 0.1,
                      drift_stride: int = 10, theta_bins: int = 256,
                      block_steps: int = 16384,
                      theta0: float = 0.7) -> AngleLanesResult:
    """Khasminskii kernel: ergodic averages of the log-radius drift Q along
    the angle of the rescaled tangent u = diag(1, eps^-beta) v.

    u takes the direct kernel's linear step in rescaled coordinates,
    u1 += dt a eps^beta u2 then u2 += u1 eps^(1 - beta) sigma (dW + summed
    marks), from u = (cos theta0, sin theta0); at eps = 0 it stays there.
    The segment products keep every step's partial product (``_segments``
    with history, _GROUP segments at a time); applied to the segment-start
    vectors they give u at every step.  With sc = u1 u2 / |u|^2 and
    c2 = u1^2 / |u|^2, every step after burn-in adds sc and
    c2 / 2 - sc^2 to the shear and quadratic-variation sums, the terms of Q
    scaled by eps^beta a and rate eps^(2 - 2 beta) sigma^2.  Every
    drift_stride-th step also adds the jump compensator profile
    (``rho_jump_profile``) at its start angle, theta = arctan2(u2, u1), and
    counts the occupation bin of its end angle.  Sums are added lane by
    lane in step order (``_add_in_order``) and the profile row by row, so
    the bits do not depend on the grouping.  The martingale rate is
    M_T / T = (log-radius growth of u after burn-in) / T - lam.
    """
    eps = np.asarray(eps, dtype=float)
    L = len(eps)
    n = int(round(horizon / dt))
    burn_steps = int(round(burn_in * n))
    e_ang = eps ** (1.0 - beta) * sigma          # sigma1 amplitude
    e_sh = eps ** beta                           # shear-drift scale
    e_wz = noise.gaussian_rate * eps ** (2.0 - 2.0 * beta) * sigma ** 2

    acc_sc = np.zeros(L)
    acc_qv = np.zeros(L)
    acc_irho = np.zeros(L)
    growth = np.zeros(L)
    n_irho = 0
    occ = np.zeros((L, theta_bins))
    bin_w = 2.0 * math.pi / theta_bins
    occ_base = np.arange(L) * theta_bins
    nodes = None
    if noise.jump_rate > 0.0:
        nodes = jump_nodes(noise.measure, noise.sampling_floor)

    u = np.outer([math.cos(theta0), math.sin(theta0)], np.ones(L))
    for ends, prods in _segments(noise, dt, n, burn_steps, seed, indices,
                                 block_steps, dt * a * e_sh, e_ang,
                                 group=_GROUP, history=True):
        starts = np.empty((2, len(ends), L))
        r = _apply(prods[-1], u, starts)
        if ends[0] <= burn_steps:
            continue
        growth = _add_in_order(growth, np.log(r))
        # u after t steps of segment j, at [:, j, t]
        d = (prods[:, :, 0] * starts[0] + prods[:, :, 1] * starts[1]).transpose(1, 2, 0, 3)
        u1, u2 = d[:, :, :-1].reshape(2, -1, L)     # at the start of each step
        q = u1 * u1 + u2 * u2
        sc = u1 * u2 / q
        acc_sc = _add_in_order(acc_sc, sc)
        acc_qv = _add_in_order(acc_qv, 0.5 * (u1 * u1 / q) - sc * sc)
        T = prods.shape[0] - 1
        picks = np.arange((T - ends[0]) % drift_stride, len(u1), drift_stride)
        if picks.size:
            n_irho += picks.size
            if nodes is not None:
                acc_irho = _add_in_order(acc_irho, rho_jump_profile(
                    np.arctan2(u2[picks], u1[picks]), e_ang, nodes))
            w1, w2 = d[:, picks // T, picks % T + 1]        # at the end
            idx = np.floor((np.arctan2(w2, w1) % (2.0 * math.pi)) / bin_w).astype(int) % theta_bins
            occ += np.bincount((idx + occ_base).ravel(),
                               minlength=L * theta_bins).reshape(L, theta_bins)

    n_drift = max(n - burn_steps, 1)
    lam_sc = e_sh * a * acc_sc / n_drift
    lam_qv = e_wz * acc_qv / n_drift
    lam_ir = acc_irho / n_irho if n_irho else np.zeros(L)
    lam = lam_sc + lam_qv + lam_ir
    return AngleLanesResult(lam, lam_sc, lam_qv, lam_ir, occ,
                            growth / (n_drift * dt) - lam, n_irho)
