"""Sampling of the driving noise: Brownian increments plus truncated
power-law jumps, closed-form moments of the jump measure, and the one
quadrature of integrals against it (``jump_nodes``).

The jump measure is symmetric alpha-stable restricted to magnitudes in
[floor_delta, cutoff_c):  nu(dz) = c_alpha |z|^(-1-alpha) dz.  The driver
has one component: both example systems are driven along a single noise
field.

Reproducibility contract
------------------------
Every trajectory owns two generator streams derived from a 64-bit master
seed and the trajectory index by the splitting rule

    key      = master_seed XOR (index * 0x9E3779B97F4A7C15 mod 2^64)
    brownian = default_rng(SeedSequence([key, 0, attempt]))
    jumps    = default_rng(SeedSequence([key, 1, attempt]))

(`attempt` counts restarts after an exit).  Within a trajectory, increments
are drawn block-wise in a fixed order (``sample_block``), so results are
bit-reproducible given (seed, index) independent of scheduling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import DivergentMoment, InvalidMeasure, InvalidParameter

GOLDEN64 = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1
# the most jump events a noise block may hold on average: sample_block's
# tables peak near 64 bytes per event, about 0.26 GB at this count
EVENTS_PER_BLOCK_MAX = 4e6


@dataclass(frozen=True)
class JumpMeasureSpec:
    """Truncated symmetric alpha-stable jump measure.

    alpha       stability index in (0, 2)
    c_alpha     intensity constant, finite and >= 0 (0 means no jump part)
    cutoff_c    large-jump truncation radius, finite and > 0
    floor_delta small-jump floor in [0, cutoff_c); sampling requires > 0
    """

    alpha: float
    c_alpha: float
    cutoff_c: float
    floor_delta: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.alpha < 2.0:
            raise InvalidParameter(f"alpha must lie in (0, 2), got {self.alpha}")
        if not 0.0 <= self.c_alpha < math.inf:
            raise InvalidParameter(f"c_alpha must be finite and nonnegative, got {self.c_alpha}")
        if not 0.0 < self.cutoff_c < math.inf:
            raise InvalidParameter(f"cutoff_c must be finite and positive, got {self.cutoff_c}")
        if not 0.0 <= self.floor_delta < self.cutoff_c:
            raise InvalidParameter("floor_delta must lie in [0, cutoff_c)")

    @property
    def has_jumps(self) -> bool:
        return self.c_alpha > 0.0


def jump_moment(measure: JumpMeasureSpec, p: float, lo: float, hi: float) -> float:
    """Closed form of  int_{lo <= |z| < hi} |z|^p nu(dz); p = 0 is the mass."""
    if not 0.0 <= lo < hi or hi > measure.cutoff_c * (1 + 1e-12):
        raise InvalidParameter(f"need 0 <= lo < hi <= cutoff_c, got [{lo}, {hi})")
    if not measure.has_jumps:
        return 0.0
    a, C = measure.alpha, measure.c_alpha
    if lo == 0.0 and p <= a:
        raise DivergentMoment(f"moment p={p} diverges at the origin for alpha={a}")
    if abs(p - a) < 1e-12:
        return 2.0 * C * math.log(hi / lo)
    return 2.0 * C * (hi ** (p - a) - lo ** (p - a)) / (p - a)


@dataclass(frozen=True)
class NoiseModel:
    """Full driving-noise description used by integrators and estimators.

    brownian        include the unit-covariance Brownian part
    ar_small_jumps  Asmussen-Rosinski mode: dropped jumps |z| < floor_delta
                    are replaced by a variance-matched Gaussian
    ar_threshold    if above floor_delta, jumps in [floor_delta, ar_threshold)
                    are also replaced by a variance-matched Gaussian; only the
                    remaining band [ar_threshold, cutoff_c) is sampled as
                    discrete events.  Keeps the second moment exact while
                    making very-high-activity measures affordable.
    """

    measure: Optional[JumpMeasureSpec]
    brownian: bool = True
    ar_small_jumps: bool = False
    ar_threshold: float = 0.0

    def __post_init__(self):
        if not self.ar_threshold >= 0.0:
            raise InvalidParameter(
                f"ar_threshold must be nonnegative, got {self.ar_threshold}")

    @property
    def sampling_floor(self) -> float:
        m = self.measure
        if m is None or not m.has_jumps:
            return 0.0
        return max(m.floor_delta, self.ar_threshold)

    @property
    def gaussian_rate(self) -> float:
        """Variance per unit time of the continuous part."""
        rate = 1.0 if self.brownian else 0.0
        m = self.measure
        if m is not None and m.has_jumps:
            if self.ar_small_jumps and m.floor_delta > 0.0:
                rate += jump_moment(m, 2.0, 0.0, m.floor_delta)
            if self.ar_threshold > m.floor_delta:
                hi = min(self.ar_threshold, m.cutoff_c)
                rate += jump_moment(m, 2.0, m.floor_delta, hi)
        return rate

    @property
    def jump_rate(self) -> float:
        """Poisson rate (per unit time) of sampled jump events."""
        m = self.measure
        if m is None or not m.has_jumps or self.sampling_floor >= m.cutoff_c:
            return 0.0
        if self.sampling_floor <= 0.0:
            raise InvalidMeasure(
                "jump activity is infinite: choose floor_delta > 0 or enable "
                "the Gaussian small-jump substitute")
        return jump_moment(m, 0.0, self.sampling_floor, m.cutoff_c)


def trajectory_streams(master_seed: int, index: int, attempt: int = 0):
    """Brownian and jump generator streams for one trajectory."""
    key = (int(master_seed) ^ ((index * GOLDEN64) & _MASK64)) & _MASK64
    mk = lambda role: np.random.default_rng(np.random.SeedSequence([key, role, attempt]))
    return mk(0), mk(1)


def _invcdf_magnitudes(measure: JumpMeasureSpec, lo: float, u: np.ndarray) -> np.ndarray:
    a = measure.alpha
    lo_p = lo ** -a
    hi_p = measure.cutoff_c ** -a
    return (lo_p - u * (lo_p - hi_p)) ** (-1.0 / a)


@dataclass
class BlockIncrements:
    """Pre-sampled noise for a run of consecutive steps.

    gauss has shape (n_steps,) and is already scaled to the model's
    continuous variance rate.  Jump events are sorted by (step, offset).
    """

    dt: float
    n_steps: int
    gauss: np.ndarray
    jump_steps: np.ndarray
    jump_offsets: np.ndarray
    jump_marks: np.ndarray

    def step_slices(self):
        """(jlo, jhi) for each step in order: the events of step i are
        entries jlo:jhi of the jump arrays."""
        bounds = np.searchsorted(self.jump_steps, np.arange(self.n_steps + 1))
        return zip(bounds[:-1].tolist(), bounds[1:].tolist())

    def step_mark_sums(self) -> np.ndarray:
        """Per-step sum of the marks, shape (n_steps,), added in event order."""
        if not len(self.jump_marks):
            return np.zeros(self.n_steps)
        return np.bincount(self.jump_steps, weights=self.jump_marks,
                           minlength=self.n_steps)


def _event_order(steps: np.ndarray, offs: np.ndarray, dt: float) -> np.ndarray:
    """np.lexsort((offs, steps)) for offsets in [0, dt], by one float sort:
    the key steps + offs / dt has an exact integer part and fl(s + x) <= s + 1,
    so it never decreases in (step, offset) order, and with no tie between
    sorted neighbours its order is that one; a tie falls back to lexsort.
    (Rounding can swap adjacent steps' events in steps * dt + offs, untied.)"""
    key = steps + offs / dt
    order = np.argsort(key)
    ranked = key[order]
    return np.lexsort((offs, steps)) if np.any(ranked[1:] == ranked[:-1]) else order


def sample_block(noise: NoiseModel, dt: float, n_steps: int,
                 rng_brownian: np.random.Generator,
                 rng_jumps: np.random.Generator) -> BlockIncrements:
    """Draw all increments for ``n_steps`` consecutive steps.

    Draw order (fixed; part of the reproducibility contract):
      1. Gaussian table (n_steps,) from the brownian stream, std
         sqrt(gaussian_rate * dt) per entry;
      2. Poisson counts per step, then offsets, magnitudes and signs for
         all events of the block in bulk from the jump stream.

    Events take lexsort's (step, offset) permutation, from ``_event_order``.
    dt = 0 gives zero increments and no events without consuming the streams.
    """
    if dt < 0.0:
        raise InvalidParameter("dt must be nonnegative")
    rate = noise.gaussian_rate
    if rate > 0.0 and dt > 0.0:
        gauss = rng_brownian.normal(0.0, math.sqrt(rate * dt), n_steps)
    else:
        gauss = np.zeros(n_steps)
    jrate = noise.jump_rate
    counts = None
    if jrate > 0.0 and dt > 0.0:
        counts = rng_jumps.poisson(jrate * dt, n_steps)
    total = 0 if counts is None else int(counts.sum())
    if total == 0:
        return BlockIncrements(dt, n_steps, gauss, np.empty(0, dtype=np.int64),
                               np.empty(0), np.empty(0))
    offs = dt * rng_jumps.random(total)
    mag = _invcdf_magnitudes(noise.measure, noise.sampling_floor,
                             rng_jumps.random(total))
    marks = np.where(rng_jumps.random(total) < 0.5, -1.0, 1.0) * mag
    steps = np.repeat(np.arange(n_steps), counts)
    order = _event_order(steps, offs, dt)
    return BlockIncrements(dt, n_steps, gauss, steps[order], offs[order],
                           marks[order])


def gauss_legendre(n: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes and weights for integration over [a, b]."""
    x, w = leggauss(n)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w


@lru_cache(maxsize=256)
def jump_nodes(measure: JumpMeasureSpec, lo: Optional[float] = None,
               per_panel: int = 16):
    """One-sided (z, w, quadratic) nodes over [lo, cutoff_c) for integrands
    that vanish quadratically at 0; lo defaults to the measure's floor.
    Symmetric integrals come from the caller evaluating g(z) + g(-z).

    The density C z^(-1-alpha) spans many orders of magnitude, so a positive
    lo gets Gauss-Legendre on geometric panels of ratio 4, the weights
    carrying the density.  lo = 0 gets the power substitution u = z^(2-alpha),
    which leaves a bounded integrand, with 4 * per_panel nodes and the z^2
    factor absorbed into the weights (``quadratic`` is True: the caller
    divides its values by z^2).  Cached per measure; the arrays are
    read-only.
    """
    lo = measure.floor_delta if lo is None else lo
    hi = measure.cutoff_c
    quadratic = not lo > 0.0
    if not measure.has_jumps or (not quadratic and hi <= lo):
        z = w = np.empty(0)
    elif quadratic:
        p = 2.0 - measure.alpha
        u, w = gauss_legendre(4 * per_panel, 0.0, hi ** p)
        z, w = u ** (1.0 / p), w * measure.c_alpha / p
    else:
        zs, ws, b = [], [], hi
        while not zs or b > lo * (1 + 1e-12):   # one panel at least
            a = max(lo, b / 4.0)
            z, w = gauss_legendre(per_panel, a, b)
            zs.append(z)
            ws.append(w * measure.c_alpha * z ** (-1.0 - measure.alpha))
            b = a
        z, w = np.concatenate(zs), np.concatenate(ws)
    z.setflags(write=False)
    w.setflags(write=False)
    return z, w, quadratic
