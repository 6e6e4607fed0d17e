"""Stationary density of the angle process of the shear system, and the
growth rate by quadrature against it.

The generator combines local drift/diffusion terms (second-order central
differences with periodic wrap) with the nonlocal jump term, discretized by
quadrature in the mark and periodic cubic interpolation at the mapped
angle.  The stationary density solves the adjoint nullspace problem
G^T mu = 0 with unit mass; the adjoint is the matrix transpose, which
preserves the constants-in-nullspace duality exactly.

The solve inverts the bordered matrix K = [[G^T, 1], [h 1^T, 0]] once: the
density is a column of K^-1, and ||K||_1 ||K^-1||_1 is the exact 1-norm
condition number kappa_1 of K.  A simple nullspace keeps kappa_1 moderate
(about 4.2e4, 1.7e5 and 7.7e5 for the eps = 0.1 shear generators at
n = 512, 1024 and 2048, with or without jumps); a nearly reducible
generator drives it up (2.3e14 for drift sin(2 theta) with diffusion 1e-10
at n = 256), and kappa_1 >= CONDITION_LIMIT is refused.  The parity artifact
of centered differences (a constant drift with no diffusion also annihilates
the alternating vector) gets the alternating vector as a second border.

A separate diagnostic evaluates the explicit cos^2-scaled form of the
adjoint equation on the solution as an independent validation residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DegenerateNullspace, InvalidGrid, InvalidParameter
from .noise import JumpMeasureSpec, jump_moment, nu_quadrature, nu_quadrature_quadratic
from .systems import exact_theta_jump, rho_jump_even_sum

# largest 1-norm condition number of the bordered stationary system accepted
# as a one-dimensional nullspace
CONDITION_LIMIT = 1e10


@dataclass(frozen=True)
class CircleGrid:
    n: int

    def __post_init__(self):
        if self.n < 16 or self.n % 2:
            raise InvalidGrid("grid size must be even and at least 16")

    @property
    def h(self) -> float:
        return 2.0 * math.pi / self.n

    @property
    def nodes(self) -> np.ndarray:
        return 2.0 * math.pi * np.arange(self.n) / self.n


@dataclass
class GeneratorMatrix:
    grid: CircleGrid
    matrix: np.ndarray
    variant: str                      # "plain" | "pw"
    epsilon: float
    params: dict = field(default_factory=dict)


@dataclass
class CircleDensity:
    grid: CircleGrid
    values: np.ndarray
    residual: float
    clipped_mass: float = 0.0

    @property
    def mass(self) -> float:
        return float(np.sum(self.values) * self.grid.h)


def _catmull_rom_row(pos: np.ndarray, n: int):
    """Interpolation stencil for periodic samples at fractional index pos.

    Returns (columns (m, 4), weights (m, 4)); weights sum to one exactly in
    real arithmetic, so the nonlocal rows annihilate constants.
    """
    j0 = np.floor(pos).astype(int)
    u = pos - j0
    w = np.stack([
        0.5 * (-u ** 3 + 2 * u ** 2 - u),
        0.5 * (3 * u ** 3 - 5 * u ** 2 + 2),
        0.5 * (-3 * u ** 3 + 4 * u ** 2 + u),
        0.5 * (u ** 3 - u ** 2),
    ], axis=1)
    cols = np.stack([(j0 - 1) % n, j0 % n, (j0 + 1) % n, (j0 + 2) % n], axis=1)
    return cols, w


def _local_part(grid: CircleGrid, drift: np.ndarray, diff: np.ndarray) -> np.ndarray:
    """drift * d/dtheta + diff * d^2/dtheta^2 by periodic central differences."""
    n, h = grid.n, grid.h
    G = np.zeros((n, n))
    idx = np.arange(n)
    G[idx, (idx + 1) % n] += drift / (2 * h) + diff / h ** 2
    G[idx, (idx - 1) % n] += -drift / (2 * h) + diff / h ** 2
    G[idx, idx] += -2.0 * diff / h ** 2
    return G


def build_generator(a: float, sigma: float, epsilon: float,
                    measure: Optional[JumpMeasureSpec], grid: CircleGrid,
                    variant: str = "plain", brownian: bool = True,
                    z_panel_nodes: int = 16) -> GeneratorMatrix:
    """Angle-process generator for the shear system.

    plain: -a sin^2 d/dth + eps^2 sig^2 (-sin cos^3 d/dth + cos^4/2 d2/dth2)
           + nonlocal jump term with the closed-form shear angle map.
    pw:    leading rescaled generator; the jump measure enters only through
           the factor (1 + second moment over the sampled band) multiplying
           the diffusion block, and no nonlocal term remains.
    """
    th = grid.nodes
    s, c = np.sin(th), np.cos(th)
    if variant == "pw":
        m2 = 0.0
        if measure is not None and measure.has_jumps:
            m2 = jump_moment(measure, 2.0, measure.floor_delta, measure.cutoff_c)
        factor = sigma ** 2 * ((1.0 if brownian else 0.0) + m2)
        G = _local_part(grid, -a * s * s - factor * s * c ** 3,
                        0.5 * factor * c ** 4)
        return GeneratorMatrix(grid, G, "pw", epsilon,
                               {"a": a, "sigma": sigma, "m2": m2, "brownian": brownian})
    if variant != "plain":
        raise InvalidParameter(f"unknown generator variant {variant!r}")
    bfac = epsilon ** 2 * sigma ** 2 if brownian else 0.0
    G = _local_part(grid, -a * s * s - bfac * s * c ** 3, 0.5 * bfac * c ** 4)
    if measure is not None and measure.has_jumps:
        if measure.floor_delta <= 0.0:
            raise InvalidParameter(
                "the nonlocal generator needs a truncated measure (floor_delta > 0)")
        z, w = nu_quadrature(measure, per_panel=z_panel_nodes)
        idx = np.arange(grid.n)
        for sq, wq in zip(np.concatenate([z, -z]), np.concatenate([w, w])):
            zeta = exact_theta_jump(th, epsilon * sigma * sq)
            pos = (zeta % (2.0 * math.pi)) / grid.h
            cols, cw = _catmull_rom_row(pos, grid.n)
            for k in range(4):
                np.add.at(G, (idx, cols[:, k]), wq * cw[:, k])
            G[idx, idx] -= wq
    return GeneratorMatrix(grid, G, "plain", epsilon,
                           {"a": a, "sigma": sigma, "brownian": brownian})


def _bordered_system(gen: GeneratorMatrix) -> np.ndarray:
    """The bordered matrix K = [[G^T, B], [C^T, 0]] of the stationary solve.

    B = 1 and C = h 1 pin the unit mass; when G^T annihilates the
    alternating vector (the parity artifact), it is added as a second border
    column and row so the solution is orthogonal to that massless mode.
    """
    G = gen.matrix
    n, h = gen.grid.n, gen.grid.h
    border = [np.ones(n)]
    alt = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    if np.abs(G.T @ alt).max() <= n * np.finfo(float).eps * np.abs(G).max():
        border.append(alt)
    k = len(border)
    K = np.zeros((n + k, n + k))
    K[:n, :n] = G.T
    for j, b in enumerate(border):
        K[:n, n + j] = b
        K[n + j, :n] = b
    K[n, :n] *= h
    return K


def solve_stationary(gen: GeneratorMatrix) -> CircleDensity:
    """Nullspace of the adjoint with unit mass, from one factorisation of
    the bordered system [[G^T, 1], [h 1^T, 0]] [mu; c] = [0; 1].

    The density is column n of K^-1, and ||K||_1 ||K^-1||_1 is the exact
    1-norm condition number kappa_1 of the bordered matrix.  A singular
    factorisation or kappa_1 >= CONDITION_LIMIT means the nullspace of G^T is
    not cleanly one-dimensional and raises DegenerateNullspace.

    One benign degeneracy is tolerated: centered differences on an even
    periodic grid decouple the two parities, so a constant drift with no
    diffusion also annihilates the alternating vector, a pure grid artifact.
    Then the alternating vector is a second border (see _bordered_system),
    which selects the solution orthogonal to the massless mode.
    """
    G = gen.matrix
    n = gen.grid.n
    if not np.any(G):
        raise DegenerateNullspace("zero generator")
    K = _bordered_system(gen)
    try:
        Kinv = np.linalg.inv(K)
    except np.linalg.LinAlgError as exc:
        raise DegenerateNullspace(f"singular bordered system: {exc}") from exc
    kappa = np.linalg.norm(K, 1) * np.linalg.norm(Kinv, 1)
    if not kappa < CONDITION_LIMIT:
        raise DegenerateNullspace(
            f"bordered system condition {kappa:.3g} is not below "
            f"{CONDITION_LIMIT:.0e}; the nullspace is not one-dimensional")
    mu = Kinv[:n, n].copy()
    clipped = float(np.sum(-mu[mu < 0]) * gen.grid.h)  # +0.0 when none
    mu = np.clip(mu, 0.0, None)
    mu /= np.sum(mu) * gen.grid.h
    residual = float(np.abs(G.T @ mu).max())
    return CircleDensity(gen.grid, mu, residual, clipped)


def zeta2_integral_profile(measure: JumpMeasureSpec, theta: np.ndarray,
                           eps_sigma: float, lo: Optional[float] = None,
                           n_nodes: int = 64) -> np.ndarray:
    """Jump contribution to the log-radius drift on an angle grid:
    int zeta2(z)(theta) nu(dz) over the symmetric band, using the
    cancellation-free even sum of the closed form.

    ``lo = 0`` integrates from the origin (power substitution); otherwise
    geometric panels over [lo, cutoff).
    """
    theta = np.asarray(theta, dtype=float)
    if measure is None or not measure.has_jumps:
        return np.zeros_like(theta)
    lo = measure.floor_delta if lo is None else lo
    if lo > 0.0:
        z, w = nu_quadrature(measure, lo=lo, per_panel=max(8, n_nodes // 4))
        return rho_jump_even_sum(theta[:, None], eps_sigma * z[None, :]) @ w
    z, w = nu_quadrature_quadratic(measure, n=n_nodes)
    vals = rho_jump_even_sum(theta[:, None], eps_sigma * z[None, :]) / (z * z)[None, :]
    return vals @ w


def lyapunov_quadrature(density: CircleDensity, a: float, sigma: float,
                        epsilon: float, measure: Optional[JumpMeasureSpec],
                        variant: str = "plain", brownian: bool = True,
                        beta: float = 2.0 / 3.0) -> float:
    """Growth rate as the density-weighted angle average of the log-radius
    drift (trapezoid rule; exact spacing on the periodic grid).

    plain: a sin cos + eps^2 sig^2 (cos^2/2 - sin^2 cos^2) + jump term.
    pw:    eps^(2 beta) * [a sin cos + sig^2 (1 + m2)(cos^2/2 - sin^2 cos^2)].
    """
    th = density.grid.nodes
    s, c = np.sin(th), np.cos(th)
    qv = 0.5 * c * c - s * s * c * c
    if variant == "plain":
        q = a * s * c + (epsilon ** 2 * sigma ** 2 * qv if brownian else 0.0)
        if measure is not None and measure.has_jumps:
            q = q + zeta2_integral_profile(measure, th, epsilon * sigma)
        return float(np.sum(q * density.values) * density.grid.h)
    if variant == "pw":
        m2 = 0.0
        if measure is not None and measure.has_jumps:
            m2 = jump_moment(measure, 2.0, measure.floor_delta, measure.cutoff_c)
        factor = sigma ** 2 * ((1.0 if brownian else 0.0) + m2)
        # shear and noise blocks enter at eps^beta and eps^(2-2beta); the two
        # scales coincide at the standard beta = 2/3
        q = epsilon ** beta * a * s * c + epsilon ** (2.0 - 2.0 * beta) * factor * qv
        return float(np.sum(q * density.values) * density.grid.h)
    raise InvalidParameter(f"unknown variant {variant!r}")


def explicit_adjoint_residual(density: CircleDensity, a: float, sigma: float,
                              epsilon: float,
                              measure: Optional[JumpMeasureSpec],
                              brownian: bool = True,
                              z_panel_nodes: int = 16) -> float:
    """Sup-norm of the explicit cos^2-scaled adjoint equation evaluated on
    the solved density.

    Independent validation of the transpose construction; it is not a
    machine-precision residual.  Without jumps it decays at the second
    order of the discretization (2.5e-3, 6.3e-4, 1.6e-4 at n = 512, 1024,
    2048 for eps = 0.1).  With jumps it does not decay: the nonlocal term
    of this explicit form and the transposed nonlocal generator differ at
    O(1) in h, so the value plateaus (4.7e-4, 4.6e-4, 4.6e-4 at the same
    grids, eps = 0.1, floor 0.05) and bounds nothing below that level.
    """
    grid = density.grid
    th = grid.nodes
    n, h = grid.n, grid.h
    mu = density.values
    s, c = np.sin(th), np.cos(th)

    def d1(f):
        return (np.roll(f, -1) - np.roll(f, 1)) / (2.0 * h)

    bfac = epsilon ** 2 * sigma ** 2 if brownian else 0.0
    out = a * c ** 2 * d1(s * s * mu)
    out += 0.5 * bfac * c ** 2 * d1(c ** 2 * d1(c ** 2 * mu))
    if measure is not None and measure.has_jumps:
        z, w = nu_quadrature(measure, per_panel=z_panel_nodes)
        f = c ** 2 * mu  # the nonlocal term transports cos^2 mu to the mapped angle
        acc = np.zeros(n)
        for sq, wq in zip(np.concatenate([z, -z]), np.concatenate([w, w])):
            zeta = exact_theta_jump(th, epsilon * sigma * sq)
            pos = (zeta % (2.0 * math.pi)) / h
            cols, cw = _catmull_rom_row(pos, n)
            interp = np.sum(f[cols] * cw, axis=1)
            acc += wq * (interp - f)
        out += acc
    return float(np.abs(out).max())
