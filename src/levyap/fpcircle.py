"""Stationary density of the angle process of the shear system, the
growth rate by quadrature against it, and its Pinsky-Wihstutz limit in
closed form (``pw_limit``).

The generator combines local drift/diffusion terms (second-order central
differences with periodic wrap) with the nonlocal jump term, discretized by
quadrature in the mark and periodic cubic interpolation at the mapped
angle.  The stationary density solves the adjoint nullspace problem
G^T mu = 0 with unit mass; the adjoint is the matrix transpose, which
preserves the constants-in-nullspace duality exactly.

The angle process lives on directions (v and -v are one point), so the
generator commutes with the half-turn theta -> theta + pi: only the rows of
the nodes in [0, pi) are built, the others are those rolled by n/2, and
G = [[A, B], [B, A]] exactly.  A row couples its node to those within the
stencils' cyclic reach w, so the rows are kept as a cyclic band, 2w + 1
entries a row (about 70 at n = 2048 with jumps), and no n/2 x n array is
made.  The orthogonal map (1/sqrt 2)[[I, I], [I, -I]]
splits the bordered matrix K = [[G^T, 1], [h 1^T, 0]] of the stationary
solve into the periodic block, (A + B)^T with the mass border times sqrt 2,
and the antiperiodic block (A - B)^T, so two inverses of half the size
replace one.  In the folded-ring order (0, m-1, 1, m-2, ...) of the m = n/2
nodes the cyclic band becomes a plain one, so in blocks of b nodes (b the
folded half-bandwidth, at least 16) the matrix is block tridiagonal but for
the dense mass border, and block elimination, its blocks gathered from the
band, gives its full inverse in O(m^2 b) flops, not the O(m^3) of a dense
inverse; the two inverses are the solve's memory.  The density is a column
of the periodic inverse, unfolded and duplicated, and ||K||_1 ||K^-1||_1,
assembled from both inverses with
|a + b| + |a - b| = 2 max(|a|, |b|), is still the exact 1-norm condition
number kappa_1 of the full circle system.  A simple nullspace keeps kappa_1
moderate (about 4.2e4, 1.7e5 and 7.7e5 for the eps = 0.1 shear generators
at n = 512, 1024 and 2048, with or without jumps); a nearly reducible
generator drives it up (2.3e14 for drift sin(2 theta) with diffusion 1e-10
at n = 256, its antiperiodic block nearly singular), and
kappa_1 >= CONDITION_LIMIT is refused.  So is a generator whose nullspace
is not one-dimensional, among them a constant drift with no diffusion, whose
centered differences also annihilate the alternating vector.

A separate diagnostic evaluates the explicit cos^2-scaled form of the
adjoint equation on the solution as an independent validation residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegenerateNullspace, InvalidGrid
from .noise import JumpMeasureSpec, jump_moment, jump_nodes
from .systems import exact_theta_jump, shear_growth_profile

# largest 1-norm condition number of the bordered stationary system accepted
# as a one-dimensional nullspace
CONDITION_LIMIT = 1e10
# the most bytes the two bordered block inverses of solve_stationary may
# take, 16 (n/2 + 1)^2 at grid size n: 2 GiB, so n <= 23,168
INVERSE_BYTES_MAX = 2 ** 31
# the top exponent of the parameter-free shear du1 = u2 dt, du2 = u1 dW
LAMBDA1 = math.sqrt(math.pi) * 0.75 ** (1.0 / 3.0) / math.gamma(1.0 / 6.0)


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
    """The generator rows of the nodes in [0, pi) as a cyclic band of shape
    (n/2, 2w + 1): band[i, w + d] is the entry of row i in column
    (i + d) mod n, w the stencils' cyclic reach (at most n/2, where the
    offsets -n/2 and +n/2 name one column and only -n/2 is used); row
    i + n/2 of the circle generator is row i rolled by n/2."""
    grid: CircleGrid
    band: np.ndarray


@dataclass
class CircleDensity:
    """condition is kappa_1 of the bordered circle system (nan when the
    density did not come from solve_stationary)."""
    grid: CircleGrid
    values: np.ndarray
    residual: float
    clipped_mass: float = 0.0
    condition: float = math.nan

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


def _jump_stencils(grid: CircleGrid, amp: float,
                   measure: Optional[JumpMeasureSpec]):
    """The nonlocal jump term, one mark z or -z at a time: yields (weight,
    columns, stencil weights) of the Catmull-Rom interpolation at the angle
    each grid node in [0, pi) maps to under the shear jump of amplitude
    amp * z (a node theta + pi maps to that angle + pi).

    The marks are the panel nodes of ``jump_nodes`` on [floor_delta, cutoff),
    which refuses an untruncated measure (floor_delta = 0).  Yields nothing
    without jumps.
    """
    if measure is None:
        return
    z, w = jump_nodes(measure)
    th = grid.nodes[:grid.n // 2]
    for sq, wq in zip(np.concatenate([z, -z]), np.concatenate([w, w])):
        zeta = exact_theta_jump(th, amp * sq)
        pos = (zeta % (2.0 * math.pi)) / grid.h
        cols, cw = _catmull_rom_row(pos, grid.n)
        yield wq, cols, cw


def _local_part(grid: CircleGrid, drift: np.ndarray, diff: np.ndarray,
                reach: int) -> np.ndarray:
    """drift * d/dtheta + diff * d^2/dtheta^2 by periodic central differences:
    the band of the given reach of the rows of the nodes in [0, pi)."""
    h = grid.h
    G = np.zeros((grid.n // 2, 2 * reach + 1))
    G[:, reach + 1] += drift / (2 * h) + diff / h ** 2
    G[:, reach - 1] += -drift / (2 * h) + diff / h ** 2
    G[:, reach] += -2.0 * diff / h ** 2
    return G


def build_generator(a: float, sigma: float, epsilon: float,
                    measure: Optional[JumpMeasureSpec], grid: CircleGrid,
                    *, brownian: bool = True) -> GeneratorMatrix:
    """Angle-process generator for the shear system:
    -a sin^2 d/dth + eps^2 sig^2 (-sin cos^3 d/dth + cos^4/2 d2/dth2)
    + nonlocal jump term with the closed-form shear angle map; every
    coefficient is unchanged by theta -> theta + pi.
    """
    n, idx = grid.n, np.arange(grid.n // 2)[:, None]
    s, c = np.sin(grid.nodes[:n // 2]), np.cos(grid.nodes[:n // 2])
    bfac = epsilon ** 2 * sigma ** 2 if brownian else 0.0
    # each mark's stencil columns as offsets from their rows, in [-n/2, n/2)
    jumps = [(wq, (cols - idx + n // 2) % n - n // 2, cw)
             for wq, cols, cw in _jump_stencils(grid, epsilon * sigma, measure)]
    w = max([1] + [int(np.abs(d).max()) for _, d, _ in jumps])  # the reach
    G = _local_part(grid, -a * s * s - bfac * s * c ** 3, 0.5 * bfac * c ** 4, w)
    for wq, d, cw in jumps:
        np.add.at(G, (idx, w + d), wq * cw)
        G[:, w] -= wq
    return GeneratorMatrix(grid, G)


def _fold(band: np.ndarray):
    """(p, bandwidth): the folded-ring order p = (0, m-1, 1, m-2, ...) of
    the m = n/2 half-turn nodes, and the half-bandwidth of the half-turn
    blocks in that order, read from the nonzero pattern of the band.  A
    node couples to the nodes within its stencil's cyclic reach w, and
    cyclic neighbours, the wrap pair (0, m-1) among them, sit at most 2w
    apart in p."""
    m, w = band.shape[0], band.shape[1] // 2
    p = np.empty(m, dtype=int)
    p[0::2] = np.arange((m + 1) // 2)
    p[1::2] = m - 1 - np.arange(m // 2)
    pos = np.empty(m, dtype=int)
    pos[p] = np.arange(m)
    i, k = np.nonzero(band)
    return p, int(np.abs(pos[i] - pos[(i + k - w) % m]).max())


def _half_turn_inverse(band: np.ndarray, s: float, p: np.ndarray, b: int,
                       h: float) -> np.ndarray:
    """The inverse, in the folded order p, of the half-turn block
    (A + s B)^T, with the mass border (column sqrt 2, row sqrt 2 h) last
    when s = 1.

    The folded nodes fall into blocks of b >= the half-bandwidth (the last
    one takes the remainder and the border), so the block matrix is
    tridiagonal but for the border.  Block LU runs down it on the identity,
    block k's right-hand side being nonzero only in the columns before the
    end of block k, and back substitution gives the inverse in O(m^2 b).
    One block is the dense inverse.
    """
    m, nbord, w = len(p), int(s > 0), band.shape[1] // 2
    r2 = math.sqrt(2.0)
    edges = [k * b for k in range(max(1, m // b))] + [m]
    band = np.hstack([band, np.zeros((m, 1))])  # slot 2w + 1: off the band

    def block(k, l):                # the grid rows of block k, columns of l
        rows, cols = p[edges[k]:edges[k + 1]], p[edges[l]:edges[l + 1], None]
        d = [np.minimum((j - cols + w) % (2 * m), 2 * w + 1)
             for j in (rows, rows + m)]
        return (band[cols, d[0]] + s * band[cols, d[1]]).T

    Y = np.eye(m + nbord)
    F = np.full((m, nbord), r2)     # the border column of the grid rows
    border = np.zeros((nbord, m + nbord))    # the border row
    border[:, :m] = r2 * h
    D, X = block(0, 0), []
    for k in range(len(edges) - 2):
        lo, mid, hi = edges[k:k + 3]
        sol = np.linalg.solve(D, np.hstack([block(k, k + 1), F[lo:mid],
                                            Y[lo:mid, :mid]]))
        Xu, Xf, Y[lo:mid, :mid] = np.split(sol, [hi - mid, hi - mid + nbord], 1)
        X.append((Xu, Xf))
        L, g = block(k + 1, k), border[:, lo:mid]
        D = block(k + 1, k + 1) - L @ Xu
        F[mid:hi] -= L @ Xf
        Y[mid:hi, :mid] -= L @ Y[lo:mid, :mid]
        border[:, mid:hi] -= g @ Xu
        border[:, m:] -= g @ Xf
        Y[m:, :mid] -= g @ Y[lo:mid, :mid]
    lo = edges[-2]
    Y[lo:] = np.linalg.solve(np.block([[D, F[lo:]], [border[:, lo:]]]), Y[lo:])
    for k in range(len(edges) - 3, -1, -1):
        lo, mid, hi = edges[k:k + 3]
        Xu, Xf = X[k]
        Y[lo:mid] -= Xu @ Y[mid:hi] + Xf @ Y[m:]
    return Y


def solve_stationary(gen: GeneratorMatrix) -> CircleDensity:
    """Nullspace of the adjoint with unit mass, [mu; c] of the bordered
    system K [mu; c] = [0; 1], from the inverses of its two half-turn blocks
    (see the module docstring), each by block elimination on the folded
    ring in O(m^2 b) for m = n/2 nodes and blocks of b >= 16 nodes,
    gathered from the generator's band.  A singular block or kappa_1 >=
    CONDITION_LIMIT means the nullspace of G^T is not cleanly
    one-dimensional and raises DegenerateNullspace.
    """
    band = gen.band
    n, h = gen.grid.n, gen.grid.h
    m, w, r2 = n // 2, band.shape[1] // 2, math.sqrt(2.0)
    if not np.any(band):
        raise DegenerateNullspace("zero generator")
    p, bandwidth = _fold(band)
    # ||K||_1, in a Python float
    norm = max(float(np.abs(band).sum(1).max()) + h, n)
    try:                # the blocks (A + B)^T and (A - B)^T, folded
        Y = [_half_turn_inverse(band, s, p, max(16, bandwidth), h)
             for s in (1.0, -1.0)]
    except np.linalg.LinAlgError as exc:
        raise DegenerateNullspace(f"singular bordered system: {exc}") from exc
    mu = np.empty(m)
    mu[p] = Y[0][:m, m]
    mu = np.tile(mu, 2) / r2
    # K^-1 = Q diag(Y+, Y-) Q: its grid columns hold (X+ + X-) / 2 and
    # (X+ - X-) / 2 and the border rows over sqrt 2, its border columns the
    # blocks' border columns over sqrt 2, twice
    Ap, Am = (np.abs(y, out=y) for y in Y)
    cols = [np.maximum(Ap[:m, :m], Am[:m, :m], out=Ap[:m, :m]).sum(0)
            + (Ap[m:, :m].sum(0) + Am[m:, :m].sum(0)) / r2]
    cols += [r2 * A[:m, m:].sum(0) + A[m:, m:].sum(0) for A in (Ap, Am)]
    # kappa_1 in Python floats: an overflow gives inf silently
    kappa = norm * float(np.concatenate(cols).max())
    if not kappa < CONDITION_LIMIT:
        raise DegenerateNullspace(
            f"bordered system condition {kappa:.3g} is not below "
            f"{CONDITION_LIMIT:.0e}; the nullspace is not one-dimensional")
    clipped = float(np.sum(-mu[mu < 0]) * h)  # +0.0 when none
    mu = np.clip(mu, 0.0, None)
    mu /= np.sum(mu) * h
    # G^T mu is [r; r], r_j summing mu_i G[i, c] over the columns c = j, j + m
    i, k = np.indices(band.shape)
    r = np.bincount(((i + k - w) % m).ravel(), (mu[:m, None] * band).ravel(), m)
    return CircleDensity(gen.grid, mu, float(np.abs(r).max()), clipped, kappa)


def lyapunov_quadrature(density: CircleDensity, a: float, sigma: float,
                        epsilon: float, measure: Optional[JumpMeasureSpec],
                        *, brownian: bool = True) -> float:
    """Growth rate as the density-weighted angle average of the unscaled
    integrand ``shear_growth_profile`` (trapezoid rule; exact spacing on the
    periodic grid)."""
    nodes = jump_nodes(measure) if measure is not None else None
    q = shear_growth_profile(density.grid.nodes, a, sigma, epsilon, 0.0,
                             1.0 if brownian else 0.0, nodes)
    return float(np.sum(q * density.values) * density.grid.h)


def pw_limit(a: float, sigma: float, epsilon: float,
             measure: Optional[JumpMeasureSpec], brownian: bool = True) -> float:
    """The Pinsky-Wihstutz (PW) limit lambda_1 (a eps sigma sqrt(b + m2))^(2/3)
    of the growth rate, lambda_1 = sqrt(pi) (3/4)^(1/3) / Gamma(1/6).

    Rescaled by eps^(2/3), the leading-order angle generator is the Brownian
    shear generator with the variance rate b + m2: b is 1 with the Brownian
    part and 0 without, and m2 is the jump second moment over [floor_delta,
    cutoff), the band the circle generator models.
    """
    m2 = 0.0
    if measure is not None:
        m2 = jump_moment(measure, 2.0, measure.floor_delta, measure.cutoff_c)
    rate = (1.0 if brownian else 0.0) + m2
    return LAMBDA1 * (a * epsilon * sigma * math.sqrt(rate)) ** (2.0 / 3.0)


def explicit_adjoint_residual(density: CircleDensity, a: float, sigma: float,
                              epsilon: float,
                              measure: Optional[JumpMeasureSpec],
                              brownian: bool = True) -> float:
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
    f = c ** 2 * mu  # the nonlocal term transports cos^2 mu to the mapped angle
    acc = np.zeros(n)
    for wq, cols, cw in _jump_stencils(grid, epsilon * sigma, measure):
        # the node theta + pi maps to the image of theta, plus pi
        cols = np.concatenate([cols, (cols + n // 2) % n])
        acc += wq * (np.sum(f[cols] * np.tile(cw, (2, 1)), axis=1) - f)
    return float(np.abs(out + acc).max())
