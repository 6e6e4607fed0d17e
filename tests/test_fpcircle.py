import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from levyap.errors import DegenerateNullspace, InvalidGrid, InvalidParameter
from levyap.fpcircle import (CONDITION_LIMIT, CircleDensity, CircleGrid,
                             GeneratorMatrix, _catmull_rom_row, _fold,
                             _local_part,
                             build_generator, explicit_adjoint_residual,
                             lyapunov_quadrature, pw_limit, solve_stationary)
from levyap.noise import JumpMeasureSpec, jump_moment, jump_nodes
from levyap.systems import exact_theta_jump, rho_jump_profile
from oracles import pw_route, shear_exponent

MEASURE = JumpMeasureSpec(alpha=1.5, c_alpha=1.0, cutoff_c=1.0, floor_delta=0.05)


def full_matrix(gen):
    """The n x n circle generator: the band's rows of the nodes in [0, pi),
    then the same rows rolled by n/2, scattered to their columns."""
    n, w = gen.grid.n, gen.band.shape[1] // 2
    i = np.arange(n)[:, None]
    G = np.zeros((n, n))
    np.add.at(G, (i, (i + np.arange(-w, w + 1)) % n), np.tile(gen.band, (2, 1)))
    return G


def bordered_system(gen):
    """The dense bordered matrix K = [[G^T, 1], [h 1^T, 0]] of the
    stationary solve: the border pins the unit mass."""
    n, h = gen.grid.n, gen.grid.h
    K = np.zeros((n + 1, n + 1))
    K[:n, :n] = full_matrix(gen).T
    K[:n, n] = 1.0
    K[n, :n] = h
    return K


def dense_solve(gen):
    """Oracle of the block solve: one dense inverse of the full bordered
    system gives the density (column n, clipped and renormalised as in
    solve_stationary) and kappa_1 = ||K||_1 ||K^-1||_1."""
    n, h = gen.grid.n, gen.grid.h
    K = bordered_system(gen)
    Kinv = np.linalg.inv(K)
    mu = np.clip(Kinv[:n, n], 0.0, None)
    return mu / (np.sum(mu) * h), np.linalg.norm(K, 1) * np.linalg.norm(Kinv, 1)


def svd_lstsq_density(gen):
    """Reference solve: minimum-norm least squares of G^T mu = 0 with the
    mass row appended (dense SVD), then the same clipping and renormalisation
    as solve_stationary.  Also returns sigma_2 / sigma_1 of G^T, the
    singular-value gap of its two smallest singular values."""
    G, h, n = full_matrix(gen), gen.grid.h, gen.grid.n
    sv = np.linalg.svd(G.T, compute_uv=False)
    M = np.vstack([G.T, np.full((1, n), h)])
    rhs = np.zeros(n + 1)
    rhs[-1] = 1.0
    mu, *_ = np.linalg.lstsq(M, rhs, rcond=None)
    mu = np.clip(mu, 0.0, None)
    mu /= np.sum(mu) * h
    return mu, sv[-2] / sv[0]


def condition_1(gen):
    return dense_solve(gen)[1]


def rotation_generator(n, speed=0.7):
    """Constant drift, no diffusion: centered differences also annihilate
    the alternating vector, so the nullspace of G^T is two-dimensional."""
    grid = CircleGrid(n)
    return GeneratorMatrix(grid, _local_part(grid, np.full(n // 2, speed),
                                             np.zeros(n // 2), 1))


def sin2_generator(diffusion, n=256):
    """Drift sin(2 theta): two attracting angles, so with vanishing diffusion
    the circle nearly splits into two invariant arcs."""
    grid = CircleGrid(n)
    # drift and diffusion at the nodes in [0, pi), where the rows are built
    G = _local_part(grid, np.sin(2.0 * grid.nodes[:n // 2]),
                    np.full(n // 2, diffusion), 1)
    return GeneratorMatrix(grid, G)


def test_grid_validation():
    with pytest.raises(InvalidGrid):
        CircleGrid(10)
    with pytest.raises(InvalidGrid):
        CircleGrid(33)
    g = CircleGrid(64)
    assert g.h == pytest.approx(2 * math.pi / 64)


def test_generator_kills_constants():
    gen = build_generator(1.0, 1.0, 0.1, MEASURE, CircleGrid(128))
    assert np.abs(full_matrix(gen) @ np.ones(128)).max() < 1e-8


def test_generator_no_jumps_is_local():
    gen = build_generator(1.0, 1.0, 0.1, None, CircleGrid(64))
    band = np.triu(np.abs(full_matrix(gen)), 2)[:, :-2]
    # only the wrap corners and the tridiagonal band are populated
    assert band[:-1, 1:].max() == 0.0


def test_generator_drift_only_derivative():
    n = 256
    grid = CircleGrid(n)
    gen = build_generator(1.0, 1.0, 0.0, None, grid, brownian=False)
    f = np.cos(grid.nodes)
    got = full_matrix(gen) @ f
    want = np.sin(grid.nodes) ** 3  # -sin^2 * d cos/dth
    assert np.abs(got - want).max() < (2 * math.pi / n) ** 2


def test_stationary_brownian_only():
    gen = build_generator(1.0, 1.0, 0.1, None, CircleGrid(256))
    dens = solve_stationary(gen)
    assert dens.residual < 1e-8
    assert dens.mass == pytest.approx(1.0, rel=1e-12)
    assert dens.values.min() >= 0.0
    assert dens.clipped_mass < 1e-6


def test_clipped_mass_is_positive_zero_when_nothing_clipped():
    dens = solve_stationary(build_generator(1.0, 1.0, 0.1, MEASURE, CircleGrid(256)))
    assert dens.values.min() > 0.0
    assert dens.clipped_mass == 0.0
    assert math.copysign(1.0, dens.clipped_mass) == 1.0


@pytest.mark.parametrize("measure", [None, MEASURE], ids=["brownian", "jumps"])
def test_stationary_grid_convergence(measure):
    vals = {}
    for n in (256, 512):
        gen = build_generator(1.0, 1.0, 0.15, measure, CircleGrid(n))
        vals[n] = solve_stationary(gen).values
    coarse = vals[256]
    fine = vals[512][::2]
    assert np.abs(coarse - fine).max() < 1e-3


def test_grid_convergence_order_brownian():
    # sup-norm difference between n and 2n decays at least at 2nd order
    prev = None
    diffs = []
    for n in (64, 128, 256):
        gen = build_generator(1.0, 1.0, 0.2, None, CircleGrid(n))
        mu = solve_stationary(gen).values
        if prev is not None:
            diffs.append(np.abs(prev - mu[::2]).max())
        prev = mu
    assert diffs[1] < diffs[0] / 3.5


def test_richardson_value_matches_exact_brownian_exponent():
    """The second-order FP quadrature, Richardson-extrapolated from n = 1024
    and 2048, reproduces the exact Brownian shear exponent."""
    eps = 0.1
    lam = {n: lyapunov_quadrature(solve_stationary(
               build_generator(1.0, 1.0, eps, None, CircleGrid(n))),
               1.0, 1.0, eps, None) for n in (1024, 2048)}
    extrap = (4.0 * lam[2048] - lam[1024]) / 3.0
    exact = shear_exponent(1.0, eps, 1.0)
    assert abs(extrap - exact) <= 2e-8 * exact


def test_degenerate_nullspace_detected():
    grid = CircleGrid(64)
    gen = GeneratorMatrix(grid, np.zeros((32, 3)))
    with pytest.raises(DegenerateNullspace):
        solve_stationary(gen)


@pytest.mark.parametrize("measure", [None, MEASURE], ids=["brownian", "jumps"])
def test_bordered_solve_matches_svd_lstsq(measure):
    gen = build_generator(1.0, 1.0, 0.1, measure, CircleGrid(256))
    dens = solve_stationary(gen)
    ref_mu, _ = svd_lstsq_density(gen)
    assert np.abs(dens.values - ref_mu).max() <= 1e-9 * ref_mu.max()
    lam = lyapunov_quadrature(dens, 1.0, 1.0, 0.1, measure)
    ref = lyapunov_quadrature(CircleDensity(gen.grid, ref_mu, 0.0),
                              1.0, 1.0, 0.1, measure)
    assert lam == pytest.approx(ref, rel=0, abs=1e-12)
    assert dens.residual < 1e-12


def full_circle_generator(a, sigma, eps, measure, grid):
    """The generator built row by row at all n nodes, without the half-turn
    (the construction solve_stationary's blocks replace)."""
    n, h, th = grid.n, grid.h, grid.nodes
    s, c = np.sin(th), np.cos(th)
    bfac = eps ** 2 * sigma ** 2
    drift, diff = -a * s * s - bfac * s * c ** 3, 0.5 * bfac * c ** 4
    G = np.zeros((n, n))
    idx = np.arange(n)
    G[idx, (idx + 1) % n] += drift / (2 * h) + diff / h ** 2
    G[idx, (idx - 1) % n] += -drift / (2 * h) + diff / h ** 2
    G[idx, idx] += -2.0 * diff / h ** 2
    z, w = jump_nodes(measure) if measure else (np.empty(0),) * 2
    for sq, wq in zip(np.concatenate([z, -z]), np.concatenate([w, w])):
        pos = (exact_theta_jump(th, eps * sigma * sq) % (2.0 * math.pi)) / h
        cols, cw = _catmull_rom_row(pos, n)
        for k in range(4):
            np.add.at(G, (idx, cols[:, k]), wq * cw[:, k])
        G[idx, idx] -= wq
    return G


WIDE = JumpMeasureSpec(alpha=1.5, c_alpha=1.0, cutoff_c=10.0, floor_delta=0.05)


@pytest.mark.parametrize("measure,eps,n", [
    (None, 0.1, 128), (None, 0.1, 130), (MEASURE, 0.1, 128),
    (MEASURE, 0.1, 130), (WIDE, 0.9, 16), (WIDE, 0.9, 258)],
    ids=["brownian-128", "brownian-130", "jumps-128", "jumps-130", "wide-16",
         "wide-258"])
def test_rolled_rows_match_a_full_circle_build(measure, eps, n):
    """The rows of [pi, 2 pi) are those of [0, pi) rolled by n/2: the
    coefficients and the shear angle map commute with the half-turn.  The
    band holds each column once, also at the full reach n/2 of the wide
    measure, where the offsets -n/2 and +n/2 name one column."""
    grid = CircleGrid(n)
    gen = build_generator(1.0, 1.0, eps, measure, grid)
    reach = gen.band.shape[1] // 2
    assert gen.band.shape == (n // 2, 2 * reach + 1)
    # the wide measure reaches n/2 = 8 at n = 16 (and 112 of 129 at n = 258)
    assert reach <= n // 2 and (reach == n // 2) == (n == 16)
    ref = full_circle_generator(1.0, 1.0, eps, measure, grid)
    assert np.abs(full_matrix(gen) - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("n", [256, 258, 2048])
@pytest.mark.parametrize("measure", [None, MEASURE], ids=["brownian", "jumps"])
def test_block_solve_matches_dense_oracle(measure, n):
    """The two half-turn blocks give the dense solve's density and the exact
    kappa_1 of the full bordered circle system, with n/2 even and odd; the
    residual G^T mu of the full matrix is the one reported."""
    gen = build_generator(1.0, 1.0, 0.1, measure, CircleGrid(n))
    dens = solve_stationary(gen)
    ref_mu, ref_kappa = dense_solve(gen)
    assert dens.condition == pytest.approx(ref_kappa, rel=1e-10, abs=0)
    assert np.abs(dens.values - ref_mu).max() <= 1e-12 * ref_mu.max()
    G = full_matrix(gen)
    full_residual = np.abs(G.T @ dens.values).max()
    # both are G^T mu summed in float over n terms, in different orders (the
    # BLAS's depends on its thread count): each lies within gamma_n
    # (|G|^T mu)_i of the exact entry, gamma_n ~ n eps / 2, so the two
    # sup-norms differ by at most n eps max (|G|^T mu), 1 % for gamma_n's
    # denominator and the rounding of |G|^T mu itself
    bound = 1.01 * n * np.finfo(float).eps * (np.abs(G).T @ dens.values).max()
    assert abs(full_residual - dens.residual) <= bound
    assert full_residual < 1e-11


def test_band_solve_memory_bound():
    """At n = 2048 with jumps the band is about 70 entries a row, and the
    traced peak of the build and the solve stays below 3.5 times one
    bordered block inverse, (m + 1)^2 doubles: the two inverses are the
    floor, and no (n/2) x n array is made."""
    m = 1024
    tracemalloc.start()
    try:
        gen = build_generator(1.0, 1.0, 0.1, MEASURE, CircleGrid(2 * m))
        solve_stationary(gen)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert gen.band.nbytes < 1e6
    assert peak < 3.5 * (m + 1) ** 2 * 8


@pytest.mark.parametrize("a,sigma", [(0.5, 2.0), (2.0, 0.5)])
@pytest.mark.parametrize("measure,brownian", [(None, True), (MEASURE, True),
                                              (MEASURE, False)],
                         ids=["brownian", "jumps", "jump-only"])
@pytest.mark.parametrize("n", [16, 18, 258, 1024])
def test_folded_block_solve_matches_dense_oracle(n, measure, brownian, a, sigma):
    """Block elimination on the folded ring gives the dense solve's density
    and kappa_1 over n/2 even and odd, one block (n = 16, 18) and blocks of
    16 that do not divide m = 129 (n = 258), so the last one takes the
    remainder."""
    gen = build_generator(a, sigma, 0.1, measure, CircleGrid(n), brownian=brownian)
    dens = solve_stationary(gen)
    ref_mu, ref_kappa = dense_solve(gen)
    assert dens.condition == pytest.approx(ref_kappa, rel=1e-10, abs=0)
    assert np.abs(dens.values - ref_mu).max() <= 1e-12 * ref_mu.max()


def test_wide_band_is_one_dense_block():
    """eps = 0.9 with cutoff 10 moves angles across the ring: the folded band
    covers all m = 129 nodes, one block, and the solve is the dense one."""
    gen = build_generator(1.0, 1.0, 0.9, WIDE, CircleGrid(258))
    assert 129 // max(16, _fold(gen.band)[1]) == 1
    dens = solve_stationary(gen)
    ref_mu, ref_kappa = dense_solve(gen)
    assert dens.condition == pytest.approx(ref_kappa, rel=1e-10, abs=0)
    assert np.abs(dens.values - ref_mu).max() <= 1e-12 * ref_mu.max()


@pytest.mark.parametrize("n", [256, 258, 1024])
def test_fold_at_most_doubles_the_cyclic_band(n):
    """In the folded order p = (0, m-1, 1, m-2, ...) the half-bandwidth of a
    jump generator's half-turn blocks is at most twice its cyclic one."""
    band = build_generator(1.0, 1.0, 0.1, MEASURE, CircleGrid(n)).band
    m, w = n // 2, band.shape[1] // 2
    p, folded = _fold(band)
    assert sorted(p) == list(range(m))
    d = (np.nonzero(band)[1] - w) % m
    cyclic = int(np.minimum(d, m - d).max())
    assert 1 < cyclic and folded <= 2 * cyclic


@pytest.mark.parametrize("n", [64, 66])
def test_constant_drift_generator_refused(n):
    """A constant drift with no diffusion leaves the nullspace of G^T two
    dimensional (the constants and the alternating vector, which is
    half-turn periodic when n/2 is even and antiperiodic when it is odd),
    so the solve refuses it."""
    with pytest.raises(DegenerateNullspace):
        solve_stationary(rotation_generator(n))


@pytest.mark.parametrize("diffusion", [1e-6, 1e-7, 1e-8, 1e-10])
def test_condition_refusal_matches_dense_oracle(diffusion):
    """CONDITION_LIMIT refuses exactly where the dense kappa_1 reaches it
    (2.3e10 at diffusion 1e-8, just above the limit; the two attracting
    angles make the antiperiodic block the nearly singular one)."""
    gen = sin2_generator(diffusion)
    kappa = condition_1(gen)
    if kappa >= CONDITION_LIMIT:
        with pytest.raises(DegenerateNullspace):
            solve_stationary(gen)
    else:
        assert solve_stationary(gen).condition == \
            pytest.approx(kappa, rel=1e-10, abs=0)


def test_near_reducible_generator_raises():
    gen = sin2_generator(1e-10)
    _, gap = svd_lstsq_density(gen)
    assert gap < 1e-6          # the old gap test's 1e6 threshold also fires
    assert condition_1(gen) > 1e13
    with pytest.raises(DegenerateNullspace):
        solve_stationary(gen)


def test_overflowing_condition_refused_without_warning():
    """c_alpha = 1e300 overflows kappa_1: the solve refuses it as condition
    inf and raises no numpy overflow warning on the way."""
    huge = JumpMeasureSpec(alpha=1.5, c_alpha=1e300, cutoff_c=1.0, floor_delta=0.05)
    gen = build_generator(1.0, 1.0, 0.1, huge, CircleGrid(64))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateNullspace, match="condition inf"):
            solve_stationary(gen)


def test_resolvable_generator_solves():
    gen = sin2_generator(1e-6)
    ref_mu, gap = svd_lstsq_density(gen)
    assert gap > 1e-6
    assert condition_1(gen) < 1e7
    # the grid does not resolve diffusion 1e-6 (the density oscillates and is
    # clipped), but the solve is well posed and agrees with the reference
    dens = solve_stationary(gen)
    assert np.abs(dens.values - ref_mu).max() <= 1e-8 * ref_mu.max()


@pytest.mark.parametrize("measure", [None, MEASURE], ids=["brownian", "jumps"])
def test_condition_of_fp_grid_far_below_limit(measure):
    # kappa_1 is 4.2e4 at n = 512 and grows about 4x per doubling of n
    # (1.7e5 at 1024, 7.7e5 at 2048)
    gen = build_generator(1.0, 1.0, 0.1, measure, CircleGrid(512))
    kappa = condition_1(gen)
    assert 1e4 < kappa < 1e5
    assert kappa < CONDITION_LIMIT / 1e4


def test_nonlocal_generator_needs_floor():
    # the generator and the explicit residual share one nonlocal stencil
    # loop, and both refuse an untruncated measure
    m0 = JumpMeasureSpec(alpha=1.5, c_alpha=1.0, cutoff_c=1.0, floor_delta=0.0)
    grid = CircleGrid(64)
    with pytest.raises(InvalidParameter):
        build_generator(1.0, 1.0, 0.1, m0, grid)
    uniform = CircleDensity(grid, np.full(64, 1.0 / (2.0 * math.pi)), 0.0)
    with pytest.raises(InvalidParameter):
        explicit_adjoint_residual(uniform, 1.0, 1.0, 0.1, m0)


def test_lyapunov_quadrature_odd_term_drops_for_uniform_density():
    dens = CircleDensity(CircleGrid(256), np.full(256, 1.0 / (2.0 * math.pi)), 0.0)
    lam = lyapunov_quadrature(dens, 2.3, 0.0, 0.1, None, brownian=False)
    assert abs(lam) < 1e-12


def test_zeta2_profile_positive_at_zero_angle():
    prof = rho_jump_profile(np.array([0.0]), 0.1, jump_nodes(MEASURE))
    want, _ = quad(lambda z: 2.0 * 0.5 * math.log1p((0.1 * z) ** 2)
                   * 1.0 * z ** -2.5, 0.05, 1.0)
    assert prof[0] == pytest.approx(want, rel=1e-8)
    assert prof[0] > 0.0


def test_zeta2_profile_from_origin_matches_quad():
    m = JumpMeasureSpec(alpha=1.5, c_alpha=1.0, cutoff_c=1.0)
    for th in (0.0, 0.7, 2.0):
        prof = rho_jump_profile(np.array([th]), 0.2, jump_nodes(m, lo=0.0))

        def pair(z):
            def one(s):
                c = math.cos(th)
                return 0.5 * math.log1p(s * (2.0 * math.sin(th) * c + s * c * c))
            return (one(0.2 * z) + one(-0.2 * z)) * z ** -2.5

        want, err = quad(pair, 1e-12, 1.0, limit=200)
        assert prof[0] == pytest.approx(want, rel=1e-6, abs=10 * err)


def test_taylor_limit_of_jump_drift_term():
    """zeta2 nu-integral / eps^2 tends to sig^2 (cos^2/2 - sin^2 cos^2) m2
    uniformly on the angle grid (sup-norm relative 1 percent)."""
    m = JumpMeasureSpec(alpha=1.5, c_alpha=1.0, cutoff_c=1.0)
    m2 = jump_moment(m, 2.0, 0.0, 1.0)
    th = 2.0 * math.pi * np.arange(64) / 64.0
    target = (0.5 * np.cos(th) ** 2 - np.sin(th) ** 2 * np.cos(th) ** 2) * m2
    for eps in (1e-2, 1e-3):
        prof = rho_jump_profile(th, eps, jump_nodes(m, lo=0.0)) / eps ** 2
        assert np.abs(prof - target).max() <= 0.01 * np.abs(target).max()


@pytest.mark.parametrize("eps", [0.05, 0.1])
def test_lambda_consistency_between_variants(eps):
    """The rescaled leading-order route reproduces the exact angle-process
    quadrature at resolvable epsilon (the fixed grid stops resolving the
    plain density once the diffusion scale eps^2 falls below h^2)."""
    grid = CircleGrid(256)
    plain = solve_stationary(build_generator(1.0, 1.0, eps, MEASURE, grid))
    lam_plain = lyapunov_quadrature(plain, 1.0, 1.0, eps, MEASURE)
    lam_pw = pw_route(eps, MEASURE, grid)[1]
    assert abs(lam_plain - lam_pw) / abs(lam_plain) < 0.01


def test_pw_richardson_value_matches_closed_form():
    """pw_limit is the Pinsky-Wihstutz exponent lambda_1 (a eps sigma
    sqrt(b + m2))^(2/3), with b = 1 or 0 for the Brownian part and m2 = 0
    without jumps; the circle FP route to the same limit,
    Richardson-extrapolated from n = 1024 and 2048, reproduces it
    (measured 1.0e-10 relative)."""
    eps = 0.1
    m2 = jump_moment(MEASURE, 2.0, 0.05, 1.0)
    for measure, jump_rate in ((MEASURE, m2), (None, 0.0)):
        for brownian in (True, False):
            want = shear_exponent(1.3, eps, 0.7, rate=float(brownian) + jump_rate)
            got = pw_limit(1.3, 0.7, eps, measure, brownian)
            assert got == pytest.approx(want, rel=1e-14, abs=0.0)
    lam = {n: pw_route(eps, MEASURE, CircleGrid(n))[1] for n in (1024, 2048)}
    extrap = (4.0 * lam[2048] - lam[1024]) / 3.0
    exact = shear_exponent(1.0, eps, 1.0, rate=1.0 + m2)
    assert abs(extrap - exact) <= 1e-9 * exact


def test_plain_fp_with_jumps_sits_just_above_pw_limit():
    """Over the sweep epsilon, the plain FP value with jumps (floor 0.05,
    Richardson from n = 512 and 1024) exceeds pw_limit by at most 0.2 %,
    and the gap grows with epsilon (measured 1.00044 -> 1.00146)."""
    ratios = []
    for eps in (0.05, 0.08, 0.125, 0.2, 0.32):
        lam = {n: lyapunov_quadrature(solve_stationary(
                   build_generator(1.0, 1.0, eps, MEASURE, CircleGrid(n))),
                   1.0, 1.0, eps, MEASURE) for n in (512, 1024)}
        extrap = (4.0 * lam[1024] - lam[512]) / 3.0
        ratios.append(extrap / pw_limit(1.0, 1.0, eps, MEASURE))
    assert all(1.0 <= r <= 1.002 for r in ratios), ratios
    assert all(np.diff(ratios) > 0.0), ratios


def test_explicit_adjoint_residual_decays():
    res = []
    for n in (128, 256):
        dens = solve_stationary(build_generator(1.0, 1.0, 0.1, MEASURE, CircleGrid(n)))
        res.append(explicit_adjoint_residual(dens, 1.0, 1.0, 0.1, MEASURE))
    assert res[1] < res[0] / 2.5
    assert res[1] < 1e-2
