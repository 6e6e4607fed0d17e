import math

import numpy as np
import pytest
from scipy.integrate import quad

from levyap.errors import DegenerateNullspace, InvalidGrid, InvalidParameter
from levyap.fpcircle import (CONDITION_LIMIT, CircleDensity, CircleGrid,
                             GeneratorMatrix, _bordered_system, _local_part,
                             build_generator, explicit_adjoint_residual,
                             lyapunov_quadrature, solve_stationary,
                             zeta2_integral_profile)
from levyap.noise import JumpMeasureSpec, jump_moment

MEASURE = JumpMeasureSpec(alpha=1.5, c_alpha=1.0, cutoff_c=1.0, floor_delta=0.05)


def svd_lstsq_density(gen):
    """Reference solve: minimum-norm least squares of G^T mu = 0 with the
    mass row appended (dense SVD), then the same clipping and renormalisation
    as solve_stationary.  Also returns sigma_2 / sigma_1 of G^T, the
    singular-value gap of its two smallest singular values."""
    G, h, n = gen.matrix, gen.grid.h, gen.grid.n
    sv = np.linalg.svd(G.T, compute_uv=False)
    M = np.vstack([G.T, np.full((1, n), h)])
    rhs = np.zeros(n + 1)
    rhs[-1] = 1.0
    mu, *_ = np.linalg.lstsq(M, rhs, rcond=None)
    mu = np.clip(mu, 0.0, None)
    mu /= np.sum(mu) * h
    return mu, sv[-2] / sv[0]


def condition_1(gen):
    K = _bordered_system(gen)
    return np.linalg.norm(K, 1) * np.linalg.norm(np.linalg.inv(K), 1)


def sin2_generator(diffusion, n=256):
    """Drift sin(2 theta): two attracting angles, so with vanishing diffusion
    the circle nearly splits into two invariant arcs."""
    grid = CircleGrid(n)
    G = _local_part(grid, np.sin(2.0 * grid.nodes), np.full(n, diffusion))
    return GeneratorMatrix(grid, G, "plain", 0.0)


def test_grid_validation():
    with pytest.raises(InvalidGrid):
        CircleGrid(10)
    with pytest.raises(InvalidGrid):
        CircleGrid(33)
    g = CircleGrid(64)
    assert g.h == pytest.approx(2 * math.pi / 64)


@pytest.mark.parametrize("variant", ["plain", "pw"])
def test_generator_kills_constants(variant):
    gen = build_generator(1.0, 1.0, 0.1, MEASURE, CircleGrid(128), variant)
    assert np.abs(gen.matrix @ np.ones(128)).max() < 1e-8


def test_generator_no_jumps_is_local():
    gen = build_generator(1.0, 1.0, 0.1, None, CircleGrid(64))
    band = np.triu(np.abs(gen.matrix), 2)[:, :-2]
    # only the wrap corners and the tridiagonal band are populated
    assert band[:-1, 1:].max() == 0.0


def test_generator_drift_only_derivative():
    n = 256
    grid = CircleGrid(n)
    gen = build_generator(1.0, 1.0, 0.0, None, grid, brownian=False)
    f = np.cos(grid.nodes)
    got = gen.matrix @ f
    want = np.sin(grid.nodes) ** 3  # -sin^2 * d cos/dth
    assert np.abs(got - want).max() < (2 * math.pi / n) ** 2


def test_pure_rotation_has_uniform_density():
    grid = CircleGrid(128)
    G = _local_part(grid, np.full(128, 0.7), np.zeros(128))
    gen = GeneratorMatrix(grid, G, "plain", 0.0)
    dens = solve_stationary(gen)
    assert np.abs(dens.values - 1.0 / (2 * math.pi)).max() < 1e-10
    assert dens.mass == pytest.approx(1.0, rel=1e-12)


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


def test_degenerate_nullspace_detected():
    grid = CircleGrid(64)
    gen = GeneratorMatrix(grid, np.zeros((64, 64)), "plain", 0.0)
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


def test_near_reducible_generator_raises():
    gen = sin2_generator(1e-10)
    _, gap = svd_lstsq_density(gen)
    assert gap < 1e-6          # the old gap test's 1e6 threshold also fires
    assert condition_1(gen) > 1e13
    with pytest.raises(DegenerateNullspace):
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


def test_parity_border_only_for_the_parity_artifact():
    grid = CircleGrid(64)
    rotation = GeneratorMatrix(grid, _local_part(grid, np.full(64, 0.7),
                                                 np.zeros(64)), "plain", 0.0)
    assert _bordered_system(rotation).shape == (66, 66)
    shear = build_generator(1.0, 1.0, 0.1, None, grid)
    assert _bordered_system(shear).shape == (65, 65)


def test_unknown_variant_rejected():
    with pytest.raises(InvalidParameter):
        build_generator(1.0, 1.0, 0.1, MEASURE, CircleGrid(64), "spectral")


def test_nonlocal_generator_needs_floor():
    m0 = JumpMeasureSpec(alpha=1.5, c_alpha=1.0, cutoff_c=1.0, floor_delta=0.0)
    with pytest.raises(InvalidParameter):
        build_generator(1.0, 1.0, 0.1, m0, CircleGrid(64))


def test_lyapunov_quadrature_odd_term_drops_for_uniform_density():
    grid = CircleGrid(256)
    dens = solve_stationary(GeneratorMatrix(
        grid, _local_part(grid, np.full(256, 1.0), np.zeros(256)), "plain", 0.0))
    lam = lyapunov_quadrature(dens, 2.3, 0.0, 0.1, None, brownian=False)
    assert abs(lam) < 1e-12


def test_zeta2_profile_positive_at_zero_angle():
    prof = zeta2_integral_profile(MEASURE, np.array([0.0]), 0.1)
    want, _ = quad(lambda z: 2.0 * 0.5 * math.log1p((0.1 * z) ** 2)
                   * 1.0 * z ** -2.5, 0.05, 1.0)
    assert prof[0] == pytest.approx(want, rel=1e-8)
    assert prof[0] > 0.0


def test_zeta2_profile_from_origin_matches_quad():
    m = JumpMeasureSpec(alpha=1.5, c_alpha=1.0, cutoff_c=1.0)
    for th in (0.0, 0.7, 2.0):
        prof = zeta2_integral_profile(m, np.array([th]), 0.2, lo=0.0)

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
        prof = zeta2_integral_profile(m, th, eps, lo=0.0) / eps ** 2
        assert np.abs(prof - target).max() <= 0.01 * np.abs(target).max()


@pytest.mark.parametrize("eps", [0.05, 0.1])
def test_lambda_consistency_between_variants(eps):
    """The rescaled leading-order route reproduces the exact angle-process
    quadrature at resolvable epsilon (the fixed grid stops resolving the
    plain density once the diffusion scale eps^2 falls below h^2)."""
    grid = CircleGrid(256)
    plain = solve_stationary(build_generator(1.0, 1.0, eps, MEASURE, grid))
    lam_plain = lyapunov_quadrature(plain, 1.0, 1.0, eps, MEASURE, "plain")
    pw = solve_stationary(build_generator(1.0, 1.0, eps, MEASURE, grid, "pw"))
    lam_pw = lyapunov_quadrature(pw, 1.0, 1.0, eps, MEASURE, "pw")
    assert abs(lam_plain - lam_pw) / abs(lam_plain) < 0.01


def test_explicit_adjoint_residual_decays():
    res = []
    for n in (128, 256):
        dens = solve_stationary(build_generator(1.0, 1.0, 0.1, MEASURE, CircleGrid(n)))
        res.append(explicit_adjoint_residual(dens, 1.0, 1.0, 0.1, MEASURE))
    assert res[1] < res[0] / 2.5
    assert res[1] < 1e-2
