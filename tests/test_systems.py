import math

import numpy as np
import pytest

from levyap.errors import InvalidParameter
from levyap.frame import angle_jump_flow
from levyap.systems import (exact_theta_jump, make_duffing, make_nilpotent,
                            rho_jump_even_sum)
from oracles import exact_rho_jump, noise_field


def test_invalid_parameters():
    with pytest.raises(InvalidParameter):
        make_nilpotent(0.0, 1.0)
    with pytest.raises(InvalidParameter):
        make_duffing(-1.0)


def test_nilpotent_constant_coefficients():
    sys_ = make_nilpotent(1.3, 0.8)
    co = sys_.coeffs(np.array([2.0, -1.0]))
    assert co.shear == 1.3
    assert co.d == 0.8
    assert co.b == co.c == co.e == 0.0


def test_duffing_noise_matrix_values():
    sig = 1.7
    sys_ = make_duffing(sig)
    co = sys_.coeffs(np.array([1.0, 0.0]))
    assert co.d == pytest.approx(-2.0 * sig, rel=1e-12)
    assert co.shear == pytest.approx(0.75, rel=1e-12)


def test_duffing_offdiagonal_antisymmetry():
    sys_ = make_duffing(0.9)
    rng = np.random.default_rng(1)
    for _ in range(1000):
        p = rng.uniform(-2, 2, 2)
        if math.hypot(*sys_.fields(0.0).grad_h(*p)) < 1e-3:
            continue
        co = sys_.coeffs(p)
        assert co.b + co.e == pytest.approx(0.0, abs=1e-12)


def test_duffing_field_reconstruction():
    """The noise field V = (0, sigma x) in the frame: V = a1 U1 + a2 U2 with
    a1 = -sigma x g / |grad H|^2 and a2 = V . grad H = sigma x y."""
    sys_ = make_duffing(1.1)
    rng = np.random.default_rng(2)
    for _ in range(300):
        p = rng.uniform(-2, 2, 2)
        x, y = p
        g = x + x ** 3
        if math.hypot(g, y) < 1e-2:
            continue
        a1, a2 = -1.1 * x * g / (g * g + y * y), 1.1 * x * y
        u1, u2 = (np.array(u) for u in sys_.frame(x, y))
        assert np.allclose(a1 * u1 + a2 * u2,
                           noise_field(sys_.sigma)[0](x, y),
                           rtol=1e-8, atol=1e-10)


def test_duffing_critical_point_isolated():
    grad_h = make_duffing(1.0).fields(0.0).grad_h
    # grad H = (x + x^3, y) vanishes only at the origin over the reals
    assert grad_h(0.0, 0.0) == (0.0, 0.0)
    rng = np.random.default_rng(3)
    pts = rng.uniform(-3, 3, (1000, 2))
    pts = pts[np.linalg.norm(pts, axis=1) > 1e-3]
    norms = [math.hypot(*grad_h(*p)) for p in pts]
    assert min(norms) > 0.0


def test_exact_jump_values():
    assert exact_theta_jump(0.0, 1.0) == pytest.approx(math.pi / 4.0, rel=1e-14)
    assert exact_rho_jump(0.0, 1.0) == pytest.approx(0.5 * math.log(2.0), rel=1e-14)
    assert exact_theta_jump(1.1, 0.0) == 1.1
    assert exact_rho_jump(1.1, 0.0) == 0.0


def test_exact_jump_continuity_across_vertical():
    # near pi/2 the tangent chart breaks down; the glued form stays continuous
    s = 0.4
    thetas = np.linspace(math.pi / 2 - 1e-3, math.pi / 2 + 1e-3, 101)
    vals = exact_theta_jump(thetas, s)
    assert np.all(np.abs(np.diff(vals)) < 1e-2)
    assert abs(exact_theta_jump(math.pi / 2, s) - math.pi / 2) < 1e-12
    assert abs(exact_rho_jump(math.pi / 2, s)) < 1e-12


def test_even_sum_matches_pair():
    rng = np.random.default_rng(4)
    th = rng.uniform(0, 2 * math.pi, 100)
    s = rng.uniform(0.01, 0.8, 100)
    pair = exact_rho_jump(th, s) + exact_rho_jump(th, -s)
    assert np.allclose(rho_jump_even_sum(th, s), pair, rtol=1e-10, atol=1e-14)


def test_exact_jumps_match_generic_flow():
    """Closed-form angle/log-radius jump maps of the shear against the
    generic closed-form jump of the pair (the plane tangent through the
    shear along V, read back in the rescaled frame)."""
    sys_ = make_nilpotent(1.0, 1.0)
    eps, beta = 0.1, 2.0 / 3.0
    amp = eps ** (1.0 - beta) * sys_.sigma
    rng = np.random.default_rng(5)
    worst_t = worst_r = 0.0
    for _ in range(1000):
        th = rng.uniform(0.0, 2.0 * math.pi)
        z = rng.uniform(-1.0, 1.0)
        _, _, th2, rho = angle_jump_flow(sys_.frame, sys_.sigma, eps * z, 1.0,
                                         0.5, th, eps, beta)
        worst_t = max(worst_t, abs(th2 - exact_theta_jump(th, amp * z)))
        worst_r = max(worst_r, abs(rho - exact_rho_jump(th, amp * z)))
    assert worst_t < 1e-13
    assert worst_r < 1e-13
