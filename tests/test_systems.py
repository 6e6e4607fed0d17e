import math

import numpy as np
import pytest

from levyap.errors import InvalidParameter
from levyap.frame import angle_jump_flow
from levyap.systems import (exact_rho_jump, exact_theta_jump, make_duffing,
                            make_nilpotent, rho_jump_even_sum, rho_jump_sc,
                            theta_jump_sc)


def test_invalid_parameters():
    with pytest.raises(InvalidParameter):
        make_nilpotent(0.0, 1.0)
    with pytest.raises(InvalidParameter):
        make_duffing(-1.0)


def test_nilpotent_constant_coefficients():
    sys_ = make_nilpotent(1.3, 0.8)
    co = sys_.coeffs(np.array([2.0, -1.0]))
    assert co.shear == 1.3
    assert co.d[0] == 0.8
    assert co.b[0] == co.c[0] == co.e[0] == 0.0


def test_duffing_noise_matrix_values():
    sig = 1.7
    sys_ = make_duffing(sig)
    co = sys_.coeffs(np.array([1.0, 0.0]))
    assert co.d[0] == pytest.approx(-2.0 * sig, rel=1e-12)
    assert co.shear == pytest.approx(0.75, rel=1e-12)


def test_duffing_offdiagonal_antisymmetry():
    sys_ = make_duffing(0.9)
    rng = np.random.default_rng(1)
    for _ in range(1000):
        p = rng.uniform(-2, 2, 2)
        if np.linalg.norm(sys_.hamiltonian().grad_h(p)) < 1e-3:
            continue
        co = sys_.coeffs(p)
        assert co.b[0] + co.e[0] == pytest.approx(0.0, abs=1e-12)


def test_duffing_field_reconstruction():
    sys_ = make_duffing(1.1)
    model = sys_.hamiltonian()
    ff = sys_.frame_fields()
    rng = np.random.default_rng(2)
    for _ in range(300):
        p = rng.uniform(-2, 2, 2)
        g = model.grad_h(p)
        if np.linalg.norm(g) < 1e-2:
            continue
        u1 = np.array([g[1], -g[0]])
        u2 = g / (g @ g)
        v = ff.a1[0](p) * u1 + ff.a2[0](p) * u2
        want = np.array([0.0, 1.1 * p[0]])
        assert np.allclose(v, want, rtol=1e-8, atol=1e-10)


def test_duffing_critical_point_isolated():
    model = make_duffing(1.0).hamiltonian()
    # grad H = (x + x^3, y) vanishes only at the origin over the reals
    assert np.array_equal(model.grad_h(np.zeros(2)), np.zeros(2))
    rng = np.random.default_rng(3)
    pts = rng.uniform(-3, 3, (1000, 2))
    pts = pts[np.linalg.norm(pts, axis=1) > 1e-3]
    norms = [np.linalg.norm(model.grad_h(p)) for p in pts]
    assert min(norms) > 0.0


def test_exact_jump_values():
    assert exact_theta_jump(0.0, 1.0) == pytest.approx(math.pi / 4.0, rel=1e-14)
    assert exact_rho_jump(0.0, 1.0) == pytest.approx(0.5 * math.log(2.0), rel=1e-14)
    assert exact_theta_jump(1.1, 0.0) == 1.1
    assert exact_rho_jump(1.1, 0.0) == 0.0


def test_jump_formula_helpers_keep_the_inline_bits():
    """exact_theta_jump / exact_rho_jump, and theta_jump_sc / rho_jump_sc
    on precomputed sines and cosines as the angle lane kernel calls them,
    give the bits of the jump formulas written out here."""
    rng = np.random.default_rng(12)
    th = np.concatenate([rng.uniform(-20.0, 20.0, 4000),
                         math.pi / 2 + rng.uniform(-1e-6, 1e-6, 200)])
    s = np.concatenate([rng.standard_normal(3000) * 0.3,
                        rng.uniform(-5.0, 5.0, 1000), np.zeros(200)])
    st, ct = np.sin(th), np.cos(th)
    delta = np.arctan2(st + s * ct, ct) - np.arctan2(st, ct)
    want_t = th + ((delta + np.pi) % (2.0 * np.pi) - np.pi)
    want_r = 0.5 * np.log1p(s * (2.0 * np.sin(th) * ct + s * ct * ct))
    assert exact_theta_jump(th, s).tobytes() == want_t.tobytes()
    assert exact_rho_jump(th, s).tobytes() == want_r.tobytes()
    assert theta_jump_sc(th, st, ct, s).tobytes() == want_t.tobytes()
    assert rho_jump_sc(st, ct, s).tobytes() == want_r.tobytes()


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
    """Closed-form angle/log-radius jump maps against the joint flow ODE."""
    sys_ = make_nilpotent(1.0, 1.0)
    eps, beta = 0.1, 2.0 / 3.0
    amp = eps ** (1.0 - beta) * sys_.sigma
    rng = np.random.default_rng(5)
    x = np.array([1.0, 0.5])
    worst_t = worst_r = 0.0
    for _ in range(1000):
        th = rng.uniform(0.0, 2.0 * math.pi)
        z = rng.uniform(-1.0, 1.0)
        y = angle_jump_flow(sys_.coeffs, sys_.v_values, np.array([z]), x, th,
                            eps, beta, substeps=32)
        dt_ = abs(y[2] - exact_theta_jump(th, amp * z))
        dr_ = abs(y[3] - exact_rho_jump(th, amp * z))
        worst_t = max(worst_t, dt_)
        worst_r = max(worst_r, dr_)
    assert worst_t < 1e-8
    assert worst_r < 1e-8
