import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levyap.frame import (angle_jump_flow, compute_Irho_generic, polar_fields,
                          wz_corrections)
from levyap.marcus import VectorFieldSet
from levyap.noise import (JumpMeasureSpec, gauss_legendre, jump_moment,
                          jump_nodes)
from levyap.systems import make_duffing, make_nilpotent, rho_jump_profile
from oracles import (compute_R0, frame_coordinates, frame_oracle, noise_field,
                     rk4_angle_jump, sigma0)

DUF = make_duffing(1.0)
NIL = make_nilpotent(1.0, 1.0)
GRAD_H = DUF.fields(0.0).grad_h


def callbacks(system, eps):
    """(coeffs, frame, sigma) of a system, as sigma0 and compute_R0 take
    them; the jump scale eps is their own argument."""
    return system.coeffs, system.frame, system.sigma


def random_point(rng, min_grad=0.3):
    while True:
        p = rng.uniform(-2.0, 2.0, 2)
        if math.hypot(*GRAD_H(*p)) >= min_grad:
            return p


def test_frame_vectors_duffing_reference_point():
    u1, u2 = DUF.frame(1.0, 0.0)
    assert np.allclose(u1, [0.0, -2.0])
    assert np.allclose(u2, [0.5, 0.0])


def test_frame_vectors_nilpotent_reference_point():
    # the shear system's coeffs are written in the canonical basis
    assert make_nilpotent(1.7, 1.0).frame(1.0, 1.0) == ((1.0, 0.0), (0.0, 1.0))


def test_frame_normalization_identities():
    """det[U1 U2] = 1 (angle_jump_flow relies on it); Duffing's U1 is the
    drift, U2 . grad H = 1, U1 . U2 = 0; the shear's frame is canonical."""
    rng = np.random.default_rng(0)
    drift = DUF.fields(0.0).drift
    for _ in range(200):
        p = random_point(rng)
        for system in (DUF, NIL):
            assert np.linalg.det(np.array(system.frame(*p))) == \
                pytest.approx(1.0, abs=1e-12)
        assert NIL.frame(*p) == ((1.0, 0.0), (0.0, 1.0))
        u1, u2 = (np.array(u) for u in DUF.frame(*p))
        g = np.array(GRAD_H(*p))
        assert np.allclose(u1, drift(*p), rtol=1e-15, atol=0.0)
        assert abs(u1 @ g) < 1e-12 * (np.linalg.norm(u1) * np.linalg.norm(g))
        assert u2 @ g == pytest.approx(1.0, rel=1e-12)
        assert abs(u1 @ u2) < 1e-14


def test_shear_rate_duffing_value_and_closed_form():
    # at (1, 0): g = 2, |grad H|^2 = 4, shear = 3 g^2 / 16
    assert DUF.coeffs(np.array([1.0, 0.0])).shear == pytest.approx(0.75, rel=1e-12)
    assert frame_oracle(DUF.frame, DUF.fields(0.0), 1.0, 0.0)[0][0, 1] == \
        pytest.approx(0.75, rel=1e-12)


def test_shear_rate_vanishes_for_radial_hamiltonian():
    # H = |x|^2 / 2: the rotation carries its frame along
    frame = lambda x, y: ((y, -x), (x / (x * x + y * y), y / (x * x + y * y)))
    fields = VectorFieldSet(drift=lambda x, y: (y, -x), epsilon=0.0,
                            drift_tangent=lambda x, y, v1, v2: (v2, -v1),
                            sigma=1.0)
    for p in np.random.default_rng(2).uniform(0.5, 2.0, (50, 2)):
        assert np.abs(frame_oracle(frame, fields, *p)[0]).max() <= 1e-14


def test_shear_rate_against_bracket_oracle():
    """Independent check: shear solves (DU1 U2 - DU2 U1) = shear * U1 with
    the Jacobians taken by central differences."""
    rng = np.random.default_rng(3)
    h = 1e-6

    def bracket_shear(frame, p):
        def jac(i, p):
            return np.array([np.subtract(frame(*(p + e))[i], frame(*(p - e))[i])
                             for e in np.eye(2) * h]).T / (2 * h)

        u1, u2 = (np.array(u) for u in frame(*p))
        br = jac(0, p) @ u2 - jac(1, p) @ u1
        return (br @ u1) / (u1 @ u1)

    for _ in range(100):
        p = random_point(rng, min_grad=0.5)
        assert DUF.coeffs(p).shear == pytest.approx(bracket_shear(DUF.frame, p),
                                                    rel=1e-6, abs=1e-8)
    # the shear system in the moving frame of H = u2^2 / 2
    moving = lambda u1, u2: ((u2, 0.0), (0.0, 1.0 / u2))
    p = np.array([0.7, 1.3])
    shear = frame_oracle(moving, NIL.fields(0.0), *p)[0][0, 1]
    assert shear == pytest.approx(1.0 / p[1] ** 2, rel=1e-10)
    assert shear == pytest.approx(bracket_shear(moving, p), rel=1e-6)


def test_decompose_reference_values_and_roundtrip():
    # at (1, 0): (1, 1) = -U1 / 2 + 2 U2, U1 = (0, -2); the 1000-point
    # round trip is acceptance 5
    for v, w in (((1.0, 1.0), (-0.5, 2.0)), ((0.0, -2.0), (1.0, 0.0)),
                 ((0.0, 0.0), (0.0, 0.0))):
        assert frame_coordinates(DUF.frame, 1.0, 0.0, *v) == pytest.approx(w)


@settings(max_examples=200, deadline=None)
@given(px=st.floats(-2, 2), py=st.floats(-2, 2),
       vx=st.floats(-5, 5), vy=st.floats(-5, 5))
def test_roundtrip_random(px, py, vx, vy):
    if math.hypot(*GRAD_H(px, py)) < 0.3:
        return
    w = frame_coordinates(DUF.frame, px, py, vx, vy)
    u1, u2 = (np.array(u) for u in DUF.frame(px, py))
    assert np.allclose(w[0] * u1 + w[1] * u2, [vx, vy], rtol=1e-12, atol=1e-12)


def test_frame_coefficients_match_duffing_closed_forms():
    """Rebuilt from ``frame`` and ``fields``: the drift [[0, shear], [0, 0]]
    and ``coeffs(x).mats``, exact to rounding (2e-14 seen), both systems."""
    rng = np.random.default_rng(4)
    for system in (DUF, NIL):
        fields = system.fields(0.0)
        for _ in range(1000):
            p = random_point(rng)
            drift, mats = frame_oracle(system.frame, fields, *p)
            ref = system.coeffs(p)
            assert drift[0, 1] == pytest.approx(ref.shear, rel=1e-12, abs=1e-12)
            assert np.abs(drift[[0, 1, 1], [0, 0, 1]]).max() <= 1e-12
            assert np.allclose(mats, ref.mats, rtol=1e-12, atol=1e-12)


def test_frame_coefficients_zero_fields():
    zero = dataclasses.replace(DUF.fields(0.0), sigma=0.0)
    assert np.allclose(frame_oracle(DUF.frame, zero, 1.0, 0.3)[1], 0.0, atol=1e-12)


def test_graded_terms_axis_reductions():
    co = DUF.coeffs(np.array([1.0, 0.4]))
    eps, beta = 0.2, 2.0 / 3.0
    s1, s2 = polar_fields(co, 0.0, eps, beta)
    assert s1 == pytest.approx(eps ** (1 - beta) * co.d, rel=1e-12)
    assert s2 == pytest.approx(eps * co.b, rel=1e-12)
    s1, s2 = polar_fields(co, math.pi / 2.0, eps, beta)
    assert s1 == pytest.approx(-eps ** (1 + beta) * co.c, abs=1e-12)
    assert s2 == pytest.approx(eps * co.e, abs=1e-12)


def test_graded_sums_match_matrix_route():
    """Rebuild sigma from the rescaled noise matrix directly."""
    rng = np.random.default_rng(5)
    beta = 2.0 / 3.0
    for eps in (0.05, 0.1, 0.3):
        for _ in range(100):
            p = random_point(rng)
            th = rng.uniform(0, 2 * math.pi)
            co = DUF.coeffs(p)
            sigma1, sigma2 = polar_fields(co, th, eps, beta)
            eb = eps ** beta
            m = np.array([[co.b, eb * co.c],
                          [co.d / eb, co.e]])
            s, c = math.sin(th), math.cos(th)
            s1 = eps * (m[1, 0] * c * c + (m[1, 1] - m[0, 0]) * s * c - m[0, 1] * s * s)
            s2 = eps * (m[0, 0] * c * c + (m[0, 1] + m[1, 0]) * s * c + m[1, 1] * s * s)
            assert sigma1 == pytest.approx(s1, rel=1e-10, abs=1e-13)
            assert sigma2 == pytest.approx(s2, rel=1e-10, abs=1e-13)


def test_wong_zakai_terms_from_first_principles():
    """sigma~^i must equal eps D_x sigma^i V + D_theta sigma^i sigma^1,
    with both derivatives taken numerically."""
    rng = np.random.default_rng(6)
    eps, beta = 0.15, 2.0 / 3.0
    hx = 1e-6
    for _ in range(50):
        p = random_point(rng, min_grad=0.5)
        th = rng.uniform(0, 2 * math.pi)
        co = DUF.coeffs_with_actions(p)
        wz1, wz2 = wz_corrections(co, th, eps, beta)
        v = np.array(noise_field(DUF.sigma)[0](*p))
        nv = np.linalg.norm(v)
        if nv < 1e-3:
            continue
        hs = hx / nv

        def sig(pp, tt):
            return polar_fields(DUF.coeffs(pp, with_actions=False), tt, eps, beta)

        dx1 = (sig(p + hs * v, th)[0] - sig(p - hs * v, th)[0]) / (2 * hs)
        dx2 = (sig(p + hs * v, th)[1] - sig(p - hs * v, th)[1]) / (2 * hs)
        dth1 = (sig(p, th + 1e-6)[0] - sig(p, th - 1e-6)[0]) / 2e-6
        dth2 = (sig(p, th + 1e-6)[1] - sig(p, th - 1e-6)[1]) / 2e-6
        s1, _ = sig(p, th)
        want1 = eps * dx1 + dth1 * s1
        want2 = eps * dx2 + dth2 * s1
        assert wz1 == pytest.approx(want1, rel=2e-4, abs=1e-8)
        assert wz2 == pytest.approx(want2, rel=2e-4, abs=1e-8)


def test_leading_wz_term_identity():
    # half the leading Wong-Zakai part equals d^2 (cos^2/2 - sin^2 cos^2);
    # for the shear system (only d nonzero, no x-dependence) it is the whole
    # correction, at the scale eps^(2 - 2 beta)
    co = NIL.coeffs()
    eps, beta = 0.1, 2.0 / 3.0
    rng = np.random.default_rng(7)
    for th in rng.uniform(0, 2 * math.pi, 50):
        _, wz2 = wz_corrections(co, th, eps, beta)
        s, c = math.sin(th), math.cos(th)
        want = co.d ** 2 * (0.5 * c * c - s * s * c * c)
        assert 0.5 * wz2 / eps ** (2 - 2 * beta) == pytest.approx(
            want, rel=1e-12, abs=1e-14)


def test_sigma0_reduces_to_gaussian_terms_without_jumps():
    rng = np.random.default_rng(10)
    for _ in range(20):
        p = random_point(rng, min_grad=0.5)
        th = rng.uniform(0, 2 * math.pi)
        got = sigma0(*callbacks(DUF, 0.1), None, p, th, 0.1)
        co = DUF.coeffs(p)
        s, c = math.sin(th), math.cos(th)
        want = co.shear * s * c + co.d ** 2 * (0.5 * c * c - s * s * c * c)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-14)


def test_sigma0_nilpotent_small_eps_matches_closed_form():
    """For small eps the jump term converges to the second-moment factor."""
    measure = JumpMeasureSpec(alpha=1.5, c_alpha=1.0, cutoff_c=1.0)
    m2 = jump_moment(measure, 2.0, 0.0, 1.0)
    x = np.array([1.0, 0.5])
    for th in (0.3, 1.2, 2.5, 4.0):
        got = sigma0(*callbacks(NIL, 1e-3), measure, x, th, 1e-3,
                     inner_nodes=8, z_panel_nodes=16)
        s, c = math.sin(th), math.cos(th)
        qv = 0.5 * c * c - s * s * c * c
        want = s * c + (1.0 + m2) * qv
        assert got == pytest.approx(want, rel=0.01, abs=2e-3)


def test_sigma0_quarter_turn_only_jump_term():
    measure = JumpMeasureSpec(alpha=1.5, c_alpha=1.0, cutoff_c=1.0,
                              floor_delta=0.05)
    th = math.pi / 2.0
    got = sigma0(*callbacks(NIL, 0.2), measure, np.array([1.0, 0.5]), th, 0.2)
    r0 = compute_R0(*callbacks(NIL, 0.2), measure, np.array([1.0, 0.5]), th, 0.2)
    # the angle flow never leaves pi/2 (the field vanishes there), so the
    # jump term itself vanishes and sigma0 reduces to rounding
    assert got == pytest.approx(r0, abs=1e-12)
    assert abs(r0) < 1e-12


def test_compute_r0_zero_mass():
    assert compute_R0(*callbacks(NIL, 0.1), None, np.ones(2), 0.3, 0.1) == 0.0


def test_compute_r0_node_doubling_converges():
    # doubling the flow and mark nodes moves the value by under 1e-4
    # relative (or 1e-14 absolute)
    measure = JumpMeasureSpec(alpha=1.5, c_alpha=1.0, cutoff_c=1.0,
                              floor_delta=0.05)
    x = np.array([1.0, 0.5])
    base = compute_R0(*callbacks(NIL, 0.1), measure, x, 0.8, 0.1)
    fine = compute_R0(*callbacks(NIL, 0.1), measure, x, 0.8, 0.1,
                      inner_nodes=16, z_panel_nodes=32)
    gap = abs(base - fine)
    assert gap <= 1e-4 * max(abs(base), abs(fine)) or gap <= 1e-14


def test_irho_generic_matches_closed_form():
    measure = JumpMeasureSpec(alpha=1.5, c_alpha=1.0, cutoff_c=1.0,
                              floor_delta=0.05)
    nodes = jump_nodes(measure, measure.floor_delta)
    x = np.array([1.0, 0.5])
    rng = np.random.default_rng(11)
    for th in rng.uniform(0, 2 * math.pi, 10):
        closed = float(rho_jump_profile(th, 0.1 ** (1.0 / 3.0) * NIL.sigma,
                                        nodes))
        generic = compute_Irho_generic(NIL.frame, NIL.sigma, measure, x, th, 0.1)
        assert generic == pytest.approx(closed, rel=1e-10, abs=1e-15)


def test_generic_evaluator_matches_bundle_for_duffing():
    """The frame every Hamiltonian has, U1 = J grad H and
    U2 = grad H / |grad H|^2, built from grad H alone, is Duffing's frame, and
    the linearization read in it is ``coeffs``."""
    def generic_frame(x1, x2):
        g1, g2 = GRAD_H(x1, x2)
        n = g1 * g1 + g2 * g2
        return (g2, -g1), (g1 / n, g2 / n)

    fields = DUF.fields(0.0)
    rng = np.random.default_rng(12)
    for _ in range(50):
        p = random_point(rng, min_grad=0.5)
        assert np.allclose(generic_frame(*p), DUF.frame(*p),
                           rtol=1e-14, atol=1e-15)
        drift, mats = frame_oracle(generic_frame, fields, *p)
        ref = DUF.coeffs(p)
        assert drift[0, 1] == pytest.approx(ref.shear, rel=1e-12, abs=1e-12)
        assert np.allclose(mats, ref.mats, rtol=1e-12, atol=1e-12)


def test_generic_evaluator_derivative_actions():
    """dmats is the derivative of mats along V: the oracle's, centrally."""
    fields = DUF.fields(0.0)
    rng = np.random.default_rng(14)
    h = 1e-6
    for _ in range(200):
        p = random_point(rng, min_grad=0.5)
        v = np.array(noise_field(fields.sigma)[0](*p))
        want = (frame_oracle(DUF.frame, fields, *(p + h * v))[1]
                - frame_oracle(DUF.frame, fields, *(p - h * v))[1]) / (2.0 * h)
        assert np.allclose(want, DUF.coeffs_with_actions(p).dmats,
                           rtol=1e-4, atol=1e-5)


def test_sigma0_fallback_jump_term_agrees_at_small_eps():
    """The full compensator integral rescaled by eps^(2 beta - 2) in place of
    the separated jump term gives the same integrand at small eps."""
    measure = JumpMeasureSpec(alpha=1.5, c_alpha=1.0, cutoff_c=1.0,
                              floor_delta=0.05)
    x = np.array([1.0, 0.5])
    eps, beta = 1e-2, 2.0 / 3.0
    for th in (0.4, 1.1, 2.7):
        full = sigma0(*callbacks(NIL, eps), measure, x, th, eps)
        ir = compute_Irho_generic(NIL.frame, NIL.sigma, measure, x, th, eps,
                                  beta=beta)
        fallback = (sigma0(*callbacks(NIL, eps), None, x, th, eps)
                    + eps ** (2.0 * beta - 2.0) * ir)
        assert fallback == pytest.approx(full, rel=0.05, abs=1e-4)


# the closed-form jump against the joint flow ODE

@pytest.mark.parametrize("system", [DUF, NIL], ids=["duffing", "nilpotent"])
def test_angle_jump_flow_matches_rk4_oracle(system):
    """The closed-form jump of (x, theta, log-radius) is the time-one joint
    flow: RK4 converges to it at fourth order, and a flow stopped at time b
    of mark z lands where the jump of mark b z does."""
    eps, beta = 0.1, 2.0 / 3.0
    sigma = system.sigma
    rng = np.random.default_rng(41)
    cases = []
    for _ in range(6):
        # Duffing: on the level H = 3/4 of the default start (1, 0)
        p = rng.uniform(0.3, 1.0) * rng.choice([-1.0, 1.0])
        q = math.sqrt(1.5 - p * p - 0.5 * p ** 4) * rng.choice([-1.0, 1.0])
        x = np.array([p, q]) if system is DUF else rng.uniform(-1.5, 1.5, 2)
        cases.append((x, rng.uniform(0.0, 2 * math.pi), rng.uniform(-1.0, 1.0)))
    worst = {}
    for n in (8, 32, 128):
        worst[n] = max(
            np.max(np.abs(rk4_angle_jump(system, z, x, th, eps, beta, substeps=n)
                          - angle_jump_flow(system.frame, sigma, eps * z, x[0],
                                            x[1], th, eps, beta)))
            for x, th, z in cases)
    assert worst[128] <= 1e-9
    # fourth order: each fourfold refinement gains 4^4 = 256
    assert worst[8] / worst[32] > 150 and worst[32] / worst[128] > 150, worst
    bq = [0.1, 0.45, 0.8]
    for x, th, z in cases:
        states, _ = rk4_angle_jump(system, z, x, th, eps, beta, substeps=128,
                                   b_points=bq)
        for b, st in zip(bq, states):
            want = angle_jump_flow(system.frame, sigma, eps * b * z, x[0], x[1],
                                   th, eps, beta)
            assert np.max(np.abs(st - want)) <= 1e-9


# per-node loops of the jump quadratures, with the compensator's linear term
# subtracted node by node and the flow states summed by numpy

def irho_per_node(system, measure, x, theta, eps, beta=2.0 / 3.0,
                  panel_n=16, lo=None):
    zq, wq = jump_nodes(measure, lo, panel_n)
    _, s2 = polar_fields(system.coeffs(x), theta, eps, beta)
    sigma = system.sigma
    total = 0.0
    for zi, wi in zip(zq, wq):
        pair = 0.0
        for sgn in (1.0, -1.0):
            z = sgn * zi
            y = angle_jump_flow(system.frame, sigma, eps * z, x[0], x[1],
                                theta, eps, beta)
            pair += y[3] - z * s2
        total += wi * pair
    return total


def r0_per_node(system, measure, x, theta, eps, beta=2.0 / 3.0, inner_n=8,
                panel_n=16, lo=None):
    bq, bw = gauss_legendre(inner_n, 0.0, 1.0)
    zq, wq = jump_nodes(measure, lo, panel_n)
    sigma = system.sigma
    total = 0.0
    for zi, wi in zip(zq, wq):
        for z in (zi, -zi):
            g = np.empty(len(bq))
            for j, b in enumerate(bq):
                y1, y2, th, _ = angle_jump_flow(system.frame, sigma, eps * b * z,
                                                x[0], x[1], theta, eps, beta)
                zd = z * system.coeffs(np.array([y1, y2])).d
                g[j] = zd * zd * math.cos(2.0 * th) * math.cos(th) ** 2
            val = float(np.sum(bw * (1.0 - bq) * g))
            total += wi * val
    return total


QUAD_MEASURES = [
    JumpMeasureSpec(alpha=1.5, c_alpha=1.0, cutoff_c=1.0, floor_delta=0.05),
    JumpMeasureSpec(alpha=1.2, c_alpha=0.7, cutoff_c=1.0, floor_delta=1e-3),
]


def _quadrature_points():
    rng = np.random.default_rng(23)
    pts = [(DUF, random_point(rng, min_grad=0.5), rng.uniform(0.0, 2 * math.pi))
           for _ in range(3)]
    pts += [(NIL, np.array([1.0, 0.5]), th) for th in (0.0, 0.4, 2.9)]
    return pts


@pytest.mark.parametrize("lo", [None, 0.2])
@pytest.mark.parametrize("measure", QUAD_MEASURES)
def test_batched_jump_quadratures_match_per_node_loop(measure, lo):
    """compute_Irho_generic and the compute_R0 oracle against the per-node
    loops."""
    for system, x, th in _quadrature_points():
        got = compute_Irho_generic(system.frame, system.sigma, measure, x, th,
                                   0.1, lo=lo)
        want = irho_per_node(system, measure, x, th, 0.1, lo=lo)
        assert got == pytest.approx(want, rel=1e-13, abs=1e-300), \
            ("irho", system.name, th)
        got = compute_R0(*callbacks(system, 0.1), measure, x, th, 0.1,
                         z_panel_nodes=8, lo=lo)
        want = r0_per_node(system, measure, x, th, 0.1, panel_n=8, lo=lo)
        assert got == pytest.approx(want, rel=1e-13, abs=1e-300), \
            ("r0", system.name, th)


def test_jump_quadratures_empty_above_cutoff():
    measure = QUAD_MEASURES[0]
    x = np.array([1.0, 0.5])
    assert compute_Irho_generic(NIL.frame, NIL.sigma, measure, x, 0.4, 0.1,
                                lo=1.0) == 0.0
    assert compute_R0(*callbacks(NIL, 0.1), measure, x, 0.4, 0.1, lo=1.0) == 0.0
