import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levyap.errors import CriticalPoint
from levyap.frame import (PWTransform, angle_jump_flow, coefficient_A,
                          compute_Irho_generic, compute_R0, decompose_tangent,
                          evaluator_from_model, frame_coefficients,
                          frame_vectors, graded_terms, polar_fields, pw_scale,
                          recompose_tangent, sigma0)
from levyap.noise import (JumpMeasureSpec, jump_moment, nu_quadrature,
                          nu_quadrature_quadratic)
from levyap.quadrature import gauss_legendre
from levyap.systems import make_duffing, make_nilpotent

DUF = make_duffing(1.0)
NIL = make_nilpotent(1.0, 1.0)
MODEL = DUF.hamiltonian()
FIELDS = DUF.frame_fields()


def random_point(rng, min_grad=0.3):
    while True:
        p = rng.uniform(-2.0, 2.0, 2)
        if np.linalg.norm(MODEL.grad_h(p)) >= min_grad:
            return p


def test_frame_vectors_duffing_reference_point():
    u1, u2 = frame_vectors(MODEL, np.array([1.0, 0.0]))
    assert np.allclose(u1, [0.0, -2.0])
    assert np.allclose(u2, [0.5, 0.0])


def test_frame_vectors_nilpotent_reference_point():
    a = 1.7
    model = make_nilpotent(a, 1.0).hamiltonian()
    u1, u2 = frame_vectors(model, np.array([1.0, 1.0]))
    assert np.allclose(u1, [a, 0.0])
    assert np.allclose(u2, [0.0, 1.0 / a])


def test_frame_normalization_identities():
    rng = np.random.default_rng(0)
    for _ in range(200):
        p = random_point(rng)
        u1, u2 = frame_vectors(MODEL, p)
        g = MODEL.grad_h(p)
        assert abs(u1 @ g) < 1e-12 * (np.linalg.norm(u1) * np.linalg.norm(g))
        assert u2 @ g == pytest.approx(1.0, rel=1e-12)
        assert abs(u1 @ u2) < 1e-14


def test_frame_vectors_critical_point_raises():
    with pytest.raises(CriticalPoint):
        frame_vectors(MODEL, np.array([1e-8, 0.0]))


def test_shear_rate_duffing_value_and_closed_form():
    assert coefficient_A(MODEL, np.array([1.0, 0.0])) == pytest.approx(0.75, rel=1e-12)
    rng = np.random.default_rng(1)
    for _ in range(1000):
        p = random_point(rng)
        x, y = p
        n = (x + x ** 3) ** 2 + y * y
        want = 3.0 * x * x * ((x + x ** 3) ** 2 - y * y) / n ** 2
        assert coefficient_A(MODEL, p) == pytest.approx(want, rel=1e-8, abs=1e-12)


def test_shear_rate_vanishes_for_radial_hamiltonian():
    import levyap.frame as fr
    model = fr.HamiltonianModel(
        h=lambda p: 0.5 * (p[0] ** 2 + p[1] ** 2),
        grad_h=lambda p: np.array([p[0], p[1]]),
        hess_h=lambda p: np.eye(2),
    )
    rng = np.random.default_rng(2)
    for _ in range(50):
        p = rng.uniform(0.5, 2.0, 2)
        assert coefficient_A(model, p) == 0.0


def test_shear_rate_against_bracket_oracle():
    """Independent check: shear solves (DU1 U2 - DU2 U1) = shear * U1 with
    the Jacobians taken by central differences."""
    rng = np.random.default_rng(3)
    h = 1e-6

    def bracket_shear(model, p):
        def jac(f, p):
            J = np.zeros((2, 2))
            for j in range(2):
                e = np.zeros(2)
                e[j] = h
                J[:, j] = (np.asarray(f(p + e)) - np.asarray(f(p - e))) / (2 * h)
            return J

        u1 = lambda q: frame_vectors(model, q)[0]
        u2 = lambda q: frame_vectors(model, q)[1]
        br = jac(u1, p) @ u2(p) - jac(u2, p) @ u1(p)
        ref = u1(p)
        return (br @ ref) / (ref @ ref)

    for _ in range(100):
        p = random_point(rng, min_grad=0.5)
        assert coefficient_A(MODEL, p) == pytest.approx(bracket_shear(MODEL, p),
                                                        rel=1e-6, abs=1e-8)
    # nilpotent in the moving frame is position dependent, unlike the
    # canonical-basis constants the bundle uses
    nmodel = NIL.hamiltonian()
    nmodel = type(nmodel)(nmodel.h, nmodel.grad_h, nmodel.hess_h, tol_crit=1e-10)
    p = np.array([0.7, 1.3])
    assert coefficient_A(nmodel, p) == pytest.approx(1.0 / (1.0 * p[1] ** 2), rel=1e-10)
    assert coefficient_A(nmodel, p) == pytest.approx(bracket_shear(nmodel, p), rel=1e-6)


def test_decompose_reference_values_and_roundtrip():
    w = decompose_tangent(MODEL, np.array([1.0, 0.0]), np.array([1.0, 1.0]))
    assert w == pytest.approx((-0.5, 2.0))
    back = recompose_tangent(MODEL, np.array([1.0, 0.0]), w)
    assert np.allclose(back, [1.0, 1.0], rtol=1e-14)
    assert decompose_tangent(MODEL, np.array([1.0, 0.0]),
                             frame_vectors(MODEL, np.array([1.0, 0.0]))[0]) == \
        pytest.approx((1.0, 0.0))
    assert decompose_tangent(MODEL, np.array([1.0, 0.0]), np.zeros(2)) == (0.0, 0.0)


@settings(max_examples=200, deadline=None)
@given(px=st.floats(-2, 2), py=st.floats(-2, 2),
       vx=st.floats(-5, 5), vy=st.floats(-5, 5))
def test_roundtrip_random(px, py, vx, vy):
    p = np.array([px, py])
    if np.linalg.norm(MODEL.grad_h(p)) < 0.3:
        return
    v = np.array([vx, vy])
    w = decompose_tangent(MODEL, p, v)
    back = recompose_tangent(MODEL, p, w)
    assert np.allclose(back, v, rtol=1e-12, atol=1e-12)


def test_frame_coefficients_match_duffing_closed_forms():
    rng = np.random.default_rng(4)
    for _ in range(1000):
        p = random_point(rng)
        co = frame_coefficients(MODEL, FIELDS, p)
        ref = DUF.coeffs(p, with_actions=False)
        assert co.shear == pytest.approx(ref.shear, rel=1e-8, abs=1e-12)
        for got, want in zip(co.mats[0].ravel(), ref.mats[0].ravel()):
            assert got == pytest.approx(want, rel=1e-8, abs=1e-8)


def test_frame_coefficients_zero_fields():
    from levyap.frame import PerturbationFields
    zero = PerturbationFields(a1=[lambda p: 0.0], a2=[lambda p: 0.0])
    co = frame_coefficients(MODEL, zero, np.array([1.0, 0.3]))
    assert np.allclose(co.mats, 0.0, atol=1e-12)


def test_graded_terms_axis_reductions():
    co = DUF.coeffs(np.array([1.0, 0.4]))
    eps, beta = 0.2, 2.0 / 3.0
    g0 = graded_terms(co, 0.0, eps, beta)
    assert g0.sigma1[0] == pytest.approx(eps ** (1 - beta) * co.d[0], rel=1e-12)
    assert g0.sigma2[0] == pytest.approx(eps * co.b[0], rel=1e-12)
    g1 = graded_terms(co, math.pi / 2.0, eps, beta)
    assert g1.sigma1[0] == pytest.approx(-eps ** (1 + beta) * co.c[0], abs=1e-12)
    assert g1.sigma2[0] == pytest.approx(eps * co.e[0], abs=1e-12)


def test_graded_sums_match_matrix_route():
    """Rebuild sigma from the rescaled noise matrix directly."""
    rng = np.random.default_rng(5)
    beta = 2.0 / 3.0
    for eps in (0.05, 0.1, 0.3):
        for _ in range(100):
            p = random_point(rng)
            th = rng.uniform(0, 2 * math.pi)
            co = DUF.coeffs(p)
            g = graded_terms(co, th, eps, beta)
            eb = eps ** beta
            m = np.array([[co.b[0], eb * co.c[0]],
                          [co.d[0] / eb, co.e[0]]])
            s, c = math.sin(th), math.cos(th)
            s1 = eps * (m[1, 0] * c * c + (m[1, 1] - m[0, 0]) * s * c - m[0, 1] * s * s)
            s2 = eps * (m[0, 0] * c * c + (m[0, 1] + m[1, 0]) * s * c + m[1, 1] * s * s)
            assert g.sigma1[0] == pytest.approx(s1, rel=1e-10, abs=1e-13)
            assert g.sigma2[0] == pytest.approx(s2, rel=1e-10, abs=1e-13)


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
        g = graded_terms(co, th, eps, beta)
        v = DUF.v_values(p)[0]
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
        want1 = eps * dx1[0] + dth1[0] * s1[0]
        want2 = eps * dx2[0] + dth2[0] * s1[0]
        assert g.sigma1_wz[0] == pytest.approx(want1, rel=2e-4, abs=1e-8)
        assert g.sigma2_wz[0] == pytest.approx(want2, rel=2e-4, abs=1e-8)


def test_lean_wz_sums_equal_graded_sums():
    from levyap.frame import wz_corrections
    rng = np.random.default_rng(13)
    for _ in range(50):
        p = random_point(rng, min_grad=0.5)
        th = rng.uniform(0, 2 * math.pi)
        co = DUF.coeffs_with_actions(p)
        g = graded_terms(co, th, 0.12, 2.0 / 3.0)
        w1, w2 = wz_corrections(co, th, 0.12, 2.0 / 3.0)
        assert w1 == pytest.approx(float(np.sum(g.sigma1_wz)), rel=1e-12, abs=1e-15)
        assert w2 == pytest.approx(float(np.sum(g.sigma2_wz)), rel=1e-12, abs=1e-15)


def test_leading_wz_term_identity():
    # half the leading Wong-Zakai part equals d^2 (cos^2/2 - sin^2 cos^2)
    co = NIL.coeffs()
    rng = np.random.default_rng(7)
    for th in rng.uniform(0, 2 * math.pi, 50):
        g = graded_terms(co, th, 0.1, 2.0 / 3.0)
        s, c = math.sin(th), math.cos(th)
        want = co.d[0] ** 2 * (0.5 * c * c - s * s * c * c)
        assert 0.5 * g.p_wz[0, 0] == pytest.approx(want, rel=1e-12, abs=1e-14)


def test_pw_scale():
    t = PWTransform(epsilon=0.1, beta=2.0 / 3.0)
    assert np.allclose(pw_scale([0.0, 1.0], t), [0.0, 1.0])
    identity = PWTransform(epsilon=1.0, beta=0.5)
    w = np.array([1.3, -0.4])
    assert np.array_equal(pw_scale(w, identity), w)
    rng = np.random.default_rng(8)
    bound = t.beta * math.log(1.0 / t.epsilon)
    for _ in range(200):
        w = rng.normal(size=2)
        lhs = abs(math.log(np.linalg.norm(pw_scale(w, t)))
                  - math.log(np.linalg.norm(w)))
        assert lhs <= bound + 1e-12


def test_growth_rate_invariant_under_rescaling_bound():
    # deterministic bound on a stored path: the time-averaged difference
    # decays like beta log(1/eps) / t
    rng = np.random.default_rng(9)
    t = PWTransform(epsilon=0.05, beta=2.0 / 3.0)
    w = np.cumsum(rng.normal(size=(1000, 2)), axis=0) + 5.0
    times = np.arange(1, 1001)
    diff = np.abs(np.log(np.linalg.norm(pw_scale(w.T, t), axis=0))
                  - np.log(np.linalg.norm(w, axis=1))) / times
    assert np.all(diff <= t.beta * math.log(1.0 / t.epsilon) / times + 1e-12)


def test_sigma0_reduces_to_gaussian_terms_without_jumps():
    rng = np.random.default_rng(10)
    for _ in range(20):
        p = random_point(rng, min_grad=0.5)
        th = rng.uniform(0, 2 * math.pi)
        got = sigma0(DUF.coeffs, DUF.v_values, None, p, th, 0.1)
        co = DUF.coeffs(p)
        s, c = math.sin(th), math.cos(th)
        want = co.shear * s * c + co.d[0] ** 2 * (0.5 * c * c - s * s * c * c)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-14)


def test_sigma0_nilpotent_small_eps_matches_closed_form():
    """For small eps the jump term converges to the second-moment factor."""
    measure = JumpMeasureSpec(alpha=1.5, c_alpha=1.0, cutoff_c=1.0)
    m2 = jump_moment(measure, 2.0, 0.0, 1.0)
    x = np.array([1.0, 0.5])
    for th in (0.3, 1.2, 2.5, 4.0):
        got = sigma0(NIL.coeffs, NIL.v_values, measure, x, th, 1e-3,
                     inner_nodes=8, z_panel_nodes=16)
        s, c = math.sin(th), math.cos(th)
        qv = 0.5 * c * c - s * s * c * c
        want = s * c + (1.0 + m2) * qv
        assert got == pytest.approx(want, rel=0.01, abs=2e-3)


def test_sigma0_quarter_turn_only_jump_term():
    measure = JumpMeasureSpec(alpha=1.5, c_alpha=1.0, cutoff_c=1.0,
                              floor_delta=0.05)
    th = math.pi / 2.0
    got = sigma0(NIL.coeffs, NIL.v_values, measure, np.array([1.0, 0.5]), th, 0.2)
    r0 = compute_R0(NIL.coeffs, NIL.v_values, measure, np.array([1.0, 0.5]), th, 0.2)
    # the angle flow never leaves pi/2 (the field vanishes there), so the
    # jump term itself vanishes and sigma0 reduces to rounding
    assert got == pytest.approx(r0, abs=1e-12)
    assert abs(r0) < 1e-12


def test_compute_r0_zero_mass():
    measure = JumpMeasureSpec(alpha=1.5, c_alpha=0.0, cutoff_c=1.0)
    assert compute_R0(NIL.coeffs, NIL.v_values, measure, np.ones(2), 0.3, 0.1) == 0.0


def test_compute_r0_node_doubling_converges():
    measure = JumpMeasureSpec(alpha=1.5, c_alpha=1.0, cutoff_c=1.0,
                              floor_delta=0.05)
    compute_R0(NIL.coeffs, NIL.v_values, measure, np.array([1.0, 0.5]), 0.8,
               0.1, check=True)


def test_irho_generic_matches_closed_form():
    from levyap.estimators import compute_Irho
    measure = JumpMeasureSpec(alpha=1.5, c_alpha=1.0, cutoff_c=1.0,
                              floor_delta=0.05)
    x = np.array([1.0, 0.5])
    rng = np.random.default_rng(11)
    for th in rng.uniform(0, 2 * math.pi, 10):
        closed = compute_Irho(NIL, measure, x, th, 0.1)
        generic = compute_Irho_generic(NIL.coeffs, NIL.v_values, measure, x,
                                       th, 0.1, substeps=16)
        assert generic == pytest.approx(closed, rel=1e-5, abs=1e-9)


def test_generic_evaluator_matches_bundle_for_duffing():
    coeffs_fn, v_fn = evaluator_from_model(MODEL, FIELDS)
    rng = np.random.default_rng(12)
    for _ in range(50):
        p = random_point(rng, min_grad=0.5)
        a = coeffs_fn(p)
        b = DUF.coeffs(p, with_actions=False)
        assert a.shear == pytest.approx(b.shear, rel=1e-8)
        assert np.allclose(a.mats, b.mats, rtol=1e-7, atol=1e-8)
        assert np.allclose(v_fn(p), DUF.v_values(p), rtol=1e-10, atol=1e-12)


def test_generic_evaluator_derivative_actions():
    coeffs_fn, _ = evaluator_from_model(MODEL, FIELDS, with_actions=True)
    rng = np.random.default_rng(14)
    for _ in range(20):
        p = random_point(rng, min_grad=0.5)
        a = coeffs_fn(p)
        b = DUF.coeffs_with_actions(p)
        assert np.allclose(a.dmats, b.dmats, rtol=1e-4, atol=1e-5)


def test_sigma0_fallback_jump_term_agrees_at_small_eps():
    measure = JumpMeasureSpec(alpha=1.5, c_alpha=1.0, cutoff_c=1.0,
                              floor_delta=0.05)
    x = np.array([1.0, 0.5])
    for th in (0.4, 1.1, 2.7):
        full = sigma0(NIL.coeffs, NIL.v_values, measure, x, th, 1e-2,
                      jump_term="r0")
        fallback = sigma0(NIL.coeffs, NIL.v_values, measure, x, th, 1e-2,
                          jump_term="irho")
        assert fallback == pytest.approx(full, rel=0.05, abs=1e-4)


# per-node loops of the jump quadratures: the batched routines flow every
# mark in one call and must reproduce these node by node

def _z_nodes_oracle(measure, panel_n, lo=None):
    lo = measure.floor_delta if lo is None else lo
    if lo > 0.0:
        z, w = nu_quadrature(measure, lo=lo, per_panel=panel_n)
        return z, w, False
    z, w = nu_quadrature_quadratic(measure, n=4 * panel_n)
    return z, w, True


def irho_per_node(system, measure, x, theta, eps, beta=2.0 / 3.0,
                  panel_n=16, substeps=8, lo=None):
    zq, wq, quadratic = _z_nodes_oracle(measure, panel_n, lo)
    _, s2 = polar_fields(system.coeffs(x), theta, eps, beta)
    total = 0.0
    for zi, wi in zip(zq, wq):
        pair = 0.0
        for sgn in (1.0, -1.0):
            z = np.array([sgn * zi])
            y = angle_jump_flow(system.coeffs, system.v_values, z, x, theta,
                                eps, beta, substeps)
            pair += y[3] - float(z @ s2)
        if quadratic:
            pair /= zi * zi
        total += wi * pair
    return total


def r0_per_node(system, measure, x, theta, eps, beta=2.0 / 3.0, inner_n=8,
                panel_n=16, substeps=8, lo=None):
    bq, bw = gauss_legendre(inner_n, 0.0, 1.0)
    order = np.argsort(bq)
    bq, bw = bq[order], bw[order]
    zq, wq, quadratic = _z_nodes_oracle(measure, panel_n, lo)
    total = 0.0
    for zi, wi in zip(zq, wq):
        for sgn in (1.0, -1.0):
            z = np.array([sgn * zi])
            states, _ = angle_jump_flow(system.coeffs, system.v_values, z, x,
                                        theta, eps, beta, substeps, b_points=bq)
            g = np.empty(len(bq))
            for j, st in enumerate(states):
                zd = float(z @ system.coeffs(st[:2]).d)
                th = st[2]
                g[j] = zd * zd * math.cos(2.0 * th) * math.cos(th) ** 2
            val = float(np.sum(bw * (1.0 - bq) * g))
            if quadratic:
                val /= zi * zi
            total += wi * val
    return total


QUAD_MEASURES = [
    JumpMeasureSpec(alpha=1.5, c_alpha=1.0, cutoff_c=1.0, floor_delta=0.05),
    JumpMeasureSpec(alpha=1.2, c_alpha=0.7, cutoff_c=1.0, floor_delta=0.0),
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
    for system, x, th in _quadrature_points():
        for fn, oracle in ((compute_Irho_generic, irho_per_node),
                           (compute_R0, r0_per_node)):
            got = fn(system.coeffs, system.v_values, measure, x, th, 0.1,
                     z_panel_nodes=8, lo=lo)
            want = oracle(system, measure, x, th, 0.1, panel_n=8, lo=lo)
            assert got == pytest.approx(want, rel=1e-13, abs=1e-300), \
                (fn.__name__, system.name, th)


def test_jump_quadratures_empty_above_cutoff():
    measure = QUAD_MEASURES[0]
    x = np.array([1.0, 0.5])
    for fn in (compute_Irho_generic, compute_R0):
        assert fn(NIL.coeffs, NIL.v_values, measure, x, 0.4, 0.1, lo=1.0) == 0.0


@pytest.mark.parametrize("system", [DUF, NIL], ids=["duffing", "nilpotent"])
def test_angle_jump_flow_batch_of_one_equals_scalar_call(system):
    x = np.array([0.8, -0.6])
    bq = np.array([0.1, 0.5, 0.9])
    for z, th in ((0.7, 0.3), (-0.4, 2.2), (1.0, -1.1)):
        one = angle_jump_flow(system.coeffs, system.v_values, np.array([z]), x,
                              th, 0.1, 2.0 / 3.0)
        batch = angle_jump_flow(system.coeffs, system.v_values,
                                np.array([[z]]), x, th, 0.1, 2.0 / 3.0)
        assert one.shape == (4,) and batch.shape == (1, 4)
        assert np.array_equal(batch[0], one)
        rec1, fin1 = angle_jump_flow(system.coeffs, system.v_values,
                                     np.array([z]), x, th, 0.1, 2.0 / 3.0,
                                     b_points=bq)
        recb, finb = angle_jump_flow(system.coeffs, system.v_values,
                                     np.array([[z]]), x, th, 0.1, 2.0 / 3.0,
                                     b_points=bq)
        assert np.array_equal(finb[0], fin1)
        for a, b in zip(rec1, recb):
            assert np.array_equal(b[0], a)


def test_batched_system_callbacks_match_pointwise():
    rng = np.random.default_rng(31)
    pts = np.array([random_point(rng, min_grad=0.5) for _ in range(5)])
    batch = DUF.coeffs(pts)
    assert batch.mats.shape == (5, 1, 2, 2)
    for system in (DUF, NIL):
        vals = system.v_values(pts)
        assert vals.shape == (5, 1, 2)
        for i, p in enumerate(pts):
            assert np.array_equal(vals[i], system.v_values(p))
    for i, p in enumerate(pts):
        one = DUF.coeffs(p)
        assert batch.shear[i] == one.shear
        assert np.array_equal(batch.mats[i], one.mats)
    coeffs_fn, v_fn = evaluator_from_model(MODEL, FIELDS)
    assert np.array_equal(coeffs_fn(pts).mats[2], coeffs_fn(pts[2]).mats)
    assert np.array_equal(v_fn(pts)[2], v_fn(pts[2]))
