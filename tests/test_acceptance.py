"""Acceptance suite.

Each test implements one acceptance criterion at its stated tolerance and
prints a PASS line (run with ``pytest tests/test_acceptance.py -v -s`` to see
them stream).  The heavy Monte Carlo criteria run at the full stated scale;
expect a few minutes of wall time in total.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from levyap.cli import main as cli_main
from levyap.estimators import (EstimatorConfig, lyapunov_direct,
                               lyapunov_khasminskii, scaling_sweep)
from levyap.fpcircle import (CircleGrid, build_generator, lyapunov_quadrature,
                             solve_stationary)
from levyap.frame import angle_jump_flow
from levyap.marcus import StepperConfig, VectorFieldSet, integrate, step
from levyap.noise import JumpMeasureSpec, NoiseModel, jump_moment
from levyap.systems import (exact_theta_jump, make_duffing, make_nilpotent,
                            rho_jump_profile)
from oracles import (duffing_energy, exact_rho_jump, frame_coordinates,
                     frame_oracle, jump_nodes_from_origin, marcus_jump_map,
                     rk4_angle_jump, shear_exponent)

NIL = make_nilpotent(1.0, 1.0)
DUF = make_duffing(1.0)


def _report(n, text):
    print(f"\nACCEPTANCE {n}: PASS - {text}")


# -------------------------------------------------------------------------
# 1. scaling law
# -------------------------------------------------------------------------

SWEEP_EPS = [0.05, 0.08, 0.125, 0.2, 0.32]


@pytest.mark.slow
def test_acceptance_1_scaling_law_brownian():
    cfg = EstimatorConfig(dt=1e-3, horizon=1e4, replicates=16, seed=2026)
    sweep = scaling_sweep(NIL, NoiseModel(measure=None), SWEEP_EPS, cfg)
    assert 0.57 <= sweep.slope <= 0.77, f"slope {sweep.slope:.4f}"
    # 16 replicates: the studentized error is t with 15 degrees of freedom,
    # whose two-sided tail beyond 6 is about 2e-5
    for est in sweep.estimates:
        exact = shear_exponent(1.0, est.epsilon, 1.0)
        assert abs(est.value - exact) <= 6.0 * est.stderr, \
            f"eps={est.epsilon}: {est.value:.5f} vs exact {exact:.5f}"
    _report(1, f"Brownian-only sweep slope {sweep.slope:.4f} in [0.57, 0.77]; "
               f"every estimate within 6 stderr of the exact exponent")


@pytest.mark.slow
def test_acceptance_1_scaling_law_with_jumps():
    # delta = 1e-3 puts the jump activity above 4e4 events per unit time;
    # marks below 0.05 are carried by the variance-matched Gaussian
    # substitute so the sweep stays within the stated budget
    measure = JumpMeasureSpec(alpha=1.5, c_alpha=1.0, cutoff_c=1.0,
                              floor_delta=1e-3)
    noise = NoiseModel(measure=measure, ar_threshold=0.05)
    cfg = EstimatorConfig(dt=1e-3, horizon=1e4, replicates=16, seed=2026)
    sweep = scaling_sweep(NIL, noise, SWEEP_EPS, cfg)
    assert 0.52 <= sweep.slope <= 0.82, f"slope {sweep.slope:.4f}"
    # The Pinsky-Wihstutz limit counts the Brownian part and the whole band
    # [1e-3, 1) (the substitute matches the variance below 0.05).  The plain
    # circle FP value with jumps exceeds it by 0.04-0.15 % over these eps
    # (tests/test_fpcircle.py), so 0.5 % of model gap covers the limit's bias.
    rate = 1.0 + jump_moment(measure, 2.0, 1e-3, 1.0)
    for est in sweep.estimates:
        pw = shear_exponent(1.0, est.epsilon, 1.0, rate=rate)
        assert abs(est.value - pw) <= 6.0 * est.stderr + 0.005 * pw, \
            f"eps={est.epsilon}: {est.value:.5f} vs PW limit {pw:.5f}"
    _report(1, f"jump sweep slope {sweep.slope:.4f} in [0.52, 0.82]; every "
               f"estimate within 6 stderr + 0.5 % of the PW limit")


# -------------------------------------------------------------------------
# 2. estimator triangle
# -------------------------------------------------------------------------

@pytest.mark.slow
def test_acceptance_2_estimator_triangle():
    measure = JumpMeasureSpec(alpha=1.5, c_alpha=1.0, cutoff_c=1.0,
                              floor_delta=0.05)
    noise = NoiseModel(measure=measure)
    cfg = EstimatorConfig(dt=1e-3, horizon=1500.0, replicates=16, seed=11)
    d = lyapunov_direct(NIL, noise, 0.1, cfg)
    k = lyapunov_khasminskii(NIL, noise, 0.1, cfg)
    dens = solve_stationary(build_generator(1.0, 1.0, 0.1, measure,
                                            CircleGrid(512)))
    lam_fp = lyapunov_quadrature(dens, 1.0, 1.0, 0.1, measure)
    assert dens.residual < 1e-6, f"fp residual {dens.residual:.2e}"
    pairs = [
        ("direct/khasminskii", d.value - k.value, math.hypot(d.stderr, k.stderr)),
        ("direct/fpcircle", d.value - lam_fp, d.stderr),
        ("khasminskii/fpcircle", k.value - lam_fp, k.stderr),
    ]
    for name, gap, combined in pairs:
        assert abs(gap) <= 3.0 * combined, \
            f"{name}: gap {gap:.5f} vs 3 x stderr {3 * combined:.5f}"
    _report(2, "direct %.5f±%.5f, khasminskii %.5f±%.5f, fpcircle %.5f "
               "pairwise within 3 stderr; fp residual %.1e"
            % (d.value, d.stderr, k.value, k.stderr, lam_fp, dens.residual))


# -------------------------------------------------------------------------
# 3. jump-moment identity
# -------------------------------------------------------------------------

def test_acceptance_3_jump_moment_identity():
    for alpha in (1.2, 1.5, 1.8):
        for c in (0.5, 1.0, 2.0):
            m = JumpMeasureSpec(alpha=alpha, c_alpha=1.0, cutoff_c=c)
            closed = jump_moment(m, 2.0, 0.0, c)
            numeric, _ = quad(lambda z: 2.0 * z ** (1.0 - alpha), 0.0, c)
            assert abs(closed - numeric) / numeric < 1e-8
            assert closed == pytest.approx(
                2.0 * c ** (2.0 - alpha) / (2.0 - alpha), rel=1e-12)
    m = JumpMeasureSpec(alpha=1.5, c_alpha=1.0, cutoff_c=1.0)
    assert jump_moment(m, 2.0, 0.0, 1.0) == pytest.approx(4.0, abs=1e-12)
    _report(3, "second moment matches quadrature to 1e-8 on the "
               "(alpha, c) grid; value 4.0 at (1.5, 1, 1)")


# -------------------------------------------------------------------------
# 4. Marcus flow properties
# -------------------------------------------------------------------------

def test_acceptance_4_marcus_flow_properties():
    """The stepper's jump (one step of zero drift and no Gaussian increment)
    and the RK4 jump flow: zero-mark identity, flow reversal, the shear
    closed form."""
    rng = np.random.default_rng(404)
    eps = 0.2
    nf = NIL.fields(eps)
    df = DUF.fields(eps)
    jumper = VectorFieldSet(drift=lambda x1, x2: (0.0, 0.0),
                            drift_tangent=lambda x1, x2, v1, v2: (0.0, 0.0),
                            sigma=1.0, epsilon=eps)
    cfg = StepperConfig(dt=1e-3)

    def stepped(z, x):
        return np.array(step(jumper, cfg, 0.0, *x, None, None, 0.0, [z])[1:3])

    for _ in range(200):
        x = rng.normal(size=2) + [1.2, 0.0]
        z = rng.uniform(-1, 1)
        assert np.array_equal(marcus_jump_map(nf, 0.0, x), x)
        assert np.array_equal(stepped(0.0, x), x)
        back = marcus_jump_map(df, -z, marcus_jump_map(df, z, x))
        assert np.allclose(back, x, atol=1e-10)
        assert np.allclose(stepped(-z, stepped(z, x)), x, atol=1e-12)
        want = np.array([x[0], x[1] + eps * 1.0 * z * x[0]])
        assert np.allclose(marcus_jump_map(nf, z, x), want, rtol=1e-12, atol=1e-13)
        assert np.allclose(stepped(z, x), want, rtol=1e-14, atol=1e-15)
    beta = 2.0 / 3.0
    amp = eps ** (1.0 - beta)
    worst = worst_jump = 0.0
    x0 = np.array([1.0, 0.5])
    for _ in range(1000):
        th = rng.uniform(0, 2 * math.pi)
        z = rng.uniform(-1, 1)
        want = (exact_theta_jump(th, amp * z), exact_rho_jump(th, amp * z))
        y = rk4_angle_jump(NIL, z, x0, th, eps, beta, substeps=32)
        worst = max(worst, abs(y[2] - want[0]), abs(y[3] - want[1]))
        y = angle_jump_flow(NIL.frame, NIL.sigma, eps * z, x0[0], x0[1], th, eps, beta)
        worst_jump = max(worst_jump, abs(y[2] - want[0]), abs(y[3] - want[1]))
    assert worst < 1e-8, f"flow vs closed form worst {worst:.2e}"
    assert worst_jump < 1e-13, f"closed-form jump vs shear formulas {worst_jump:.2e}"
    _report(4, f"stepper and RK4 jumps: zero-mark identity, flow reversal "
               f"1e-12 / 1e-10, shear closed form, "
               f"angle/log-radius flows vs closed forms worst {worst:.1e}, "
               f"closed-form pair jump worst {worst_jump:.1e}")


# -------------------------------------------------------------------------
# 5. frame algebra
# -------------------------------------------------------------------------

def test_acceptance_5_frame_algebra():
    # the Duffing linearization rebuilt from the integrated fields, in frame
    fields = DUF.fields(0.0)
    rng = np.random.default_rng(505)
    count = 0
    while count < 1000:
        p = rng.uniform(-2, 2, 2)
        if math.hypot(*fields.grad_h(*p)) < 0.3:
            continue
        count += 1
        v = rng.normal(size=2) * 3.0
        w = frame_coordinates(DUF.frame, *p, *v)
        u1, u2 = (np.array(u) for u in DUF.frame(*p))
        assert np.allclose(w[0] * u1 + w[1] * u2, v, rtol=1e-12, atol=1e-12)
        drift, mats = frame_oracle(DUF.frame, fields, *p)
        (b, c), (d, e) = mats
        x, y = p
        n = (x + x ** 3) ** 2 + y * y
        assert drift[0, 1] == pytest.approx(
            3 * x * x * ((x + x ** 3) ** 2 - y * y) / n ** 2, rel=1e-8, abs=1e-10)
        assert np.abs(drift[[0, 1, 1], [0, 0, 1]]).max() <= 1e-8
        assert c == pytest.approx(-x ** 3 * (x + x ** 3) / n ** 2, rel=1e-8, abs=1e-8)
        assert d == pytest.approx(-x * (x + x ** 3) + y * y, rel=1e-8, abs=1e-8)
        assert b + e == pytest.approx(0.0, abs=1e-8)
    nil_co = NIL.coeffs()
    assert (nil_co.shear, nil_co.d) == (1.0, 1.0)
    assert nil_co.b == nil_co.c == nil_co.e == 0.0
    _report(5, "frame round trip 1e-12; shear-system constants (a, sigma, 0, 0, 0); "
               "nilpotent drift and closed-form noise-matrix entries reproduced "
               "from the integrated fields at 1000 points")


# -------------------------------------------------------------------------
# 6. conservation and exit
# -------------------------------------------------------------------------

def test_acceptance_6_conservation_and_exit():
    cfg = StepperConfig(dt=1e-3)
    h0 = duffing_energy(1.0, 0.0)
    worst = {"dev": 0.0}

    def watch(t, x1, x2):
        worst["dev"] = max(worst["dev"], abs(duffing_energy(x1, x2) - h0))

    integrate(DUF.fields(0.0), NoiseModel(measure=None), [1.0, 0.0], 100.0,
              cfg, (0, 0), observer=watch)
    assert worst["dev"] <= 1e-6, f"energy drift {worst['dev']:.2e}"
    summary = integrate(DUF.fields(0.1), NoiseModel(measure=None), [0.0, 0.0],
                        1.0, cfg, (0, 0))
    assert summary.exited and summary.final.t == 0.0
    assert summary.final.exit_flag == "critical-point"
    _report(6, f"energy drift {worst['dev']:.1e} over t in [0, 100]; "
               f"origin start exits immediately with the critical-point flag")


# -------------------------------------------------------------------------
# 7. Taylor consistency of the jump drift term
# -------------------------------------------------------------------------

def test_acceptance_7_taylor_consistency():
    measure = JumpMeasureSpec(alpha=1.5, c_alpha=1.0, cutoff_c=1.0)
    m2 = jump_moment(measure, 2.0, 0.0, 1.0)
    th = 2.0 * math.pi * np.arange(64) / 64.0
    target = (0.5 * np.cos(th) ** 2 - np.sin(th) ** 2 * np.cos(th) ** 2) * m2
    worst = 0.0
    for eps in (1e-2, 1e-3):
        prof = rho_jump_profile(th, eps, jump_nodes_from_origin(measure)) / eps ** 2
        dev = np.abs(prof - target).max() / np.abs(target).max()
        worst = max(worst, dev)
        assert dev <= 0.01, f"eps={eps}: sup deviation {dev:.4f}"
    _report(7, f"jump drift term / eps^2 within {worst * 100:.3f}% of the "
               f"second-moment form uniformly on the 64-point grid")


# -------------------------------------------------------------------------
# 8. determinism of the command line artifacts
# -------------------------------------------------------------------------

def test_acceptance_8_cli_determinism(tmp_path, capsys):
    base = ["lyapunov", "--method", "direct,khasminskii", "--epsilon", "0.2",
            "--horizon", "30", "--replicates", "8", "--seed", "12",
            "--floor-delta", "0.05"]
    blobs = []
    for tag, workers in (("r1", 1), ("r2", 1), ("w4", 4), ("w8", 8)):
        out = tmp_path / tag
        rc = cli_main(base + ["--workers", str(workers), "--output", str(out)])
        assert rc == 0
        blobs.append((out.with_suffix(".json").read_bytes(),
                      out.with_suffix(".csv").read_bytes()))
    assert all(b == blobs[0] for b in blobs[1:])

    sim = ["simulate", "--horizon", "2", "--epsilon", "0.2", "--seed", "7",
           "--floor-delta", "0.05", "--record-stride", "100"]
    sims = []
    for tag in ("s1", "s2"):
        out = tmp_path / tag
        assert cli_main(sim + ["--output", str(out)]) == 0
        sims.append((out.with_suffix(".json").read_bytes(),
                     out.with_suffix(".csv").read_bytes()))
    assert sims[0] == sims[1]
    capsys.readouterr()
    _report(8, "byte-identical CSV/JSON artifacts across repeated runs and "
               "1/4/8-way parallel execution")
