import dataclasses
import math

import numpy as np
import pytest

from levyap.errors import ExitDetected, InvalidParameter
from levyap.estimators import EstimatorConfig, _direct_generic_one
from levyap.marcus import StepperConfig, VectorFieldSet, integrate, step
from levyap.noise import (JumpMeasureSpec, NoiseModel, gauss_legendre,
                          sample_block, trajectory_streams)
from levyap.systems import make_duffing, make_nilpotent
from oracles import (array_direct_one, array_fields, array_integrate,
                     duffing_energy, exact_rho_jump, marcus_jump_jacobian,
                     marcus_jump_map, noise_field, rk4_jump)

NIL = make_nilpotent(1.0, 1.0)
DUF = make_duffing(1.0)
MEASURE = JumpMeasureSpec(alpha=1.5, c_alpha=1.0, cutoff_c=1.0, floor_delta=0.05)
NO_JUMPS = NoiseModel(measure=None)


CFG = StepperConfig(dt=1e-3)


def shear_only(system, eps):
    """The system's noise field with zero drift: a step with no Gaussian
    increment applies only its jumps (RK4 of a zero drift adds 0.0)."""
    return VectorFieldSet(drift=lambda x1, x2: (0.0, 0.0),
                          drift_tangent=lambda x1, x2, v1, v2: (0.0, 0.0),
                          sigma=system.sigma, epsilon=eps)


def stepper_jump(fields, z, x):
    """The stepper's Marcus jump of mark z from x."""
    return np.array(step(fields, CFG, 0.0, *x, None, None, 0.0, [z])[1:3])


def stepper_jacobian(fields, z, x):
    """The stepper's tangent transport through the jump of mark z at x,
    applied to the canonical basis: the jump's Jacobian."""
    cols = [step(fields, CFG, 0.0, *x, *e, 0.0, [z])[3:] for e in np.eye(2)]
    return np.array(cols).T


def test_jump_map_zero_mark_identity():
    x = np.array([0.3, -1.2])
    for system in (NIL, DUF):
        assert np.array_equal(stepper_jump(shear_only(system, 0.2), 0.0, x), x)
        assert np.array_equal(marcus_jump_map(system.fields(0.2), 0.0, x), x)


def test_jump_map_nilpotent_closed_form():
    """The stepper's jump and the RK4 jump flow are the shear
    x2 += eps sigma z x1."""
    rng = np.random.default_rng(0)
    eps, sig = 0.2, 1.0
    fields = shear_only(NIL, eps)
    for _ in range(200):
        u = rng.normal(size=2)
        z = rng.uniform(-1, 1)
        want = np.array([u[0], u[1] + eps * sig * z * u[0]])
        assert np.allclose(stepper_jump(fields, z, u), want, rtol=1e-12, atol=1e-14)
        assert np.allclose(marcus_jump_map(fields, z, u), want,
                           rtol=1e-12, atol=1e-14)


def test_jump_map_flow_reversal():
    rng = np.random.default_rng(1)
    fields = shear_only(DUF, 0.3)
    for _ in range(100):
        x = rng.normal(size=2) + np.array([1.5, 0.0])
        z = rng.uniform(-1, 1)
        back = stepper_jump(fields, -z, stepper_jump(fields, z, x))
        assert np.allclose(back, x, atol=1e-10)
        back = marcus_jump_map(fields, -z, marcus_jump_map(fields, z, x))
        assert np.allclose(back, x, atol=1e-10)


def test_jump_jacobian_zero_mark():
    fields = shear_only(NIL, 0.2)
    assert np.array_equal(stepper_jacobian(fields, 0.0, np.ones(2)), np.eye(2))
    assert np.array_equal(marcus_jump_jacobian(fields, 0.0, np.ones(2)), np.eye(2))


def test_jump_jacobian_nilpotent():
    eps = 0.15
    fields = shear_only(NIL, eps)
    x = np.array([2.0, -1.0])
    want = [[1.0, 0.0], [eps * 0.7, 1.0]]
    assert np.allclose(stepper_jacobian(fields, 0.7, x), want,
                       rtol=1e-12, atol=1e-14)
    assert np.allclose(marcus_jump_jacobian(fields, 0.7, x), want,
                       rtol=1e-12, atol=1e-14)


def test_jump_jacobian_unit_determinant():
    rng = np.random.default_rng(2)
    fields = shear_only(DUF, 0.4)
    for _ in range(50):
        x = rng.normal(size=2)
        z = rng.uniform(-1, 1)
        assert abs(np.linalg.det(stepper_jacobian(fields, z, x)) - 1.0) < 1e-12
        assert abs(np.linalg.det(marcus_jump_jacobian(fields, z, x)) - 1.0) < 1e-8


def bracket_drift(fields, measure, x, nodes=32):
    """int [xi(z)(x) - x - eps z V(x)] nu(dz) over floor <= |z| < cutoff:
    Gauss-Legendre in |z|, both signs, one stepper jump per node."""
    zq, wq = gauss_legendre(nodes, measure.floor_delta, measure.cutoff_c)
    dens = measure.c_alpha * zq ** (-1.0 - measure.alpha)
    vx = np.array(noise_field(fields.sigma)[0](*x))
    out = np.zeros(2)
    for zi, wi, di in zip(zq, wq, dens):
        for z in (zi, -zi):
            out += wi * di * (stepper_jump(fields, z, x) - x
                              - fields.epsilon * z * vx)
    return out


def test_compensator_vanishes_for_linear_fields():
    # the stepper adds no jump drift: for the linear noise field of both
    # systems the Marcus jump equals its Ito form, node by node
    for system in (NIL, DUF):
        drift = bracket_drift(shear_only(system, 0.3), MEASURE, np.array([1.1, -0.4]))
        assert np.linalg.norm(drift) < 1e-12


def test_step_single_jump_reproduces_jump_map():
    # a step with one jump is the drift move followed by the jump map
    fields = NIL.fields(0.2)
    drifted = step(fields, CFG, 0.0, 1.0, 0.5, None, None, 0.0)
    jumped = step(fields, CFG, 0.0, 1.0, 0.5, None, None, 0.0, [0.8])
    assert np.allclose(jumped[1:3], marcus_jump_map(fields, 0.8, drifted[1:3]),
                       rtol=1e-14)


@pytest.mark.parametrize("system", [NIL, DUF], ids=["nilpotent", "duffing"])
def test_closed_form_jumps_match_rk4_route(system):
    """A step's closed-form jumps and the RK4 jump flow applied after a
    jump-free step agree on state and tangent, one or several jumps.  The
    jump scale follows ``fields.epsilon``, also after a replace."""
    exact = dataclasses.replace(system.fields(0.7), epsilon=0.3)
    fields = system.fields(0.3)
    flow = rk4_jump(fields)
    rng = np.random.default_rng(9)
    for n_jumps in (1, 2, 3, 7):
        x = rng.normal(size=2) + np.array([1.0, 0.0])
        v = rng.normal(size=2)
        marks = rng.choice([-1.0, 1.0], n_jumps) * rng.uniform(0.05, 1.0, n_jumps)
        dw = float(rng.normal(0.0, 0.03))
        a = step(exact, CFG, 0.0, *x, *v, dw, marks.tolist())
        _, y1, y2, u1, u2 = step(fields, CFG, 0.0, *x, *v, dw)
        y, u = np.array([y1, y2]), np.array([u1, u2])
        for z in marks:
            y, u = flow(0.3 * z, y, u)
        assert np.allclose(a[1:], np.concatenate([y, u]), rtol=1e-12, atol=1e-12)
        c = step(exact, CFG, 0.0, *x, None, None, dw, marks.tolist())
        assert c[3:] == (None, None) and c[1:3] == a[1:3]


def test_integrate_closed_form_jumps_match_rk4_route():
    """The float stepper with its closed-form jumps against the numpy
    stepper with the RK4 jump flow, on the same noise."""
    noise = NoiseModel(measure=MEASURE)
    cfg = StepperConfig(dt=1e-3)
    exact = DUF.fields(0.2)
    flowed = dataclasses.replace(array_fields(DUF, 0.2), jump=rk4_jump(exact))
    runs = [integrate(exact, noise, [1.0, 0.0], 0.5, cfg, (5, 1), v0=[1.0, 0.5],
                      renorm_interval=10),
            array_integrate(flowed, noise, [1.0, 0.0], 0.5, cfg, (5, 1),
                            v0=[1.0, 0.5], renorm_interval=10)]
    assert runs[0].n_jumps == runs[1].n_jumps > 0
    assert runs[0].log_growth == pytest.approx(runs[1].log_growth, rel=1e-11)
    assert np.allclose(runs[0].final.x, runs[1].final.x, rtol=1e-11, atol=1e-12)


def test_step_energy_conservation_drift_only():
    fields = DUF.fields(0.0)
    cfg = StepperConfig(dt=1e-3)
    state = (0.0, 1.0, 0.0, None, None)
    h0 = duffing_energy(*state[1:3])
    for _ in range(1000):
        state = step(fields, cfg, *state, 0.0)
    assert abs(duffing_energy(*state[1:3]) - h0) <= 1e-8


def test_integrate_zero_horizon():
    cfg = StepperConfig(dt=1e-3)
    summary = integrate(NIL.fields(0.1), NO_JUMPS, [1.0, 0.5], 0.0, cfg, (0, 0))
    assert summary.n_steps == 0
    assert np.array_equal(summary.final.x, [1.0, 0.5])


@pytest.mark.parametrize("v0", [[0.0, 0.0], [math.nan, 1.0], [1.0, math.inf]])
@pytest.mark.parametrize("burn_in", [0.0, 0.2])
def test_integrate_rejects_zero_or_nonfinite_tangent(v0, burn_in):
    cfg = StepperConfig(dt=1e-3)
    with pytest.raises(InvalidParameter, match="v0"):
        integrate(DUF.fields(0.1), NoiseModel(measure=MEASURE), [1.0, 0.0],
                  0.5, cfg, (0, 0), v0=np.array(v0), renorm_interval=10,
                  burn_in_time=burn_in)


def test_integrate_nilpotent_linear_solution():
    cfg = StepperConfig(dt=1e-3)
    summary = integrate(NIL.fields(0.0), NO_JUMPS, [1.0, 0.5], 1.0, cfg, (0, 0))
    want = np.array([1.0 + 1.0 * 0.5 * 1.0, 0.5])
    assert np.allclose(summary.final.x, want, rtol=1e-10)


def test_integrate_duffing_level_set():
    cfg = StepperConfig(dt=1e-3)
    worst = {"dev": 0.0}
    h0 = duffing_energy(1.0, 0.0)
    assert h0 == pytest.approx(0.75)

    def watch(t, x1, x2):
        worst["dev"] = max(worst["dev"], abs(duffing_energy(x1, x2) - h0))

    integrate(DUF.fields(0.0), NO_JUMPS, [1.0, 0.0], 100.0, cfg, (0, 0),
              observer=watch)
    assert worst["dev"] <= 1e-6


def test_exit_at_critical_point_is_immediate():
    cfg = StepperConfig(dt=1e-3)
    summary = integrate(DUF.fields(0.1), NO_JUMPS, [0.0, 0.0], 1.0, cfg, (0, 0))
    assert summary.exited and summary.n_steps == 0
    assert summary.final.t == 0.0
    assert summary.final.exit_flag == "critical-point"
    # a single step that lands on the critical point raises instead
    with pytest.raises(ExitDetected) as err:
        step(DUF.fields(0.1), cfg, 0.0, 0.0, 0.0, None, None, 0.0)
    assert err.value.state.t == cfg.dt
    assert err.value.state.exit_flag == "critical-point"


def test_explosion_flag():
    cfg = StepperConfig(dt=1e-2, bound_explode=1.2)
    summary = integrate(DUF.fields(0.0), NO_JUMPS, [1.0, 0.0], 10.0, cfg, (0, 0))
    assert summary.exited
    assert summary.final.exit_flag == "explosion"


def test_integrate_deterministic():
    cfg = StepperConfig(dt=1e-3)
    noise = NoiseModel(measure=MEASURE)
    runs = [integrate(NIL.fields(0.2), noise, [1.0, 0.5], 2.0, cfg, (7, 3))
            for _ in range(2)]
    assert np.array_equal(runs[0].final.x, runs[1].final.x)
    assert runs[0].n_jumps == runs[1].n_jumps > 0


def test_chain_rule_u_vs_polar_pathwise():
    """Simulating the plane system and mapping to polar coordinates agrees
    pathwise with simulating the angle/log-radius equations on the same
    noise, within strong-order tolerance at t = 1."""
    from levyap.systems import exact_theta_jump

    eps, a, sig = 0.2, 1.0, 1.0
    dt = 1e-3
    n = 1000
    noise = NoiseModel(measure=MEASURE)
    fields = NIL.fields(eps)
    cfg = StepperConfig(dt=dt)
    theta_err, rho_err = [], []
    for idx in range(32):
        summary = integrate(fields, noise, [1.0, 0.5], 1.0, cfg, (2024, idx))
        u = summary.final.x
        # independent polar simulation consuming the same increment tables
        block = sample_block(noise, dt, n, *trajectory_streams(2024, idx))
        sums = block.step_mark_sums()
        th = math.atan2(0.5, 1.0)
        rho = 0.5 * math.log(1.0 + 0.25)
        for i in range(n):
            st, ct = math.sin(th), math.cos(th)
            th += dt * (-a * st * st - eps ** 2 * sig ** 2 * st * ct ** 3)
            rho += dt * (a * st * ct
                         + eps ** 2 * sig ** 2 * (0.5 * ct * ct - st * st * ct * ct))
            st, ct = math.sin(th), math.cos(th)
            db = eps * sig * block.gauss[i]
            th += ct * ct * db
            rho += st * ct * db
            if sums[i]:
                s = eps * sig * sums[i]
                rho += exact_rho_jump(th, s)
                th = exact_theta_jump(th, s)
        dth = math.atan2(u[1], u[0]) - th
        dth = (dth + math.pi) % (2.0 * math.pi) - math.pi
        theta_err.append(abs(dth))
        rho_err.append(abs(0.5 * math.log(u[0] ** 2 + u[1] ** 2) - rho))
    tol = 0.2 * math.sqrt(dt)
    assert np.mean(theta_err) < tol
    assert np.mean(rho_err) < tol


DIRECT_CASES = {
    "jumps": (NoiseModel(measure=MEASURE), 0.1, 0.1),
    "brownian": (NO_JUMPS, 0.1, 0.1),
    "eps0": (NoiseModel(measure=MEASURE), 0.0, 0.1),
    "burn_in0": (NoiseModel(measure=MEASURE), 0.1, 0.0),
}


@pytest.mark.parametrize("case", list(DIRECT_CASES))
def test_duffing_direct_matches_numpy_oracle(case):
    """The float stepper and the numpy stepper of tests/oracles.py give the
    same Duffing direct replicate rates to rounding."""
    noise, eps, burn_in = DIRECT_CASES[case]
    cfg = EstimatorConfig(dt=1e-3, horizon=2.0, replicates=2, seed=3,
                          burn_in=burn_in)
    for index in range(2):
        lam, restarts, failed = _direct_generic_one(DUF, noise, eps, cfg, index)
        want = array_direct_one(DUF, noise, eps, cfg, index)
        assert (restarts, failed) == want[1:] == (0, False)
        assert abs(lam - want[0]) <= 1e-12 * abs(want[0])


def test_duffing_restart_path_matches_numpy_oracle():
    # the origin is a critical point: every attempt exits at once
    cfg = EstimatorConfig(dt=1e-3, horizon=1.0, replicates=1, seed=3,
                          x0=(0.0, 0.0), max_restarts=5)
    noise = NoiseModel(measure=MEASURE)
    got = _direct_generic_one(DUF, noise, 0.1, cfg, 0)
    want = array_direct_one(DUF, noise, 0.1, cfg, 0)
    assert got[1:] == want[1:] == (6, True)
    assert math.isnan(got[0]) and math.isnan(want[0])
