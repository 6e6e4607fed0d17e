import dataclasses
import math

import numpy as np
import pytest

from levyap.errors import ExitDetected
from levyap.marcus import (StepperConfig, TrajectoryState, VectorFieldSet,
                           compensator_drift, integrate, marcus_jump_jacobian,
                           marcus_jump_map, step)
from levyap.noise import (IncrementBatch, JumpMeasureSpec, NoiseModel,
                          sample_block, trajectory_streams)
from levyap.systems import make_duffing, make_nilpotent

NIL = make_nilpotent(1.0, 1.0)
DUF = make_duffing(1.0)
MEASURE = JumpMeasureSpec(alpha=1.5, c_alpha=1.0, cutoff_c=1.0, floor_delta=0.05)
NO_JUMPS = NoiseModel(measure=None)


def empty_batch(dt, d=1):
    return IncrementBatch(dt, np.zeros(d))


def test_jump_map_zero_mark_identity():
    x = np.array([0.3, -1.2])
    assert np.array_equal(marcus_jump_map(NIL.fields(0.2), 0.0, x), x)


def test_jump_map_nilpotent_closed_form():
    rng = np.random.default_rng(0)
    eps, sig = 0.2, 1.0
    fields = NIL.fields(eps)
    for _ in range(200):
        u = rng.normal(size=2)
        z = rng.uniform(-1, 1)
        got = marcus_jump_map(fields, z, u)
        want = np.array([u[0], u[1] + eps * sig * z * u[0]])
        assert np.allclose(got, want, rtol=1e-12, atol=1e-14)


def test_jump_map_flow_reversal():
    rng = np.random.default_rng(1)
    fields = DUF.fields(0.3)
    for _ in range(100):
        x = rng.normal(size=2) + np.array([1.5, 0.0])
        z = rng.uniform(-1, 1)
        back = marcus_jump_map(fields, -z, marcus_jump_map(fields, z, x))
        assert np.allclose(back, x, atol=1e-10)


def test_jump_jacobian_zero_mark():
    assert np.array_equal(marcus_jump_jacobian(NIL.fields(0.2), 0.0, np.ones(2)),
                          np.eye(2))


def test_jump_jacobian_nilpotent():
    eps = 0.15
    J = marcus_jump_jacobian(NIL.fields(eps), 0.7, np.array([2.0, -1.0]))
    assert np.allclose(J, [[1.0, 0.0], [eps * 0.7, 1.0]], rtol=1e-12, atol=1e-14)


def test_jump_jacobian_unit_determinant():
    rng = np.random.default_rng(2)
    fields = DUF.fields(0.4)
    for _ in range(50):
        x = rng.normal(size=2)
        J = marcus_jump_jacobian(fields, rng.uniform(-1, 1), x)
        assert abs(np.linalg.det(J) - 1.0) < 1e-8


def test_compensator_vanishes_for_linear_fields():
    cfg = StepperConfig(dt=1e-3)
    noise = NoiseModel(measure=MEASURE)
    for system in (NIL, DUF):
        drift = compensator_drift(system.fields(0.3), noise,
                                  np.array([1.1, -0.4]), cfg)
        assert np.linalg.norm(drift) < 1e-12


def test_step_single_jump_reproduces_jump_map():
    fields = NIL.fields(0.2)
    x = np.array([1.0, 0.5])
    batch = IncrementBatch(0.0, np.zeros(1), np.array([0.0]),
                           np.array([0], dtype=np.int64), np.array([0.8]))
    cfg = StepperConfig(dt=1e-3)
    out = step(fields, NoiseModel(measure=MEASURE), TrajectoryState(0.0, x),
               batch, cfg)
    assert np.allclose(out.x, marcus_jump_map(fields, 0.8, x), rtol=1e-14)


@pytest.mark.parametrize("system", [NIL, DUF], ids=["nilpotent", "duffing"])
def test_closed_form_jumps_match_rk4_route(system):
    """The system's closed-form jump and the RK4 flow route (the fields
    without ``jump``) agree on state and tangent, one or several jumps.
    The jump scale follows ``fields.epsilon``, also after a replace."""
    exact = dataclasses.replace(system.fields(0.7), epsilon=0.3)
    assert exact.jump is not None
    flowed = dataclasses.replace(system.fields(0.3), jump=None)
    noise = NoiseModel(measure=MEASURE)
    cfg = StepperConfig(dt=1e-3)
    rng = np.random.default_rng(9)
    for n_jumps in (1, 2, 3, 7):
        x = rng.normal(size=2) + np.array([1.0, 0.0])
        v = rng.normal(size=2)
        marks = rng.choice([-1.0, 1.0], n_jumps) * rng.uniform(0.05, 1.0, n_jumps)
        batch = IncrementBatch(1e-3, rng.normal(0.0, 0.03, 1),
                               np.sort(rng.uniform(0.0, 1e-3, n_jumps)),
                               np.zeros(n_jumps, dtype=np.int64), marks)
        a = step(exact, noise, TrajectoryState(0.0, x, v), batch, cfg)
        b = step(flowed, noise, TrajectoryState(0.0, x, v), batch, cfg)
        assert np.allclose(a.x, b.x, rtol=1e-12, atol=1e-12)
        assert np.allclose(a.v, b.v, rtol=1e-12, atol=1e-12)
        c = step(exact, noise, TrajectoryState(0.0, x), batch, cfg)
        assert c.v is None and np.array_equal(c.x, a.x)


def test_integrate_closed_form_jumps_match_rk4_route():
    noise = NoiseModel(measure=MEASURE)
    cfg = StepperConfig(dt=1e-3)
    exact = DUF.fields(0.2)
    flowed = dataclasses.replace(exact, jump=None)
    runs = [integrate(f, noise, [1.0, 0.0], 0.5, cfg, (5, 1), v0=[1.0, 0.5],
                      renorm_interval=10) for f in (exact, flowed)]
    assert runs[0].n_jumps == runs[1].n_jumps > 0
    assert runs[0].log_growth == pytest.approx(runs[1].log_growth, rel=1e-11)
    assert np.allclose(runs[0].final.x, runs[1].final.x, rtol=1e-11, atol=1e-12)


def test_step_energy_conservation_drift_only():
    fields = DUF.fields(0.0)
    model = DUF.hamiltonian()
    cfg = StepperConfig(dt=1e-3)
    state = TrajectoryState(0.0, np.array([1.0, 0.0]))
    h0 = model.h(state.x)
    for _ in range(1000):
        state = step(fields, NO_JUMPS, state, empty_batch(1e-3), cfg)
    assert abs(model.h(state.x) - h0) <= 1e-8


def test_integrate_zero_horizon():
    cfg = StepperConfig(dt=1e-3)
    summary = integrate(NIL.fields(0.1), NO_JUMPS, [1.0, 0.5], 0.0, cfg, (0, 0))
    assert summary.n_steps == 0
    assert np.array_equal(summary.final.x, [1.0, 0.5])


def test_integrate_nilpotent_linear_solution():
    cfg = StepperConfig(dt=1e-3)
    summary = integrate(NIL.fields(0.0), NO_JUMPS, [1.0, 0.5], 1.0, cfg, (0, 0))
    want = np.array([1.0 + 1.0 * 0.5 * 1.0, 0.5])
    assert np.allclose(summary.final.x, want, rtol=1e-10)


def test_integrate_duffing_level_set():
    model = DUF.hamiltonian()
    cfg = StepperConfig(dt=1e-3)
    worst = {"dev": 0.0}
    h0 = model.h(np.array([1.0, 0.0]))
    assert h0 == pytest.approx(0.75)

    def watch(state):
        worst["dev"] = max(worst["dev"], abs(model.h(state.x) - h0))

    integrate(DUF.fields(0.0), NO_JUMPS, [1.0, 0.0], 100.0, cfg, (0, 0),
              observer=watch)
    assert worst["dev"] <= 1e-6


def test_exit_at_critical_point_is_immediate():
    cfg = StepperConfig(dt=1e-3)
    with pytest.raises(ExitDetected) as err:
        integrate(DUF.fields(0.1), NO_JUMPS, [0.0, 0.0], 1.0, cfg, (0, 0))
    assert err.value.state.t == 0.0
    assert err.value.state.exit_flag == "critical-point"
    summary = integrate(DUF.fields(0.1), NO_JUMPS, [0.0, 0.0], 1.0, cfg, (0, 0),
                        raise_on_exit=False)
    assert summary.exited and summary.final.t == 0.0


def test_explosion_flag():
    cfg = StepperConfig(dt=1e-2, bound_explode=1.2)
    summary = integrate(DUF.fields(0.0), NO_JUMPS, [1.0, 0.0], 10.0, cfg, (0, 0),
                        raise_on_exit=False)
    assert summary.exited
    assert summary.final.exit_flag == "explosion"


def test_integrate_deterministic():
    cfg = StepperConfig(dt=1e-3)
    noise = NoiseModel(measure=MEASURE)
    runs = [integrate(NIL.fields(0.2), noise, [1.0, 0.5], 2.0, cfg, (7, 3))
            for _ in range(2)]
    assert np.array_equal(runs[0].final.x, runs[1].final.x)
    assert runs[0].n_jumps == runs[1].n_jumps > 0


def test_jumps_applied_in_offset_order():
    # two non-commuting shears: component 0 shears x2, component 1 shears x1
    fields = VectorFieldSet(
        drift=lambda x: np.zeros(2),
        diffusion=[lambda x: np.array([0.0, x[0]]),
                   lambda x: np.array([x[1], 0.0])],
        diffusion_jacobians=[lambda x: np.array([[0.0, 0.0], [1.0, 0.0]]),
                             lambda x: np.array([[0.0, 1.0], [0.0, 0.0]])],
        epsilon=0.5,
    )
    cfg = StepperConfig(dt=1e-3)
    x = np.array([1.0, 1.0])

    def run(order):
        offs = np.array([0.1, 0.2])
        comps = np.array(order, dtype=np.int64)
        marks = np.array([0.8, -0.6])
        batch = IncrementBatch(0.0, np.zeros(2), offs, comps, marks)
        return step(fields, NO_JUMPS, TrajectoryState(0.0, x), batch, cfg).x

    first = run([0, 1])
    swapped = run([1, 0])
    manual = marcus_jump_map(fields, [0.0, -0.6],
                             marcus_jump_map(fields, [0.8, 0.0], x))
    assert np.allclose(first, manual, rtol=1e-12)
    assert not np.allclose(first, swapped)


def test_chain_rule_u_vs_polar_pathwise():
    """Simulating the plane system and mapping to polar coordinates agrees
    pathwise with simulating the angle/log-radius equations on the same
    noise, within strong-order tolerance at t = 1."""
    from levyap.systems import exact_rho_jump, exact_theta_jump

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
        sums = block.step_mark_sums()[:, 0]
        th = math.atan2(0.5, 1.0)
        rho = 0.5 * math.log(1.0 + 0.25)
        for i in range(n):
            st, ct = math.sin(th), math.cos(th)
            th += dt * (-a * st * st - eps ** 2 * sig ** 2 * st * ct ** 3)
            rho += dt * (a * st * ct
                         + eps ** 2 * sig ** 2 * (0.5 * ct * ct - st * st * ct * ct))
            st, ct = math.sin(th), math.cos(th)
            db = eps * sig * block.gauss[i, 0]
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
