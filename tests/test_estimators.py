import math
from dataclasses import dataclass, field

import numpy as np
import pytest

import levyap.frame as fr
from levyap._lanes import shear_direct_lanes
from levyap.errors import (AllTrajectoriesExited, InvalidParameter,
                           NonPositiveEstimate)
from levyap.estimators import (EstimatorConfig, LyapunovEstimate,
                               OccupationMeasure, compute_Irho,
                               gather_occupation, lyapunov_direct,
                               lyapunov_khasminskii, lyapunov_theorem33,
                               lyapunov_theorem33_estimate, scaling_sweep)
from levyap.fpcircle import (CircleGrid, build_generator, lyapunov_quadrature,
                             solve_stationary)
from levyap.marcus import StepperConfig, integrate
from levyap.noise import JumpMeasureSpec, NoiseModel, jump_moment
from levyap.systems import NilpotentSystem, make_duffing, make_nilpotent

NIL = make_nilpotent(1.0, 1.0)
DUF = make_duffing(1.0)
MEASURE = JumpMeasureSpec(alpha=1.5, c_alpha=1.0, cutoff_c=1.0, floor_delta=0.05)
JUMPS = NoiseModel(measure=MEASURE)
BROWNIAN = NoiseModel(measure=None)


@pytest.fixture(scope="module")
def khas_jump_run():
    cfg = EstimatorConfig(dt=1e-3, horizon=600.0, replicates=8, seed=11)
    return lyapunov_khasminskii(NIL, JUMPS, 0.1, cfg), cfg


@pytest.fixture(scope="module")
def direct_jump_run():
    cfg = EstimatorConfig(dt=1e-3, horizon=600.0, replicates=8, seed=11)
    return lyapunov_direct(NIL, JUMPS, 0.1, cfg)


@pytest.fixture(scope="module")
def fp_lambda_eps01():
    grid = CircleGrid(512)
    dens = solve_stationary(build_generator(1.0, 1.0, 0.1, MEASURE, grid))
    return lyapunov_quadrature(dens, 1.0, 1.0, 0.1, MEASURE, "plain")


def test_fast_lanes_match_generic_integrator_pathwise():
    """The vectorized kernel and the generic Marcus integrator consume
    identical streams and agree to rounding on the accumulated growth."""
    eps = 0.2
    cfg = StepperConfig(dt=1e-3)
    lanes = shear_direct_lanes(1.0, 1.0, np.full(3, eps), JUMPS, 1e-3, 2.0,
                               seed=501, indices=range(3), renorm_interval=10,
                               burn_in=0.0)
    for idx in range(3):
        summary = integrate(NIL.fields(eps), JUMPS, [1.0, 0.5], 2.0, cfg,
                            (501, idx), v0=[1.0, 0.5], renorm_interval=10)
        assert summary.log_growth == pytest.approx(lanes.log_growth[idx],
                                                   rel=1e-9, abs=1e-12)
    assert lanes.growth_time == pytest.approx(2.0)


def test_generic_khasminskii_matches_lanes_on_constant_coefficients():
    measure = JumpMeasureSpec(alpha=1.5, c_alpha=1.0, cutoff_c=1.0,
                              floor_delta=0.2)
    noise = NoiseModel(measure=measure)
    cfg = EstimatorConfig(dt=1e-3, horizon=20.0, replicates=2, seed=3,
                          drift_stride=20)
    fast = lyapunov_khasminskii(NIL, noise, 0.1, cfg)
    slow = lyapunov_khasminskii(NIL, noise, 0.1, cfg, force_generic=True)
    assert slow.value == pytest.approx(fast.value, rel=1e-7)


@dataclass(frozen=True)
class GenericShear(NilpotentSystem):
    """The shear system without the constant-shear flag, so every estimator
    route and the compensator take the generic path."""

    constant_shear: bool = field(default=False, init=False)


def test_generic_khasminskii_matches_lanes_with_gaussian_band():
    """A Gaussian substitute below ar_threshold: the generic route counts
    the band in the Wong-Zakai rate only, as the lanes do, and not again in
    the jump compensator."""
    noise = NoiseModel(measure=MEASURE, ar_threshold=0.2)
    cfg = EstimatorConfig(dt=1e-3, horizon=5.0, replicates=2, seed=4,
                          drift_stride=20)
    fast = lyapunov_khasminskii(NIL, noise, 0.1, cfg)
    slow = lyapunov_khasminskii(GenericShear(1.0, 1.0), noise, 0.1, cfg)
    assert slow.value == pytest.approx(fast.value, rel=1e-5)


def test_direct_eps_zero_duffing_rate_is_polynomial():
    # at eps = 0 tangent growth is polynomial, so the estimate decays like
    # log(t)/t; assert it sits inside that deterministic band
    cfg = EstimatorConfig(dt=1e-2, horizon=500.0, replicates=2, seed=0,
                          burn_in=0.0)
    est = lyapunov_direct(DUF, NoiseModel(measure=None, brownian=False), 0.0, cfg)
    assert abs(est.value) < 3.0 * math.log(500.0) / 500.0
    assert est.stderr < 1e-6  # deterministic replicates collapse


@pytest.mark.parametrize("eps", [0.1, 0.2])
def test_direct_and_khasminskii_agree_brownian(eps):
    cfg = EstimatorConfig(dt=1e-3, horizon=600.0, replicates=8, seed=11)
    d = lyapunov_direct(NIL, BROWNIAN, eps, cfg)
    k = lyapunov_khasminskii(NIL, BROWNIAN, eps, cfg)
    combined = math.hypot(d.stderr, k.stderr)
    assert d.value > 0 and k.value > 0
    assert abs(d.value - k.value) <= 3.0 * combined


def test_estimator_triangle_with_jumps(direct_jump_run, khas_jump_run,
                                       fp_lambda_eps01):
    d = direct_jump_run
    k, _ = khas_jump_run
    lam_fp = fp_lambda_eps01
    assert abs(d.value - k.value) <= 3.0 * math.hypot(d.stderr, k.stderr)
    assert abs(d.value - lam_fp) <= 3.0 * d.stderr
    assert abs(k.value - lam_fp) <= 3.0 * k.stderr


def test_martingale_time_average_vanishes(khas_jump_run):
    k, _ = khas_jump_run
    mean, se = k.extras["martingale_rate"]
    assert abs(mean) <= 3.0 * se


def test_khasminskii_zero_drift_is_exactly_zero():
    @dataclass(frozen=True)
    class StillSystem:
        name: str = "still"
        d: int = 1
        constant_shear: bool = False

        @property
        def default_x0(self):
            return np.array([1.0, 0.0])

        def hamiltonian(self):
            return fr.HamiltonianModel(
                h=lambda p: 0.5 * (p[0] ** 2 + p[1] ** 2),
                grad_h=lambda p: np.array([p[0], p[1]]),
                hess_h=lambda p: np.eye(2))

        def fields(self, epsilon):
            from levyap.marcus import VectorFieldSet
            return VectorFieldSet(
                drift=lambda p: np.array([p[1], -p[0]]),
                drift_jacobian=lambda p: np.array([[0.0, 1.0], [-1.0, 0.0]]),
                diffusion=[lambda p: np.zeros(2)],
                diffusion_jacobians=[lambda p: np.zeros((2, 2))],
                epsilon=epsilon,
                grad_h=lambda p: np.array([p[0], p[1]]))

        def coeffs(self, p):
            return fr.FrameCoefficients(0.0, np.zeros((1, 2, 2)),
                                        np.zeros((1, 2, 2)))

        coeffs_with_actions = coeffs

        def v_values(self, p):
            return np.zeros((1, 2))

    cfg = EstimatorConfig(dt=1e-2, horizon=5.0, replicates=2, seed=1)
    est = lyapunov_khasminskii(StillSystem(), NoiseModel(measure=None), 0.1, cfg)
    assert est.value == 0.0


def test_renormalization_interval_invariance():
    cfg10 = EstimatorConfig(dt=1e-3, horizon=50.0, replicates=4, seed=5,
                            renorm_interval=10)
    cfg20 = EstimatorConfig(dt=1e-3, horizon=50.0, replicates=4, seed=5,
                            renorm_interval=20)
    a = lyapunov_direct(NIL, JUMPS, 0.2, cfg10)
    b = lyapunov_direct(NIL, JUMPS, 0.2, cfg20)
    # the log-growth telescope is exact; only rounding differs
    assert a.value == pytest.approx(b.value, rel=1e-9)
    assert abs(a.value - b.value) < min(a.stderr, 1.0)


def test_pw_scaled_tangent_changes_estimate_within_bound():
    eps, horizon = 0.1, 50.0
    beta = 2.0 / 3.0
    base = EstimatorConfig(dt=1e-3, horizon=horizon, replicates=4, seed=6,
                           burn_in=0.0, v0=(1.0, 0.5))
    scaled = EstimatorConfig(dt=1e-3, horizon=horizon, replicates=4, seed=6,
                             burn_in=0.0, v0=(eps ** beta * 1.0, 0.5))
    a = lyapunov_direct(NIL, JUMPS, eps, base)
    b = lyapunov_direct(NIL, JUMPS, eps, scaled)
    bound = beta * math.log(1.0 / eps) / horizon
    assert abs(a.value - b.value) <= bound + 1e-12


def test_all_trajectories_exited():
    cfg = EstimatorConfig(dt=1e-3, horizon=10.0, replicates=3, seed=7,
                          max_restarts=2, x0=(0.0, 0.0))
    with pytest.raises(AllTrajectoriesExited):
        lyapunov_direct(DUF, BROWNIAN, 0.1, cfg)


def test_direct_deterministic_and_worker_independent():
    cfg1 = EstimatorConfig(dt=1e-3, horizon=30.0, replicates=4, seed=9)
    cfg2 = EstimatorConfig(dt=1e-3, horizon=30.0, replicates=4, seed=9, workers=2)
    a = lyapunov_direct(NIL, JUMPS, 0.15, cfg1)
    b = lyapunov_direct(NIL, JUMPS, 0.15, cfg1)
    c = lyapunov_direct(NIL, JUMPS, 0.15, cfg2)
    assert a.per_replicate == b.per_replicate
    assert a.per_replicate == c.per_replicate
    assert a.value == c.value and a.stderr == c.stderr


def test_compute_irho_trivial_and_taylor():
    empty = JumpMeasureSpec(alpha=1.5, c_alpha=0.0, cutoff_c=1.0)
    assert compute_Irho(NIL, empty, np.ones(2), 0.3, 0.1) == 0.0
    assert compute_Irho(NIL, None, np.ones(2), 0.3, 0.1) == 0.0
    # rescaled compensator integral approaches the quadratic-variation form
    m = JumpMeasureSpec(alpha=1.5, c_alpha=1.0, cutoff_c=1.0)
    m2 = jump_moment(m, 2.0, 0.0, 1.0)
    eps = 1e-3
    for th in (0.3, 1.0, 2.2, 5.0):
        irho = compute_Irho(NIL, m, np.ones(2), th, eps)
        s, c = math.sin(th), math.cos(th)
        qv = 0.5 * c * c - s * s * c * c
        # I_rho ~ eps^(2-2 beta) sigma^2 qv m2, so the rescaled value is eps-free
        assert eps ** (-2.0 / 3.0) * irho == pytest.approx(qv * m2, rel=0.01,
                                                           abs=1e-6)


def test_generic_irho_starts_at_sampling_floor():
    """With a Gaussian substitute for [floor, ar_threshold) the compensator
    covers only the sampled band: the generic route matches the closed
    form."""
    noise = NoiseModel(measure=MEASURE, ar_threshold=0.2)
    generic = GenericShear(1.0, 1.0)
    x = np.array([1.0, 0.5])
    for th in (0.4, 1.0, 2.5):
        closed = compute_Irho(NIL, MEASURE, x, th, 0.1, noise=noise)
        got = compute_Irho(generic, MEASURE, x, th, 0.1, noise=noise)
        assert got == pytest.approx(closed, rel=1e-5, abs=1e-9)
    # at theta = 0.4 the band [0.05, 0.2) alone would add about 0.057
    assert compute_Irho(NIL, MEASURE, x, 0.4, 0.1, noise=noise) == \
        pytest.approx(0.14068, abs=1e-5)


@pytest.mark.parametrize("noise", [
    NoiseModel(measure=MEASURE, ar_threshold=0.2),
    NoiseModel(measure=MEASURE, brownian=False, ar_threshold=0.2),
    NoiseModel(measure=None, brownian=False),
], ids=["gaussian-band", "band-only", "no-noise"])
def test_generic_theorem33_matches_closed_form(noise):
    """The position-dependent branch (sigma0 with R0 from the sampling
    floor) and the constant-shear profile count the Gaussian part at the
    same rate and the jump marks over the same band."""
    th = (np.arange(8) + 0.5) * 2.0 * math.pi / 8
    w = np.linspace(1.0, 2.0, 8)
    closed = lyapunov_theorem33(NIL, noise, 0.1, OccupationMeasure(th, w))
    occ = OccupationMeasure(th, w[None, :], x_centers=np.array([[1.0, 0.5]]))
    got = lyapunov_theorem33(GenericShear(1.0, 1.0), noise, 0.1, occ)
    assert got == pytest.approx(closed, rel=1e-8, abs=1e-12)


def test_theorem33_single_bin():
    occ = OccupationMeasure(np.array([0.6]), np.array([5.0]))
    got = lyapunov_theorem33(NIL, BROWNIAN, 0.1, occ)
    s, c = math.sin(0.6), math.cos(0.6)
    want = 0.1 ** (2.0 / 3.0) * (s * c + (0.5 * c * c - s * s * c * c))
    assert got == pytest.approx(want, rel=1e-12)


def test_theorem33_epsilon_scaling_structure():
    # with the occupation held fixed and no jump term the leading formula
    # scales exactly like eps^(2/3)
    occ = OccupationMeasure((np.arange(64) + 0.5) * 2 * math.pi / 64,
                            np.ones(64))
    lo = lyapunov_theorem33(NIL, BROWNIAN, 0.1, occ)
    hi = lyapunov_theorem33(NIL, BROWNIAN, 0.2, occ)
    assert hi == pytest.approx(2.0 ** (2.0 / 3.0) * lo, rel=1e-12)


def test_theorem33_matches_fp_on_solver_measure():
    """Same stationary measure, two integrand routes: the flow-quadrature
    profile against the closed-form rescaled drift, within discretization
    tolerance."""
    eps = 0.02
    grid = CircleGrid(512)
    dens = solve_stationary(build_generator(1.0, 1.0, eps, MEASURE, grid, "pw"))
    lam_pw = lyapunov_quadrature(dens, 1.0, 1.0, eps, MEASURE, "pw")
    occ = OccupationMeasure(grid.nodes, dens.values.copy())
    lam33 = lyapunov_theorem33(NIL, JUMPS, eps, occ)
    assert abs(lam33 - lam_pw) <= 0.02 * abs(lam_pw)


def test_theorem33_estimate_from_simulated_occupation():
    eps = 0.02
    cfg = EstimatorConfig(dt=1e-3, horizon=800.0, replicates=8, seed=21)
    est = lyapunov_theorem33_estimate(NIL, JUMPS, eps, cfg)
    grid = CircleGrid(512)
    dens = solve_stationary(build_generator(1.0, 1.0, eps, MEASURE, grid, "pw"))
    lam_pw = lyapunov_quadrature(dens, 1.0, 1.0, eps, MEASURE, "pw")
    assert est.stderr > 0
    assert abs(est.value - lam_pw) <= max(3.0 * est.stderr, 0.02 * abs(lam_pw))


def test_sweep_with_stubbed_estimates_recovers_exponent():
    def stub(system, noise, eps, cfg):
        return LyapunovEstimate(eps ** (2.0 / 3.0), 0.0, "stub", eps, cfg.beta,
                                cfg.horizon, cfg.replicates, cfg.renorm_interval)

    cfg = EstimatorConfig(horizon=1.0, replicates=1)
    sweep = scaling_sweep(NIL, BROWNIAN, [0.05, 0.1, 0.2, 0.4], cfg,
                          estimate_fn=stub)
    assert sweep.slope == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert sweep.intercept == pytest.approx(0.0, abs=1e-12)
    assert sweep.residual < 1e-12


@pytest.mark.parametrize("noise", [BROWNIAN, JUMPS], ids=["brownian", "jumps"])
@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_lanes_match_per_epsilon_direct_bitwise(noise, workers):
    # the sweep steps every epsilon in one lanes call (with shorter noise
    # blocks when Brownian-only); each estimate must equal lyapunov_direct's
    cfg = EstimatorConfig(dt=1e-3, horizon=20.0, replicates=5, seed=2026,
                          block_steps=4096, workers=workers)
    eps = [0.05, 0.08, 0.125, 0.2, 0.32]
    sweep = scaling_sweep(NIL, noise, eps, cfg)
    for e, est in zip(eps, sweep.estimates):
        ref = lyapunov_direct(NIL, noise, e, cfg)
        assert est.per_replicate == ref.per_replicate
        assert (est.value, est.stderr) == (ref.value, ref.stderr)


def test_sweep_rejects_bad_epsilon_lists():
    cfg = EstimatorConfig(horizon=1.0, replicates=1)
    with pytest.raises(InvalidParameter):
        scaling_sweep(NIL, BROWNIAN, [0.1, 0.2, 0.4], cfg)
    with pytest.raises(InvalidParameter):
        scaling_sweep(NIL, BROWNIAN, [0.1, 0.2, 0.15, 0.4], cfg)
    with pytest.raises(InvalidParameter):
        scaling_sweep(NIL, BROWNIAN, [0.1, 0.15, 0.2, 0.3], cfg)
    # every epsilon must lie in (0, 1)
    with pytest.raises(InvalidParameter):
        scaling_sweep(NIL, BROWNIAN, [0.5, 1.0, 2.0, 4.0], cfg)
    with pytest.raises(InvalidParameter):
        scaling_sweep(NIL, BROWNIAN, [0.0, 0.1, 0.2, 0.4], cfg)


@pytest.mark.parametrize("eps", [1.0, 1.5, -0.1, math.nan])
def test_estimators_refuse_epsilon_outside_unit_interval(eps, monkeypatch):
    """The lane estimators refuse what VectorFieldSet refuses, before any
    replicate runs."""
    import levyap.estimators as est_mod

    def no_work(*_args, **_kwargs):
        raise AssertionError("replicates ran before the epsilon check")

    monkeypatch.setattr(est_mod, "_run_chunked", no_work)
    cfg = EstimatorConfig(horizon=1.0, replicates=1)
    occ = OccupationMeasure(np.array([0.5]), np.array([1.0]))
    for run in (lambda: lyapunov_direct(NIL, BROWNIAN, eps, cfg),
                lambda: lyapunov_khasminskii(NIL, BROWNIAN, eps, cfg),
                lambda: lyapunov_theorem33_estimate(NIL, BROWNIAN, eps, cfg),
                lambda: lyapunov_theorem33(NIL, BROWNIAN, eps, occ)):
        with pytest.raises(InvalidParameter, match="epsilon"):
            run()


@pytest.mark.parametrize("field, value", [("dt", 0.0), ("dt", -1e-3),
                                          ("dt", math.nan), ("horizon", 0.0),
                                          ("horizon", -1.0),
                                          ("horizon", math.inf),
                                          ("horizon", 4e-4)])
def test_config_rejects_nonpositive_or_nonfinite_dt_and_horizon(field, value):
    # a horizon under half a step (dt = 1e-3) takes no step, and dt = 0
    # divides by zero
    with pytest.raises(InvalidParameter, match=field):
        EstimatorConfig(**{field: value})


def test_config_rejects_burn_in_covering_every_step():
    # round(0.9 * 3) = 3 burn-in steps of 3: nothing would be averaged
    with pytest.raises(InvalidParameter, match="burn_in"):
        EstimatorConfig(horizon=3e-3, burn_in=0.9)
    EstimatorConfig(horizon=3e-3, burn_in=0.5)


@pytest.mark.parametrize("v0", [(0.0, 0.0), (math.nan, 0.5), (1.0, -math.inf)])
def test_config_rejects_zero_or_nonfinite_tangent(v0):
    # the lane kernels would turn such a tangent into -inf / NaN rates
    with pytest.raises(InvalidParameter, match="v0"):
        EstimatorConfig(horizon=1.0, replicates=1, v0=v0)


def test_sweep_nonpositive_estimates_reported_or_fatal():
    calls = {"n": 0}

    def stub(system, noise, eps, cfg):
        calls["n"] += 1
        value = eps ** (2.0 / 3.0) if eps > 0.07 else -1e-4
        return LyapunovEstimate(value, 0.0, "stub", eps, cfg.beta, cfg.horizon,
                                cfg.replicates, cfg.renorm_interval)

    cfg = EstimatorConfig(horizon=1.0, replicates=1)
    sweep = scaling_sweep(NIL, BROWNIAN, [0.05, 0.1, 0.2, 0.4], cfg,
                          estimate_fn=stub)
    assert sweep.excluded == [0.05]
    assert sweep.slope == pytest.approx(2.0 / 3.0, abs=1e-12)

    def all_bad(system, noise, eps, cfg):
        return LyapunovEstimate(-1.0, 0.0, "stub", eps, cfg.beta, cfg.horizon,
                                cfg.replicates, cfg.renorm_interval)

    with pytest.raises(NonPositiveEstimate):
        scaling_sweep(NIL, BROWNIAN, [0.05, 0.1, 0.2, 0.4], cfg,
                      estimate_fn=all_bad)


def test_desk_scale_sweep_slope_brownian():
    cfg = EstimatorConfig(dt=1e-3, horizon=1500.0, replicates=8, seed=77)
    sweep = scaling_sweep(NIL, BROWNIAN, [0.05, 0.1, 0.2, 0.4], cfg)
    assert 0.52 <= sweep.slope <= 0.82


def test_gather_occupation_normalized(khas_jump_run):
    _, cfg = khas_jump_run
    occ = gather_occupation(NIL, JUMPS, 0.1, cfg)
    assert occ.weights.sum() == pytest.approx(1.0)
    assert occ.weights.min() >= 0.0
    assert len(occ.theta_centers) == cfg.theta_bins
