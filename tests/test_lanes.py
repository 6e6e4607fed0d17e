"""The lane kernels against their per-step reference loops.

``per_step_linear_angle_lanes`` steps the rescaled tangent of every lane
one step at a time and adds the drift sums on every step.  Stepping the
tangent itself, it is an independent reference that the angle kernel
matches to rounding.  Stepping each segment's partial transfer product from
the identity and reading the tangent as that product applied to the
segment-start vector, it does in one plain loop what the kernel does in
lockstep groups, and the kernel must reproduce it bit for bit.

``per_step_direct_lanes`` steps the tangent of every lane one step at a
time and renormalises every ``renorm_interval`` steps, as the direct
kernel did before it built per-segment transfer products.  The two agree
to rounding, and the kernels' bits do not depend on the block length or
on which lanes share a call.
"""

import math

import numpy as np
import pytest

from levyap._lanes import (_SEGMENT, AngleLanesResult, DirectLanesResult,
                           shear_angle_lanes, shear_direct_lanes)
from levyap.noise import JumpMeasureSpec, NoiseModel, jump_nodes
from levyap.systems import rho_jump_profile
from oracles import lane_blocks

MEASURE = JumpMeasureSpec(alpha=1.5, c_alpha=1.0, cutoff_c=1.0, floor_delta=0.05)
JUMPS = NoiseModel(measure=MEASURE)
BROWNIAN = NoiseModel(measure=None)
AR = NoiseModel(measure=MEASURE, ar_threshold=0.2)
# a low floor: nearly every lane jumps on every step
DENSE = NoiseModel(measure=JumpMeasureSpec(alpha=1.5, c_alpha=1.0, cutoff_c=1.0,
                                           floor_delta=1e-3))


def per_step_linear_angle_lanes(a, sigma, eps, beta, noise, dt, horizon, seed,
                                indices, burn_in=0.1, drift_stride=10,
                                theta_bins=256, block_steps=16384, theta0=0.7,
                                products=False):
    """Reference: u = diag(1, eps^-beta) v of every lane, one step at a time.

    Segments end at every multiple of _SEGMENT, at the burn-in step and at
    the last step; each segment end renormalises u and, after burn-in, adds
    log |u| to the growth.  Without ``products`` u itself takes the step
    u1 += h u2, u2 += u1 g; with it the segment's product P does, and the
    tangent is P applied to u, the segment-start vector.
    """
    eps = np.asarray(eps, dtype=float)
    L = len(eps)
    n = int(round(horizon / dt))
    burn_steps = int(round(burn_in * n))
    e_ang = eps ** (1.0 - beta) * sigma
    e_sh = eps ** beta
    e_wz = noise.gaussian_rate * eps ** (2.0 - 2.0 * beta) * sigma ** 2
    h = dt * a * e_sh

    u = np.array([np.full(L, math.cos(theta0)), np.full(L, math.sin(theta0))])
    eye = np.eye(2)[:, :, None] * np.ones(L)
    P = eye.copy()
    acc_sc = np.zeros(L)
    acc_qv = np.zeros(L)
    acc_irho = np.zeros(L)
    growth = np.zeros(L)
    n_irho = 0
    occ = np.zeros((L, theta_bins))
    bin_w = 2.0 * math.pi / theta_bins
    nodes = None
    if noise.jump_rate > 0.0:
        nodes = jump_nodes(noise.measure, noise.sampling_floor)

    def tangent():
        return P[:, 0] * u[0] + P[:, 1] * u[1] if products else u.copy()

    for off, gauss, sums in lane_blocks(noise, dt, n, seed, indices, block_steps):
        if sums is not None:
            gauss += sums
        gauss *= e_ang
        for i, g in enumerate(gauss):
            step_no = off + i
            w = tangent()
            if step_no >= burn_steps:
                q = w[0] * w[0] + w[1] * w[1]
                sc = w[0] * w[1] / q
                acc_sc += sc
                acc_qv += 0.5 * (w[0] * w[0] / q) - sc * sc
            x = P if products else u
            x[0] += x[1] * h
            x[1] += x[0] * g
            if step_no >= burn_steps and step_no % drift_stride == 0:
                n_irho += 1
                if nodes is not None:
                    acc_irho += rho_jump_profile(np.arctan2(w[1], w[0]), e_ang, nodes)
                w = tangent()
                th = np.arctan2(w[1], w[0]) % (2.0 * math.pi)
                idx = np.floor(th / bin_w).astype(int) % theta_bins
                occ[np.arange(L), idx] += 1.0
            end = step_no + 1
            if end % _SEGMENT == 0 or end == burn_steps or end == n:
                w = tangent()
                r = np.hypot(w[0], w[1])
                u = w / r
                P = eye.copy()
                if end > burn_steps:
                    growth += np.log(r)

    n_drift = max(n - burn_steps, 1)
    lam_sc = e_sh * a * acc_sc / n_drift
    lam_qv = e_wz * acc_qv / n_drift
    lam_ir = acc_irho / n_irho if n_irho else np.zeros(L)
    lam = lam_sc + lam_qv + lam_ir
    return AngleLanesResult(lam, lam_sc, lam_qv, lam_ir, occ,
                            growth / (n_drift * dt) - lam, n_irho)


FIELDS = ("lam", "shear_term", "gauss_term", "jump_term", "occupation",
          "martingale_rate")

# (noise, eps per lane, horizon, keyword arguments); dt = 1e-3 throughout
CASES = {
    "jumps": (JUMPS, [0.1] * 4, 1.0, {}),
    "brownian": (BROWNIAN, [0.1] * 4, 1.0, {}),
    "ar_threshold": (AR, [0.1] * 4, 1.0, {}),
    "dense_jumps": (DENSE, [0.1] * 4, 0.3, {}),
    "lane_eps": (JUMPS, [0.0, 0.05, 0.1, 0.3, 0.9], 1.0, {}),
    # burn-in step 0.37 * 1000 = 370 is not a multiple of the segment
    "burn_in_chunk": (JUMPS, [0.1] * 3, 1.0, {"burn_in": 0.37}),
    # blocks of 300 steps and a horizon of 1037 steps: neither is a
    # multiple of the segment, and 1037 not one of the stride 7
    "ragged": (JUMPS, [0.1] * 3, 1.037,
               {"block_steps": 300, "drift_stride": 7, "burn_in": 0.2}),
    "stride_one": (JUMPS, [0.2] * 2, 0.6, {"drift_stride": 1}),
    # samples rarer than 256 steps
    "stride_long": (JUMPS, [0.1] * 2, 1.5, {"drift_stride": 300}),
    # samples rarer than the lockstep groups: some groups hold none
    "stride_group": (JUMPS, [0.1] * 2, 2.5, {"drift_stride": 1100}),
    # one lane: a reduction along the steps would sum pairwise here
    "one_lane": (JUMPS, [0.1], 1.0, {}),
    "no_burn_in": (BROWNIAN, [0.1] * 2, 0.5, {"burn_in": 0.0, "theta_bins": 64}),
}


def _angle_case(case, products):
    noise, eps, horizon, kw = CASES[case]
    args = (1.0, 1.0, eps, 2.0 / 3.0, noise, 1e-3, horizon, 77,
            range(len(eps)))
    got = shear_angle_lanes(*args, **kw)
    want = per_step_linear_angle_lanes(*args, products=products, **kw)
    assert got.theta_samples == want.theta_samples
    return got, want


@pytest.mark.parametrize("case", sorted(CASES))
def test_angle_lanes_bitwise_equal_per_step_loop(case):
    got, want = _angle_case(case, products=True)
    for name in FIELDS:
        g, w = getattr(got, name), getattr(want, name)
        assert g.shape == w.shape and g.tobytes() == w.tobytes(), name


@pytest.mark.parametrize("case", sorted(CASES))
def test_angle_lanes_match_per_step_loop(case):
    got, want = _angle_case(case, products=False)
    for name in FIELDS:
        np.testing.assert_allclose(getattr(got, name), getattr(want, name),
                                   rtol=1e-12, atol=0, err_msg=name)


def test_angle_lanes_bits_independent_of_block_length():
    # Brownian only: with jumps the noise itself depends on the block length
    args = (1.0, 1.0, [0.05, 0.2, 0.7], 2.0 / 3.0, BROWNIAN, 1e-3, 2.077, 13,
            range(3))
    runs = [shear_angle_lanes(*args, block_steps=b)
            for b in (_SEGMENT - 1, _SEGMENT, 1000, 16384)]
    for run in runs[1:]:
        for name in FIELDS:
            assert getattr(run, name).tobytes() == getattr(runs[0], name).tobytes(), name


@pytest.mark.parametrize("noise", [BROWNIAN, JUMPS], ids=["brownian", "jumps"])
def test_angle_lanes_bits_independent_of_lane_subset(noise):
    eps = np.array([0.05, 0.1, 0.2, 0.3])
    idx = np.array([4, 7, 9, 11])
    full = shear_angle_lanes(1.0, 1.0, eps, 2.0 / 3.0, noise, 1e-3, 1.537, 21,
                             idx, block_steps=700)
    for lanes in ([0], [3, 1], [2, 0, 1]):
        part = shear_angle_lanes(1.0, 1.0, eps[lanes], 2.0 / 3.0, noise, 1e-3,
                                 1.537, 21, idx[lanes], block_steps=700)
        for name in FIELDS:
            assert getattr(part, name).tobytes() == getattr(full, name)[lanes].tobytes(), name


@pytest.mark.parametrize("noise", [BROWNIAN, JUMPS], ids=["brownian", "jumps"])
def test_angle_growth_is_direct_growth(noise):
    """lam + martingale_rate is the log-radius growth rate of u.  At
    beta = 0, u is v, so it is the direct rate from v0 = (cos, sin)(theta0);
    at beta = 2/3, |v| <= |u| <= eps^-beta |v|, so the two growths over the
    same steps differ by at most beta |log eps|."""
    eps = np.array([0.05, 0.1, 0.3])
    th0 = 0.7
    for beta in (0.0, 2.0 / 3.0):
        ang = shear_angle_lanes(1.0, 1.0, eps, beta, noise, 1e-3, 3.0, 5,
                                range(3), theta0=th0)
        v0 = np.array([math.cos(th0), math.sin(th0)])
        rates = [shear_direct_lanes(1.0, 1.0, [e], noise, 1e-3, 3.0, 5, [j],
                                    v0=v0 * [1.0, e ** beta])
                 for j, e in enumerate(eps)]
        direct = np.array([d.log_growth[0] / d.growth_time for d in rates])
        total = ang.lam + ang.martingale_rate
        if beta == 0.0:
            np.testing.assert_allclose(total, direct, rtol=1e-12, atol=0)
        else:
            bound = beta * np.abs(np.log(eps)) / rates[0].growth_time
            assert np.all(np.abs(total - direct) <= bound)
            assert np.any(np.abs(total - direct) > 1e-3 * bound)


def per_step_direct_lanes(a, sigma, eps, noise, dt, horizon, seed, indices,
                          renorm_interval=10, burn_in=0.1, block_steps=16384,
                          v0=(1.0, 0.5)):
    """Reference: every lane's tangent stepped one step at a time."""
    eps = np.asarray(eps, dtype=float)
    L = len(eps)
    n = int(round(horizon / dt))
    burn_steps = int(round(burn_in * n))
    v_a = np.full(L, float(v0[0]))
    v_b = np.full(L, float(v0[1]))
    growth = np.zeros(L)
    dt_a = dt * a
    es = eps * sigma
    k = max(int(renorm_interval), 1)
    start_t = 0.0 if burn_steps == 0 else None
    for off, gauss, sums in lane_blocks(noise, dt, n, seed, indices, block_steps):
        gauss *= es
        if sums is not None:
            sums *= es
        m = gauss.shape[0]
        for i in range(m):
            v_a += dt_a * v_b
            v_b += v_a * gauss[i]
            if sums is not None:
                v_b += v_a * sums[i]
            step_no = off + i + 1
            if step_no == burn_steps:
                # burn-in crossed: drop the transient growth, start the clock
                r = np.hypot(v_a, v_b)
                v_a /= r
                v_b /= r
                start_t = step_no * dt
            elif step_no % k == 0 and start_t is not None:
                r = np.hypot(v_a, v_b)
                growth += np.log(r)
                v_a /= r
                v_b /= r
    if start_t is None:
        start_t = burn_steps * dt
    r = np.hypot(v_a, v_b)
    growth += np.log(r)
    return DirectLanesResult(growth, n * dt - start_t)


# (noise, eps per lane, horizon, keyword arguments); dt = 1e-3 throughout.
# 1037 and 2001 steps are multiples of neither the segment nor a block.
DIRECT_CASES = {
    "brownian": (BROWNIAN, [0.05, 0.1, 0.3], 2.001, {}),
    "jumps": (JUMPS, [0.1, 0.2, 0.5], 2.001, {}),
    "ar_threshold": (AR, [0.1] * 3, 1.037, {}),
    "dense_jumps": (DENSE, [0.1] * 3, 0.3, {}),
    "no_burn_in": (JUMPS, [0.1, 0.2], 1.037, {"burn_in": 0.0}),
    "brownian_no_burn_in": (BROWNIAN, [0.2] * 2, 1.037, {"burn_in": 0.0}),
    # blocks of 300 steps; burn-in step 0.37 * 1037 = 384 is a multiple of
    # the segment, 0.1 * 1037 = 104 is not
    "ragged_blocks": (JUMPS, [0.1] * 3, 1.037, {"block_steps": 300}),
    "burn_in_on_segment": (BROWNIAN, [0.1] * 2, 1.037,
                           {"burn_in": 0.37, "block_steps": 300}),
    # fewer steps than one segment
    "short": (JUMPS, [0.2] * 2, 0.05, {}),
}


@pytest.mark.parametrize("case", sorted(DIRECT_CASES))
def test_direct_lanes_match_per_step_loop(case):
    noise, eps, horizon, kw = DIRECT_CASES[case]
    args = (1.0, 1.0, eps, noise, 1e-3, horizon, 91, range(len(eps)))
    got = shear_direct_lanes(*args, **kw)
    want = per_step_direct_lanes(*args, **kw)
    assert got.growth_time == want.growth_time
    np.testing.assert_allclose(got.log_growth, want.log_growth, rtol=1e-12, atol=0)


def test_direct_lanes_bits_independent_of_block_length():
    # Brownian only: with jumps the noise itself depends on the block length
    args = (1.0, 1.0, [0.05, 0.2, 0.7], BROWNIAN, 1e-3, 2.077, 13, range(3))
    runs = [shear_direct_lanes(*args, block_steps=b).log_growth
            for b in (_SEGMENT - 1, _SEGMENT, 1000, 16384)]
    for run in runs[1:]:
        assert run.tobytes() == runs[0].tobytes()


@pytest.mark.parametrize("noise", [BROWNIAN, JUMPS], ids=["brownian", "jumps"])
def test_direct_lanes_bits_independent_of_lane_subset(noise):
    eps = np.array([0.05, 0.1, 0.2, 0.3])
    idx = np.array([4, 7, 9, 11])
    args = (1.0, 1.0, eps, noise, 1e-3, 1.537, 21, idx)
    full = shear_direct_lanes(*args, block_steps=700).log_growth
    for lanes in ([0], [3, 1], [2, 0, 1]):
        part = shear_direct_lanes(1.0, 1.0, eps[lanes], noise, 1e-3, 1.537, 21,
                                  idx[lanes], block_steps=700).log_growth
        assert part.tobytes() == full[lanes].tobytes()
