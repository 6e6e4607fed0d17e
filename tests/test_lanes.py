"""The lane kernels against their per-step reference loops.

``per_step_angle_lanes`` steps every quantity of every lane in one Python
loop, as the angle kernel did before it was split into a sequential
recurrence and per-chunk accumulation.  The kernel must reproduce it bit
for bit.

``per_step_direct_lanes`` steps the tangent of every lane one step at a
time and renormalises every ``renorm_interval`` steps, as the direct
kernel did before it built per-segment transfer products.  The two agree
to rounding, and the kernel's bits do not depend on the block length or
on which lanes share a call.
"""

import math

import numpy as np
import pytest

from levyap._lanes import (_SEGMENT, AngleLanesResult, DirectLanesResult,
                           _lane_blocks, shear_angle_lanes, shear_direct_lanes)
from levyap.noise import JumpMeasureSpec, NoiseModel, jump_nodes
from levyap.systems import exact_rho_jump, exact_theta_jump, rho_jump_profile

MEASURE = JumpMeasureSpec(alpha=1.5, c_alpha=1.0, cutoff_c=1.0, floor_delta=0.05)
JUMPS = NoiseModel(measure=MEASURE)
BROWNIAN = NoiseModel(measure=None)
AR = NoiseModel(measure=MEASURE, ar_threshold=0.2)
# a low floor: nearly every lane jumps on every step
DENSE = NoiseModel(measure=JumpMeasureSpec(alpha=1.5, c_alpha=1.0, cutoff_c=1.0,
                                           floor_delta=1e-3))


def per_step_angle_lanes(a, sigma, eps, beta, noise, dt, horizon, seed,
                         indices, burn_in=0.1, drift_stride=10,
                         theta_bins=256, block_steps=16384, theta0=0.7):
    """Reference: every accumulator and every lane updated on every step."""
    eps = np.asarray(eps, dtype=float)
    L = len(eps)
    n = int(round(horizon / dt))
    burn_steps = int(round(burn_in * n))
    rate = noise.gaussian_rate
    e_ang = eps ** (1.0 - beta) * sigma
    e_sh = eps ** beta
    e_wz = rate * eps ** (2.0 - 2.0 * beta) * sigma ** 2
    k_sh = -e_sh * a

    theta = np.full(L, float(theta0))
    acc_sc = np.zeros(L)
    acc_qv = np.zeros(L)
    acc_irho = np.zeros(L)
    n_irho = 0
    n_drift = 0
    occ = np.zeros((L, theta_bins))
    mart = np.zeros(L)
    bin_w = 2.0 * math.pi / theta_bins

    nodes = None
    if noise.jump_rate > 0.0:
        nodes = jump_nodes(noise.measure, noise.sampling_floor)

    for off, gauss, sums in _lane_blocks(noise, dt, n, seed, indices, block_steps):
        m = gauss.shape[0]
        for i in range(m):
            step_no = off + i
            st = np.sin(theta)
            ct = np.cos(theta)
            sc = st * ct
            c2 = ct * ct
            if step_no >= burn_steps:
                acc_sc += sc
                acc_qv += 0.5 * c2 - sc * sc
                n_drift += 1
                if step_no % drift_stride == 0:
                    if nodes is not None:
                        acc_irho += rho_jump_profile(theta, e_ang, nodes)
                    n_irho += 1
            theta = theta + dt * (k_sh * st * st - e_wz * sc * c2)
            ct = np.cos(theta)
            g = e_ang * ct ** 2 * gauss[i]
            if step_no >= burn_steps:
                mart += e_ang * np.sin(theta) * ct * gauss[i]
            theta = theta + g
            if sums is not None:
                s = e_ang * sums[i]
                if step_no >= burn_steps:
                    mart += exact_rho_jump(theta, s)
                theta = exact_theta_jump(theta, s)
            if step_no >= burn_steps and step_no % drift_stride == 0:
                idx = np.floor((theta % (2.0 * math.pi)) / bin_w).astype(int) % theta_bins
                occ[np.arange(L), idx] += 1.0

    lam_sc = e_sh * a * acc_sc / max(n_drift, 1)
    lam_qv = e_wz * acc_qv / max(n_drift, 1)
    lam_ir = acc_irho / max(n_irho, 1) if n_irho else np.zeros(L)
    T = max(n_drift, 1) * dt
    mart = mart - lam_ir * T
    return AngleLanesResult(lam_sc + lam_qv + lam_ir, lam_sc, lam_qv, lam_ir,
                            occ, mart / T, n_irho)


FIELDS = ("lam", "shear_term", "gauss_term", "jump_term", "occupation",
          "martingale_rate")

# (noise, eps per lane, horizon, keyword arguments); dt = 1e-3 throughout
CASES = {
    "jumps": (JUMPS, [0.1] * 4, 1.0, {}),
    "brownian": (BROWNIAN, [0.1] * 4, 1.0, {}),
    "ar_threshold": (AR, [0.1] * 4, 1.0, {}),
    "dense_jumps": (DENSE, [0.1] * 4, 0.3, {}),
    "lane_eps": (JUMPS, [0.0, 0.05, 0.1, 0.3, 0.9], 1.0, {}),
    # burn-in step 0.37 * 1000 = 370 lands inside the second chunk
    "burn_in_chunk": (JUMPS, [0.1] * 3, 1.0, {"burn_in": 0.37}),
    # blocks of 300 steps and a horizon of 1037 steps: neither is a
    # multiple of the chunk, and 1037 not one of the stride 7
    "ragged": (JUMPS, [0.1] * 3, 1.037,
               {"block_steps": 300, "drift_stride": 7, "burn_in": 0.2}),
    "stride_one": (JUMPS, [0.2] * 2, 0.6, {"drift_stride": 1}),
    # samples rarer than chunks: some chunks hold none
    "stride_long": (JUMPS, [0.1] * 2, 1.5, {"drift_stride": 300}),
    # one lane: a reduction along the steps would sum pairwise here
    "one_lane": (JUMPS, [0.1], 1.0, {}),
    "no_burn_in": (BROWNIAN, [0.1] * 2, 0.5, {"burn_in": 0.0, "theta_bins": 64}),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_angle_lanes_bitwise_equal_per_step_loop(case):
    noise, eps, horizon, kw = CASES[case]
    args = (1.0, 1.0, eps, 2.0 / 3.0, noise, 1e-3, horizon, 77,
            range(len(eps)))
    got = shear_angle_lanes(*args, **kw)
    want = per_step_angle_lanes(*args, **kw)
    assert got.theta_samples == want.theta_samples
    for name in FIELDS:
        g, w = getattr(got, name), getattr(want, name)
        assert g.shape == w.shape and g.tobytes() == w.tobytes(), name



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
    for off, gauss, sums in _lane_blocks(noise, dt, n, seed, indices, block_steps):
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
