"""The angle lane kernel against its per-step reference loop.

``per_step_angle_lanes`` steps every quantity of every lane in one Python
loop, as the kernel did before it was split into a sequential recurrence
and per-chunk accumulation.  The kernel must reproduce it bit for bit.
"""

import math

import numpy as np
import pytest

from levyap._lanes import AngleLanesResult, _lane_blocks, shear_angle_lanes
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

