"""Independent checks of levyap artifacts.

Each check returns a list of problems (empty means the artifact passed).
The references are computed here, outside the program under test:

* the exact Brownian shear exponent lambda(eps) = LAMBDA1 (a eps sigma)^(2/3)
  with LAMBDA1 = sqrt(pi) (3/4)^(1/3) / Gamma(1/6) (small-diffusion
  rescaling of the shear angle process, cf. Pardoux & Wihstutz, SIAM J.
  Appl. Math. 1988);
* a Richardson-extrapolated circle Fokker-Planck value for the jump case;
* a plain-float reference integrator of the Duffing tangent dynamics fed
  from the documented (seed, index) stream protocol;
* the Duffing jump compensator from the closed-form shear jump,
  transported through the moving frame and the diag(eps^beta, 1) rescaling;
* a pathwise reference of the Duffing Khasminskii pair process whose angle
  and log-radius rates (drift, Wong-Zakai and jump) are derivatives of the
  rescaled frame coordinates along the exact plane flows.

Tolerances are stated next to each check; statistical ones are multiples
of the reported standard error and were tried on the seeds listed in the
README.
"""

from __future__ import annotations

import math

import numpy as np

import workloads as wl

LAMBDA1 = math.sqrt(math.pi) * 0.75 ** (1.0 / 3.0) / math.gamma(1.0 / 6.0)

# statistical tolerance: |estimate - reference| <= K_STDERR * stderr; 16
# replicates make the studentized error t-distributed with 15 degrees of
# freedom, whose two-sided tail beyond 6 is about 2e-5
K_STDERR = 6.0
SLOPE_WINDOW = (0.57, 0.77)          # acceptance-1 window (Brownian sweep)
FP_GRID_RTOL = 3e-4                  # n = 512 FP value vs Richardson value
FP_RESIDUAL_MAX = 1e-8               # sup |G^T mu| of the solved density
FP_MASS_ATOL = 1e-9                  # |int mu - 1| from the density CSV
FP_ORACLE_RTOL = 2e-8                # Brownian Richardson value vs oracle
FP_RATIO_WINDOW = {"brownian": (3.6, 4.4), "jumps": (3.5, 5.5)}
EXPLICIT_RATIO_WINDOW = (3.6, 4.4)   # Brownian explicit-adjoint decay
DUFFING_PATH_RTOL = 1e-9             # program vs reference integrator
IRHO_RTOL = 1e-5                     # compute_Irho vs closed form
KHAS_PATH_RTOL = 1e-5                # program vs Khasminskii reference
SCHEMA_LINE = "# levyap-schema v1"

GOLDEN64 = 0x9E3779B97F4A7C15
MASK64 = (1 << 64) - 1
BLOCK_STEPS = 16384                  # EstimatorConfig.block_steps
KHAS_THETA0 = 0.7                    # EstimatorConfig.theta0
KHAS_STRIDE = 10                     # EstimatorConfig.drift_stride


def brownian_oracle(eps: float, a: float = wl.A, sigma: float = wl.SIGMA) -> float:
    """Exact top exponent of the Brownian-only shear system."""
    return LAMBDA1 * (a * eps * sigma) ** (2.0 / 3.0)


# ---------------------------------------------------------------------------
# shared pieces
# ---------------------------------------------------------------------------

def replicate_problems(est: dict, n: int, label: str) -> list[str]:
    """Per-replicate values are finite and aggregate to value and stderr."""
    reps = est.get("per_replicate") or []
    if len(reps) != n:
        return [f"{label}: {len(reps)} replicates, expected {n}"]
    arr = np.asarray(reps, dtype=float)
    if not np.all(np.isfinite(arr)):
        return [f"{label}: non-finite replicate values"]
    out = []
    mean = float(arr.mean())
    se = float(arr.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    if abs(mean - est["value"]) > 1e-12 * max(abs(mean), 1e-300):
        out.append(f"{label}: value {est['value']!r} is not the replicate mean {mean!r}")
    if abs(se - est["stderr"]) > 1e-9 * max(se, 1e-300):
        out.append(f"{label}: stderr {est['stderr']!r} is not the replicate spread {se!r}")
    return out


def within_stderr(value: float, stderr: float, ref: float, label: str,
                  k: float = K_STDERR) -> list[str]:
    if not (math.isfinite(value) and math.isfinite(stderr)) or stderr <= 0.0:
        return [f"{label}: value {value!r} with stderr {stderr!r} is not usable"]
    if abs(value - ref) > k * stderr:
        return [f"{label}: {value:.6g} is {abs(value - ref) / stderr:.2f} stderr "
                f"from the reference {ref:.6g} (limit {k})"]
    return []


def csv_problems(text: str, label: str) -> list[str]:
    if not text.startswith(SCHEMA_LINE + "\n"):
        return [f"{label}: CSV does not start with the schema line"]
    return []


# ---------------------------------------------------------------------------
# shear-sweep
# ---------------------------------------------------------------------------

def check_sweep(payload: dict, csv_text: str) -> list[str]:
    res = payload["results"]
    ests = res["estimates"]
    out = csv_problems(csv_text, "sweep")
    if [e["epsilon"] for e in ests] != list(wl.SWEEP_EPSILONS):
        return out + ["sweep: epsilon list differs from the workload"]
    for e in ests:
        label = f"sweep eps={e['epsilon']}"
        out += replicate_problems(e, wl.SWEEP_REPLICATES, label)
        out += within_stderr(e["value"], e["stderr"], brownian_oracle(e["epsilon"]),
                             label)
    out += slope_problems(res["slope"], [e["epsilon"] for e in ests],
                          [e["value"] for e in ests])
    return out


def slope_problems(slope: float, eps, values) -> list[str]:
    """The reported slope is the log-log fit of the values and lies in the
    acceptance-1 window."""
    out = []
    if min(values) <= 0.0:
        return ["sweep: nonpositive estimate"]
    refit = float(np.polyfit(np.log(eps), np.log(values), 1)[0])
    if abs(refit - slope) > 1e-9:
        out.append(f"sweep: slope {slope!r} is not the log-log fit {refit!r}")
    lo, hi = SLOPE_WINDOW
    if not lo <= slope <= hi:
        out.append(f"sweep: slope {slope:.4f} outside [{lo}, {hi}]")
    return out


# ---------------------------------------------------------------------------
# shear-triangle
# ---------------------------------------------------------------------------

def jump_measure():
    """The workloads' truncated jump measure, as the program's type."""
    from levyap.noise import JumpMeasureSpec
    return JumpMeasureSpec(alpha=wl.ALPHA, c_alpha=wl.C_ALPHA,
                           cutoff_c=wl.CUTOFF, floor_delta=wl.FLOOR)


def fp_lambda(eps: float, n: int, jumps: bool) -> float:
    """Circle FP exponent of the shear system at grid size n (program code)."""
    from levyap.fpcircle import (CircleGrid, build_generator,
                                 lyapunov_quadrature, solve_stationary)

    measure = jump_measure() if jumps else None
    gen = build_generator(wl.A, wl.SIGMA, eps, measure, CircleGrid(n))
    return lyapunov_quadrature(solve_stationary(gen), wl.A, wl.SIGMA, eps, measure)


def richardson(coarse: float, fine: float) -> float:
    """Second-order extrapolation from grids n and 2n."""
    return (4.0 * fine - coarse) / 3.0


def triangle_reference() -> float:
    n = wl.TRIANGLE_GRID_N
    eps = wl.TRIANGLE_EPSILON
    return richardson(fp_lambda(eps, n, True), fp_lambda(eps, 2 * n, True))


def check_triangle(method: str, payload: dict, csv_text: str,
                   reference: float) -> list[str]:
    est = payload["results"][method]
    label = f"triangle {method}"
    out = csv_problems(csv_text, label)
    if method == "fpcircle":
        if est["fp_residual"] > FP_RESIDUAL_MAX:
            out.append(f"{label}: residual {est['fp_residual']:.3g}")
        if abs(est["value"] - reference) > FP_GRID_RTOL * abs(reference):
            out.append(f"{label}: {est['value']!r} differs from the Richardson "
                       f"value {reference!r} by more than {FP_GRID_RTOL} relative")
        return out
    out += replicate_problems(est, wl.TRIANGLE_REPLICATES, label)
    out += within_stderr(est["value"], est["stderr"], reference, label)
    return out


# ---------------------------------------------------------------------------
# fp-refine
# ---------------------------------------------------------------------------

def check_fp_op(payload: dict, csv_text: str, n: int) -> list[str]:
    """One fp-solve artifact: grid, residual, no clipping, unit mass."""
    res = payload["results"]
    label = f"fp-solve n={n}"
    out = csv_problems(csv_text, label)
    if res["grid_n"] != n:
        out.append(f"{label}: grid_n {res['grid_n']}")
    if not (math.isfinite(res["lambda"]) and res["lambda"] > 0.0):
        out.append(f"{label}: lambda {res['lambda']!r}")
    if not res["residual"] <= FP_RESIDUAL_MAX:
        out.append(f"{label}: residual {res['residual']!r}")
    if res["clipped_mass"] > 1e-12:
        out.append(f"{label}: clipped mass {res['clipped_mass']!r}")
    rows = np.loadtxt(csv_text.splitlines()[2:], delimiter=",", ndmin=2)
    if rows.shape != (n, 2):
        return out + [f"{label}: density CSV has shape {rows.shape}"]
    h = 2.0 * math.pi / n
    if np.max(np.abs(rows[:, 0] - h * np.arange(n))) > 1e-12:
        out.append(f"{label}: density nodes are not the uniform grid")
    if rows[:, 1].min() < 0.0 or abs(rows[:, 1].sum() * h - 1.0) > FP_MASS_ATOL:
        out.append(f"{label}: density is not a probability density")
    return out


def check_fp_refinement(variant: str, lams: dict, explicit: dict) -> list[str]:
    """Grid-refinement checks of one variant across n = 512, 1024, 2048.

    ``lams`` and ``explicit`` map n to lambda and to the explicit adjoint
    residual.  Successive differences shrink about 4x (second order); for
    the Brownian variant the Richardson value matches the exact oracle and
    the explicit adjoint residual decays at the same order.
    """
    n0, n1, n2 = wl.FP_GRIDS
    out = []
    d1, d2 = lams[n1] - lams[n0], lams[n2] - lams[n1]
    ratio = d1 / d2 if d2 != 0.0 else math.inf
    lo, hi = FP_RATIO_WINDOW[variant]
    if not lo <= ratio <= hi:
        out.append(f"fp {variant}: refinement ratio {ratio:.3f} outside [{lo}, {hi}]")
    if variant == "brownian":
        extrap = richardson(lams[n1], lams[n2])
        exact = brownian_oracle(wl.FP_EPSILON)
        if abs(extrap - exact) > FP_ORACLE_RTOL * exact:
            out.append(f"fp brownian: Richardson {extrap!r} vs exact {exact!r} "
                       f"(rel {abs(extrap - exact) / exact:.2e} > {FP_ORACLE_RTOL})")
        lo, hi = EXPLICIT_RATIO_WINDOW
        for a, b in ((n0, n1), (n1, n2)):
            r = explicit[a] / explicit[b]
            if not lo <= r <= hi:
                out.append(f"fp brownian: explicit residual ratio n={a}/{b} "
                           f"{r:.3f} outside [{lo}, {hi}]")
    return out


# ---------------------------------------------------------------------------
# duffing-generic, direct leg: reference integrator
# ---------------------------------------------------------------------------

def trajectory_streams(seed: int, index: int, attempt: int = 0):
    """The documented per-trajectory (brownian, jumps) generator pair."""
    key = (int(seed) ^ ((index * GOLDEN64) & MASK64)) & MASK64
    return tuple(np.random.default_rng(np.random.SeedSequence([key, role, attempt]))
                 for role in (0, 1))


def block_noise(rng_b, rng_j, m: int, dt: float):
    """Gaussian increments and per-step jump marks (time ordered) of one
    block, in the documented draw order."""
    gauss = rng_b.normal(0.0, math.sqrt(dt), (m, 1))[:, 0]   # unit Brownian rate
    a, lo, hi = wl.ALPHA, wl.FLOOR, wl.CUTOFF
    rate = 2.0 * wl.C_ALPHA * (lo ** -a - hi ** -a) / a
    counts = rng_j.poisson(rate * dt, m)
    total = int(counts.sum())
    marks = [[] for _ in range(m)]
    if total:
        offs = dt * rng_j.random(total)
        u = rng_j.random(total)
        mag = (lo ** -a - u * (lo ** -a - hi ** -a)) ** (-1.0 / a)
        sgn = np.where(rng_j.random(total) < 0.5, -1.0, 1.0)
        steps = np.repeat(np.arange(m), counts)
        for k in np.lexsort((offs, steps)):
            marks[steps[k]].append(float(sgn[k] * mag[k]))
    return gauss.tolist(), marks


def duffing_direct_reference(seed: int, index: int, horizon: float,
                             eps: float = wl.DUFFING_EPSILON,
                             sigma: float = wl.SIGMA) -> float:
    """Tangent-growth exponent of one Duffing replicate.

    RK4 for the drift and the tangent, Euler for the Gaussian part, and the
    exact shear x2 += eps sigma z x1 with Jacobian [[1, 0], [eps sigma z, 1]]
    for each jump; log |v| is accumulated every RENORM steps after the
    burn-in.  Raises RuntimeError on an exit (critical point or explosion).
    """
    dt = wl.DT
    rng_b, rng_j = trajectory_streams(seed, index)
    n_total = int(round(horizon / dt))
    burn_time = wl.BURN_IN * horizon
    x1, x2 = 1.0, 0.0
    v1, v2 = 1.0, 0.5
    t = 0.0
    growth = gtime = 0.0
    start = None if burn_time > 0.0 else 0.0
    since = 0
    es = eps * sigma

    def f(a1, a2, b1, b2):
        return a2, -a1 - a1 ** 3, b2, (-1.0 - 3.0 * a1 * a1) * b1

    done = 0
    while done < n_total:
        m = min(BLOCK_STEPS, n_total - done)
        gauss, marks = block_noise(rng_b, rng_j, m, dt)
        for i in range(m):
            k1 = f(x1, x2, v1, v2)
            k2 = f(*(y + 0.5 * dt * k for y, k in zip((x1, x2, v1, v2), k1)))
            k3 = f(*(y + 0.5 * dt * k for y, k in zip((x1, x2, v1, v2), k2)))
            k4 = f(*(y + dt * k for y, k in zip((x1, x2, v1, v2), k3)))
            x1, x2, v1, v2 = (y + dt / 6.0 * (a + 2.0 * b + 2.0 * c + d)
                              for y, a, b, c, d in zip((x1, x2, v1, v2), k1, k2, k3, k4))
            db = gauss[i]
            x2 += eps * (sigma * x1 * db)
            v2 += eps * (sigma * v1 * db)
            for z in marks[i]:
                v2 += es * z * v1
                x2 += es * z * x1
            t += dt
            if math.hypot(x1, x2) > 1e8 or math.hypot(x1 + x1 ** 3, x2) < 1e-6:
                raise RuntimeError(f"reference replicate {index} exited at t={t}")
            if start is None and t >= burn_time:
                r = math.hypot(v1, v2)
                v1, v2 = v1 / r, v2 / r
                start = t
                since = 0
                continue
            since += 1
            r = math.hypot(v1, v2)
            if since >= wl.RENORM or abs(math.log(r)) > 20.0:
                if start is not None:
                    growth += math.log(r)
                    gtime = t - start
                v1, v2 = v1 / r, v2 / r
                since = 0
        done += m
    if since > 0 and start is not None:
        growth += math.log(math.hypot(v1, v2))
        gtime = t - start
    return growth / gtime


def check_duffing_direct(payload: dict, csv_text: str, seed: int) -> list[str]:
    """Per-replicate values match the reference integrator pathwise."""
    est = payload["results"]["direct"]
    label = "duffing direct"
    out = csv_problems(csv_text, label)
    out += replicate_problems(est, wl.DUFFING_REPLICATES, label)
    if est["restarts"] or est["exits"]:
        out.append(f"{label}: {est['restarts']} restarts, {est['exits']} exits")
    if out:
        return out
    for i, got in enumerate(est["per_replicate"]):
        try:
            ref = duffing_direct_reference(seed, i, est["horizon"], est["epsilon"],
                                           payload["config"]["system.sigma"])
        except RuntimeError as exc:
            out.append(f"{label}: {exc}")
            continue
        if abs(got - ref) > DUFFING_PATH_RTOL * abs(ref):
            out.append(f"{label}: replicate {i} is {got!r}, reference {ref!r}")
    return out


# ---------------------------------------------------------------------------
# duffing-generic, Khasminskii leg: jump compensator in closed form
# ---------------------------------------------------------------------------

def duffing_irho_closed_form(x, theta: float, eps: float = wl.DUFFING_EPSILON,
                             beta: float = 2.0 / 3.0, sigma: float = wl.SIGMA,
                             nodes: int = 64) -> tuple[float, float]:
    """(I_rho, int |integrand|) for the Duffing system at (x, theta).

    The rescaled frame tangent (cos theta, sin theta) is mapped back to the
    plane, pushed through the exact shear jump of mark z, decomposed in the
    frame at the landing point and rescaled again; the log of its length is
    the log-radius jump.  The sum over z and -z (the linear compensator term
    cancels in it) is integrated against the jump measure on
    [floor, cutoff) by Gauss-Legendre in log z.
    """
    p, q = float(x[0]), float(x[1])
    s_nodes, s_w = np.polynomial.legendre.leggauss(nodes)
    a, b = math.log(wl.FLOOR), math.log(wl.CUTOFF)
    s = 0.5 * (a + b) + 0.5 * (b - a) * s_nodes
    z = np.exp(s)
    weight = 0.5 * (b - a) * s_w * wl.C_ALPHA * z ** (-wl.ALPHA)   # nu(dz) = C z^(-1-a) z ds
    g1, g2 = p + p ** 3, q
    n2 = g1 * g1 + g2 * g2
    w1, w2 = eps ** (-beta) * math.cos(theta), math.sin(theta)
    v1 = w1 * g2 + w2 * g1 / n2                 # v = w1 U1 + w2 U2
    v2 = -w1 * g1 + w2 * g2 / n2
    total = np.zeros_like(z)
    for sign in (1.0, -1.0):
        shear = sign * eps * sigma * z
        q2 = q + shear * p
        u1, u2 = v1, v2 + shear * v1
        m2 = g1 * g1 + q2 * q2               # the jump leaves x1, hence g1
        # frame coordinates at the landing point, then diag(eps^beta, 1)
        total += np.log(np.hypot(eps ** beta * (u1 * q2 - u2 * g1) / m2,
                                 u1 * g1 + u2 * q2))
    return float(weight @ total), float(weight @ np.abs(total))


def orbit_points(seed: int, count: int = 3):
    """Points (x, theta) on the energy level of the Duffing default start
    (1, 0), drawn from the seed, away from the fold x = 0."""
    rng = np.random.default_rng([int(seed), 20201121])
    energy = 0.5 + 0.25                      # H(1, 0)
    pts = []
    for _ in range(count):
        p = rng.uniform(0.3, 0.95) * rng.choice([-1.0, 1.0])
        q = math.sqrt(2.0 * (energy - 0.5 * p * p - 0.25 * p ** 4)) * rng.choice([-1.0, 1.0])
        pts.append((np.array([p, q]), float(rng.uniform(0.0, 2.0 * math.pi))))
    return pts


def irho_problems(got: float, ref: float, scale: float, label: str) -> list[str]:
    if abs(got - ref) > IRHO_RTOL * scale:
        return [f"{label}: {got!r} vs closed form {ref!r} "
                f"(|diff| / int |integrand| = {abs(got - ref) / scale:.2e} > {IRHO_RTOL})"]
    return []


def check_duffing_irho(seed: int) -> list[str]:
    """estimators.compute_Irho against the closed form at orbit points."""
    from levyap.estimators import compute_Irho
    from levyap.noise import NoiseModel
    from levyap.systems import make_duffing

    measure = jump_measure()
    system = make_duffing(wl.SIGMA)
    out = []
    for x, theta in orbit_points(seed):
        got = compute_Irho(system, measure, x, theta, wl.DUFFING_EPSILON,
                           noise=NoiseModel(measure=measure))
        out += irho_problems(got, *duffing_irho_closed_form(x, theta),
                             f"duffing compute_Irho at x={x.tolist()}, theta={theta:.4f}")
    return out


# ---------------------------------------------------------------------------
# duffing-generic, Khasminskii leg: pathwise reference
# ---------------------------------------------------------------------------

def _frame_angle(p: float, q: float, theta: float, eps: float, beta: float):
    """Plane data of the rescaled frame tangent (cos theta, sin theta) at (p, q).

    Returns (g1, v1, v2, W): g1 = dH/dp, the plane tangent v = w1 U1 + w2 U2
    with (eps^beta w1, w2) = (cos theta, sin theta), and W(q', v2') -> the
    complex rescaled frame coordinates eps^beta w1 + i w2 of the tangent
    (v1, v2') at the point (p, q') (the shear moves only q and v2).
    """
    g1 = p + p ** 3
    n2 = g1 * g1 + q * q
    w1, w2 = eps ** (-beta) * math.cos(theta), math.sin(theta)
    v1 = w1 * q + w2 * g1 / n2
    v2 = -w1 * g1 + w2 * q / n2

    def frame(q2: float, u2: float) -> complex:
        return complex(eps ** beta * (v1 * q2 - u2 * g1) / (g1 * g1 + q2 * q2),
                       v1 * g1 + u2 * q2)

    return g1, v1, v2, frame


def duffing_angle_rates(p: float, q: float, theta: float, eps: float,
                        sigma: float, beta: float = 2.0 / 3.0):
    """Rates of (theta, log-radius) of the rescaled Duffing tangent at (p, q, theta).

    Returns (det, lin, quad): det = d/dt log zeta along the Hamiltonian flow,
    and lin, quad = the first and second s-derivatives of log zeta along the
    exact shear q += eps sigma s p, v2 += eps sigma s v1 (the Marcus flow of
    the noise field), all at s = 0; zeta = eps^beta w1 + i w2.  The imaginary
    parts are angle rates, the real parts log-radius rates; quad holds the
    Wong-Zakai terms sigma~ = G sigma of the joint noise field G.
    """
    g1, v1, v2, _ = _frame_angle(p, q, theta, eps, beta)
    e_b, es = eps ** beta, eps * sigma
    zeta = complex(math.cos(theta), math.sin(theta))
    n2 = g1 * g1 + q * q
    num = v1 * q - v2 * g1                          # eps^-beta zeta.real * n2
    # Hamiltonian flow: p' = q, q' = -g1, v1' = v2, v2' = -(1 + 3p^2) v1
    num_t = 3.0 * p * p * (v1 * g1 - v2 * q)
    n2_t = 6.0 * p * p * g1 * q
    det = complex(e_b * (num_t * n2 - num * n2_t) / (n2 * n2), 0.0) / zeta
    # shear flow in s: q' = es p, v2' = es v1 (all second derivatives 0)
    num_s = -es * v1 * p ** 3
    n2_s, n2_ss = 2.0 * q * es * p, 2.0 * (es * p) ** 2
    w1_s = (num_s * n2 - num * n2_s) / (n2 * n2)
    w1_ss = (-2.0 * num_s * n2_s / (n2 * n2) - num * n2_ss / (n2 * n2)
             + 2.0 * num * n2_s * n2_s / n2 ** 3)
    z_s = complex(e_b * w1_s, es * (v1 * q + v2 * p))
    z_ss = complex(e_b * w1_ss, 2.0 * es * es * v1 * p)
    lin = z_s / zeta
    return det, lin, z_ss / zeta - lin * lin


def duffing_angle_jump(p: float, q: float, theta: float, shear: float,
                       eps: float, beta: float = 2.0 / 3.0):
    """(q, theta) after the exact shear jump q += shear p, v2 += shear v1."""
    _, v1, v2, frame = _frame_angle(p, q, theta, eps, beta)
    q2 = q + shear * p
    turn = frame(q2, v2 + shear * v1) / complex(math.cos(theta), math.sin(theta))
    return q2, theta + math.atan2(turn.imag, turn.real)


def duffing_khasminskii_reference(seed: int, index: int, horizon: float,
                                  eps: float = wl.DUFFING_EPSILON,
                                  sigma: float = wl.SIGMA,
                                  beta: float = 2.0 / 3.0) -> tuple[float, float]:
    """(value, scale) of one Duffing Khasminskii replicate.

    The pair (x, theta) follows the documented per-step protocol: RK4 for
    the drift of x and Euler for its Gaussian part; theta moves by the
    Ito drift at the start of the step, then by the Gaussian angle field at
    the new point, then through the exact shear jump of each mark.  After
    the burn-in the log-radius drift (plus half the Wong-Zakai term) is
    averaged every step and the closed-form compensator every STRIDE steps.
    All rates come from the plane picture (duffing_angle_rates), not from
    the frame algebra.  scale is the mean absolute summand, the yardstick
    of the comparison.
    """
    dt = wl.DT
    rng_b, rng_j = trajectory_streams(seed, index)
    n = int(round(horizon / dt))
    burn = int(round(wl.BURN_IN * n))
    p, q, theta = 1.0, 0.0, KHAS_THETA0
    acc = acc_abs = irho = irho_abs = 0.0
    n_acc = n_irho = 0
    es = eps * sigma

    def f(a1, a2):
        return a2, -a1 - a1 ** 3

    done = 0
    while done < n:
        m = min(BLOCK_STEPS, n - done)
        gauss, marks = block_noise(rng_b, rng_j, m, dt)
        for i in range(m):
            step_no = done + i
            det, _, quad = duffing_angle_rates(p, q, theta, eps, sigma, beta)
            if step_no >= burn:
                term = det.real + 0.5 * quad.real
                acc += term
                acc_abs += abs(term)
                n_acc += 1
                if step_no % KHAS_STRIDE == 0:
                    val, mag = duffing_irho_closed_form((p, q), theta, eps, beta, sigma)
                    irho += val
                    irho_abs += mag
                    n_irho += 1
            k1 = f(p, q)
            k2 = f(p + 0.5 * dt * k1[0], q + 0.5 * dt * k1[1])
            k3 = f(p + 0.5 * dt * k2[0], q + 0.5 * dt * k2[1])
            k4 = f(p + dt * k3[0], q + dt * k3[1])
            p += dt / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
            q += dt / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
            q += es * p * gauss[i]
            theta += dt * (det.imag + 0.5 * quad.imag)
            theta += duffing_angle_rates(p, q, theta, eps, sigma, beta)[1].imag * gauss[i]
            for z in marks[i]:
                q, theta = duffing_angle_jump(p, q, theta, es * z, eps, beta)
            if math.hypot(p, q) > 1e8 or math.hypot(p + p ** 3, q) < 1e-6:
                raise RuntimeError(f"reference replicate {index} exited at step {step_no}")
        done += m
    return (acc / n_acc + irho / n_irho,
            acc_abs / n_acc + irho_abs / n_irho)


def check_duffing_khasminskii(payload: dict, csv_text: str, seed: int) -> list[str]:
    """Per-replicate values match the pathwise reference."""
    est = payload["results"]["khasminskii"]
    label = "duffing khasminskii"
    out = csv_problems(csv_text, label) + \
        replicate_problems(est, wl.DUFFING_REPLICATES, label)
    if est["restarts"] or est["exits"]:
        out.append(f"{label}: {est['restarts']} restarts, {est['exits']} exits")
    if out:
        return out
    for i, got in enumerate(est["per_replicate"]):
        try:
            ref, scale = duffing_khasminskii_reference(
                seed, i, est["horizon"], est["epsilon"],
                payload["config"]["system.sigma"])
        except RuntimeError as exc:
            out.append(f"{label}: {exc}")
            continue
        if abs(got - ref) > KHAS_PATH_RTOL * scale:
            out.append(f"{label}: replicate {i} is {got!r}, reference {ref!r} "
                       f"(|diff| / scale = {abs(got - ref) / scale:.2e} > {KHAS_PATH_RTOL})")
    return out
