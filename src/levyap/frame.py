"""Moving-frame algebra for the linearized flow.

Away from critical points of H the plane carries the orthogonal frame
(U1, U2) with U1 the Hamiltonian field and U2 = grad H / ||grad H||^2.
Written in this frame, the linearization of the perturbed flow is a shear
(nilpotent) linear system driven by the noise through a family of 2x2
matrices.  This module computes

* the frame vectors and the tangent decomposition v = w1 U1 + w2 U2,
* the shear rate and the per-component noise matrices (with optional
  directional derivatives along the perturbation fields),
* the polar-coordinate noise fields of the rescaled system (rescaled by
  T = diag(eps^beta, 1), which regularizes the singular perturbation) and
  the Wong-Zakai corrections assembled from first principles, and
* the leading-order growth-rate integrand (drift shear term, Gaussian
  quadratic-variation term, and the jump term evaluated by nested
  quadrature over the jump flow).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import CriticalPoint, InvalidParameter
from .noise import JumpMeasureSpec, jump_nodes
from .quadrature import check_converged, gauss_legendre


def _rk4(f: Callable, y: np.ndarray, h: float) -> np.ndarray:
    k1 = f(y)
    k2 = f(y + 0.5 * h * k1)
    k3 = f(y + 0.5 * h * k2)
    k4 = f(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


@dataclass(frozen=True)
class HamiltonianModel:
    """H with its first two derivative callbacks."""

    h: Callable[[np.ndarray], float]
    grad_h: Callable[[np.ndarray], np.ndarray]
    hess_h: Callable[[np.ndarray], np.ndarray]
    tol_crit: float = 1e-6


@dataclass
class PerturbationFields:
    """Perturbation fields in frame components, V_k = a1_k U1 + a2_k U2.

    Gradients of the component functions may be supplied analytically;
    otherwise central finite differences with step 1e-6 (1 + ||x||) are used
    for the derivative actions U_i . a_k^j.
    """

    a1: Sequence[Callable[[np.ndarray], float]]
    a2: Sequence[Callable[[np.ndarray], float]]
    grad_a1: Optional[Sequence[Callable[[np.ndarray], np.ndarray]]] = None
    grad_a2: Optional[Sequence[Callable[[np.ndarray], np.ndarray]]] = None

    @property
    def d(self) -> int:
        return len(self.a1)


@dataclass
class FrameCoefficients:
    """Linearization data at a point, written in a frame.

    shear is the off-diagonal drift rate (the [[0, shear], [0, 0]] block);
    mats[k] is the 2x2 noise matrix of component k with entries
    [[b, c], [d, e]].  dmats[k], when present, holds the directional
    derivative of mats[k] along V_k (needed for Wong-Zakai terms).  For a
    batch of N points shear has shape (N,) and mats, dmats (N, d, 2, 2);
    the entry properties then have shape (N, d).  Data that does not depend
    on the point may keep the one-point shapes: they broadcast.
    """

    shear: float
    mats: np.ndarray
    dmats: Optional[np.ndarray] = None

    @property
    def b(self) -> np.ndarray:
        return self.mats[..., 0, 0]

    @property
    def c(self) -> np.ndarray:
        return self.mats[..., 0, 1]

    @property
    def d(self) -> np.ndarray:
        return self.mats[..., 1, 0]

    @property
    def e(self) -> np.ndarray:
        return self.mats[..., 1, 1]


def _grad_norm2(model: HamiltonianModel, x: np.ndarray) -> tuple[np.ndarray, float]:
    g = model.grad_h(x)
    n2 = float(g @ g)
    if math.sqrt(n2) < model.tol_crit:
        raise CriticalPoint(f"||grad H|| < {model.tol_crit} at {x}")
    return g, n2


def frame_vectors(model: HamiltonianModel, x: np.ndarray):
    """(U1, U2) at x; U1 . H = 0, U2 . H = 1, U1 orthogonal to U2."""
    g, n2 = _grad_norm2(model, x)
    u1 = np.array([g[1], -g[0]])
    return u1, g / n2


def coefficient_A(model: HamiltonianModel, x: np.ndarray) -> float:
    """Shear rate of the drift in the (U1, U2) frame.

    Note the ||grad H||^4 normalization: it is fixed by the Lie-bracket
    identity (DU1 U2 - DU2 U1) = shear * U1, which the tests verify by
    finite differences.
    """
    g, n2 = _grad_norm2(model, x)
    hh = model.hess_h(x)
    num = (g[1] ** 2 - g[0] ** 2) * (hh[1, 1] - hh[0, 0]) + 4.0 * g[0] * g[1] * hh[0, 1]
    return num / (n2 * n2)


def _dir_deriv(f: Callable, x: np.ndarray, v: np.ndarray,
               grad: Optional[Callable] = None) -> float:
    if grad is not None:
        return float(np.dot(grad(x), v))
    nv = np.linalg.norm(v)
    if nv == 0.0:
        return 0.0
    h = 1e-6 * (1.0 + np.linalg.norm(x)) / nv
    return (f(x + h * v) - f(x - h * v)) / (2.0 * h)


def frame_coefficients(model: HamiltonianModel, fields: PerturbationFields,
                       x: np.ndarray, with_actions: bool = False) -> FrameCoefficients:
    """Noise matrices of the linearization in the (U1, U2) frame.

    Entries per component k:
        b = U1.a1 - shear a2      c = U2.a1 + shear a1
        d = U1.a2                 e = U2.a2
    With ``with_actions`` the directional derivatives of (b, c, d, e) along
    V_k are attached (by finite differences of the entry functions).
    """
    u1, u2 = frame_vectors(model, x)
    shear = coefficient_A(model, x)
    d = fields.d
    mats = np.zeros((d, 2, 2))
    g1 = fields.grad_a1 or [None] * d
    g2 = fields.grad_a2 or [None] * d

    def entries(pt, k):
        u1p, u2p = frame_vectors(model, pt)
        sh = coefficient_A(model, pt)
        a1k, a2k = fields.a1[k](pt), fields.a2[k](pt)
        return np.array([
            [_dir_deriv(fields.a1[k], pt, u1p, g1[k]) - sh * a2k,
             _dir_deriv(fields.a1[k], pt, u2p, g1[k]) + sh * a1k],
            [_dir_deriv(fields.a2[k], pt, u1p, g2[k]),
             _dir_deriv(fields.a2[k], pt, u2p, g2[k])],
        ])

    for k in range(d):
        mats[k] = entries(x, k)

    dmats = None
    if with_actions:
        dmats = np.zeros((d, 2, 2))
        for k in range(d):
            vk = fields.a1[k](x) * u1 + fields.a2[k](x) * u2
            nv = np.linalg.norm(vk)
            if nv > 0.0:
                h = 1e-6 * (1.0 + np.linalg.norm(x)) / nv
                dmats[k] = (entries(x + h * vk, k) - entries(x - h * vk, k)) / (2.0 * h)
    return FrameCoefficients(shear, mats, dmats)


def decompose_tangent(model: HamiltonianModel, x: np.ndarray, v: np.ndarray):
    """Frame coordinates (w1, w2) of a tangent vector."""
    g, n2 = _grad_norm2(model, x)
    u1 = np.array([g[1], -g[0]])
    return float(v @ u1) / n2, float(v @ g)


def recompose_tangent(model: HamiltonianModel, x: np.ndarray, w) -> np.ndarray:
    u1, u2 = frame_vectors(model, x)
    return w[0] * u1 + w[1] * u2


def polar_fields(coeffs: FrameCoefficients, theta, epsilon: float,
                 beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Polar noise fields (sigma1_k, sigma2_k) at angle theta: the angle and
    log-radius components of the rescaled noise matrices, at the scales
    eps^(1-beta), eps and eps^(1+beta).

    One point: theta a float, results of shape (d,).  A batch: theta of
    shape (N,) with coefficients of a batch of N points, results (N, d).
    """
    th = np.asarray(theta, dtype=float)[..., None]
    s = np.sin(th)
    c = np.cos(th)
    sc, s2, c2 = s * c, s * s, c * c
    e1, e2, e3 = epsilon ** (1.0 - beta), epsilon, epsilon ** (1.0 + beta)
    b, cc, d, e = coeffs.b, coeffs.c, coeffs.d, coeffs.e
    sigma1 = e1 * d * c2 - e2 * (b - e) * sc - e3 * cc * s2
    sigma2 = e1 * d * sc + e2 * (b * c2 + e * s2) + e3 * cc * sc
    return sigma1, sigma2


def wz_corrections(coeffs: FrameCoefficients, theta: float, epsilon: float,
                   beta: float) -> tuple[float, float]:
    """Wong-Zakai corrections (sum_k sigma~1_k, sum_k sigma~2_k) from
    sigma~^i = eps D_x sigma^i V + D_theta sigma^i sigma^1.

    The x-derivative along V_k is ``polar_fields`` of the derivative
    matrices ``coeffs.dmats``; the theta-derivative is taken in closed form.
    """
    s = math.sin(theta)
    c = math.cos(theta)
    sin2t = 2.0 * s * c
    cos2t = c * c - s * s
    e1, e2, e3 = epsilon ** (1.0 - beta), epsilon, epsilon ** (1.0 + beta)
    b, cc, d, e = coeffs.b, coeffs.c, coeffs.d, coeffs.e
    sigma1, _ = polar_fields(coeffs, theta, epsilon, beta)
    dx1, dx2 = polar_fields(FrameCoefficients(coeffs.shear, coeffs.dmats),
                            theta, epsilon, beta)
    dth1 = -e1 * d * sin2t - e2 * (b - e) * cos2t - e3 * cc * sin2t
    dth2 = e1 * d * cos2t + e2 * (e - b) * sin2t + e3 * cc * cos2t
    wz1 = epsilon * dx1 + dth1 * sigma1
    wz2 = epsilon * dx2 + dth2 * sigma1
    return float(np.sum(wz1)), float(np.sum(wz2))


def angle_jump_flow(coeffs_fn: Callable, v_fn: Callable, z: np.ndarray,
                    x: np.ndarray, theta: float, epsilon: float, beta: float,
                    substeps: int = 8, b_points: Optional[np.ndarray] = None):
    """Joint Marcus flow of (x, theta, log-radius increment) for one mark or
    a batch of marks.

    coeffs_fn(x) -> FrameCoefficients, v_fn(x) -> (d, 2) field values.
    Integrates d(xi, z1, z2)/dtau = (eps sum z_k V_k, sum z_k sigma1_k,
    sum z_k sigma2_k) from (x, theta, 0) to tau = 1 by RK4.  With
    ``b_points`` (sorted, in [0, 1]) the flow state is additionally
    recorded at those times; returns (states_at_b, final) where each state
    is (x, theta, rho_increment).

    z of shape (d,) is one mark and a state has shape (4,).  z of shape
    (N, d) is a batch of N marks flowed from the same (x, theta) as one RK4
    solve of an (N, 4) state; coeffs_fn and v_fn are then called on points
    of shape (N, 2) and must return FrameCoefficients with mats (N, d, 2, 2)
    (or constant data that broadcasts) and field values (N, d, 2).  Every
    row follows the arithmetic of the one-mark call.
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))

    def rhs(y):
        pt = y[..., :2]
        s1, s2 = polar_fields(coeffs_fn(pt), y[..., 2], epsilon, beta)
        vx = v_fn(pt)
        return np.concatenate([epsilon * np.sum(z[..., None] * vx, axis=-2),
                               np.sum(z * s1, axis=-1)[..., None],
                               np.sum(z * s2, axis=-1)[..., None]], axis=-1)

    y = np.concatenate([np.asarray(x, dtype=float), [theta], [0.0]])
    if z.ndim == 2:
        y = np.tile(y, (len(z), 1))

    def advance(y, gap):
        nsub = max(1, int(math.ceil(substeps * gap)))
        h = gap / nsub
        for _ in range(nsub):
            y = _rk4(rhs, y, h)
        return y

    if b_points is None:
        return advance(y, 1.0)
    recorded = []
    pos = 0.0
    for tb in b_points:
        if tb - pos > 1e-15:
            y = advance(y, tb - pos)
        pos = tb
        recorded.append(y.copy())
    if 1.0 - pos > 1e-15:
        y = advance(y, 1.0 - pos)
    return recorded, y


def _signed_marks(zq: np.ndarray, dim: int) -> np.ndarray:
    """Marks (+z_0, -z_0, +z_1, -z_1, ...) on component 0, shape (2n, dim);
    components are independent, and d = 1 in practice."""
    marks = np.zeros((2 * len(zq), dim))
    marks[0::2, 0] = zq
    marks[1::2, 0] = -zq
    return marks


def _sum_in_order(weights: np.ndarray, values: np.ndarray) -> float:
    """sum_i w_i v_i accumulated node by node (not a BLAS dot), so the
    result keeps the bits of a per-node loop."""
    total = 0.0
    for w, v in zip(weights.tolist(), values.tolist()):
        total += w * v
    return total


def compute_R0(coeffs_fn: Callable, v_fn: Callable, measure: JumpMeasureSpec,
               x: np.ndarray, theta: float, epsilon: float,
               beta: float = 2.0 / 3.0, inner_nodes: int = 8,
               z_panel_nodes: int = 16, substeps: int = 8,
               check: bool = False, lo: Optional[float] = None) -> float:
    """Jump term of the leading-order growth-rate integrand.

    For each mark z the inner double integral over the flow time collapses
    by Fubini to a single (1 - b)-weighted integral of

        (sum_k z_k d_k(xi(b z)))^2 cos(2 z1(b z)) cos^2(z1(b z)),

    evaluated on Gauss-Legendre nodes along the flow; the outer integral
    runs over the symmetrized jump measure from ``lo`` (default: the
    measure's floor) to the cutoff.  All marks of both signs are flowed as
    one batch (coeffs_fn and v_fn must accept a batch of points, see
    ``angle_jump_flow``); the node sum runs in the order of the marks.
    """
    if not measure.has_jumps:
        return 0.0

    def value(inner_n, panel_n):
        bq, bw = gauss_legendre(inner_n, 0.0, 1.0)
        order = np.argsort(bq)
        bq, bw = bq[order], bw[order]
        zq, wq, quadratic = jump_nodes(measure, lo, panel_n)
        marks = _signed_marks(zq, measure.dimension)
        states, _ = angle_jump_flow(coeffs_fn, v_fn, marks, x, theta,
                                    epsilon, beta, substeps, b_points=bq)
        g = np.empty((len(marks), len(bq)))
        for j, st in enumerate(states):
            zd = np.sum(marks * coeffs_fn(st[:, :2]).d, axis=-1)
            th = st[:, 2]
            g[:, j] = zd * zd * np.cos(2.0 * th) * np.cos(th) ** 2
        vals = np.sum(bw * (1.0 - bq) * g, axis=-1)
        if quadratic:
            vals /= np.repeat(zq * zq, 2)
        return _sum_in_order(np.repeat(wq, 2), vals)

    out = value(inner_nodes, z_panel_nodes)
    if check:
        check_converged(out, value(2 * inner_nodes, 2 * z_panel_nodes))
    return out


def sigma0(coeffs_fn: Callable, v_fn: Callable, measure: Optional[JumpMeasureSpec],
           x: np.ndarray, theta: float, epsilon: float,
           jump_term: str = "r0", beta: float = 2.0 / 3.0,
           rate: float = 1.0, **quad_kw) -> float:
    """Leading-order growth-rate integrand at (x, theta).

    Drift shear term + Gaussian quadratic-variation term (at variance
    ``rate`` per unit time and component) + jump term.  The jump term
    defaults to the separated form ("r0"); "irho" substitutes the rescaled
    full compensator integral eps^(-2 beta) I_rho instead (the fallback for
    measures without the separation).  A ``lo`` in ``quad_kw`` starts the
    jump marks there; the band below it then belongs in ``rate``.
    """
    co = coeffs_fn(x)
    s, c = math.sin(theta), math.cos(theta)
    base = (co.shear * s * c
            + rate * float(np.sum(co.d ** 2)) * (0.5 * c * c - s * s * c * c))
    if measure is None or not measure.has_jumps:
        return base
    if jump_term == "r0":
        return base + compute_R0(coeffs_fn, v_fn, measure, x, theta, epsilon,
                                 beta=beta, **quad_kw)
    if jump_term == "irho":
        # the full compensator integral carries the leading scale
        # eps^(2 - 2 beta); rescaling by its inverse substitutes for the
        # separated jump term
        ir = compute_Irho_generic(coeffs_fn, v_fn, measure, x, theta, epsilon,
                                  beta=beta, **quad_kw)
        return base + epsilon ** (2.0 * beta - 2.0) * ir
    raise InvalidParameter(f"unknown jump_term {jump_term!r}")


def compute_Irho_generic(coeffs_fn: Callable, v_fn: Callable,
                         measure: JumpMeasureSpec, x: np.ndarray, theta: float,
                         epsilon: float, beta: float = 2.0 / 3.0,
                         z_panel_nodes: int = 16, substeps: int = 8,
                         check: bool = False, lo: Optional[float] = None,
                         **_ignored) -> float:
    """Compensator integral of the log-radius equation,

        int [ z2(z)(x, theta) - sum_k z_k sigma2_k(x, theta) ] nu(dz),

    over the marks lo <= |z| < cutoff (lo defaults to the measure's floor;
    pass the sampling floor when a Gaussian substitute covers the band
    below it), with z2 from the joint jump flow, symmetrized over the mark
    sign (the linear subtraction cancels pairwise in exact arithmetic).
    All marks of both signs are flowed as one batch (coeffs_fn and v_fn
    must accept a batch of points, see ``angle_jump_flow``); the node sum
    runs in the order of the marks.
    """
    if not measure.has_jumps:
        return 0.0

    def value(panel_n):
        zq, wq, quadratic = jump_nodes(measure, lo, panel_n)
        _, s2 = polar_fields(coeffs_fn(x), theta, epsilon, beta)
        marks = _signed_marks(zq, measure.dimension)
        y = angle_jump_flow(coeffs_fn, v_fn, marks, x, theta, epsilon, beta,
                            substeps)
        terms = y[:, 3] - np.sum(marks * s2, axis=-1)
        pairs = terms[0::2] + terms[1::2]
        if quadratic:
            pairs /= zq * zq
        return _sum_in_order(wq, pairs)

    out = value(z_panel_nodes)
    if check:
        check_converged(out, value(2 * z_panel_nodes))
    return out


def evaluator_from_model(model: HamiltonianModel, fields: PerturbationFields,
                         with_actions: bool = False):
    """(coeffs_fn, v_fn) pair backed by the generic frame machinery; a batch
    of points (N, 2) is evaluated point by point."""

    def coeffs_fn(x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return frame_coefficients(model, fields, x, with_actions=with_actions)
        parts = [coeffs_fn(p) for p in x]
        return FrameCoefficients(
            np.array([co.shear for co in parts]),
            np.stack([co.mats for co in parts]),
            np.stack([co.dmats for co in parts]) if with_actions else None)

    def v_fn(x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 2:
            return np.stack([v_fn(p) for p in x])
        u1, u2 = frame_vectors(model, x)
        return np.stack([fields.a1[k](x) * u1 + fields.a2[k](x) * u2
                         for k in range(fields.d)])

    return coeffs_fn, v_fn
