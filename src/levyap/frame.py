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
* the Marcus jump of the pair (x, theta) and of the log-radius in closed
  form: the plane tangent goes through the fields' closed-form jump and is
  read back in the rescaled frame at the landing point, and
* the jump quadratures built on it (the compensator integral of the
  log-radius equation and the jump term of the leading-order growth-rate
  integrand, next to its drift shear and Gaussian quadratic-variation
  terms).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import CriticalPoint, InvalidParameter
from .noise import JumpMeasureSpec, jump_nodes
from .quadrature import check_converged, gauss_legendre


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
    derivative of mats[k] along V_k (needed for Wong-Zakai terms).  The
    entry properties have shape (d,).
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
    eps^(1-beta), eps and eps^(1+beta), each of shape (d,).
    """
    s = math.sin(theta)
    c = math.cos(theta)
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


def angle_jump_flow(frame: Callable, jump: Callable, w: Sequence[float],
                    x1: float, x2: float, theta: float, epsilon: float,
                    beta: float):
    """Marcus jump of the pair (x, theta) for the scaled mark vector
    w = eps z, in closed form: returns (x1', x2', theta', rho increment).

    ``jump`` is the fields' closed-form Marcus jump (``VectorFieldSet.jump``)
    and ``frame(x1, x2) -> (U1, U2)`` the frame the coefficients are written
    in, with det[U1 U2] = 1 (true of every frame (J grad H, grad H / |grad H|^2)).
    The rescaled tangent (cos theta, sin theta) has frame coordinates
    (eps^-beta cos theta, sin theta).  Its plane tangent is pushed through the
    jump with the point, read back in the frame at the landing point and
    rescaled by diag(eps^beta, 1).  One atan2 gives the turn in (-pi, pi),
    exact while a jump turns the rescaled tangent by less than half a turn
    (the shear of the example systems never does).  This is the time-one
    flow of (x, theta, log-radius) along the noise field; ``polar_fields``
    are its rates at time zero.
    """
    e_b = epsilon ** beta
    c, s = math.cos(theta), math.sin(theta)
    (a1, a2), (b1, b2) = frame(x1, x2)
    w1 = c / e_b
    y1, y2, v1, v2 = jump(w, x1, x2, w1 * a1 + s * b1, w1 * a2 + s * b2)
    (a1, a2), (b1, b2) = frame(y1, y2)
    p = e_b * (v1 * b2 - v2 * b1)
    q = a1 * v2 - a2 * v1
    return (y1, y2, theta + math.atan2(c * q - s * p, c * p + s * q),
            math.log(math.hypot(p, q)))


def compute_R0(coeffs_fn: Callable, frame: Callable, jump: Callable,
               measure: JumpMeasureSpec, x: np.ndarray, theta: float,
               epsilon: float, beta: float = 2.0 / 3.0, inner_nodes: int = 8,
               z_panel_nodes: int = 16, check: bool = False,
               lo: Optional[float] = None) -> float:
    """Jump term of the leading-order growth-rate integrand.

    For each mark z the inner double integral over the flow time collapses
    by Fubini to a single (1 - b)-weighted integral of

        (sum_k z_k d_k(xi(b z)))^2 cos(2 z1(b z)) cos^2(z1(b z)),

    evaluated on Gauss-Legendre nodes b; the outer integral runs over the
    symmetrized jump measure from ``lo`` (default: the measure's floor) to
    the cutoff.  The flow along z V stopped at time b is the time-one flow
    along b z V, so the state at b is the closed-form jump of mark b z
    (``angle_jump_flow``).
    """
    if not measure.has_jumps:
        return 0.0
    x1, x2 = float(x[0]), float(x[1])
    pad = [0.0] * (measure.dimension - 1)

    def value(inner_n, panel_n):
        bq, bw = gauss_legendre(inner_n, 0.0, 1.0)
        flow_w = (bw * (1.0 - bq)).tolist()
        zq, wq, quadratic = jump_nodes(measure, lo, panel_n)
        total = 0.0
        for z, wt in zip(zq.tolist(), wq.tolist()):
            for zs in (z, -z):
                val = 0.0
                for b, fw in zip(bq.tolist(), flow_w):
                    y1, y2, th, _ = angle_jump_flow(
                        frame, jump, [epsilon * b * zs] + pad, x1, x2, theta,
                        epsilon, beta)
                    zd = zs * float(coeffs_fn((y1, y2)).d[0])
                    ct = math.cos(th)
                    val += fw * zd * zd * math.cos(2.0 * th) * ct * ct
                if quadratic:
                    val /= z * z
                total += wt * val
        return total

    out = value(inner_nodes, z_panel_nodes)
    if check:
        check_converged(out, value(2 * inner_nodes, 2 * z_panel_nodes))
    return out


def sigma0(coeffs_fn: Callable, frame: Callable, jump: Callable,
           measure: Optional[JumpMeasureSpec], x: np.ndarray, theta: float,
           epsilon: float, jump_term: str = "r0", beta: float = 2.0 / 3.0,
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
        return base + compute_R0(coeffs_fn, frame, jump, measure, x, theta,
                                 epsilon, beta=beta, **quad_kw)
    if jump_term == "irho":
        # the full compensator integral carries the leading scale
        # eps^(2 - 2 beta); rescaling by its inverse substitutes for the
        # separated jump term
        ir = compute_Irho_generic(frame, jump, measure, x, theta, epsilon,
                                  beta=beta, **quad_kw)
        return base + epsilon ** (2.0 * beta - 2.0) * ir
    raise InvalidParameter(f"unknown jump_term {jump_term!r}")


def compute_Irho_generic(frame: Callable, jump: Callable,
                         measure: JumpMeasureSpec, x: np.ndarray, theta: float,
                         epsilon: float, beta: float = 2.0 / 3.0,
                         z_panel_nodes: int = 16, check: bool = False,
                         lo: Optional[float] = None, **_ignored) -> float:
    """Compensator integral of the log-radius equation,

        int [ z2(z)(x, theta) - sum_k z_k sigma2_k(x, theta) ] nu(dz),

    over the marks lo <= |z| < cutoff (lo defaults to the measure's floor;
    pass the sampling floor when a Gaussian substitute covers the band
    below it), with z2 the log-radius change of the closed-form jump
    (``angle_jump_flow``).  The measure is symmetric and the subtracted term
    linear in z, so each node contributes the pair sum z2(z) + z2(-z).
    """
    if not measure.has_jumps:
        return 0.0
    x1, x2 = float(x[0]), float(x[1])
    pad = [0.0] * (measure.dimension - 1)

    def value(panel_n):
        zq, wq, quadratic = jump_nodes(measure, lo, panel_n)
        total = 0.0
        for z, wt in zip(zq.tolist(), wq.tolist()):
            pair = (angle_jump_flow(frame, jump, [epsilon * z] + pad, x1, x2,
                                    theta, epsilon, beta)[3]
                    + angle_jump_flow(frame, jump, [-epsilon * z] + pad, x1, x2,
                                      theta, epsilon, beta)[3])
            if quadratic:
                pair /= z * z
            total += wt * pair
        return total

    out = value(z_panel_nodes)
    if check:
        check_converged(out, value(2 * z_panel_nodes))
    return out


def evaluator_from_model(model: HamiltonianModel, fields: PerturbationFields,
                         with_actions: bool = False):
    """(coeffs_fn, frame) pair backed by the generic frame machinery."""

    def coeffs_fn(x):
        return frame_coefficients(model, fields, np.asarray(x, dtype=float),
                                  with_actions=with_actions)

    def frame(x1, x2):
        u1, u2 = frame_vectors(model, np.array([x1, x2]))
        return tuple(u1.tolist()), tuple(u2.tolist())

    return coeffs_fn, frame
