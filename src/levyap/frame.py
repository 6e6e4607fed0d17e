"""Moving-frame algebra for the linearized flow.

Away from critical points of H the plane carries the frame (U1, U2) with
U1 the Hamiltonian field and U2 = grad H / ||grad H||^2.  Each example
system gives its frame as ``frame(x1, x2)`` (the shear system, already in
shear form, uses the canonical basis) and its linearization data in it
(``FrameCoefficients``) in closed form.  Written in this frame, the
linearization of the perturbed flow is a shear (nilpotent) linear system
driven by the noise through a family of 2x2 matrices.  This module computes

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

from .noise import JumpMeasureSpec, jump_nodes
from .quadrature import check_converged, gauss_legendre


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
           epsilon: float, beta: float = 2.0 / 3.0, rate: float = 1.0,
           **quad_kw) -> float:
    """Leading-order growth-rate integrand at (x, theta).

    Drift shear term + Gaussian quadratic-variation term (at variance
    ``rate`` per unit time and component) + the separated jump term
    ``compute_R0``.  A ``lo`` in ``quad_kw`` starts the jump marks there;
    the band below it then belongs in ``rate``.
    """
    co = coeffs_fn(x)
    s, c = math.sin(theta), math.cos(theta)
    base = (co.shear * s * c
            + rate * float(np.sum(co.d ** 2)) * (0.5 * c * c - s * s * c * c))
    if measure is None or not measure.has_jumps:
        return base
    return base + compute_R0(coeffs_fn, frame, jump, measure, x, theta,
                             epsilon, beta=beta, **quad_kw)


def compute_Irho_generic(frame: Callable, jump: Callable,
                         measure: JumpMeasureSpec, x: np.ndarray, theta: float,
                         epsilon: float, beta: float = 2.0 / 3.0,
                         z_panel_nodes: int = 16, check: bool = False,
                         lo: Optional[float] = None) -> float:
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

