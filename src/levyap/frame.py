"""Moving-frame algebra for the linearized flow.

Away from critical points of H the plane carries the frame (U1, U2) with
U1 the Hamiltonian field and U2 = grad H / ||grad H||^2.  Each example
system gives its frame as ``frame(x1, x2)`` (the shear system, already in
shear form, uses the canonical basis) and its linearization data in it
(``FrameCoefficients``) in closed form.  Written in this frame, the
linearization of the perturbed flow is a shear (nilpotent) linear system
driven by the noise through a 2x2 matrix.  This module computes

* the polar-coordinate noise fields of the rescaled system (rescaled by
  T = diag(eps^beta, 1), which regularizes the singular perturbation) and
  the Wong-Zakai corrections assembled from first principles, and
* the Marcus jump of the pair (x, theta) and of the log-radius in closed
  form: the plane tangent goes through the shear along the noise field
  V(x) = (0, sigma x1) and is read back in the rescaled frame at the
  landing point, and
* the compensator integral of the log-radius equation, a quadrature of
  that jump over the marks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from .noise import JumpMeasureSpec, jump_nodes


@dataclass
class FrameCoefficients:
    """Linearization data at a point, written in a frame.

    shear is the off-diagonal drift rate (the [[0, shear], [0, 0]] block);
    mats is the 2x2 noise matrix ((b, c), (d, e)) of floats.  dmats, when
    present, holds its directional derivative along the noise field V in
    the same layout (needed for Wong-Zakai terms).
    """

    shear: float
    mats: tuple
    dmats: Optional[tuple] = None

    @property
    def b(self) -> float:
        return self.mats[0][0]

    @property
    def c(self) -> float:
        return self.mats[0][1]

    @property
    def d(self) -> float:
        return self.mats[1][0]

    @property
    def e(self) -> float:
        return self.mats[1][1]


def polar_fields(coeffs: FrameCoefficients, theta, epsilon: float,
                 beta: float) -> tuple[float, float]:
    """Polar noise fields (sigma1, sigma2) at angle theta: the angle and
    log-radius components of the rescaled noise matrix, at the scales
    eps^(1-beta), eps and eps^(1+beta).
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
    """Wong-Zakai corrections (sigma~1, sigma~2) from
    sigma~^i = eps D_x sigma^i V + D_theta sigma^i sigma^1.

    The x-derivative along V is ``polar_fields`` of the derivative matrix
    ``coeffs.dmats``; the theta-derivative is taken in closed form.
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
    return epsilon * dx1 + dth1 * sigma1, epsilon * dx2 + dth2 * sigma1


def angle_jump_flow(frame: Callable, sigma: float, w: float,
                    x1: float, x2: float, theta: float, epsilon: float,
                    beta: float):
    """Marcus jump of the pair (x, theta) for the scaled mark w = eps z, in
    closed form: returns (x1', x2', theta', rho increment).

    The jump along V(x) = (0, sigma x1) is the shear x2 += sigma w x1, and
    ``frame(x1, x2) -> (U1, U2)`` the frame the coefficients are written
    in, with det[U1 U2] = 1 (true of every frame (J grad H, grad H / |grad H|^2)).
    The rescaled tangent (cos theta, sin theta) has frame coordinates
    (eps^-beta cos theta, sin theta).  Its plane tangent is sheared with the
    point, read back in the frame at the landing point and rescaled by
    diag(eps^beta, 1).  One atan2 gives the turn in (-pi, pi), exact while
    a jump turns the rescaled tangent by less than half a turn (the shear
    of the example systems never does).  This is the time-one flow of
    (x, theta, log-radius) along the noise field; ``polar_fields`` are its
    rates at time zero.
    """
    e_b = epsilon ** beta
    c, s = math.cos(theta), math.sin(theta)
    (a1, a2), (b1, b2) = frame(x1, x2)
    w1 = c / e_b
    v1, v2 = w1 * a1 + s * b1, w1 * a2 + s * b2
    k = sigma * w
    y2, v2 = x2 + k * x1, v2 + k * v1
    (a1, a2), (b1, b2) = frame(x1, y2)
    p = e_b * (v1 * b2 - v2 * b1)
    q = a1 * v2 - a2 * v1
    return (x1, y2, theta + math.atan2(c * q - s * p, c * p + s * q),
            math.log(math.hypot(p, q)))


def compute_Irho_generic(frame: Callable, sigma: float,
                         measure: JumpMeasureSpec, x, theta: float,
                         epsilon: float, beta: float = 2.0 / 3.0,
                         lo: Optional[float] = None) -> float:
    """Compensator integral of the log-radius equation,

        int [ z2(z)(x, theta) - z sigma2(x, theta) ] nu(dz),

    over the marks lo <= |z| < cutoff (lo defaults to the measure's floor;
    pass the sampling floor when a Gaussian substitute covers the band
    below it), with z2 the log-radius change of the closed-form jump
    (``angle_jump_flow``).  The measure is symmetric and the subtracted term
    linear in z, so each node of ``noise.jump_nodes`` contributes the pair
    sum z2(z) + z2(-z).
    """
    if not measure.has_jumps:
        return 0.0
    x1, x2 = float(x[0]), float(x[1])
    zq, wq = jump_nodes(measure, lo)
    total = 0.0
    for z, wt in zip(zq.tolist(), wq.tolist()):
        pair = (angle_jump_flow(frame, sigma, epsilon * z, x1, x2, theta,
                                epsilon, beta)[3]
                + angle_jump_flow(frame, sigma, -epsilon * z, x1, x2, theta,
                                  epsilon, beta)[3])
        total += wt * pair
    return total

