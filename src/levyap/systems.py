"""Ready-made example systems.

Both bundles expose the callbacks the integrator, the frame machinery and
the estimators need: the drift (float-component callbacks, powers written
as products) and the strength sigma of the shared noise field
V(x) = (0, sigma x1), the critical-point tolerance ``tol_crit`` of the
exit check, the frame ``frame(x1, x2) -> (U1, U2)`` and the
frame-coefficient evaluator ``coeffs`` written in it, and (for the shear
system) closed-form jump maps on the circle with the compensator integral
of the log-radius jump (``rho_jump_profile``) and the one growth-rate
integrand built on it (``shear_growth_profile``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameter
from .frame import FrameCoefficients
from .marcus import VectorFieldSet


def exact_theta_jump(theta, s):
    """Angle after the shear (u1, u2) -> (u1, s u1 + u2), glued globally.

    The shear never rotates a direction across the vertical axis, so the
    angle increment lies in (-pi, pi); returning theta + increment keeps
    paths continuous without chart switching.
    """
    theta = np.asarray(theta, dtype=float)
    s = np.asarray(s, dtype=float)
    st, ct = np.sin(theta), np.cos(theta)
    w = np.arctan2(st + s * ct, ct) - np.arctan2(st, ct)
    out = theta + ((w + np.pi) % (2.0 * np.pi) - np.pi)
    return out if out.ndim else float(out)


def rho_jump_even_sum(theta, s):
    """Log-radius change of the same shear, 0.5 log(1 + 2s sc + s^2 c^2),
    summed over the marks s and -s, cancellation-free.

    Equals 0.5 log(1 + 2 s^2 cos^2 cos2theta + s^4 cos^4); the parts linear
    in s cancel exactly, which keeps small-s quadratures stable.
    """
    theta = np.asarray(theta, dtype=float)
    s = np.asarray(s, dtype=float)
    x = s * s * np.cos(theta) ** 2
    out = 0.5 * np.log1p(x * (2.0 * np.cos(2.0 * theta) + x))
    return out if out.ndim else float(out)


def rho_jump_profile(theta, amp, nodes) -> np.ndarray:
    """int rho_jump_even_sum(theta, amp z) nu(dz): the compensator of the
    shear's log-radius jumps, on the one-sided marks ``nodes`` = (z, w) of
    ``noise.jump_nodes``.

    theta and amp broadcast against each other (one angle, an angle grid,
    or one angle and amplitude per lane).  The node sum runs row by row as
    a pairwise sum, which keeps every row's bits independent of the number
    of rows (a BLAS matvec does not).
    """
    z, w = nodes
    vals = rho_jump_even_sum(np.asarray(theta, dtype=float)[..., None],
                             np.asarray(amp, dtype=float)[..., None] * z)
    return (vals * w).sum(axis=-1)


def shear_growth_profile(theta, a, sigma, epsilon, beta, rate, nodes) -> np.ndarray:
    """Growth-rate integrand of the shear system at the angles theta, for
    the tangent rescaled by eps^beta (beta = 0: unscaled): the log-radius
    drift eps^beta a sin cos + eps^(2-2beta) rate sigma^2 (cos^2/2 -
    sin^2 cos^2), with ``rate`` the variance rate of the Gaussian part, plus
    the compensator ``rho_jump_profile`` at amplitude eps^(1-beta) sigma on
    the marks ``nodes`` (None without jumps)."""
    th = np.asarray(theta, dtype=float)
    s, c = np.sin(th), np.cos(th)
    profile = (epsilon ** beta * (a * s * c)
               + epsilon ** (2.0 - 2.0 * beta)
               * (rate * sigma ** 2 * (0.5 * c ** 2 - s ** 2 * c ** 2)))
    if nodes is None:
        return profile
    return profile + rho_jump_profile(th, epsilon ** (1.0 - beta) * sigma, nodes)


@dataclass(frozen=True)
class NilpotentSystem:
    """Linear shear system: drift [[0, a], [0, 0]], noise [[0, 0], [s, 0]].

    It is the perturbed Hamiltonian system with H(u) = a u2^2 / 2 (whose
    critical set is the whole line u2 = 0, so ``tol_crit = 0`` disables exit
    detection; the system itself is linear and never reaches a singularity
    in finite time).  The system is already in shear form, so its linearization
    data is constant in the canonical basis: shear rate a, noise matrix
    [[0, 0], [sigma, 0]].  Closed-form jump maps make it the oracle of choice
    for the generic flow machinery.
    """

    a: float
    sigma: float
    name: str = field(default="nilpotent", init=False)
    constant_shear: bool = field(default=True, init=False)
    tol_crit: float = field(default=0.0, init=False)

    def __post_init__(self):
        if not (0.0 < self.a < math.inf and 0.0 < self.sigma < math.inf):
            raise InvalidParameter(f"a and sigma must be finite and positive, "
                                   f"got a = {self.a}, sigma = {self.sigma}")
        object.__setattr__(self, "_coeffs", FrameCoefficients(
            shear=self.a,
            mats=((0.0, 0.0), (self.sigma, 0.0)),
            dmats=((0.0, 0.0), (0.0, 0.0)),
        ))

    @property
    def default_x0(self) -> np.ndarray:
        return np.array([1.0, 0.5])

    def fields(self, epsilon: float) -> VectorFieldSet:
        a = self.a
        return VectorFieldSet(
            drift=lambda u1, u2: (a * u2, 0.0),
            drift_tangent=lambda u1, u2, v1, v2: (a * v2, 0.0),
            sigma=self.sigma,
            epsilon=epsilon,
        )

    def coeffs(self, x=None) -> FrameCoefficients:
        """The constant frame data."""
        return self._coeffs

    def coeffs_with_actions(self, x=None) -> FrameCoefficients:
        return self._coeffs

    def frame(self, u1, u2):
        """The canonical basis, in which ``coeffs`` is written."""
        return (1.0, 0.0), (0.0, 1.0)


@dataclass(frozen=True)
class DuffingSystem:
    """Stochastic Duffing oscillator x'' = -x - x^3 + noise * x.

    H(x, y) = x^2/2 + x^4/4 + y^2/2 (its gradient is the ``grad_h`` of
    ``fields``, which the exit check compares with ``tol_crit``); the
    perturbation field is (0, sigma x).  Frame coefficients are stored in
    closed form; the tests rebuild them from ``frame`` and ``fields``.
    """

    sigma: float
    name: str = field(default="duffing", init=False)
    constant_shear: bool = field(default=False, init=False)
    tol_crit: float = field(default=1e-6, init=False)

    def __post_init__(self):
        if not 0.0 < self.sigma < math.inf:
            raise InvalidParameter(f"sigma must be finite and positive, got {self.sigma}")

    @property
    def default_x0(self) -> np.ndarray:
        return np.array([1.0, 0.0])

    def fields(self, epsilon: float) -> VectorFieldSet:
        return VectorFieldSet(
            drift=lambda x, y: (y, -x - x * x * x),
            drift_tangent=lambda x, y, v1, v2: (v2, (-1.0 - 3.0 * x * x) * v1),
            sigma=self.sigma,
            epsilon=epsilon,
            grad_h=lambda x, y: (x + x * x * x, y),
        )

    def _closed_entries(self, x, y):
        s = self.sigma
        x3 = x * x * x
        g = x + x3
        n = g * g + y * y
        b = -s * x * y * (x * x + 2.0) / n
        c = -s * x3 * g / (n * n)
        d = -s * x * g + s * y * y
        return (b, c), (d, -b)

    def coeffs(self, p, with_actions: bool = False) -> FrameCoefficients:
        """Frame data at the point p, written in ``frame``."""
        x, y = float(p[0]), float(p[1])
        g = x + x * x * x
        n = g * g + y * y
        shear = 3.0 * x * x * (g * g - y * y) / (n * n)
        mats = self._closed_entries(x, y)
        dmats = None
        if with_actions:
            nv = abs(self.sigma * x)
            if nv > 0.0:
                # central difference along the noise field V = (0, sigma x)
                h = 1e-6 * (1.0 + math.hypot(x, y)) / nv
                dv = h * (self.sigma * x)
                (b1, c1), (d1, e1) = self._closed_entries(x, y + dv)
                (b0, c0), (d0, e0) = self._closed_entries(x, y - dv)
                h2 = 2.0 * h
                dmats = (((b1 - b0) / h2, (c1 - c0) / h2),
                         ((d1 - d0) / h2, (e1 - e0) / h2))
            else:
                dmats = ((0.0, 0.0), (0.0, 0.0))
        return FrameCoefficients(shear, mats, dmats)

    def coeffs_with_actions(self, p) -> FrameCoefficients:
        return self.coeffs(p, with_actions=True)

    def frame(self, x, y):
        """(U1, U2) = ((y, -g), (g, y) / |grad H|^2) with g = x + x^3, the
        frame ``coeffs`` is written in."""
        g = x + x * x * x
        n = g * g + y * y
        return (y, -g), (g / n, y / n)


def make_nilpotent(a: float, sigma: float) -> NilpotentSystem:
    return NilpotentSystem(a=a, sigma=sigma)


def make_duffing(sigma: float) -> DuffingSystem:
    return DuffingSystem(sigma=sigma)
