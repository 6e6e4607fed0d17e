"""Ready-made example systems.

Both bundles expose the callbacks the integrator, the frame machinery and
the estimators need: the Hamiltonian model, the raw vector fields with
their closed-form Marcus jump, the frame-coefficient evaluator, and (for the
shear system) closed-form jump maps on the circle with the compensator
integral of the log-radius jump (``rho_jump_profile``).  ``coeffs`` and
``v_values`` take one point of shape (2,) or a batch of shape (N, 2); the
shear system's constant frame data broadcasts against a batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameter
from .frame import FrameCoefficients, HamiltonianModel, PerturbationFields
from .marcus import VectorFieldSet


def theta_jump_sc(theta, st, ct, s, out=None, work=(None, None)):
    """exact_theta_jump from theta with st = sin(theta), ct = cos(theta)
    already known: the one place the angle jump formula is written, shared
    by ``exact_theta_jump`` and the angle lane kernel.  The result goes to
    ``out`` when given (it may be theta itself), the intermediate values to
    the two arrays of ``work`` when given; either way the bits are those of
    theta + ((arctan2(st + s ct, ct) - arctan2(st, ct) + pi) % 2pi - pi)."""
    u, v = work
    w = np.add(st, np.multiply(s, ct, u), u)
    w = np.subtract(np.arctan2(w, ct, u), np.arctan2(st, ct, v), u)
    w = np.subtract(np.remainder(np.add(w, np.pi, u), 2.0 * np.pi, u), np.pi, u)
    return np.add(theta, w, out)


def rho_jump_sc(st, ct, s):
    """exact_rho_jump with st = sin(theta), ct = cos(theta) already known:
    the one place the log-radius jump formula is written."""
    return 0.5 * np.log1p(s * (2.0 * st * ct + s * ct * ct))


def exact_theta_jump(theta, s):
    """Angle after the shear (u1, u2) -> (u1, s u1 + u2), glued globally.

    The shear never rotates a direction across the vertical axis, so the
    angle increment lies in (-pi, pi); returning theta + increment keeps
    paths continuous without chart switching.
    """
    theta = np.asarray(theta, dtype=float)
    s = np.asarray(s, dtype=float)
    out = theta_jump_sc(theta, np.sin(theta), np.cos(theta), s)
    return out if out.ndim else float(out)


def exact_rho_jump(theta, s):
    """Log-radius change of the same shear: 0.5 log(1 + 2s sc + s^2 c^2)."""
    theta = np.asarray(theta, dtype=float)
    s = np.asarray(s, dtype=float)
    out = rho_jump_sc(np.sin(theta), np.cos(theta), s)
    return out if out.ndim else float(out)


def rho_jump_even_sum(theta, s):
    """exact_rho_jump(theta, s) + exact_rho_jump(theta, -s), cancellation-free.

    Equals 0.5 log(1 + 2 s^2 cos^2 cos2theta + s^4 cos^4); the parts linear
    in s cancel exactly, which keeps small-s quadratures stable.
    """
    theta = np.asarray(theta, dtype=float)
    s = np.asarray(s, dtype=float)
    c2 = np.cos(theta) ** 2
    out = 0.5 * np.log1p(s * s * c2 * (2.0 * np.cos(2.0 * theta) + s * s * c2))
    return out if out.ndim else float(out)


def rho_jump_profile(theta, amp, nodes) -> np.ndarray:
    """int rho_jump_even_sum(theta, amp z) nu(dz): the compensator of the
    shear's log-radius jumps, on the one-sided marks ``nodes`` = (z, w,
    quadratic) of ``noise.jump_nodes``.

    theta and amp broadcast against each other (one angle, an angle grid,
    or one angle and amplitude per lane).  The node sum runs row by row as
    a pairwise sum, which keeps every row's bits independent of the number
    of rows (a BLAS matvec does not).
    """
    z, w, quadratic = nodes
    vals = rho_jump_even_sum(np.asarray(theta, dtype=float)[..., None],
                             np.asarray(amp, dtype=float)[..., None] * z)
    if quadratic:
        vals = vals / (z * z)
    return (vals * w).sum(axis=-1)


def shear_jump(sigma: float):
    """Closed-form Marcus jump along the noise field V(u) = (0, sigma u1).

    For the scaled mark w = eps z the flow of w V is the shear
    u2 += sigma w u1; the shear is linear, so its Jacobian moves the tangent
    the same way.  Used as ``VectorFieldSet.jump`` by both example systems.
    """

    def jump(w, u, v):
        s = sigma * w[0]
        u = np.array([u[0], u[1] + s * u[0]])
        if v is not None:
            v = np.array([v[0], v[1] + s * v[0]])
        return u, v

    return jump


def _field_values(sigma: float, u) -> np.ndarray:
    """(0, sigma u1) at one point, shape (1, 2), or a batch, shape (N, 1, 2)."""
    u = np.asarray(u, dtype=float)
    out = np.zeros(u.shape[:-1] + (1, 2))
    out[..., 0, 1] = sigma * u[..., 0]
    return out


@dataclass(frozen=True)
class NilpotentSystem:
    """Linear shear system: drift [[0, a], [0, 0]], noise [[0, 0], [s, 0]].

    It is the perturbed Hamiltonian system with H(u) = a u2^2 / 2 (whose
    critical set is the whole line u2 = 0, so frame-based exit detection is
    disabled; the system itself is linear and never reaches a singularity in
    finite time).  The system is already in shear form, so its linearization
    data is constant in the canonical basis: shear rate a, noise matrix
    [[0, 0], [sigma, 0]].  Closed-form jump maps make it the oracle of choice
    for the generic flow machinery.
    """

    a: float
    sigma: float
    name: str = field(default="nilpotent", init=False)
    d: int = field(default=1, init=False)
    constant_shear: bool = field(default=True, init=False)

    def __post_init__(self):
        if self.a <= 0 or self.sigma <= 0:
            raise InvalidParameter("a and sigma must be positive")
        object.__setattr__(self, "_coeffs", FrameCoefficients(
            shear=self.a,
            mats=np.array([[[0.0, 0.0], [self.sigma, 0.0]]]),
            dmats=np.zeros((1, 2, 2)),
        ))

    @property
    def default_x0(self) -> np.ndarray:
        return np.array([1.0, 0.5])

    def hamiltonian(self) -> HamiltonianModel:
        a = self.a
        return HamiltonianModel(
            h=lambda u: 0.5 * a * u[1] ** 2,
            grad_h=lambda u: np.array([0.0, a * u[1]]),
            hess_h=lambda u: np.array([[0.0, 0.0], [0.0, a]]),
            tol_crit=0.0,
        )

    def fields(self, epsilon: float) -> VectorFieldSet:
        a, s = self.a, self.sigma
        return VectorFieldSet(
            drift=lambda u: np.array([a * u[1], 0.0]),
            drift_jacobian=lambda u: np.array([[0.0, a], [0.0, 0.0]]),
            diffusion=[lambda u: np.array([0.0, s * u[0]])],
            diffusion_jacobians=[lambda u: np.array([[0.0, 0.0], [s, 0.0]])],
            epsilon=epsilon,
            grad_h=None,
            jump=shear_jump(s),
        )

    def coeffs(self, x=None) -> FrameCoefficients:
        """The constant frame data; it broadcasts against a batch of points."""
        return self._coeffs

    def coeffs_with_actions(self, x=None) -> FrameCoefficients:
        return self._coeffs

    def v_values(self, x) -> np.ndarray:
        return _field_values(self.sigma, x)

    def frame_fields(self) -> PerturbationFields:
        """Frame components against (U1, U2) = ((a u2, 0), (0, 1/(a u2))).

        Used only to exercise the generic moving-frame machinery; the
        coefficients it produces are position dependent, unlike the constant
        canonical-basis data in ``coeffs``.
        """
        a, s = self.a, self.sigma
        return PerturbationFields(
            a1=[lambda u: 0.0],
            a2=[lambda u: a * s * u[0] * u[1]],
            grad_a1=[lambda u: np.zeros(2)],
            grad_a2=[lambda u: np.array([a * s * u[1], a * s * u[0]])],
        )


@dataclass(frozen=True)
class DuffingSystem:
    """Stochastic Duffing oscillator x'' = -x - x^3 + noise * x.

    H(x, y) = x^2/2 + x^4/4 + y^2/2; the perturbation field is (0, sigma x).
    Frame coefficients are stored in closed form; the generic moving-frame
    machinery reproduces them and serves as the test oracle.
    """

    sigma: float
    name: str = field(default="duffing", init=False)
    d: int = field(default=1, init=False)
    constant_shear: bool = field(default=False, init=False)

    def __post_init__(self):
        if self.sigma <= 0:
            raise InvalidParameter("sigma must be positive")

    @property
    def default_x0(self) -> np.ndarray:
        return np.array([1.0, 0.0])

    def hamiltonian(self) -> HamiltonianModel:
        return HamiltonianModel(
            h=lambda p: 0.5 * p[0] ** 2 + 0.25 * p[0] ** 4 + 0.5 * p[1] ** 2,
            grad_h=lambda p: np.array([p[0] + p[0] ** 3, p[1]]),
            hess_h=lambda p: np.array([[1.0 + 3.0 * p[0] ** 2, 0.0], [0.0, 1.0]]),
            tol_crit=1e-6,
        )

    def fields(self, epsilon: float) -> VectorFieldSet:
        s = self.sigma
        return VectorFieldSet(
            drift=lambda p: np.array([p[1], -p[0] - p[0] ** 3]),
            drift_jacobian=lambda p: np.array([[0.0, 1.0],
                                               [-1.0 - 3.0 * p[0] ** 2, 0.0]]),
            diffusion=[lambda p: np.array([0.0, s * p[0]])],
            diffusion_jacobians=[lambda p: np.array([[0.0, 0.0], [s, 0.0]])],
            epsilon=epsilon,
            grad_h=lambda p: np.array([p[0] + p[0] ** 3, p[1]]),
            jump=shear_jump(s),
        )

    # Powers are written as products so that one point and a batch of
    # points give the same bits (numpy's scalar and array ``**`` differ).

    def _closed_entries(self, p) -> np.ndarray:
        x, y = np.moveaxis(np.asarray(p, dtype=float), -1, 0)
        s = self.sigma
        x3 = x * x * x
        g = x + x3
        n = g * g + y * y
        b = -s * x * y * (x * x + 2.0) / n
        c = -s * x3 * g / (n * n)
        d = -s * x * g + s * y * y
        return np.stack([np.stack([b, c], -1), np.stack([d, -b], -1)], -2)

    def coeffs(self, p, with_actions: bool = False) -> FrameCoefficients:
        """Frame data at one point (mats (1, 2, 2)) or a batch (N, 1, 2, 2);
        ``with_actions`` takes one point only."""
        x, y = np.moveaxis(np.asarray(p, dtype=float), -1, 0)
        g = x + x * x * x
        n = g * g + y * y
        shear = 3.0 * x * x * (g * g - y * y) / (n * n)
        mats = self._closed_entries(p)[..., None, :, :]
        dmats = None
        if with_actions:
            v = np.array([0.0, self.sigma * x])
            nv = abs(self.sigma * x)
            if nv > 0.0:
                h = 1e-6 * (1.0 + math.hypot(x, y)) / nv
                dmats = ((self._closed_entries(p + h * v)
                          - self._closed_entries(p - h * v)) / (2.0 * h))[None, :, :]
            else:
                dmats = np.zeros((1, 2, 2))
        return FrameCoefficients(shear, mats, dmats)

    def coeffs_with_actions(self, p) -> FrameCoefficients:
        return self.coeffs(p, with_actions=True)

    def v_values(self, p) -> np.ndarray:
        return _field_values(self.sigma, p)

    def frame_fields(self) -> PerturbationFields:
        s = self.sigma

        def a1(p):
            x, y = p
            n = (x + x ** 3) ** 2 + y * y
            return -s * x * (x + x ** 3) / n

        def grad_a1(p):
            x, y = p
            g = x + x ** 3
            n = g * g + y * y
            dx_num = -s * (2.0 * x + 4.0 * x ** 3)
            dn_dx = 2.0 * g * (1.0 + 3.0 * x * x)
            return np.array([(dx_num * n + s * x * g * dn_dx) / (n * n),
                             s * x * g * 2.0 * y / (n * n)])

        return PerturbationFields(
            a1=[a1],
            a2=[lambda p: s * p[0] * p[1]],
            grad_a1=[grad_a1],
            grad_a2=[lambda p: np.array([s * p[1], s * p[0]])],
        )


def make_nilpotent(a: float, sigma: float) -> NilpotentSystem:
    return NilpotentSystem(a=a, sigma=sigma)


def make_duffing(sigma: float) -> DuffingSystem:
    return DuffingSystem(sigma=sigma)
