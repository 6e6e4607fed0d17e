"""Quadrature helpers for integrals against the truncated jump measure.

The measure density C |z|^(-1-alpha) varies over many orders of magnitude
between a small floor and the cutoff, so plain Gauss-Legendre on [lo, hi]
is useless.  Two schemes are provided:

* geometric panels (``nu_nodes``): the interval is split into panels of
  bounded density ratio, Gauss-Legendre applied per panel.  Works for any
  lo > 0 and any integrand.
* power substitution (``nu_nodes_regularized``): for integrands vanishing
  like z^2 at the origin, u = z^(2-alpha) removes the singularity and the
  nodes reach lo = 0.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import QuadratureFailure


@lru_cache(maxsize=64)
def _leggauss_cached(n: int):
    x, w = leggauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def gauss_legendre(n: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights for integration over [a, b]."""
    x, w = _leggauss_cached(n)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w


def nu_nodes(alpha: float, c_alpha: float, lo: float, hi: float,
             per_panel: int = 16, ratio: float = 4.0):
    """One-sided nodes/weights for integrals against the jump measure.

    Returns (z, w) with  sum w_i g(z_i)  ~=  int_lo^hi g(z) C z^(-1-alpha) dz.
    Symmetric integrals are obtained by the caller evaluating g(z) + g(-z).
    """
    if lo <= 0:
        raise QuadratureFailure("geometric panels need lo > 0; use nu_nodes_regularized")
    if hi <= lo:
        return np.empty(0), np.empty(0)
    zs, ws = [], []
    b = hi
    while b > lo * (1 + 1e-12):
        a = max(lo, b / ratio)
        z, w = gauss_legendre(per_panel, a, b)
        zs.append(z)
        ws.append(w * c_alpha * z ** (-1.0 - alpha))
        b = a
    return np.concatenate(zs), np.concatenate(ws)


def nu_nodes_regularized(alpha: float, c_alpha: float, hi: float, n: int = 64,
                         lo: float = 0.0):
    """Nodes/weights for integrands of the form g(z) = z^2 G(z), G smooth.

    Substituting u = z^(2-alpha) gives
        int_lo^hi z^2 G(z) C z^(-1-alpha) dz = C/(2-alpha) int G(z(u)) z(u)^2 ... du
    with a bounded transformed integrand, valid down to lo = 0.  The weights
    returned here absorb the z^2 factor: sum w_i G(z_i) approximates
    int_{lo<=z<hi} z^2 G(z) C z^(-1-alpha) dz.
    """
    p = 2.0 - alpha
    u, w = gauss_legendre(n, lo ** p, hi ** p)
    z = u ** (1.0 / p)
    return z, w * c_alpha / p
