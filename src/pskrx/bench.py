"""Reference bounds for symmetric M-PSK coherent-state discrimination.

Two benchmarks frame every receiver curve:

* the Helstrom bound, the quantum-mechanically minimal average error,
  attained for symmetric pure-state alphabets by the square-root
  measurement;
* the standard quantum limit (SQL), the error of an ideal heterodyne
  detector followed by a maximum-likelihood phase decision.

The Helstrom value comes from a circulant eigenvalue formula, imported
from the general square-root-measurement literature rather than derived
here; the test suite checks it against an independent route, a
Fock-space Gram-matrix square root (``tests/oracles.py``).

The SQL is a one-dimensional integral over the decision wedge, done
with Gauss-Legendre rules (``numpy.polynomial.legendre.leggauss``, nodes
computed once per order) on panels that narrow toward the wedge's
centre, where the integrand has width 1/alpha.  Its guard is order
doubling: orders 64, 128, ... up to _SQL_MAX_ORDER until two agree
within _SQL_QUAD_TOL, else ``PrecisionError``.

Both values are 1 minus a probability near 1, so they are accurate in
absolute terms only, to about 1e-16: a smaller error reads 0 or 2.2e-16.

Conventions: quadratures X = (a + a^dag)/2, heterodyne outcome z
distributed with the unit complex Gaussian density (1/pi) e^{-|z-alpha|^2}
(variance 1/2 per quadrature).  Heterodyne visibility is taken as ideal
throughout; only single-photon detectors are assigned a finite quantum
efficiency elsewhere in the package.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import pairwise
from math import cos, erf, exp, inf, pi, sin, sqrt

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import PrecisionError

_EIGENVALUE_CLAMP = -1e-12

#: Two Gauss-Legendre orders that agree this closely accept the SQL.
_SQL_QUAD_TOL = 1e-12

#: The first order tried, and the last: leggauss's cost grows about as
#: the cube of the order.
_SQL_MIN_ORDER = 64
_SQL_MAX_ORDER = 512

#: The panel next to the wedge's centre is this many times 1/alpha wide;
#: each further panel doubles.  Narrow panels keep the integrand nearly
#: polynomial on each, which also damps the rounding in leggauss's weights.
_SQL_PANEL = 1.0


def helstrom_mpsk(alpha: float, M: int) -> float:
    """Minimum average error for M symmetric coherent states.

    Square-root-measurement result for symmetric pure states with equal
    priors: P = 1 - (1/M^2) (sum_k sqrt(lambda_k))^2, where lambda_k are
    the eigenvalues of the circulant Gram matrix with first row
    gamma_j = exp(-alpha^2 (1 - e^{2 pi i j / M})), obtained by DFT.
    Accurate in absolute terms only, to about 1e-16.
    """
    if not alpha >= 0.0:
        raise ValueError(f"amplitude must be >= 0, got {alpha}")
    if M < 2:
        raise ValueError(f"need at least 2 states, got M={M}")
    idx = np.arange(M)
    gamma = np.exp(-alpha * alpha * (1.0 - np.exp(2j * np.pi * idx / M)))
    eig = np.fft.fft(gamma).real
    if eig.min() < _EIGENVALUE_CLAMP:
        raise PrecisionError(f"Gram eigenvalue {eig.min():.3g} below clamp")
    eig = np.clip(eig, 0.0, None)
    return float(1.0 - (np.sqrt(eig).sum() / M) ** 2)


def _wedge_integrand(phi: float, alpha: float) -> float:
    """Angular density of the heterodyne outcome falling at angle phi.

    Radial part of the polar integral done in closed form:
    integral_0^inf r e^{-(r - alpha cos phi)^2} dr
      = e^{-c^2}/2 + c sqrt(pi)/2 (1 + erf(c)),  c = alpha cos phi.
    """
    c = alpha * cos(phi)
    s = alpha * sin(phi)
    radial = 0.5 * exp(-c * c) + c * (sqrt(pi) / 2.0) * (1.0 + erf(c))
    return exp(-s * s) * radial / pi


#: Nodes and weights of the order-point Gauss-Legendre rule on [-1, 1].
_gauss_legendre = lru_cache(maxsize=None)(leggauss)


def _half_wedge(alpha: float, M: int, order: int) -> float:
    """integral_0^{pi/M} of the wedge integrand, with an order-point rule per panel.

    The panels are [0, h], [h, 2h], [2h, 4h], ... up to pi/M, with
    h = _SQL_PANEL / alpha: the first spans the peak at phi = 0, whose
    width is 1/alpha, and the factor e^{-alpha^2 sin^2 phi} falls by
    e^{-4^j} or more across the later ones.  Small alpha gives one panel.
    """
    edge = pi / M
    cuts = [0.0]
    h = _SQL_PANEL / alpha if alpha > 0.0 else inf
    while h < edge:
        cuts.append(h)
        h *= 2.0
    cuts.append(edge)
    nodes, weights = _gauss_legendre(order)
    total = 0.0
    for lo, hi in pairwise(cuts):
        half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
        values = [_wedge_integrand(mid + half * x, alpha) for x in nodes]
        total += half * float(np.dot(weights, values))
    return total


def sql_heterodyne(alpha: float, M: int) -> float:
    """Error of ideal heterodyne detection with ML phase wedges.

    The outcome density given state alpha_k is (1/pi) e^{-|z - alpha_k|^2};
    maximum likelihood picks the state whose wedge |arg z - theta_k| < pi/M
    contains z.  The correct-decision integral over the wedge is twice its
    half over [0, pi/M] (the integrand is even in phi), done by
    Gauss-Legendre rules of orders 64, 128, ... on panels that narrow
    toward phi = 0.  The first two orders that agree within 1e-12 give
    the value; if none do up to order 512, ``PrecisionError`` is raised.
    A result rounded below 0 is returned as 0.  Accurate in absolute
    terms only, to about 1e-16.
    """
    if not 0.0 <= alpha < inf:
        raise ValueError(f"amplitude must be finite and >= 0, got {alpha}")
    if M < 2:
        raise ValueError(f"need at least 2 states, got M={M}")
    order = _SQL_MIN_ORDER
    p_correct = 2.0 * _half_wedge(alpha, M, order)
    while order < _SQL_MAX_ORDER:
        order *= 2
        coarse, p_correct = p_correct, 2.0 * _half_wedge(alpha, M, order)
        if abs(p_correct - coarse) <= _SQL_QUAD_TOL:
            return max(1.0 - p_correct, 0.0)
    raise PrecisionError(
        f"wedge quadrature: orders {order // 2} and {order} differ by "
        f"{abs(p_correct - coarse):.3g} (M={M}, alpha={alpha!r})"
    )
