"""Independent reference values for checking pskrx outputs.

Nothing here imports pskrx.  Detection rates come from complex
arithmetic on the coherent amplitudes; the cyclic-probing error comes
from an ODE integration of the counting master equation, folded modulo
M; the Helstrom bound from the eigenvalues of the Gram matrix; the SQL
from a quadrature of the heterodyne phase distribution.
"""

from __future__ import annotations

from math import cos, erf, exp, pi, sqrt

import numpy as np
from scipy import integrate


def cyclic_error(M: int, alpha_sq: float, beta_sq: float) -> float:
    """Average error of the cyclic-probing receiver with an ideal detector.

    The probe starts at state 1 and advances by one state per click, so
    the probe is the click count modulo M and the decision is correct for
    true state k when the count is congruent to k - 1.  For each true
    state the count modulo M is a continuous-time Markov chain on M
    phases, dp_j/dt = lam_{j-1} p_{j-1} - lam_j p_j, where lam_j is the
    click rate while probing state j + 1.
    """
    alpha, beta = sqrt(alpha_sq), sqrt(beta_sq)
    phase = np.exp(2j * np.pi * np.arange(M) / M)
    # rate[k, j]: true state k + 1 while probing state j + 1, which the
    # displacement -(alpha + beta) e^{i theta_j} sends to amplitude -beta
    rate = np.abs(alpha * phase[:, None] - (alpha + beta) * phase[None, :]) ** 2
    p0 = np.zeros((M, M))
    p0[:, 0] = 1.0

    def rhs(_, y):
        flow = rate * y.reshape(M, M)
        return (np.roll(flow, 1, axis=1) - flow).ravel()

    sol = integrate.solve_ivp(
        rhs, (0.0, 1.0), p0.ravel(), method="DOP853", rtol=1e-12, atol=1e-15
    )
    if not sol.success:
        raise RuntimeError(f"master-equation integration failed: {sol.message}")
    p1 = sol.y[:, -1].reshape(M, M)
    return float(1.0 - np.trace(p1) / M)


def helstrom(M: int, alpha_sq: float) -> float:
    """Square-root-measurement error from the Gram-matrix eigenvalues."""
    phase = np.exp(2j * np.pi * np.arange(M) / M)
    gram = np.exp(-alpha_sq * (1.0 - np.conj(phase)[:, None] * phase[None, :]))
    eig = np.clip(np.linalg.eigvalsh(gram), 0.0, None)
    return float(1.0 - (np.sqrt(eig).sum() / M) ** 2)


def sql(M: int, alpha_sq: float) -> float:
    """Ideal heterodyne error with maximum-likelihood phase wedges.

    Integrates the heterodyne phase distribution
    P(phi) = e^{-a^2} [1 + sqrt(pi) c e^{c^2} (1 + erf c)] / (2 pi),
    c = a cos(phi), over the wedge |phi| < pi / M of the true state.
    """
    a = sqrt(alpha_sq)

    def density(phi: float) -> float:
        c = a * cos(phi)
        return (exp(-a * a) + sqrt(pi) * c * exp(c * c - a * a) * (1.0 + erf(c))) / (2 * pi)

    p_correct, _ = integrate.quad(density, -pi / M, pi / M, epsabs=1e-14, epsrel=1e-13)
    return 1.0 - p_correct
