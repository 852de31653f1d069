"""Reference bounds for symmetric M-PSK coherent-state discrimination.

Two benchmarks frame every receiver curve:

* the Helstrom bound, the quantum-mechanically minimal average error,
  attained for symmetric pure-state alphabets by the square-root
  measurement;
* the standard quantum limit (SQL), the error of an ideal heterodyne
  detector followed by a maximum-likelihood phase decision.

The Helstrom value is computed twice by independent routes -- a
circulant eigenvalue formula and a Fock-space Gram-matrix square root --
because the formula is imported from the general square-root-measurement
literature rather than derived here.

Conventions: quadratures X = (a + a^dag)/2, heterodyne outcome z
distributed with the unit complex Gaussian density (1/pi) e^{-|z-alpha|^2}
(variance 1/2 per quadrature).  Heterodyne visibility is taken as ideal
throughout; only single-photon detectors are assigned a finite quantum
efficiency elsewhere in the package.
"""

from __future__ import annotations

from math import cos, erf, exp, pi, sin, sqrt

import numpy as np
from scipy import special

from .analytic import poisson_tail
from .errors import PrecisionError

_EIGENVALUE_CLAMP = -1e-12
_SQL_QUAD_TOL = 1e-12


def helstrom_mpsk(alpha: float, M: int) -> float:
    """Minimum average error for M symmetric coherent states.

    Square-root-measurement result for symmetric pure states with equal
    priors: P = 1 - (1/M^2) (sum_k sqrt(lambda_k))^2, where lambda_k are
    the eigenvalues of the circulant Gram matrix with first row
    gamma_j = exp(-alpha^2 (1 - e^{2 pi i j / M})), obtained by DFT.
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


def gram_srm_oracle(alpha: float, M: int, dim: int) -> float:
    """Helstrom value via photon-number-basis state vectors.

    Builds the M coherent states numerically in a dim-level Fock space,
    forms their Gram matrix from the actual inner products, and applies
    the square-root measurement: P = 1 - (1/M) sum_k (sqrt(G)_kk)^2.
    Entirely independent of the circulant formula above.
    """
    if not alpha >= 0.0:
        raise ValueError(f"amplitude must be >= 0, got {alpha}")
    if M < 2:
        raise ValueError(f"need at least 2 states, got M={M}")
    # basis must carry the overlap integrals: photon distributions at
    # amplitude up to 2*alpha have to fit below the truncation
    if poisson_tail((2.0 * alpha) ** 2, dim - 1) >= 1e-12:
        raise PrecisionError(
            f"Fock truncation dim={dim} too small for amplitude {alpha}"
        )
    n = np.arange(dim)
    log_mag = -0.5 * alpha * alpha + n * np.log(alpha) if alpha > 0 else None
    if alpha == 0.0:
        vectors = np.zeros((M, dim), dtype=complex)
        vectors[:, 0] = 1.0
    else:
        mag = np.exp(log_mag - 0.5 * special.gammaln(n + 1))
        phases = 2.0 * np.pi * np.arange(M) / M
        vectors = mag[None, :] * np.exp(1j * np.outer(phases, n))
    gram = vectors.conj() @ vectors.T
    eigval, eigvec = np.linalg.eigh(gram)
    eigval = np.clip(eigval, 0.0, None)
    root = (eigvec * np.sqrt(eigval)) @ eigvec.conj().T
    diag = root.diagonal().real
    return float(1.0 - np.sum(diag**2) / M)


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


def sql_heterodyne(alpha: float, M: int) -> float:
    """Error of ideal heterodyne detection with ML phase wedges.

    The outcome density given state alpha_k is (1/pi) e^{-|z - alpha_k|^2};
    maximum likelihood picks the state whose wedge |arg z - theta_k| < pi/M
    contains z.  Evaluated as an adaptive quadrature of the polar-form
    correct-decision integral over the wedge.
    """
    from scipy import integrate

    if not alpha >= 0.0:
        raise ValueError(f"amplitude must be >= 0, got {alpha}")
    if M < 2:
        raise ValueError(f"need at least 2 states, got M={M}")
    p_correct, err = integrate.quad(
        _wedge_integrand,
        -pi / M,
        pi / M,
        args=(alpha,),
        epsabs=_SQL_QUAD_TOL,
        epsrel=1e-12,
        limit=200,
    )
    if err > 1e-10:
        raise PrecisionError(f"wedge quadrature error estimate {err:.3g}")
    return 1.0 - p_correct
