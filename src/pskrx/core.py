"""Signal constellation geometry and displaced mean photon rates.

An M-ary PSK alphabet consists of coherent states |alpha e^{i theta_k}>
with theta_k = 2 pi (k-1)/M, k = 1..M, all of amplitude ``alpha`` and
mean photon number alpha^2 per pulse (pulse duration normalized to 1).

The receiver interferes the incoming pulse with a displacement field so
that one hypothesis -- the *probed* state -- lands close to the vacuum.
With a real displacement surplus ``beta`` >= 0 the receiver field while
probing state p is

    d_p = -(alpha + beta) * e^{i theta_p},

i.e. the probed state is displaced *past* the vacuum to amplitude -beta
(overshoot).  The resulting mean photon number of state k is

    n_k = |alpha e^{i theta_k} + d_p|^2
        = alpha^2 + (alpha+beta)^2 - 2 alpha (alpha+beta) cos(theta_k - theta_p).

Sign convention
---------------
Overshoot (probed state -> amplitude -beta) is the only real-beta
convention for which the state adjacent to the probed one has rate
(alpha+beta)^2 + alpha^2 and the opposite one (2 alpha + beta)^2.  The
undershoot alternative (probed state -> +beta, receiver field
-(alpha-beta) e^{i theta_p}) gives (alpha-beta)^2 + alpha^2 for the
adjacent state, i.e. a *weaker* click rate for the non-probed states,
which defeats the purpose of the surplus displacement.  beta = 0
recovers exact nulling.

One builder, ``probe_relative_tables``, computes every rate and its
slope in beta for the exact evaluator, the trial engine and the
posterior trace.  It tabulates them by the probe-relative phase offset
d = (k - p) mod M, which makes two exact identities hold bitwise:

* the probed state's rate (d = 0) is ``beta**2`` and its slope
  ``2 beta``, both special-cased, and
* reflection symmetry: offsets d and M - d share one rate (the cosine
  is evaluated at ``min(d, M-d)`` so mirror offsets share one argument).

The second identity matters downstream: Bayesian probing breaks ties
between mirror-symmetric hypotheses, and those ties must be exact.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import inf, sqrt

import numpy as np


@dataclass(frozen=True)
class PskAlphabet:
    """M coherent states of real amplitude ``alpha`` spaced by 2 pi / M.

    State k (1-based) has field amplitude alpha * e^{i phases[k-1]} and
    phases[0] = 0.
    """

    M: int
    alpha: float

    def __post_init__(self):
        if self.M < 2:
            raise ValueError(f"alphabet needs at least 2 states, got M={self.M}")
        if not 0.0 <= self.alpha < inf:
            raise ValueError(f"amplitude must be finite and >= 0, got {self.alpha}")

    @classmethod
    def from_power(cls, M: int, alpha_sq: float) -> "PskAlphabet":
        """Build from the mean photon number |alpha|^2 per pulse."""
        if not 0.0 <= alpha_sq < inf:
            raise ValueError(f"mean photon number must be finite and >= 0, got {alpha_sq}")
        return cls(M, sqrt(alpha_sq))

    @property
    def phases(self) -> np.ndarray:
        """theta_k = 2 pi (k-1)/M for k = 1..M, strictly increasing in [0, 2 pi)."""
        return 2.0 * np.pi * np.arange(self.M) / self.M

    @property
    def amplitudes(self) -> np.ndarray:
        """Complex field amplitudes alpha * e^{i theta_k}, k = 1..M."""
        return self.alpha * np.exp(1j * self.phases)


@functools.cache
def _mirror_cosines(M: int) -> np.ndarray:
    """cos(2 pi d / M) at the mirror offset min(d, M - d), d = 0..M-1.

    Built once per M and read by every table, so it is read-only.
    """
    d = np.arange(M)
    cosines = np.cos(2.0 * np.pi * np.minimum(d, M - d) / M)
    cosines.flags.writeable = False
    return cosines


def probe_relative_tables(alphabet: PskAlphabet, betas) -> np.ndarray:
    """Mean photon numbers by phase offset from the probed state, and their slopes.

    A (len(betas), 2, M) array.  Entry [i, 0, d] (d = (k - probe) mod M)
    is the rate, at surplus betas[i], of the state d phase steps ahead of
    the probed one, so every probe choice is a cyclic relabeling of
    [i, 0]; [i, 1] is its derivative in beta,
    2 (alpha + beta) - 2 alpha cos(2 pi d / M).  A negative surplus, or
    one whose largest rate (2 alpha + beta)^2 overflows, is refused.
    Each surplus's scalar terms are taken one by one and the cosine terms
    of all of them in one broadcast, so a row does not depend on the
    other surpluses.
    """
    a = alphabet.alpha
    terms = []
    for beta in betas:
        if not beta >= 0.0:
            raise ValueError(f"displacement surplus must be >= 0, got {beta}")
        c = a + beta
        if not (a + c) * (a + c) < inf:
            raise ValueError(f"click rates overflow at alpha={a!r}, beta={beta!r}")
        terms.append((a * a + c * c, 2.0 * c, 2.0 * a * c, 2.0 * a, beta * beta, 2.0 * beta))
    # per surplus: the constant terms, the cosine coefficients and the
    # entries at offset 0, each for the rates and the slopes
    terms = np.array(terms).reshape(-1, 3, 2, 1)
    tables = terms[:, 0] - terms[:, 1] * _mirror_cosines(alphabet.M)
    tables[:, :, 0] = terms[:, 2, :, 0]
    return tables


def probe_relative_rates(alphabet: PskAlphabet, beta: float) -> np.ndarray:
    """The rate table of one surplus: row [0, 0] of :func:`probe_relative_tables`."""
    return probe_relative_tables(alphabet, (beta,))[0, 0]
