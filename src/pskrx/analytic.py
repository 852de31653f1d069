"""Exact photon counting statistics for rate-switching detection.

A coherent pulse of mean photon number n on the unit interval produces
Poissonian counts, P_m(n) = n^m e^{-n} / m!.  An adaptive receiver
changes its displacement after every detection, so the instantaneous
rate is piecewise constant in the *count*: rate seq[j] applies after j
clicks.  The count is then a continuous-time Markov chain, a pure-birth
chain that leaves state j at rate seq[j], and its distribution at the
end of the pulse is the row vector e_0 exp(Q) of the chain's generator
Q.

Both chains used here are evaluated by uniformization (Jensen 1953; see
also Moler & Van Loan, SIAM Review 45, 2003).  With lam the largest
rate, P = I + Q/lam is a stochastic matrix and

    exp(Q) = sum_n Pois(n; lam) P^n.

Every term is nonnegative, so nothing cancels, and equal or nearly
equal rates need no special treatment.  Because every entry of P^n lies
in [0, 1], stopping after the terms n <= N leaves out at most the
Poisson tail P(Pois(lam) > N) of any entry: the truncation error has a
known sign and a rigorous bound.

The Poisson tails are computed here, with ``math`` alone, by summing the
upper terms from the far end (``_poisson_tails``): the terms run until
they fall below 2**-53 of the tails asked for, and a geometric series
bounds the rest, so no part of a tail is dropped and each lies within a
few ulps of the exact value.  One table of tails serves all terms of a
series.

Two chains are evaluated:

* ``m_click_probability``: the (m+2)-state pure-birth chain whose last
  state (more than m clicks) absorbs;
* ``cyclic_error_probability``: with probe rotation 1 -> 2 -> ... -> M
  -> 1 on each click, the decision is fixed by the count mod M, a chain
  on M phases.  Phase j of true state k leaves at rate
  table[(k-1-j) mod M] and the decision is correct in phase k-1, so the
  error is the mass outside that phase, averaged over the M states.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from math import exp, inf, isfinite, lgamma, log, prod
from typing import Sequence

import numpy as np

from .core import PskAlphabet, probe_relative_rates

DEFAULT_TAIL_TOL = 1e-12

#: The series also runs until its tail is this small against the mass.
_RELATIVE_TOL = 1e-9

#: The series stops at this tail even when the summed mass stays 0.
_TAIL_FLOOR = 1e-300

#: Truncation of single count probabilities: below float64 rounding of 1.
_M_CLICK_TAIL_TOL = 1e-16

#: Terms below this fraction of a sum leave its float64 value unchanged.
_EPS = 2.0**-53


def poisson_pmf(n: float, m: int) -> float:
    """P_m(n) = n^m e^{-n} / m!, evaluated in log space.

    Stable for mean photon numbers up to ~50 and counts up to ~100.
    """
    if not n >= 0.0:
        raise ValueError(f"mean photon number must be >= 0, got {n}")
    if m < 0:
        raise ValueError(f"count must be >= 0, got {m}")
    if n == 0.0:
        return 1.0 if m == 0 else 0.0
    return exp(m * log(n) - n - lgamma(m + 1))


def _poisson_tails(lam: float, first: int, floor: float) -> list[float]:
    """[P(X >= first), P(X >= first + 1), ...] for X ~ Poisson(lam > 0).

    The terms Pois(k; lam), k >= first, are generated outward from
    max(first, mode) and run past the mode until a term falls to 2**-53
    of min(``floor``, the largest term).  The rest of the series is at
    most that last term t_K times r / (1 - r), r = lam / (K + 1), because
    the ratio of successive terms only falls from there.  Each tail is
    summed from the far end, smallest term first, starting from that
    bound, so every tail at or above ``floor`` is the exact tail up to
    the float rounding of its terms and sums (within 4e-15 relative of a
    30-digit value for lam <= 200 and first <= 301).  Below ``floor``
    the tails are looser upper bounds; the list ends with the bound
    alone, at most lam * 2**-53 * floor.
    """
    anchor = max(first, int(lam))  # floor(lam) is a mode: terms fall from it on
    if lam < 700.0:
        # e^-lam and lam^k / k! are both in range: 2 * anchor ulps at most
        top = exp(-lam) * prod(lam / j for j in range(1, anchor + 1))
    else:
        # log space, where e^-lam would underflow; less accurate
        top = exp(anchor * log(lam) - lam - lgamma(anchor + 1))
    terms = [top]
    t = top
    for k in range(anchor, first, -1):  # Pois(k - 1) = Pois(k) * k / lam
        t *= k / lam
        terms.append(t)
    terms.reverse()
    cut = _EPS * min(floor, top)
    k, t = anchor, top
    while t > cut:
        k += 1
        t *= lam / k
        terms.append(t)
    r = lam / (k + 1)
    terms.append(t * r / (1.0 - r))
    tails = list(accumulate(reversed(terms)))
    tails.reverse()
    return tails


def poisson_tail(n: float, m: int) -> float:
    """P(X > m) for X ~ Poisson(n); the series-truncation bound.

    Summed from the far end with a geometric bound on the terms left
    out, so it is exact up to float rounding (see ``_poisson_tails``);
    exactly 0 at n = 0.
    """
    if not 0.0 <= n < inf:
        raise ValueError(f"mean photon number must be finite and >= 0, got {n}")
    if m < 0:
        raise ValueError(f"count must be >= 0, got {m}")
    if n == 0.0:
        return 0.0
    return _poisson_tails(n, m + 1, inf)[0]


def _uniformized(
    rates: np.ndarray, start: np.ndarray, target: np.ndarray, tail_tol: float
) -> tuple[float, float, int]:
    """sum_n Pois(n; lam) <start P^n, target> for a chain of forward steps.

    State j (last axis) moves to state j+1, cyclically, at rate
    ``rates[..., j]``; leading axes are independent chains.  ``target``
    weights the states, each weight in [0, 1] summed over one chain, so
    every term is at most Pois(n; lam).  The series stops at the first N
    whose tail P(Pois(lam) > N) is at most ``tail_tol`` and at most
    _RELATIVE_TOL times the mass summed so far (or below _TAIL_FLOOR).
    The tails come from one table, built for lam once per call.

    Returns (mass, tail, terms): the exact value lies in
    [mass, mass + tail], and ``terms`` = N + 1 terms were summed.
    """
    lam = float(rates.max())
    if not isfinite(lam):
        raise ValueError(f"rates must be finite, got maximum {lam}")
    if lam == 0.0:
        return float(np.vdot(start, target)), 0.0, 1
    # lam - rates is exact near lam, so P keeps full relative accuracy
    leave = rates / lam
    stay = (lam - rates) / lam
    v = start
    mass = 0.0
    n = 0
    while True:
        mass += poisson_pmf(lam, n) * float(np.vdot(v, target))
        bound = max(min(tail_tol, _RELATIVE_TOL * mass), _TAIL_FLOOR)
        if n == 0:
            # the bound only grows with the mass: one table of tails,
            # accurate down to the first bound, serves the whole series
            tails = _poisson_tails(lam, 1, bound)
        tail = tails[n]
        if tail <= bound:
            return mass, tail, n + 1
        # v * stay plus v * leave moved one state on, cyclically
        moved = v * leave
        v = v * stay
        v[..., 1:] += moved[..., :-1]
        v[..., 0] += moved[..., -1]
        n += 1


def m_click_probability(seq: Sequence[float], m: int) -> float:
    """Probability of exactly m detections with count-switched rates.

    ``seq[j]`` is the rate in force after j detections; entries beyond
    ``seq[m]`` are irrelevant and ignored.  The result lies within
    min(1e-16, 1e-9 * result) below the exact value.
    """
    if m < 0:
        raise ValueError(f"count must be >= 0, got {m}")
    if len(seq) < m + 1:
        raise ValueError(f"need {m + 1} rates for m={m} clicks, got {len(seq)}")
    for r in seq[: m + 1]:
        if not r >= 0.0:
            raise ValueError(f"rates must be >= 0, got {r}")
    rates = np.zeros(m + 2)
    rates[: m + 1] = seq[: m + 1]
    start = np.zeros(m + 2)
    start[0] = 1.0
    target = np.zeros(m + 2)
    target[m] = 1.0
    return _uniformized(rates, start, target, _M_CLICK_TAIL_TOL)[0]


# ---------------------------------------------------------------------------
# receiver error probabilities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CyclicError:
    """Cyclic-probing average error with its series-truncation bound.

    The exact error lies in [p_err - tail_bound, p_err]: the summed
    error mass is a lower bound and ``p_err`` adds the whole tail.
    ``m_max`` is the number of uniformization terms summed.
    """

    p_err: float
    tail_bound: float
    m_max: int

    def __float__(self) -> float:
        return self.p_err


def cyclic_error_probability(
    alphabet: PskAlphabet, beta: float, tail_tol: float = DEFAULT_TAIL_TOL
) -> CyclicError:
    """Average error of the cyclic-probing receiver at surplus ``beta``.

    Uniformizes the count-mod-M chain of all M true states at once and
    sums the error mass (every phase but the correct one) directly, so
    small errors keep their relative accuracy.  The series stops once
    the Poisson tail at the maximum displaced rate is below ``tail_tol``
    and below 1e-9 of the error mass; ``m_max`` of the result is the
    number of terms summed.
    """
    if not 0.0 < tail_tol <= 1e-3:
        raise ValueError(f"tail_tol must be in (0, 1e-3], got {tail_tol}")
    table = probe_relative_rates(alphabet, beta)
    M = alphabet.M
    k = np.arange(M)
    rates = table[(k[:, None] - k[None, :]) % M]
    start = np.zeros((M, M))
    start[:, 0] = 1.0
    target = (1.0 - np.eye(M)) / M
    error, tail, terms = _uniformized(rates, start, target, tail_tol)
    return CyclicError(p_err=error + tail, tail_bound=tail, m_max=terms)

