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

The series is summed by doubling, not term by term: with the rows
W[n] = start P^n known for n < h, the next h rows are W[:h] P^h, and
P^h is squared for the round after.  So N + 1 terms cost about log2(N)
matrix products, each over all the rows of a round at once.  The
Poisson weights and tails of every term come from one table
(``_poisson_table``), built with ``math`` alone: the terms run outward
from the mode until they fall below 2**-53 of the tails asked for, a
geometric series bounds the rest, and each tail is summed from the far
end, so it lies within a few ulps of the exact value.  The term at the
mode is Loader's saddle-point form (``stirlerr`` and ``bd0``, as in R's
``dpois_raw``), accurate to a few ulps at any mean.

Two chains are evaluated:

* ``m_click_probability``: the (m+2)-state pure-birth chain whose last
  state (more than m clicks) absorbs;
* ``cyclic_error_probability``: with probe rotation 1 -> 2 -> ... -> M
  -> 1 on each click, the decision is fixed by the count mod M, and the
  rate depends only on the offset u = (true - probed) mod M.  Offset u
  clicks at rate n_u (the probe-relative rate table, mirror-symmetric,
  so n_{-u} = n_u) and moves on to u + 1; true state k starts at offset
  -k, and the decision is correct at offset 0.  By this rotation
  symmetry all M states are one M-phase chain started uniformly, and
  the error is its mass outside phase 0.

The cyclic error's derivative in the surplus beta rides along.  Hold lam
fixed (exp(Q) = sum_n Pois(n; lam) P^n holds for any lam > 0) and
d/dbeta of term n is start D_n target, with D_n = d(P^n)/dbeta the
upper-right block of the n-th power of the augmented chain
[[P, dP], [0, P]], dP = dQ/lam.  dQ has -dn_u/dbeta on the diagonal and
+dn_u/dbeta beside it, with dn_u/dbeta = 2(alpha + beta) -
2 alpha cos(2 pi u / M) (and 2 beta at u = 0).  Each row of dP sums to
at most c/lam in absolute value, c = 2 max_u |dn_u/dbeta|, so
|start D_n target| <= n c / lam, and the terms n > N leave out at most

    sum_{n > N} Pois(n; lam) n c / lam = c P(Pois(lam) >= N)

of the derivative: ``CyclicError.slope_bound``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from math import exp, isfinite, pi, prod, sqrt
from typing import Sequence

import numpy as np

from .core import PskAlphabet, probe_relative_rates, probe_relative_slopes

DEFAULT_TAIL_TOL = 1e-12

#: The series also runs until its tail is this small against the mass.
_RELATIVE_TOL = 1e-9

#: The series stops at this tail even when the summed mass stays 0.
_TAIL_FLOOR = 1e-300

#: Truncation of single count probabilities: below float64 rounding of 1.
_M_CLICK_TAIL_TOL = 1e-16

#: Terms below this fraction of a sum leave its float64 value unchanged.
_EPS = 2.0**-53


def _stirlerr(k: int) -> float:
    """log(k!) - log(sqrt(2 pi k) (k/e)^k) for k > 15, by its asymptotic series."""
    kk = float(k) * k
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / (1188 * kk)) / kk) / kk) / kk) / k


def _bd0(k: int, lam: float) -> float:
    """k log(k / lam) + lam - k for |k - lam| < 1 <= lam, as a series (Loader 2000)."""
    v = (k - lam) / (k + lam)
    s = (k - lam) * v
    ej = 2.0 * k * v
    v *= v
    j = 3
    while True:
        ej *= v
        s1 = s + ej / j
        if s1 == s:
            return s
        s = s1
        j += 2


def _poisson_table(lam: float, first: int, floor: float) -> tuple[list[float], list[float]]:
    """([Pois(first), Pois(first + 1), ...], [P(X >= first), ...]), X ~ Poisson(lam > 0).

    The terms Pois(k; lam), k >= first, are generated outward from
    max(first, mode) and run past the mode until a term falls to 2**-53
    of min(``floor``, the largest term).  The rest of the series is at
    most that last term t_K times r / (1 - r), r = lam / (K + 1), because
    the ratio of successive terms only falls from there.  Each tail is
    summed from the far end, smallest term first, starting from that
    bound, so every tail at or above ``floor`` is the exact tail up to
    the float rounding of its terms and sums (within 4e-15 relative of a
    30-digit value for lam <= 200 and first <= 301, and within 2e-14
    for lam up to 5000).  Below ``floor`` the tails are looser upper
    bounds; the tails list is one longer than the terms and ends with
    the bound alone, at most lam * 2**-53 * floor.
    """
    anchor = max(first, int(lam))  # floor(lam) is a mode: terms fall from it on
    if lam < 700.0:
        # e^-lam and lam^k / k! are both in range: 2 * anchor ulps at most
        top = exp(-lam) * prod(lam / j for j in range(1, anchor + 1))
    else:
        # e^-lam would underflow: Loader's saddle-point form at the mode,
        # a few ulps, then one ratio a term up to the anchor
        mode = int(lam)
        top = exp(-_stirlerr(mode) - _bd0(mode, lam)) / sqrt(2.0 * pi * mode)
        for k in range(mode + 1, anchor + 1):
            top *= lam / k
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
    tails = list(accumulate(reversed(terms), initial=t * r / (1.0 - r)))
    tails.reverse()
    return terms, tails


def _max_rate(rates: np.ndarray) -> float:
    lam = float(rates.max())
    if not isfinite(lam):
        raise ValueError(f"rates must be finite, got maximum {lam}")
    return lam


def _uniformized(
    step: np.ndarray, start: np.ndarray, targets: np.ndarray, lam: float, tail_tol: float
) -> tuple[np.ndarray, list[float], int]:
    """sum_n Pois(n; lam) start P^n targets, for the step matrix P = ``step``.

    Column 0 of ``targets`` weights the states, each weight in [0, 1]
    and the start a probability vector, so its every term is at most
    Pois(n; lam); the other columns ride along.  The series stops at the
    first N whose tail P(Pois(lam) > N) is at most ``tail_tol`` and at
    most _RELATIVE_TOL times column 0's mass summed so far (or below
    _TAIL_FLOOR).  The rows start P^n are made by doubling.

    Returns (sums, tails, terms): ``terms`` = N + 1 terms were summed,
    tails[n] = P(Pois(lam) >= n), and column 0's exact value lies in
    [sums[0], sums[0] + tails[terms]].
    """
    if lam == 0.0:
        return start @ targets, [1.0, 0.0], 1
    # the bound only grows with the mass, so one table, accurate down to
    # the first term's bound, serves the whole series, and no term past
    # the first tail below that bound is needed
    bound = max(min(tail_tol, _RELATIVE_TOL * exp(-lam) * float(start @ targets[:, 0])),
                _TAIL_FLOOR)
    pmf, tails = _poisson_table(lam, 0, bound)
    count = next(n for n, t in enumerate(tails) if n and t <= bound)
    rows = np.empty((count, len(start)))
    rows[0] = start
    power, h = step, 1
    while True:
        new = min(h, count - h)
        np.matmul(rows[:new], power, out=rows[h : h + new])
        h += new
        if h == count:
            break
        power = power @ power
    weights = np.array(pmf[:count])
    values = rows @ targets
    mass = np.cumsum(weights * values[:, 0])
    stop = np.array(tails[1 : count + 1]) <= np.maximum(
        np.minimum(tail_tol, _RELATIVE_TOL * mass), _TAIL_FLOOR
    )
    n = int(stop.argmax())
    sums = weights[: n + 1] @ values[: n + 1]
    sums[0] = mass[n]
    return sums, tails, n + 1


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
    lam = _max_rate(rates)
    start = np.zeros(m + 2)
    start[0] = 1.0
    target = np.zeros((m + 2, 1))
    target[m] = 1.0
    # state j moves on to j + 1 at rates[j]; the last state absorbs
    step = (np.diag(lam - rates) + np.diag(rates[:-1], 1)) / lam if lam > 0.0 else None
    return float(_uniformized(step, start, target, lam, _M_CLICK_TAIL_TOL)[0][0])


# ---------------------------------------------------------------------------
# receiver error probabilities
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _augmented_index(M: int) -> tuple[np.ndarray, np.ndarray]:
    """Where the stay and move-on entries of P, P and dP sit in [[P, dP], [0, P]]."""
    j = np.arange(M)
    k = (j + 1) % M
    rows = np.concatenate((j, j, j + M, j + M, j, j))
    cols = np.concatenate((j, k, j + M, k + M, j + M, k + M))
    return rows, cols


@dataclass(frozen=True)
class CyclicError:
    """Cyclic-probing average error and its surplus derivative, with bounds.

    The exact error lies in [p_err - tail_bound, p_err]: the summed
    error mass is a lower bound and ``p_err`` adds the whole tail.
    ``slope`` is dP_err/dbeta summed over the same terms, and the terms
    left out add at most ``slope_bound`` to it in absolute value (see
    the module docstring).  ``m_max`` is the number of uniformization
    terms summed.
    """

    p_err: float
    tail_bound: float
    m_max: int
    slope: float
    slope_bound: float

    def __float__(self) -> float:
        return self.p_err


def cyclic_error_probability(
    alphabet: PskAlphabet, beta: float, tail_tol: float = DEFAULT_TAIL_TOL
) -> CyclicError:
    """Average error of the cyclic-probing receiver at surplus ``beta``.

    Uniformizes the one M-phase chain that covers all M true states (see
    the module docstring) and sums the error mass (every phase but 0)
    directly, so small errors keep their relative accuracy.  The series
    stops once the Poisson tail at the maximum displaced rate is below
    ``tail_tol`` and below 1e-9 of the error mass; ``m_max`` of the
    result is the number of terms summed.  The derivative in ``beta``
    is summed over the same terms.
    """
    if not 0.0 < tail_tol <= 1e-3:
        raise ValueError(f"tail_tol must be in (0, 1e-3], got {tail_tol}")
    rates = probe_relative_rates(alphabet, beta)
    slopes = probe_relative_slopes(alphabet, beta)
    M = alphabet.M
    lam = _max_rate(rates)
    step = None
    if lam > 0.0:
        # [[P, dP], [0, P]]: P = I + Q / lam (lam - rates is exact near lam,
        # so P keeps full relative accuracy) and dP = dQ / lam
        step = np.zeros((2 * M, 2 * M))
        step[_augmented_index(M)] = np.concatenate(
            (lam - rates, rates, lam - rates, rates, -slopes, slopes)
        ) / lam
    start = np.zeros(2 * M)
    start[:M] = 1.0 / M
    targets = np.zeros((2 * M, 2))
    targets[1:M, 0] = targets[M + 1 :, 1] = 1.0
    (error, slope), tails, terms = _uniformized(step, start, targets, lam, tail_tol)
    tail = float(tails[terms])
    return CyclicError(
        p_err=float(error) + tail,
        tail_bound=tail,
        m_max=terms,
        slope=float(slope),
        slope_bound=2.0 * float(np.abs(slopes).max()) * float(tails[terms - 1]),
    )
