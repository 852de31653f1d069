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

A series runs over a batch of chains of one size, one member per
surplus, through a leading batch axis: their step matrices are stacked,
and every round's rows and every squaring of the members still doubling
are one ``np.matmul`` over the stack.  What each member keeps for
itself: its lam, its Poisson table (built in Python, term by term, as
for one chain alone), its number of terms and its stopping N, and the
products whose row count is its own (the rows of the round in which its
series ends, its target product and its weighted sum), because the BLAS
kernel, and with it the rounding, follows a product's row count.  So a
member of a batch gets bit for bit the value it gets alone.  A batch is
doubled a fixed number of bytes of matrices at a time, and each power
is dropped once squared, so a batch of large chains holds no more than
two powers of one of them.

Two chains are evaluated:

* ``m_click_probability``: the (m+2)-state pure-birth chain whose last
  state (more than m clicks) absorbs;
* ``cyclic_error_probabilities`` (and ``cyclic_error_probability``, its
  batch of one surplus): with probe rotation 1 -> 2 -> ... -> M
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
from bisect import bisect_left
from math import exp, isfinite, pi, prod, sqrt
from operator import neg
from typing import Sequence

import numpy as np

from .core import PskAlphabet, probe_relative_tables

DEFAULT_TAIL_TOL = 1e-12

#: The series also runs until its tail is this small against the mass.
_RELATIVE_TOL = 1e-9

#: The series stops at this tail even when the summed mass stays 0.
_TAIL_FLOOR = 1e-300

#: Truncation of single count probabilities: below float64 rounding of 1.
_M_CLICK_TAIL_TOL = 1e-16

#: Terms below this fraction of a sum leave its float64 value unchanged.
_EPS = 2.0**-53

#: A batch is doubled this many bytes of step matrices, squares and rows
#: at a time (one member at least).
_BATCH_BYTES = 2**23


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


def _uniformized(
    lams: np.ndarray, index: np.ndarray, entries: np.ndarray, start: np.ndarray,
    targets: np.ndarray, tail_tol: float,
) -> list[tuple[np.ndarray, int, tuple[float, float]]]:
    """sum_n Pois(n; lams[i]) start P_i^n targets for every member i of a batch.

    The step matrix P_i of member i holds entries[i] / lams[i] at the
    flat positions ``index`` and zeros elsewhere.  Column 0 of
    ``targets`` weights the states, each weight in [0, 1] and the start
    a probability vector, so its every term is at most Pois(n; lam); the
    other columns ride along.
    A member's series stops at the first N whose tail P(Pois(lam) > N)
    is at most ``tail_tol`` and at most _RELATIVE_TOL times column 0's
    mass summed so far (or below _TAIL_FLOOR).

    The rows start P^n are made by doubling, with every member's full
    rounds and squarings in one ``np.matmul``.  A member whose series
    ends inside a round takes that round's rows, its target product and
    its weighted sum in the shapes it has alone, since the BLAS kernel,
    and with it the rounding, follows a product's row count.  Members
    are doubled _BATCH_BYTES of powers and rows at a time (one member
    at least), and a power is dropped once squared, so a batch of large
    chains holds no more than two powers of its largest member.

    Returns, member by member, (sums, terms, edges): N + 1 = terms
    terms were summed, edges = (P(Pois(lam) >= N), P(Pois(lam) > N)),
    and column 0's exact value lies in [sums[0], sums[0] + edges[1]].
    """
    results = [None] * len(lams)
    series = []
    mass = float(start @ targets[:, 0])  # column 0 at n = 0, which term 0 weights by exp(-lam)
    for i, lam in enumerate(lams.tolist()):
        if not isfinite(lam):
            raise ValueError(f"rates must be finite, got maximum {lam}")
        if lam == 0.0:
            results[i] = (start @ targets, 1, (1.0, 0.0))
            continue
        # the bound only grows with the mass, so one table, accurate down
        # to the first term's bound, serves the whole series, and no term
        # past the first tail below that bound is needed
        bound = max(min(tail_tol, _RELATIVE_TOL * exp(-lam) * mass), _TAIL_FLOOR)
        pmf, tails = _poisson_table(lam, 0, bound)
        # the terms: up to the first n >= 1 whose tail (the tails fall) is within the bound
        series.append((bisect_left(tails, -bound, 1, key=neg), i, pmf, tails))
    # longest series first, so the members still doubling are a prefix
    # (the members' indices differ, so no two tables are compared)
    series.sort(reverse=True)
    size = len(start)
    while series:
        batch = series[: max(1, _BATCH_BYTES // (8 * size * (2 * size + series[0][0])))]
        del series[: len(batch)]
        counts, members, _, _ = zip(*batch)
        power = np.zeros((len(batch), size * size))
        power[:, index] = entries.take(members, 0) / lams.take(members)[:, None]
        power = power.reshape(len(batch), size, size)
        rows = np.empty((len(batch), counts[0], size))
        rows[:, 0] = start
        full, h = len(batch), 1
        while True:
            # a member whose series ends inside this round takes its rows alone
            while full and counts[full - 1] < 2 * h:
                full -= 1
                if counts[full] > h:
                    np.matmul(rows[full, : counts[full] - h], power[full],
                              out=rows[full, h : counts[full]])
            if not full:
                break
            if full < len(power):
                power = power[:full]
            np.matmul(rows[:full, :h], power, out=rows[:full, h : 2 * h])
            # the members whose series ends with this round need no square
            going = full
            while going and counts[going - 1] == 2 * h:
                going -= 1
            if not going:
                break
            if going < full:
                power = power[:going]
            power = power @ power
            h *= 2
        del power
        for m, (count, i, pmf, tails) in enumerate(batch):
            values = rows[m, :count] @ targets
            weights = np.array(pmf[:count])
            # column 0's mass summed term by term, as np.cumsum sums it
            summed = list(accumulate((weights * values[:, 0]).tolist()))
            # the stop test at n is tails[n + 1] <= its bound; it only turns
            # true as n grows, since the tails fall and the bound grows with
            # the mass, and not before the tails fall to the last n's bound:
            # the first n it holds at, else 0
            def limit(k):
                return max(min(tail_tol, _RELATIVE_TOL * summed[k]), _TAIL_FLOOR)

            lo = bisect_left(tails, -limit(count - 1), 1, count + 1, key=neg) - 1
            n = bisect_left(range(count), True, lo, key=lambda k: tails[k + 1] <= limit(k))
            n = n if n < count else 0
            sums = weights[: n + 1] @ values[: n + 1]
            sums[0] = summed[n]
            results[i] = (sums, n + 1, (tails[n], tails[n + 1]))
    return results


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
    lams = rates.max(keepdims=True)
    start = np.zeros(m + 2)
    start[0] = 1.0
    target = np.zeros((m + 2, 1))
    target[m] = 1.0

    # state j moves on to j + 1 at rates[j]; the last state absorbs
    index = np.concatenate((np.arange(m + 2) * (m + 3), np.arange(m + 1) * (m + 3) + 1))
    entries = np.concatenate((lams - rates, rates[:-1]))[None]
    (sums, _, _), = _uniformized(lams, index, entries, start, target, _M_CLICK_TAIL_TOL)
    return float(sums[0])


# ---------------------------------------------------------------------------
# receiver error probabilities
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _cyclic_chain(M: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The parts of the augmented M-phase chain that do not depend on beta.

    (index, start, targets), read-only: the flat positions of the stay
    and move-on entries of P, P and dP in [[P, dP], [0, P]]; the uniform
    start on the M phases; and the targets that sum the error mass
    (every phase but 0) of the value and of its derivative.
    """
    j = np.arange(M)
    k = (j + 1) % M
    rows = np.concatenate((j, j, j + M, j + M, j, j))
    index = 2 * M * rows + np.concatenate((j, k, j + M, k + M, j + M, k + M))
    start = np.zeros(2 * M)
    start[:M] = 1.0 / M
    targets = np.zeros((2 * M, 2))
    targets[1:M, 0] = targets[M + 1 :, 1] = 1.0
    for array in (index, start, targets):
        array.flags.writeable = False
    return index, start, targets


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


def cyclic_error_probabilities(
    alphabet: PskAlphabet, betas, tail_tol: float = DEFAULT_TAIL_TOL
) -> list[CyclicError]:
    """Average error of the cyclic-probing receiver at each surplus in ``betas``.

    Uniformizes the one M-phase chain that covers all M true states (see
    the module docstring) and sums the error mass (every phase but 0)
    directly, so small errors keep their relative accuracy.  Each
    surplus's series stops once the Poisson tail at its maximum
    displaced rate is below ``tail_tol`` and below 1e-9 of the error
    mass; ``m_max`` of its result is the number of terms summed.  The
    derivative in beta is summed over the same terms.  The surpluses run
    as one batch, and each result is bit for bit the one it gets alone.
    """
    if not 0.0 < tail_tol <= 1e-3:
        raise ValueError(f"tail_tol must be in (0, 1e-3], got {tail_tol}")
    tables = probe_relative_tables(alphabet, betas)
    rates, slopes = tables[:, 0], tables[:, 1]
    lams, reach = tables.max(axis=2).T  # every slope is >= 0
    index, start, targets = _cyclic_chain(alphabet.M)
    # [[P, dP], [0, P]]: P = I + Q / lam (lam - rates is exact near lam,
    # so P keeps full relative accuracy) and dP = dQ / lam
    stay = lams[:, None] - rates
    entries = np.concatenate((stay, rates, stay, rates, -slopes, slopes), axis=1)
    return [
        CyclicError(p_err=float(sums[0]) + tail, tail_bound=tail, m_max=terms,
                    slope=float(sums[1]), slope_bound=2.0 * c * before)
        for (sums, terms, (before, tail)), c in zip(
            _uniformized(lams, index, entries, start, targets, tail_tol), reach.tolist()
        )
    ]


def cyclic_error_probability(
    alphabet: PskAlphabet, beta: float, tail_tol: float = DEFAULT_TAIL_TOL
) -> CyclicError:
    """Average error of the cyclic-probing receiver at surplus ``beta``.

    The one-surplus batch of :func:`cyclic_error_probabilities`.
    """
    return cyclic_error_probabilities(alphabet, [beta], tail_tol)[0]
