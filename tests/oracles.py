"""Reference functions that only the test suite calls.

``gram_srm_oracle`` computes the Helstrom bound by a route independent
of :func:`pskrx.bench.helstrom_mpsk`'s circulant formula: coherent state
vectors in a truncated Fock space and the square root of their Gram
matrix.  ``poisson_tail`` bounds that truncation; it reads the tails of
the uniformization's Poisson table (:func:`pskrx.analytic._poisson_table`),
so the tests of its accuracy check that table.  ``poisson_pmf`` is the
Poisson probability in closed form.  ``scalar_cyclic_error`` is the
cyclic error at one surplus evaluated one chain alone, with the
products, sums and stop test a batch member must reproduce bit for bit.
"""

from math import exp, inf, lgamma, log

import numpy as np

from pskrx.analytic import _RELATIVE_TOL, _TAIL_FLOOR, CyclicError, _poisson_table
from pskrx.core import probe_relative_tables
from pskrx.errors import PrecisionError


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


def poisson_tail(n: float, m: int) -> float:
    """P(X > m) for X ~ Poisson(n); the series-truncation bound.

    Summed from the far end with a geometric bound on the terms left
    out, so it is exact up to float rounding (see ``_poisson_table``);
    exactly 0 at n = 0.
    """
    if not 0.0 <= n < inf:
        raise ValueError(f"mean photon number must be finite and >= 0, got {n}")
    if m < 0:
        raise ValueError(f"count must be >= 0, got {m}")
    if n == 0.0:
        return 0.0
    return _poisson_table(n, m + 1, inf)[1][0]


def gram_srm_oracle(alpha: float, M: int, dim: int) -> float:
    """Helstrom value via photon-number-basis state vectors.

    Builds the M coherent states numerically in a dim-level Fock space,
    forms their Gram matrix from the actual inner products, and applies
    the square-root measurement: P = 1 - (1/M) sum_k (sqrt(G)_kk)^2.
    Entirely independent of the circulant formula.
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
        log_fact = np.array([lgamma(k + 1) for k in range(dim)])
        mag = np.exp(log_mag - 0.5 * log_fact)
        phases = 2.0 * np.pi * np.arange(M) / M
        vectors = mag[None, :] * np.exp(1j * np.outer(phases, n))
    gram = vectors.conj() @ vectors.T
    eigval, eigvec = np.linalg.eigh(gram)
    eigval = np.clip(eigval, 0.0, None)
    root = (eigvec * np.sqrt(eigval)) @ eigvec.conj().T
    diag = root.diagonal().real
    return float(1.0 - np.sum(diag**2) / M)


def scalar_cyclic_error(alphabet, beta: float, tail_tol: float) -> CyclicError:
    """``pskrx.analytic.cyclic_error_probability`` for one chain alone.

    One 2M x 2M step matrix [[P, dP], [0, P]], its rows start P^n
    doubled by 2-D products of the chain's own shapes, the masses summed
    by ``np.cumsum`` and the first stopping n taken by ``argmax``.
    """
    (rates, slopes), = probe_relative_tables(alphabet, [beta])
    M = alphabet.M
    lam = float(rates.max())
    start = np.zeros(2 * M)
    start[:M] = 1.0 / M
    targets = np.zeros((2 * M, 2))
    targets[1:M, 0] = targets[M + 1 :, 1] = 1.0
    if lam == 0.0:
        (error, slope), before, tail, terms = start @ targets, 1.0, 0.0, 1
    else:
        j = np.arange(M)
        k = (j + 1) % M
        step = np.zeros((2 * M, 2 * M))
        step[np.concatenate((j, j, j + M, j + M, j, j)),
             np.concatenate((j, k, j + M, k + M, j + M, k + M))] = np.concatenate(
            (lam - rates, rates, lam - rates, rates, -slopes, slopes)) / lam
        bound = max(min(tail_tol, _RELATIVE_TOL * exp(-lam) * float(start @ targets[:, 0])),
                    _TAIL_FLOOR)
        pmf, tails = _poisson_table(lam, 0, bound)
        count = next(n for n, t in enumerate(tails) if n and t <= bound)
        rows = np.empty((count, 2 * M))
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
            np.minimum(tail_tol, _RELATIVE_TOL * mass), _TAIL_FLOOR)
        n = int(stop.argmax())
        slope = (weights[: n + 1] @ values[: n + 1])[1]
        error, before, tail, terms = mass[n], tails[n], tails[n + 1], n + 1
    return CyclicError(p_err=float(error) + tail, tail_bound=tail, m_max=terms,
                       slope=float(slope), slope_bound=2.0 * float(np.abs(slopes).max()) * before)
