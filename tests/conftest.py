"""Shared independent oracles for the test suite.

Everything here deliberately avoids the implementation paths it checks:
rates come from brute-force complex arithmetic, counting statistics from
30- and 50-digit matrix exponentials of the counting master equation and
from literal nested quadrature, and the SQL from a 40-digit integral, so
agreement is meaningful.  The ``pool_events`` and ``pool_sizes``
fixtures log the trial engine's worker pools without starting a process.
"""

import cmath
import math

import mpmath
import numpy as np
import pytest
from scipy import integrate


def brute_rate(M: int, alpha: float, beta: float, probe: int, k: int) -> float:
    """|alpha e^{i theta_k} - (alpha+beta) e^{i theta_probe}|^2."""
    theta = lambda j: 2.0 * math.pi * (j - 1) / M
    field = alpha * cmath.exp(1j * theta(k)) - (alpha + beta) * cmath.exp(1j * theta(probe))
    return abs(field) ** 2


def ode_count_probabilities(seq, m_max: int) -> np.ndarray:
    """P_0..P_m_max via the counting master equation.

    p_j(t) = P(exactly j clicks by t); dp_j/dt = lam_{j-1} p_{j-1} - lam_j p_j.
    The ODE is linear, so p(1) = e_0 exp(Q) for its pure-birth generator
    Q, taken here as a 30-digit matrix exponential: exact for stiff and
    for vanishing rates alike, and independent of the uniformized series.
    """
    n = m_max + 1
    with mpmath.workdps(30):
        q = mpmath.zeros(n, n)
        for j in range(n):
            q[j, j] = -seq[j]
            if j + 1 < n:
                q[j, j + 1] = seq[j]
        e = mpmath.expm(q)
        return np.array([float(e[0, j]) for j in range(n)])


def sql_wedge_oracle(M: int, alpha_sq: float) -> float:
    """Heterodyne ML-wedge error from a 40-digit tanh-sinh integral.

    The same polar form as the package (the radial integral in closed
    form), integrated by mpmath over [0, pi/M] with nodes of its own
    choosing; the integrand is even in phi.
    """
    with mpmath.workdps(40):
        alpha = mpmath.sqrt(mpmath.mpf(alpha_sq))

        def density(phi):
            c = alpha * mpmath.cos(phi)
            s = alpha * mpmath.sin(phi)
            radial = (
                mpmath.exp(-c * c) / 2
                + c * mpmath.sqrt(mpmath.pi) / 2 * (1 + mpmath.erf(c))
            )
            return mpmath.exp(-s * s) * radial / mpmath.pi

        return float(1 - 2 * mpmath.quad(density, [0, mpmath.pi / M]))


def _mp_cyclic_error(M: int, alpha, beta):
    """The cyclic-probing error of ``expm_error_oracle`` at mp amplitudes."""
    q = mpmath.zeros(M, M)
    for i in range(M):
        field = alpha * mpmath.expj(2 * mpmath.pi * i / M) - (alpha + beta)
        rate = abs(field) ** 2
        q[i, i] -= rate
        q[i, (i - 1) % M] += rate
    e = mpmath.expm(q)
    return mpmath.fsum(e[i, j] for i in range(M) for j in range(1, M)) / M


def expm_error_oracle(M: int, alpha_sq: float, beta_sq: float) -> float:
    """Cyclic-probing error from a 50-digit matrix exponential.

    The count-mod-M chain, labelled by the offset i = (true - probed)
    mod M instead of by phase: offset i clicks at rate n_i and moves to
    i - 1, the receiver starts at offset k - 1 for true state k, and it
    decides correctly at offset 0.  So P(correct | k) = exp(Q)[k-1, 0]
    for one generator Q shared by all M states.  Rates come from complex
    arithmetic at the same float alpha and beta the package sees.
    """
    with mpmath.workdps(50):
        alpha = mpmath.mpf(math.sqrt(alpha_sq))
        beta = mpmath.mpf(math.sqrt(beta_sq))
        return float(_mp_cyclic_error(M, alpha, beta))


def expm_error_slope_oracle(M: int, alpha: float, beta: float) -> tuple[float, float]:
    """(P_err, dP_err/dbeta) at amplitudes ``alpha`` and ``beta``, 50 digits.

    The value is ``expm_error_oracle``'s; the derivative is a central
    difference of that 50-digit function with step 1e-20.  The function
    is analytic in beta (negative beta included, so beta = 0 needs no
    one-sided rule): truncation, ~1e-40 times the third derivative, and
    rounding, ~1e-30, leave 25 digits or more.
    """
    with mpmath.workdps(50):
        a, b, h = mpmath.mpf(alpha), mpmath.mpf(beta), mpmath.mpf(10) ** -20
        value = _mp_cyclic_error(M, a, b)
        slope = (_mp_cyclic_error(M, a, b + h) - _mp_cyclic_error(M, a, b - h)) / (2 * h)
        return float(value), float(slope)


def quad_one_click(l0: float, l1: float) -> float:
    """P_1 as the literal integral of the click density times survival."""
    val, _ = integrate.quad(
        lambda t: l0 * math.exp(-l0 * t) * math.exp(-l1 * (1.0 - t)), 0.0, 1.0,
        epsabs=1e-13, epsrel=1e-13,
    )
    return val


def quad_two_clicks(l0: float, l1: float, l2: float) -> float:
    """P_2 as the literal nested double integral."""
    val, _ = integrate.dblquad(
        lambda t2, t1: (
            l0 * math.exp(-l0 * t1)
            * l1 * math.exp(-l1 * (t2 - t1))
            * math.exp(-l2 * (1.0 - t2))
        ),
        0.0, 1.0,
        lambda t1: t1, lambda _: 1.0,
        epsabs=1e-12,
    )
    return val


@pytest.fixture
def qpsk_half():
    """The recurring demonstration point: M=4, |alpha|^2=0.5, |beta|^2=0.23."""
    from pskrx.core import PskAlphabet

    return PskAlphabet.from_power(4, 0.5), math.sqrt(0.23)


@pytest.fixture
def pool_log(monkeypatch):
    """Logs of every pool the trial engine opens: its events, ``max_workers`` and ``mp_context``.

    ``pskrx.mc.ProcessPoolExecutor`` is replaced by an in-process fake
    with the same context-manager protocol and ``map`` signature.
    """
    import pskrx.mc

    events, sizes, contexts = [], [], []

    class FakePool:
        def __init__(self, max_workers, mp_context=None):
            events.append("start")
            sizes.append(max_workers)
            contexts.append(mp_context)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            events.append("stop")
            return False

        def map(self, fn, jobs, chunksize=1):
            return map(fn, jobs)

    monkeypatch.setattr(pskrx.mc, "ProcessPoolExecutor", FakePool)
    return events, sizes, contexts


@pytest.fixture
def pool_events(pool_log):
    """Log ("start" / "stop") of every pool the trial engine opens."""
    return pool_log[0]


@pytest.fixture
def pool_sizes(pool_log):
    """The ``max_workers`` that every pool the trial engine opens asks for."""
    return pool_log[1]


@pytest.fixture
def pool_contexts(pool_log):
    """The ``mp_context`` that every pool the trial engine opens asks for."""
    return pool_log[2]


@pytest.fixture
def two_cpus(monkeypatch):
    """Two usable CPUs, so a pool of two or more workers starts two processes on any host."""
    import pskrx.mc

    monkeypatch.setattr(pskrx.mc, "usable_cpus", lambda: 2)
