"""Shared independent oracles for the test suite.

Everything here deliberately avoids the implementation paths it checks:
rates come from brute-force complex arithmetic, counting statistics from
an ODE integration of the counting master equation, from literal nested
quadrature and from a 50-digit matrix exponential, so agreement is
meaningful.  The ``pool_events`` fixture logs the trial engine's worker
pools without starting a process.
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
    A stiff-safe high-order integrator at tight tolerance; completely
    independent of the exponential-polynomial calculus.
    """
    lam = np.asarray(seq[: m_max + 1], dtype=float)
    p0 = np.zeros(m_max + 1)
    p0[0] = 1.0

    def rhs(_, p):
        dp = -lam * p
        dp[1:] += lam[:-1] * p[:-1]
        return dp

    sol = integrate.solve_ivp(
        rhs, (0.0, 1.0), p0, method="DOP853", rtol=1e-12, atol=1e-14
    )
    return sol.y[:, -1]


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
        q = mpmath.zeros(M, M)
        for i in range(M):
            field = alpha * mpmath.expj(2 * mpmath.pi * i / M) - (alpha + beta)
            rate = abs(field) ** 2
            q[i, i] -= rate
            q[i, (i - 1) % M] += rate
        e = mpmath.expm(q)
        return float(mpmath.fsum(e[i, j] for i in range(M) for j in range(1, M)) / M)


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
def pool_events(monkeypatch):
    """Log ("start" / "stop") of every pool the trial engine opens.

    ``pskrx.mc.ProcessPoolExecutor`` is replaced by an in-process fake
    with the same context-manager protocol and ``map`` signature.
    """
    import pskrx.mc

    events = []

    class FakePool:
        def __init__(self, max_workers):
            events.append("start")

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            events.append("stop")
            return False

        def map(self, fn, jobs, chunksize=1):
            return map(fn, jobs)

    monkeypatch.setattr(pskrx.mc, "ProcessPoolExecutor", FakePool)
    return events
