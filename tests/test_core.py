import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pskrx.core import PskAlphabet, probe_relative_rates, probe_relative_tables
from pskrx.mc import phase_steps

from conftest import brute_rate
from scalar_reference import displaced_rates


class TestPskAlphabet:
    def test_phases(self):
        a = PskAlphabet(4, 1.0)
        np.testing.assert_allclose(a.phases, [0, np.pi / 2, np.pi, 3 * np.pi / 2])

    def test_from_power(self):
        a = PskAlphabet.from_power(4, 0.5)
        assert a.alpha == pytest.approx(math.sqrt(0.5))

    @pytest.mark.parametrize("M", [2, 3, 4, 8, 16])
    def test_phase_invariants(self, M):
        ph = PskAlphabet(M, 0.3).phases
        assert len(ph) == M
        assert ph[0] == 0.0
        assert (np.diff(ph) > 0).all()
        assert ph[-1] < 2 * np.pi

    @pytest.mark.parametrize(
        "M,alpha", [(1, 1.0), (0, 1.0), (4, -0.1), (4, math.inf), (4, math.nan)]
    )
    def test_invalid(self, M, alpha):
        with pytest.raises(ValueError):
            PskAlphabet(M, alpha)

    @pytest.mark.parametrize("alpha_sq", [-0.1, math.inf, math.nan])
    def test_invalid_power(self, alpha_sq):
        with pytest.raises(ValueError, match="finite and >= 0"):
            PskAlphabet.from_power(4, alpha_sq)


class TestDisplacedRates:
    # the probe-relative table: entry d is the rate of the state d phase
    # steps ahead of the probed one
    def test_qpsk_reference_point(self, qpsk_half):
        # probed state overshoots to beta^2; neighbors (alpha+beta)^2+alpha^2;
        # opposite (2 alpha + beta)^2
        alphabet, beta = qpsk_half
        rates = probe_relative_rates(alphabet, beta)
        np.testing.assert_allclose(rates, [0.23, 1.9082, 3.5865, 1.9082], atol=5e-5)
        oracle = [brute_rate(4, alphabet.alpha, beta, 1, k) for k in (1, 2, 3, 4)]
        np.testing.assert_allclose(rates, oracle, atol=1e-12)

    def test_zero_amplitude(self):
        rates = probe_relative_rates(PskAlphabet(6, 0.0), 0.7)
        np.testing.assert_allclose(rates, 0.49, rtol=0, atol=1e-15)

    def test_exact_nulling(self):
        rates = probe_relative_rates(PskAlphabet.from_power(4, 0.5), 0.0)
        np.testing.assert_allclose(rates, [0.0, 1.0, 2.0, 1.0], atol=1e-12)

    def test_negative_beta(self):
        with pytest.raises(ValueError):
            probe_relative_rates(PskAlphabet(4, 1.0), -0.2)

    @pytest.mark.parametrize("alpha_sq, beta", [(1e308, 0.0), (4.5e307, 0.0), (1.0, 1.4e154)])
    def test_overflowing_rates_refused(self, alpha_sq, beta):
        # (2 alpha + beta)^2 past the largest float: a table of inf and NaN
        with pytest.raises(ValueError, match="overflow"):
            probe_relative_rates(PskAlphabet.from_power(4, alpha_sq), beta)
        probe_relative_rates(PskAlphabet.from_power(4, 4.4e307), 0.0)

    @given(
        M=st.integers(2, 12),
        alpha=st.floats(0.0, 4.0),
        beta=st.floats(0.0, 3.0),
        probe=st.data(),
    )
    def test_properties(self, M, alpha, beta, probe):
        p = probe.draw(st.integers(1, M))
        rates = probe_relative_rates(PskAlphabet(M, alpha), beta)
        # probed state lands exactly at beta^2
        assert rates[0] == beta * beta
        # mirror symmetry around the probe is bitwise
        for j in range(1, M):
            assert rates[j] == rates[M - j]
        # only the offset to the probe matters: any probe p reads the table
        # at (k - p) mod M
        for k in range(1, M + 1):
            assert rates[(k - p) % M] == pytest.approx(brute_rate(M, alpha, beta, p, k), abs=1e-12)
        # the farthest state bounds every rate
        assert rates.max() <= (2 * alpha + beta) ** 2 + 1e-9

    @pytest.mark.parametrize("M", [2, 4, 6, 8])
    def test_opposite_state_for_even_m(self, M):
        alpha, beta = 0.9, 0.4
        rates = probe_relative_rates(PskAlphabet(M, alpha), beta)
        assert rates[M // 2] == pytest.approx((2 * alpha + beta) ** 2, rel=1e-13)


def test_probe_relative_rates_is_the_shared_table(qpsk_half):
    # the engine reads the table through phase_steps, the scalar reference
    # rolls it to the probe: the same rates, bit for bit
    alphabet, beta = qpsk_half
    by_probe = probe_relative_rates(alphabet, beta)[phase_steps(4)]
    for p in range(1, 5):
        np.testing.assert_array_equal(by_probe[:, p - 1], displaced_rates(alphabet, p, beta))


@pytest.mark.parametrize(
    "M, digest",
    [
        (2, "9107b011d01156d1263c7f14d6d8e82ef9427f2e0ac129232711e838b876e3a8"),
        (3, "3ae9481249816edf2c69d35eadb0ef517e4359676f7685ac7e98f86220cee2d7"),
        (4, "db09963041077f728825e82605ce206543e4f3c71af002726c52954b4b4293c5"),
        (8, "f036e6a282b0e880c613ccf135a29fd098990740d4df402922be10247e364733"),
        (16, "f964fda5f6a7d69aa52929556a1ef75756f77a68d97c18438763c1dd65247c64"),
    ],
)
def test_rate_and_slope_tables_bit_for_bit(M, digest):
    # float.hex of both tables at alpha^2 = 0.5, three surpluses: every
    # entry pinned to the last bit
    alphabet = PskAlphabet.from_power(M, 0.5)
    lines = [
        " ".join(float(x).hex() for x in table)
        for row in probe_relative_tables(alphabet, (0.0, 0.3, 1.7))
        for table in row
    ]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == digest


@pytest.mark.parametrize("M", [2, 3, 4, 8, 16, 64])
@pytest.mark.parametrize("alpha_sq", [0.0, 1e-4, 0.5, 1000.0])
def test_stacked_tables_bit_for_bit(M, alpha_sq):
    # one row per surplus, each the surplus's own two tables to the last bit
    alphabet = PskAlphabet.from_power(M, alpha_sq)
    betas = [0.0, 1e-160, 0.3, 1.7, 40.0]
    tables = probe_relative_tables(alphabet, betas)
    assert tables.shape == (len(betas), 2, M)
    for row, beta in zip(tables, betas):
        (alone,) = probe_relative_tables(alphabet, [beta])
        assert row.tobytes() == alone.tobytes()


def test_stacked_tables_refuse_what_one_table_refuses():
    alphabet = PskAlphabet.from_power(4, 0.5)
    with pytest.raises(ValueError, match="surplus"):
        probe_relative_tables(alphabet, [0.3, -0.1])
    with pytest.raises(ValueError, match="overflow"):
        probe_relative_tables(alphabet, [0.3, 1e200])
    assert probe_relative_tables(alphabet, []).shape == (0, 2, 4)


@pytest.mark.parametrize(
    "table, beta", [(probe_relative_rates, 0.3), (probe_relative_tables, [0.3])],
    ids=["probe_relative_rates", "probe_relative_tables"],
)
def test_each_call_returns_a_new_writable_array(table, beta):
    # every table reads one cosine table per M; no caller may reach it
    alphabet = PskAlphabet.from_power(4, 0.5)
    first, second = table(alphabet, beta), table(alphabet, beta)
    assert first.flags.writeable and second.flags.writeable
    assert not np.shares_memory(first, second)
    first[:] = -1.0
    np.testing.assert_array_equal(table(alphabet, beta), second)


@given(M=st.integers(2, 16), alpha=st.floats(0.0, 3.0), beta=st.floats(0.01, 1.5))
def test_probe_relative_slopes_differentiate_the_table(M, alpha, beta):
    # the rates are quadratic in beta, so a central difference is exact
    # up to rounding
    h = 1e-3
    (below, _), (_, slopes), (above, _) = probe_relative_tables(
        PskAlphabet(M, alpha), [beta - h, beta, beta + h])
    np.testing.assert_allclose(slopes, (above - below) / (2 * h), rtol=0, atol=1e-9)
    assert slopes[0] == 2.0 * beta


def test_every_export_resolves():
    import pskrx

    for name in pskrx.__all__:
        assert hasattr(pskrx, name), name
    # the test-only oracles live in tests/oracles.py, not in the package
    for name in ("gram_srm_oracle", "poisson_pmf", "poisson_tail"):
        assert name not in pskrx.__all__ and not hasattr(pskrx, name), name
    # probe_relative_tables builds the slopes: no second copy of its expression
    assert not hasattr(pskrx, "probe_relative_slopes")
    assert not hasattr(pskrx.core, "probe_relative_slopes")
    namespace = {}
    exec("from pskrx import *", namespace)
    assert set(pskrx.__all__) <= set(namespace)
