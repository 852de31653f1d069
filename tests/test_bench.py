import math

import numpy as np
import pytest

import pskrx.bench
from pskrx.bench import helstrom_mpsk, sql_heterodyne
from pskrx.errors import PrecisionError

from conftest import sql_wedge_oracle
from oracles import gram_srm_oracle


def binary_helstrom(alpha_sq: float) -> float:
    """Closed form for two coherent states: (1 - sqrt(1 - e^{-4 n}))/2."""
    return 0.5 * (1.0 - math.sqrt(1.0 - math.exp(-4.0 * alpha_sq)))


def qpsk_helstrom_trig(alpha_sq: float) -> float:
    """Independent QPSK form via the explicit circulant eigenvalues.

    h = 2 e^{-n} (cosh n +- cos n) and 2 e^{-n} (sinh n +- sin n).
    """
    n = alpha_sq
    e = math.exp(-n)
    h = [
        2 * e * (math.cosh(n) + math.cos(n)),
        2 * e * (math.sinh(n) + math.sin(n)),
        2 * e * (math.cosh(n) - math.cos(n)),
        2 * e * (math.sinh(n) - math.sin(n)),
    ]
    return 1.0 - (sum(math.sqrt(max(x, 0.0)) for x in h) / 4.0) ** 2


def sql_qpsk_closed(alpha_sq: float) -> float:
    """QPSK heterodyne error: the wedge decision factorizes per quadrature."""
    return 1.0 - (1.0 - 0.5 * math.erfc(math.sqrt(alpha_sq / 2.0))) ** 2


def sampled_heterodyne_error(alpha, M, n_th, n, seed):
    """Wedge-decision error of sampled heterodyne outcomes, with its SE.

    The outcome is the signal plus heterodyne noise (variance 1/2 per
    quadrature) convolved with thermal noise (variance n_th/2).
    """
    rng = np.random.default_rng(seed)
    sigma = math.sqrt((1.0 + n_th) / 2.0)
    z = alpha + sigma * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    mc = 1.0 - float((np.abs(np.angle(z)) < np.pi / M).mean())
    return mc, math.sqrt(mc * (1 - mc) / n)


class TestHelstrom:
    @pytest.mark.parametrize("M", [2, 3, 4, 8])
    def test_zero_amplitude(self, M):
        assert helstrom_mpsk(0.0, M) == pytest.approx(1 - 1 / M, abs=1e-14)

    @pytest.mark.parametrize("alpha_sq", [0.05, 0.2, 0.5, 1.0, 2.0])
    def test_binary_closed_form(self, alpha_sq):
        assert helstrom_mpsk(math.sqrt(alpha_sq), 2) == pytest.approx(
            binary_helstrom(alpha_sq), abs=1e-10
        )

    def test_binary_reference_value(self):
        assert helstrom_mpsk(math.sqrt(0.2), 2) == pytest.approx(0.1289639, abs=1e-6)

    @pytest.mark.parametrize("alpha_sq", [0.1, 0.5, 1.0, 2.0])
    def test_qpsk_trig_form(self, alpha_sq):
        assert helstrom_mpsk(math.sqrt(alpha_sq), 4) == pytest.approx(
            qpsk_helstrom_trig(alpha_sq), abs=1e-12
        )

    @pytest.mark.parametrize("M", [2, 4, 8])
    @pytest.mark.parametrize("alpha_sq", [0.1, 0.5, 1.0, 2.0])
    def test_gram_oracle_agreement(self, M, alpha_sq):
        circ = helstrom_mpsk(math.sqrt(alpha_sq), M)
        gram = gram_srm_oracle(math.sqrt(alpha_sq), M, 60)
        assert circ == pytest.approx(gram, abs=1e-8)

    def test_gram_binary_bright(self):
        assert gram_srm_oracle(2.0, 2, 60) == pytest.approx(binary_helstrom(4.0), abs=1e-9)

    def test_gram_dim_too_small(self):
        with pytest.raises(PrecisionError):
            gram_srm_oracle(2.0, 4, 10)

    @pytest.mark.parametrize("alpha, smallest", [(0.5, 15), (1.0, 26), (2.0, 52), (3.0, 87)])
    def test_gram_truncation_guard_edge(self, alpha, smallest):
        # the guard admits dim once P(Pois((2 alpha)^2) >= dim) < 1e-12
        gram_srm_oracle(alpha, 4, smallest)
        with pytest.raises(PrecisionError):
            gram_srm_oracle(alpha, 4, smallest - 1)

    def test_depends_only_on_power(self):
        # the bound is a function of |alpha|^2 and M alone
        assert helstrom_mpsk(0.7, 4) == helstrom_mpsk(0.7, 4)
        assert helstrom_mpsk(0.0, 8) == pytest.approx(7 / 8, abs=1e-14)


class TestSqlHeterodyne:
    @pytest.mark.parametrize("M", [2, 3, 4, 8])
    def test_zero_amplitude(self, M):
        assert sql_heterodyne(0.0, M) == pytest.approx(1 - 1 / M, abs=1e-10)

    @pytest.mark.parametrize("alpha_sq", [0.1, 0.5, 1.0, 2.0, 4.0])
    def test_qpsk_closed_form(self, alpha_sq):
        assert sql_heterodyne(math.sqrt(alpha_sq), 4) == pytest.approx(
            sql_qpsk_closed(alpha_sq), abs=1e-9
        )

    @pytest.mark.parametrize("M", [3, 4, 8])
    def test_sampling_oracle(self, M):
        mc, se = sampled_heterodyne_error(1.1, M, 0.0, 1_000_000, seed=7)
        assert abs(sql_heterodyne(1.1, M) - mc) < 4 * se

    def test_monotone_in_power(self):
        powers = np.linspace(0.0, 4.0, 17)
        vals = [sql_heterodyne(math.sqrt(p), 4) for p in powers]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_helstrom_below_sql(self):
        for M in (2, 4, 8):
            for alpha_sq in (0.1, 0.5, 1.0, 2.0):
                a = math.sqrt(alpha_sq)
                assert helstrom_mpsk(a, M) < sql_heterodyne(a, M)

    @pytest.mark.parametrize("M", [2, 3, 4, 8, 16, 64])
    def test_against_mpmath_wedge_integral(self, M):
        # no PrecisionError anywhere on the grid, and 1e-14 of the oracle
        for alpha_sq in (1e-4, 1e-2, 0.5, 2.0, 10.0, 100.0, 1000.0):
            got = sql_heterodyne(math.sqrt(alpha_sq), M)
            assert abs(got - sql_wedge_oracle(M, alpha_sq)) <= 1e-14, alpha_sq

    @pytest.mark.parametrize("alpha_sq", [1e8, 1e12, 1e20])
    def test_bright_pulse_is_resolved(self, alpha_sq):
        # the peak at the wedge's centre narrows as 1/alpha: the panels follow
        # it, so the error does not jump to 1 where a fixed rule misses it
        assert sql_heterodyne(math.sqrt(alpha_sq), 4) == 0.0
        assert 0.0 <= sql_heterodyne(math.sqrt(alpha_sq), 1000) <= 1e-12

    @pytest.mark.parametrize("alpha", [-0.1, math.nan, math.inf])
    def test_invalid_amplitude(self, alpha):
        with pytest.raises(ValueError):
            sql_heterodyne(alpha, 4)

    def test_order_cap_raises(self, monkeypatch):
        # an integrand with a jump: Gauss-Legendre orders never agree, so the
        # doubling runs into its cap and refuses the value
        monkeypatch.setattr(
            pskrx.bench, "_wedge_integrand", lambda phi, alpha: float(phi < 0.3)
        )
        with pytest.raises(PrecisionError, match="orders 256 and 512"):
            sql_heterodyne(1.0, 4)


class TestNoisySql:
    @pytest.mark.parametrize("n_th", [0.0, 0.2, 0.8])
    def test_matches_power_rescaling(self, n_th):
        # convolving two circular Gaussians rescales the effective
        # amplitude: the wedge decision is cone-shaped, so the clean
        # curve at alpha/sqrt(1+n_th) is the exact thermal-noise value
        mc, se = sampled_heterodyne_error(1.0, 4, n_th, 1_000_000, seed=5)
        assert abs(mc - sql_heterodyne(1.0 / math.sqrt(1.0 + n_th), 4)) < 4 * se
