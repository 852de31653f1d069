import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

import pskrx
import pskrx.analytic
from pskrx.analytic import (
    _poisson_table,
    cyclic_error_probabilities,
    cyclic_error_probability,
    m_click_probability,
)
from pskrx.bench import helstrom_mpsk, sql_heterodyne
from pskrx.core import PskAlphabet

from conftest import (
    expm_error_oracle,
    expm_error_slope_oracle,
    ode_count_probabilities,
    quad_one_click,
    quad_two_clicks,
)
from oracles import poisson_pmf, poisson_tail, scalar_cyclic_error


class TestPoissonPmf:
    def test_reference_values(self):
        assert poisson_pmf(1, 1) == pytest.approx(math.exp(-1), abs=1e-15)
        assert poisson_pmf(0, 0) == 1.0
        assert poisson_pmf(1, 2) == pytest.approx(math.exp(-1) / 2, abs=1e-15)

    def test_large_arguments_stable(self):
        # log-space evaluation keeps the extreme tail finite and tiny
        v = poisson_pmf(50.0, 100)
        assert 0.0 < v < 1e-9
        total = sum(poisson_pmf(50.0, m) for m in range(400))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_negative_mean_rejected(self):
        with pytest.raises(ValueError):
            poisson_pmf(-0.1, 0)
        with pytest.raises(ValueError):
            poisson_pmf(1.0, -1)


class TestPoissonTail:
    @pytest.mark.parametrize(
        "lam", [1e-8, 1e-4, 0.01, 0.3, 1.0, 2.5, 7.3, 20.0, 60.0, 200.0]
    )
    def test_against_incomplete_gamma(self, lam):
        # P(X > m) is the regularized lower incomplete gamma P(m + 1, lam);
        # tails below float64's normal range only need to be as small.  At
        # lam 2.5, m 5 a remainder bound placed right after m is 0.6% high
        with mpmath.workdps(30):
            for m in range(301):
                exact = mpmath.gammainc(m + 1, 0, lam, regularized=True)
                got = poisson_tail(lam, m)
                if exact < 1e-290:
                    assert 0.0 <= got <= 1e-290
                else:
                    assert abs(got - exact) <= 1e-12 * exact, (lam, m)

    @pytest.mark.parametrize("lam", [700.0, 1000.0, 5000.0])
    def test_large_mean_against_incomplete_gamma(self, lam):
        # past lam 700, where e^-lam underflows, the mode's term comes from
        # Loader's saddle-point form: counts from far below to far above lam
        sd = math.sqrt(lam)
        counts = {0, 300, int(lam) - 1, int(lam), int(lam) + 1}
        counts |= {int(lam + k * sd) for k in range(-12, 16)}
        with mpmath.workdps(30):
            for m in sorted(counts):
                exact = mpmath.gammainc(m + 1, 0, lam, regularized=True)
                got = poisson_tail(lam, m)
                if exact < 1e-290:
                    assert 0.0 <= got <= 1e-290
                else:
                    assert abs(got - exact) <= 2e-14 * exact, (lam, m)

    @pytest.mark.parametrize("m", [0, 1, 7])
    def test_zero_mean(self, m):
        assert poisson_tail(0.0, m) == 0.0

    @pytest.mark.parametrize("lam, m", [(-0.1, 1), (math.nan, 1), (math.inf, 1), (1.0, -1)])
    def test_invalid(self, lam, m):
        with pytest.raises(ValueError):
            poisson_tail(lam, m)

    @pytest.mark.parametrize("lam", [1e-3, 0.7, 4.0, 36.0])
    @pytest.mark.parametrize("floor", [1e-13, 1e-40, 1e-300])
    def test_table_down_to_its_floor(self, lam, floor):
        # the series' table: tails[n] = P(X > n), accurate wherever it is at
        # or above the floor, and ending below it
        tails = _poisson_table(lam, 1, floor)[1]
        with mpmath.workdps(30):
            for n, got in enumerate(tails):
                exact = mpmath.gammainc(n + 1, 0, lam, regularized=True)
                if got >= floor:
                    assert abs(got - exact) <= 1e-12 * exact, n
                elif exact >= 1e-290:
                    # below the floor still a bound, if a looser one
                    assert got >= exact * (1 - 1e-12), n
        assert tails[-1] <= lam * 2.0**-53 * floor


class TestMClickProbability:
    @pytest.mark.parametrize("n", [0.1, 0.5, 1.0, 2.0, 5.0])
    @pytest.mark.parametrize("m", range(11))
    def test_poisson_reduction(self, n, m):
        # a rate that never switches reproduces plain Poisson counting
        assert m_click_probability([n] * (m + 1), m) == pytest.approx(
            poisson_pmf(n, m), abs=1e-12
        )

    def test_vacuum(self):
        assert m_click_probability([1.7], 0) == pytest.approx(math.exp(-1.7), abs=1e-15)

    def test_hand_value(self):
        assert m_click_probability([1.0, 2.0], 1) == pytest.approx(
            math.exp(-2) * (math.e - 1), abs=1e-13
        )

    def test_order_sensitivity(self):
        p12 = m_click_probability([1.0, 2.0], 1)
        p21 = m_click_probability([2.0, 1.0], 1)
        assert p12 == pytest.approx(math.exp(-2) * (math.e - 1), abs=1e-13)
        assert p21 == pytest.approx(2 * math.exp(-1) * (1 - math.exp(-1)), abs=1e-13)
        assert p12 != pytest.approx(p21, abs=1e-3)

    def test_insufficient_sequence(self):
        with pytest.raises(ValueError):
            m_click_probability([1.0, 2.0], 2)

    def test_negative_rate(self):
        with pytest.raises(ValueError):
            m_click_probability([1.0, -2.0], 1)

    def test_rate_zero_blocks_further_clicks(self):
        assert m_click_probability([0.0, 3.0], 1) == 0.0
        assert m_click_probability([2.0, 0.0, 3.0], 2) == 0.0
        # exactly one click then silence at rate zero
        assert m_click_probability([2.0, 0.0], 1) == pytest.approx(
            1 - math.exp(-2), abs=1e-13
        )

    @given(st.lists(st.floats(0.0, 5.0), min_size=2, max_size=9))
    @example([2.7905954264601184e-169, 3.0])  # a subnormal-scale rate
    @settings(max_examples=60, deadline=None)
    def test_against_ode_oracle(self, seq):
        oracle = ode_count_probabilities(seq, len(seq) - 1)
        for m in range(len(seq)):
            assert m_click_probability(seq, m) == pytest.approx(oracle[m], abs=5e-10)

    def test_near_confluent_rates(self):
        # nearly equal rates need no special case: a 1e-10 split behaves as equal
        near = [1.0, 1.0 + 1e-10, 2.0]
        for m in range(3):
            assert m_click_probability(near, m) == pytest.approx(
                m_click_probability([1.0, 1.0, 2.0], m), abs=1e-9
            )
        p = m_click_probability([1.0, 1.0 + 1e-10], 1)
        assert p == pytest.approx(poisson_pmf(1.0, 1), abs=1e-9)
        # slightly larger splits: still accurate against the ODE oracle
        for seq in (near, [1.0, 1.0 + 1e-5, 1.0 + 2e-5]):
            oracle = ode_count_probabilities(seq, 2)
            for m in range(3):
                assert m_click_probability(seq, m) == pytest.approx(oracle[m], abs=1e-10)

    def test_nested_quadrature_oracle(self):
        assert m_click_probability([0.8, 2.2], 1) == pytest.approx(
            quad_one_click(0.8, 2.2), abs=1e-11
        )
        assert m_click_probability([0.8, 2.2, 1.1], 2) == pytest.approx(
            quad_two_clicks(0.8, 2.2, 1.1), abs=1e-9
        )

    @given(st.lists(st.floats(0.01, 5.0), min_size=1, max_size=12))
    @settings(max_examples=40, deadline=None)
    def test_completeness(self, seq):
        m_top = len(seq) - 1
        total = sum(m_click_probability(seq, m) for m in range(m_top + 1))
        tail = poisson_tail(max(seq), m_top)
        assert total + tail >= 1.0 - 1e-12
        assert total <= 1.0 + 1e-10


class TestCyclicErrorProbability:
    def test_indistinguishable_states(self):
        res = cyclic_error_probability(PskAlphabet(4, 0.0), 0.9)
        assert res.p_err == pytest.approx(0.75, abs=1e-11)

    def test_brackets_between_bounds(self, qpsk_half):
        alphabet, beta = qpsk_half
        res = cyclic_error_probability(alphabet, beta)
        assert helstrom_mpsk(alphabet.alpha, 4) < res.p_err < sql_heterodyne(alphabet.alpha, 4)

    def test_tail_bound_is_rigorous(self, qpsk_half):
        alphabet, beta = qpsk_half
        tight = cyclic_error_probability(alphabet, beta, tail_tol=1e-12)
        loose = cyclic_error_probability(alphabet, beta, tail_tol=1e-4)
        assert loose.tail_bound < 1e-4
        assert tight.tail_bound < 1e-12
        # truncation can only drop correct-decision mass: looser tail
        # overestimates the error, by no more than its own bound
        assert 0.0 <= loose.p_err - tight.p_err <= loose.tail_bound + 1e-12

    def test_exact_nulling_matches_ode_oracle(self):
        # exact nulling: per-state sequences contain a zero rate
        alphabet = PskAlphabet.from_power(4, 0.8)
        res = cyclic_error_probability(alphabet, 0.0)
        from pskrx.core import probe_relative_rates

        table = probe_relative_rates(alphabet, 0.0)
        correct = 0.0
        for k in range(1, 5):
            seq = [table[(k - 1 - j) % 4] for j in range(res.m_max + 1)]
            probs = ode_count_probabilities(seq, res.m_max)
            correct += sum(probs[m] for m in range(k - 1, res.m_max + 1, 4))
        assert res.p_err == pytest.approx(1 - correct / 4, abs=1e-9)

    @given(alpha_sq=st.floats(0.0, 3.0), beta_sq=st.floats(0.0, 2.0))
    @settings(max_examples=25, deadline=None)
    def test_stays_in_physical_band(self, alpha_sq, beta_sq):
        alphabet = PskAlphabet.from_power(4, alpha_sq)
        res = cyclic_error_probability(alphabet, math.sqrt(beta_sq), tail_tol=1e-9)
        assert helstrom_mpsk(alphabet.alpha, 4) - 1e-6 <= res.p_err <= 0.75 + 1e-9

    @pytest.mark.parametrize("beta_sq", [0.0, 0.05, 0.23, 1.2])
    @pytest.mark.parametrize("alpha_sq", [1e-4, 0.01, 0.1, 1.0, 8.0])
    @pytest.mark.parametrize("M", [2, 4, 8, 16])
    def test_bracket_against_expm_oracle(self, M, alpha_sq, beta_sq):
        res = cyclic_error_probability(PskAlphabet.from_power(M, alpha_sq), math.sqrt(beta_sq))
        exact = expm_error_oracle(M, alpha_sq, beta_sq)
        slack = 1e-12 * exact
        assert res.p_err - res.tail_bound - slack <= exact <= res.p_err + slack

    @given(
        M=st.integers(2, 16),
        alpha_sq=st.floats(0.0, 8.0),
        beta=st.floats(0.0, 1.5),
    )
    @example(M=16, alpha_sq=8.0, beta=1.5)  # the longest series drawn
    @example(M=2, alpha_sq=0.0, beta=0.0)  # no rate at all
    @example(M=4, alpha_sq=8.0, beta=0.0)  # exact nulling, a rate of zero
    @settings(max_examples=10, deadline=None)
    def test_value_and_slope_against_expm_oracle(self, M, alpha_sq, beta):
        # the doubled series against the 50-digit matrix exponential and
        # mpmath's derivative of it.  Rounding allowances: the value sums
        # nonnegative terms only, so it keeps 1e-13 relative accuracy; the
        # slope's terms cancel, and their sizes add up to at most
        # c = 2 max|dn/dbeta| < 32 (the sum that bounds its tail), so a
        # few hundred ulps of c stay below 1e-12 absolute
        alphabet = PskAlphabet.from_power(M, alpha_sq)
        res = cyclic_error_probability(alphabet, beta)
        value, slope = expm_error_slope_oracle(M, alphabet.alpha, beta)
        slack = 1e-13 * value
        assert res.p_err - res.tail_bound - slack <= value <= res.p_err + slack
        assert abs(res.slope - slope) <= res.slope_bound + 1e-12

    def test_slope_bound_is_rigorous(self, qpsk_half):
        # a loose series leaves out more of the derivative, never more
        # than its bound says
        alphabet, beta = qpsk_half
        tight = cyclic_error_probability(alphabet, beta, tail_tol=1e-12)
        loose = cyclic_error_probability(alphabet, beta, tail_tol=1e-4)
        assert loose.m_max < tight.m_max
        assert abs(loose.slope - tight.slope) <= loose.slope_bound + tight.slope_bound

    def test_small_error_keeps_relative_accuracy(self):
        # P_err ~ 1.9e-11 here: the error mass is summed, not 1 - correct
        res = cyclic_error_probability(PskAlphabet.from_power(2, 6.0), 0.0)
        assert res.p_err == pytest.approx(expm_error_oracle(2, 6.0, 0.0), rel=1e-6)

    def test_bad_tail_tol(self, qpsk_half):
        alphabet, beta = qpsk_half
        for tol in (0.0, 1e-2, -1e-6):
            with pytest.raises(ValueError):
                cyclic_error_probability(alphabet, beta, tail_tol=tol)


class TestCyclicErrorProbabilities:
    # a 9-point grid with beta = 0: lambda = 0 at alpha = 0, and Loader's
    # term at the mode past lambda = 700 (alpha^2 = 1000)
    GRID = [0.0, 0.05, 0.3, 0.6, 0.9, 1.2, 1.5, 1.75, 2.0]

    @pytest.mark.parametrize("alpha_sq", [0.0, 1e-4, 1.0, 4.0, 50.0, 1000.0])
    @pytest.mark.parametrize("M", [2, 3, 4, 8, 16, 64])
    def test_batch_is_bit_for_bit_one_at_a_time(self, M, alpha_sq):
        # every field of every result, as each surplus gets it alone and as
        # one chain evaluated alone gets it: the batch doubles in shared
        # products but keeps each member's own shapes where the BLAS
        # kernel could round differently
        alphabet = PskAlphabet.from_power(M, alpha_sq)
        for tol in (1e-9, 1e-12):
            batch = cyclic_error_probabilities(alphabet, self.GRID, tol)
            one = [cyclic_error_probability(alphabet, beta, tol) for beta in self.GRID]
            alone = [scalar_cyclic_error(alphabet, beta, tol) for beta in self.GRID]
            for results in (batch, one):
                for got, want in zip(results, alone):
                    assert got.m_max == want.m_max
                    for field in ("p_err", "slope", "tail_bound", "slope_bound"):
                        assert getattr(got, field).hex() == getattr(want, field).hex(), field
            # the order of the batch does not matter either
            backward = cyclic_error_probabilities(alphabet, self.GRID[::-1], tol)
            assert backward[::-1] == batch

    def test_batches_split_by_bytes(self, monkeypatch):
        # a byte budget below one member doubles the members one at a time
        alphabet = PskAlphabet.from_power(8, 1.0)
        whole = cyclic_error_probabilities(alphabet, self.GRID)
        monkeypatch.setattr(pskrx.analytic, "_BATCH_BYTES", 1)
        assert cyclic_error_probabilities(alphabet, self.GRID) == whole

    def test_empty_and_invalid(self):
        alphabet = PskAlphabet.from_power(4, 1.0)
        assert cyclic_error_probabilities(alphabet, []) == []
        with pytest.raises(ValueError):
            cyclic_error_probabilities(alphabet, [0.5, -0.1])
        with pytest.raises(ValueError):
            cyclic_error_probabilities(alphabet, [0.5], tail_tol=0.0)


def test_import_does_not_load_mpmath():
    # mpmath is a test-only oracle; the package must not depend on it
    src = str(Path(pskrx.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, pskrx.cli; assert 'mpmath' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_import_loads_no_heavy_scipy_module():
    # the CLI starts on numpy alone
    src = str(Path(pskrx.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys, pskrx.cli; "
        "loaded = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]; "
        "assert not loaded, loaded"
    )
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_commands_run_without_scipy(tmp_path):
    # with scipy made unimportable, every command runs: the optimizers
    # included, since the exact one root-solves its own derivative
    src = str(Path(pskrx.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = tmp_path / "records.csv"
    commands = [
        ["simulate", "--alpha-sq", "0.5", "--beta-sq", "0.23", "--strategy", "bayes",
         "--trials", "2000", "--seed", "1", "--dead-time", "0.1", "--out", str(out)],
        ["trace", "--alpha-sq", "0.5", "--beta-sq", "0.23", "--clicks", "0.1,0.4"],
        ["bench", "--m", "8", "--alpha-sq", "0.01,2,300"],
        ["sweep", "--alpha-sq", "0.5,1", "--beta-policy", "fixed", "--beta-sq", "0.23",
         "--trials", "2000", "--seed", "1", "--workers", "1"],
        ["optimize", "--alpha-sq", "0.5,1", "--objective", "analytic"],
        ["optimize", "--alpha-sq", "0.5", "--objective", "mc", "--strategy", "bayes",
         "--trials", "10000", "--seed", "1", "--workers", "1"],
        ["sweep", "--alpha-sq", "0.5,1", "--beta-policy", "analytic",
         "--trials", "2000", "--seed", "1", "--workers", "1"],
        ["sweep", "--alpha-sq", "0.5", "--beta-policy", "mc", "--opt-trials", "10000",
         "--trials", "2000", "--seed", "1", "--workers", "1"],
    ]
    for argv in commands:
        code = (
            "import sys; sys.modules['scipy'] = None; "
            "from pskrx.cli import main; "
            f"sys.exit(main({argv!r}))"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert done.returncode == 0, (argv[0], done.stderr)
