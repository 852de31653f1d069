import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from pskrx._rng import TrialStream, counter_uniform
from pskrx.analytic import cyclic_error_probability, poisson_pmf
from pskrx.core import PskAlphabet
from pskrx.errors import PrecisionError
from pskrx.mc import (
    IDEAL,
    STRATEGIES,
    ImperfectionModel,
    TrialRecords,
    WorkerPool,
    _trial_blocks,
    estimate_error,
    estimate_errors,
    nominal_rate_table,
    sample_thermal_offset,
    simulate_outcomes,
    simulate_trial,
)

QPSK_HALF = PskAlphabet.from_power(4, 0.5)
BETA = math.sqrt(0.23)


class TestImperfectionModel:
    def test_defaults_ideal(self):
        assert IDEAL == ImperfectionModel(1.0, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"eta": 1.2},
            {"eta": -0.1},
            {"n_th": -0.5},
            {"dead_time": 1.0},
            {"dead_time": -0.1},
            {"dark_rate": -1.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ImperfectionModel(**kwargs)

    def test_dark_counts_only_add(self):
        imp = ImperfectionModel(eta=0.6, dark_rate=0.3)
        with_dark = nominal_rate_table(QPSK_HALF, BETA, imp)
        without = nominal_rate_table(QPSK_HALF, BETA, ImperfectionModel(eta=0.6))
        assert (with_dark >= without).all()
        np.testing.assert_allclose(with_dark - without, 0.3, atol=1e-15)


class TestSampleThermalOffset:
    def test_zero_noise_is_exactly_zero(self):
        assert sample_thermal_offset(0.0, TrialStream(1, 2)) == 0j

    def test_statistics(self):
        n = 200_000
        vals = np.array([sample_thermal_offset(0.8, TrialStream(5, i)) for i in range(n)])
        power = np.mean(np.abs(vals) ** 2)
        assert power == pytest.approx(0.8, rel=5e-3)
        assert np.var(vals.real) == pytest.approx(0.4, rel=1e-2)
        assert np.var(vals.imag) == pytest.approx(0.4, rel=1e-2)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            sample_thermal_offset(-0.1, TrialStream(0, 0))


class TestSimulateTrial:
    def test_dark_receiver_never_clicks(self):
        out = simulate_trial(1, PskAlphabet(4, 0.0), 0.0, "cyclic", IDEAL, TrialStream(3, 0))
        assert out.click_times == ()
        assert out.hypothesis.state == 1
        assert out.correct

    def test_cyclic_hypothesis_is_the_count(self):
        from pskrx.strategy import cyclic_finalize

        for i in range(200):
            out = simulate_trial(2, QPSK_HALF, BETA, "cyclic", IDEAL, TrialStream(17, i))
            assert out.hypothesis == cyclic_finalize(len(out.click_times), 4)

    def test_click_times_strictly_increasing(self):
        for i in range(200):
            out = simulate_trial(3, QPSK_HALF, BETA, "bayes", IDEAL, TrialStream(29, i))
            assert all(b > a for a, b in zip(out.click_times, out.click_times[1:]))
            assert len(out.probe_sequence) == len(out.click_times) + 1
            assert out.probe_sequence[0] == 1

    def test_dead_time_separates_clicks(self):
        imp = ImperfectionModel(dead_time=0.2)
        gaps = []
        for i in range(500):
            out = simulate_trial(3, QPSK_HALF, BETA, "cyclic", imp, TrialStream(31, i))
            gaps += [b - a for a, b in zip(out.click_times, out.click_times[1:])]
        assert gaps and min(gaps) >= 0.2

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            simulate_trial(5, QPSK_HALF, BETA, "cyclic", IDEAL, TrialStream(0, 0))
        with pytest.raises(ValueError):
            simulate_trial(1, QPSK_HALF, BETA, "dolinar", IDEAL, TrialStream(0, 0))


class TestEstimateError:
    def test_guessing_floor_at_zero_signal(self):
        est = estimate_error(PskAlphabet(4, 0.0), 0.0, "cyclic", IDEAL, 100_000, 7)
        assert abs(est.p_err - 0.75) < 4 * est.std_err
        assert est.std_err == pytest.approx(
            math.sqrt(est.p_err * (1 - est.p_err) / 100_000), abs=1e-12
        )

    def test_matches_analytic_cyclic(self):
        est = estimate_error(QPSK_HALF, BETA, "cyclic", IDEAL, 400_000, 11)
        ana = cyclic_error_probability(QPSK_HALF, BETA).p_err
        assert abs(est.p_err - ana) < 4 * est.std_err

    def test_deterministic_and_worker_independent(self):
        a = estimate_error(QPSK_HALF, BETA, "bayes", IDEAL, 150_000, 5, workers=1)
        b = estimate_error(QPSK_HALF, BETA, "bayes", IDEAL, 150_000, 5, workers=1)
        c = estimate_error(QPSK_HALF, BETA, "bayes", IDEAL, 150_000, 5, workers=3)
        assert a.p_err == b.p_err == c.p_err

    def test_trial_stream_identity(self):
        # the block engine replays exactly the trials the scalar path runs
        n = 4000
        outs = simulate_outcomes(QPSK_HALF, BETA, "bayes", IDEAL, n, 13)
        for i in (0, 1, 17, 500, 1234, n - 1):
            u = counter_uniform(13, i, 0)
            true_state = min(int(u * 4), 3) + 1
            ref = simulate_trial(true_state, QPSK_HALF, BETA, "bayes", IDEAL, TrialStream(13, i))
            out = outs[i]
            assert out.true_state == ref.true_state
            assert out.hypothesis == ref.hypothesis
            assert out.probe_sequence == ref.probe_sequence
            assert out.click_times == ref.click_times

    def test_error_fraction_matches_outcomes(self):
        n = 30_000
        outs = simulate_outcomes(QPSK_HALF, BETA, "cyclic", IDEAL, n, 19)
        est = estimate_error(QPSK_HALF, BETA, "cyclic", IDEAL, n, 19)
        assert est.p_err == sum(not o.correct for o in outs) / n

    def test_click_count_law(self):
        # with all states identical the count is plain Poisson(beta^2)
        outs = simulate_outcomes(PskAlphabet(4, 0.0), 1.0, "cyclic", IDEAL, 200_000, 3)
        counts = np.array([len(o.click_times) for o in outs])
        kmax = 9
        obs = np.bincount(np.minimum(counts, kmax), minlength=kmax + 1)
        expected = [poisson_pmf(1.0, k) for k in range(kmax)]
        expected.append(1.0 - sum(expected))
        _, p = stats.chisquare(obs, np.array(expected) * len(counts))
        assert p > 1e-3

    def test_invalid_trials(self):
        with pytest.raises(ValueError):
            estimate_error(QPSK_HALF, BETA, "cyclic", IDEAL, 0, 1)


class TestTrialRecords:
    def test_sequence_protocol(self):
        rec = simulate_outcomes(QPSK_HALF, BETA, "bayes", ImperfectionModel(dead_time=0.1), 500, 7)
        assert isinstance(rec, TrialRecords)
        assert len(rec) == 500
        assert rec[-1] == rec[499] and rec[-500] == rec[0]
        assert rec[np.int64(3)] == rec[3]
        for i in (500, -501):
            with pytest.raises(IndexError):
                rec[i]
        with pytest.raises(TypeError):
            rec[1.0]
        assert list(rec) == [rec[i] for i in range(500)]

    def test_columns_span_blocks(self):
        # 40,000 trials: a full block and a partial one
        imp = ImperfectionModel(0.8, 0.1, 0.02, 0.01)
        rec = simulate_outcomes(QPSK_HALF, BETA, "bayes", imp, 40_000, 9)
        assert len(rec) == 40_000
        counts = np.diff(rec.click_offsets)
        assert rec.click_offsets[0] == 0 and (counts >= 0).all()
        assert rec.click_offsets[-1] == len(rec.click_times) == len(rec.probes)
        assert ((rec.probes >= 1) & (rec.probes <= 4)).all()
        assert ((rec.confidence > 0.0) & (rec.confidence <= 1.0)).all()
        est = estimate_error(QPSK_HALF, BETA, "bayes", imp, 40_000, 9)
        assert np.count_nonzero(rec.hypothesis != rec.true_state) / 40_000 == est.p_err
        for i in (0, 32_767, 32_768, 39_999):
            out = rec[i]
            assert len(out.click_times) == counts[i]
            assert all(b > a for a, b in zip(out.click_times, out.click_times[1:]))

    def test_needs_a_trial(self):
        with pytest.raises(ValueError):
            simulate_outcomes(QPSK_HALF, BETA, "cyclic", IDEAL, 0, 1)


def _replay(alphabet, beta, strategy, imp, trials, seed):
    """Block-engine records next to the scalar path's, trial by trial."""
    outs = simulate_outcomes(alphabet, beta, strategy, imp, trials, seed)
    for i, out in enumerate(outs):
        u = counter_uniform(seed, i, 0)
        true_state = min(int(u * alphabet.M), alphabet.M - 1) + 1
        yield out, simulate_trial(true_state, alphabet, beta, strategy, imp, TrialStream(seed, i))


def _assert_same_trial(out, ref):
    assert out.true_state == ref.true_state
    assert out.hypothesis == ref.hypothesis  # state and confidence, bit for bit
    assert out.probe_sequence == ref.probe_sequence
    assert out.click_times == ref.click_times


_ONE_IMPERFECTION = st.one_of(
    st.just(IDEAL),
    st.builds(ImperfectionModel, eta=st.floats(0.05, 1.0)),
    st.builds(ImperfectionModel, n_th=st.floats(0.0, 2.0)),
    st.builds(ImperfectionModel, dead_time=st.floats(0.0, 0.6)),
    st.builds(ImperfectionModel, dark_rate=st.floats(0.0, 2.0)),
)


class TestScalarBlockAgreement:
    @given(
        M=st.integers(2, 16),
        alpha_sq=st.floats(0.0, 4.0),
        beta=st.one_of(st.just(0.0), st.floats(0.0, 1.5)),
        strategy=st.sampled_from(["cyclic", "bayes"]),
        imp=_ONE_IMPERFECTION,
        seed=st.integers(0, 2**32),
    )
    @settings(max_examples=200, deadline=None)
    def test_trial_by_trial(self, M, alpha_sq, beta, strategy, imp, seed):
        alphabet = PskAlphabet.from_power(M, alpha_sq)
        for out, ref in _replay(alphabet, beta, strategy, imp, 16, seed):
            _assert_same_trial(out, ref)


class TestZeroLikelihoodClick:
    # exact nulling under excess noise: a thermal click can be impossible
    # under every hypothesis the receiver still holds
    @pytest.mark.parametrize("M,alpha_sq", [(2, 0.5), (4, 1.0), (4, 2.0), (8, 2.0)])
    def test_posteriors_stay_finite(self, M, alpha_sq):
        alphabet = PskAlphabet.from_power(M, alpha_sq)
        imp = ImperfectionModel(n_th=0.8)
        outs = simulate_outcomes(alphabet, 0.0, "bayes", imp, 20_000, 1)
        conf = np.array([o.hypothesis.confidence for o in outs])
        assert np.isfinite(conf).all()
        assert (conf > 0.0).all() and (conf <= 1.0).all()
        for out, ref in _replay(alphabet, 0.0, "bayes", imp, 300, 1):
            _assert_same_trial(out, ref)

    def test_posterior_and_probe_unchanged(self):
        # one hypothesis left, probed at rate 0: the click changes nothing
        from pskrx.strategy import PosteriorState, bayes_click_update

        ps = PosteriorState(np.array([0.0, 1.0, 0.0, 0.0]), probe=2, last_event_time=0.2)
        out = bayes_click_update(ps, 0.5, np.array([2.0, 0.0, 2.0, 8.0]))
        assert (out.probs == ps.probs).all()
        assert out.probe == 2
        assert out.last_event_time == 0.5
        assert out.click_count == ps.click_count + 1

    def test_underflow_raises(self):
        # bright nulling receiver: a late thermal click on the probed state
        # has likelihood e^{-4000 t} under the other hypothesis, which
        # underflows; both paths refuse rather than emitting NaN
        from pskrx.strategy import bayes_click_update, bayes_silence_update, initial_posterior

        alphabet = PskAlphabet.from_power(2, 1000.0)
        with pytest.raises(PrecisionError):
            estimate_error(alphabet, 0.0, "bayes", ImperfectionModel(n_th=1.0), 2000, 1)
        rates = np.array([0.0, 4000.0])
        with pytest.raises(PrecisionError):
            bayes_click_update(initial_posterior(2), 0.5, rates)
        with pytest.raises(PrecisionError):
            bayes_silence_update(initial_posterior(2), 0.5, np.array([4000.0, 4000.0]))


class TestBatchedEstimates:
    @pytest.mark.parametrize("strategy", ["cyclic", "bayes"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_batch_equals_one_by_one(self, strategy, workers):
        # 100,000 trials: several blocks, whose size depends on the worker count
        alphabet = PskAlphabet.from_power(4, 1.0)
        imp = ImperfectionModel(n_th=0.3)
        grid = [0.0, 0.3, BETA, 0.9]
        batch = estimate_errors(alphabet, grid, strategy, imp, 100_000, 17, workers)
        one_by_one = [
            estimate_error(alphabet, b, strategy, imp, 100_000, 17, workers) for b in grid
        ]
        assert batch == one_by_one

    def test_needs_a_surplus(self):
        with pytest.raises(ValueError):
            estimate_errors(QPSK_HALF, [], "cyclic", IDEAL, 100, 1)


# 1 and 7 trials: more workers than trials; 65,537: prime; 100,000: the
# old layout of three 32,768-trial blocks plus a tail
PARTITION_TRIALS = [1, 7, 65_537, 100_000]


class TestTrialPartition:
    @pytest.mark.parametrize("trials", PARTITION_TRIALS)
    @pytest.mark.parametrize("workers", [1, 2, 3, 5])
    def test_blocks_cover_the_trials(self, trials, workers):
        blocks = _trial_blocks(trials, workers)
        assert blocks[0][0] == 0
        assert blocks[-1][1] == trials
        assert all(prev_hi == lo for (_, prev_hi), (lo, _) in zip(blocks, blocks[1:]))
        assert all(0 < hi - lo <= 1 << 15 for lo, hi in blocks)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("trials", PARTITION_TRIALS)
    def test_partition_never_changes_a_result(self, strategy, trials):
        alphabet = PskAlphabet.from_power(4, 1.0)
        imp = ImperfectionModel(eta=0.8, n_th=0.2, dark_rate=0.05)
        grid = [0.3, BETA, 0.8]
        one = estimate_errors(alphabet, grid, strategy, imp, trials, 23, workers=1)
        for workers in (2, 3, 5):
            assert estimate_errors(alphabet, grid, strategy, imp, trials, 23, workers) == one


class TestWorkerPool:
    def test_one_pool_serves_every_call(self, pool_events):
        imp = ImperfectionModel(n_th=0.1)
        with WorkerPool(2) as pool:
            shared = [
                estimate_errors(QPSK_HALF, [0.2, BETA], "bayes", imp, 20_000, 3, pool),
                estimate_error(QPSK_HALF, BETA, "cyclic", imp, 40_000, 4, pool),
            ]
            assert pool_events == ["start"]
        assert pool_events == ["start", "stop"]
        assert shared == [
            estimate_errors(QPSK_HALF, [0.2, BETA], "bayes", imp, 20_000, 3, 1),
            estimate_error(QPSK_HALF, BETA, "cyclic", imp, 40_000, 4, 1),
        ]

    def test_starts_only_for_several_blocks_and_workers(self, pool_events):
        estimate_error(QPSK_HALF, BETA, "cyclic", IDEAL, 1000, 1, workers=4)
        estimate_error(QPSK_HALF, BETA, "cyclic", IDEAL, 100_000, 1, workers=1)
        with WorkerPool(2) as pool:
            estimate_error(QPSK_HALF, BETA, "cyclic", IDEAL, 1000, 1, pool)
        assert pool_events == []
        estimate_error(QPSK_HALF, BETA, "cyclic", IDEAL, 100_000, 1, workers=2)
        assert pool_events == ["start", "stop"]

    def test_stops_on_an_error(self, pool_events):
        alphabet = PskAlphabet.from_power(2, 1000.0)
        with pytest.raises(PrecisionError):
            estimate_error(alphabet, 0.0, "bayes", ImperfectionModel(n_th=1.0), 20_000, 1, 2)
        assert pool_events == ["start", "stop"]


class TestImperfections:
    def test_quantum_efficiency_is_power_rescaling(self):
        # eta-imperfect receiver at (a^2, b^2) behaves as the ideal one
        # at (eta a^2, eta b^2); shared streams make the match tight
        eta, a2, b2 = 0.7, 1.0, 0.3
        imp = estimate_error(
            PskAlphabet.from_power(4, a2), math.sqrt(b2), "cyclic",
            ImperfectionModel(eta=eta), 200_000, 31,
        )
        ideal = estimate_error(
            PskAlphabet.from_power(4, eta * a2), math.sqrt(eta * b2), "cyclic",
            IDEAL, 200_000, 31,
        )
        assert abs(imp.p_err - ideal.p_err) < 4 * math.hypot(imp.std_err, ideal.std_err)

    @pytest.mark.parametrize(
        "field,lo,hi",
        [
            ("n_th", 0.0, 0.8),
            ("dead_time", 0.0, 0.2),
            ("dark_rate", 0.0, 0.8),
        ],
    )
    def test_each_imperfection_hurts(self, field, lo, hi):
        alphabet = PskAlphabet.from_power(4, 1.0)
        beta = 0.5
        clean = estimate_error(alphabet, beta, "cyclic", ImperfectionModel(**{field: lo}), 100_000, 23)
        dirty = estimate_error(alphabet, beta, "cyclic", ImperfectionModel(**{field: hi}), 100_000, 23)
        assert dirty.p_err - clean.p_err > 4 * math.hypot(clean.std_err, dirty.std_err)

    def test_lower_efficiency_hurts(self):
        alphabet = PskAlphabet.from_power(4, 1.0)
        clean = estimate_error(alphabet, 0.5, "cyclic", IDEAL, 100_000, 23)
        dirty = estimate_error(alphabet, 0.5, "cyclic", ImperfectionModel(eta=0.7), 100_000, 23)
        assert dirty.p_err - clean.p_err > 4 * math.hypot(clean.std_err, dirty.std_err)

    def test_bayes_exposure_clock_skips_blind_windows(self):
        # with dead time, the likelihood exposure resumes after the blind
        # window: the scalar path encodes this via last_event_time hops
        imp = ImperfectionModel(dead_time=0.3)
        for i in range(400):
            out = simulate_trial(2, QPSK_HALF, BETA, "bayes", imp, TrialStream(41, i))
            if len(out.click_times) >= 2:
                assert out.click_times[1] - out.click_times[0] >= 0.3

    def test_thermal_noise_offsets_are_per_pulse(self):
        # at alpha=beta=0 with noise, clicks arise from |eps|^2 alone
        imp = ImperfectionModel(n_th=0.8)
        outs = simulate_outcomes(PskAlphabet(4, 0.0), 0.0, "cyclic", imp, 150_000, 43)
        counts = np.array([len(o.click_times) for o in outs])
        # mixed Poisson with exponential mean: P(0) = 1/(1+n_th)
        assert counts.mean() == pytest.approx(0.8, rel=2e-2)
        assert (counts == 0).mean() == pytest.approx(1 / 1.8, rel=5e-3)
