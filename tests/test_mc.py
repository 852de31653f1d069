import hashlib
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

import pskrx.mc
from pskrx._rng import box_muller, counter_uniform, slot_uniform, trial_keys
from pskrx.analytic import cyclic_error_probability
from pskrx.core import PskAlphabet
from pskrx.mc import (
    _BLOCK,
    _MIN_BLOCK,
    IDEAL,
    MAX_EXPECTED_CLICKS,
    STRATEGIES,
    ImperfectionModel,
    PosteriorScratch,
    TrialRecords,
    WorkerPool,
    Workspace,
    _jobs,
    _run_block,
    _trial_blocks,
    click_update,
    estimate_error,
    estimate_errors,
    final_update,
    nominal_rate_table,
    simulate_outcomes,
)

from oracles import poisson_pmf
from scalar_reference import (
    PosteriorState,
    TrialStream,
    bayes_click_update,
    bayes_silence_update,
    cyclic_finalize,
    initial_posterior,
    outcome,
    sample_thermal_offset,
    simulate_trial,
    weight_sum,
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
            # an infinite rate makes every wait -log(u)/inf = 0: a trial would never end
            {"n_th": math.inf},
            {"dark_rate": math.inf},
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
        # the offsets the block engine draws: Box-Muller on slots 1 and 2 of
        # each trial's key, each quadrature of variance n_th / 2
        n = 200_000
        keys = trial_keys(5, np.arange(n, dtype=np.uint64))
        z1, z2 = box_muller(slot_uniform(keys, 1), slot_uniform(keys, 2))
        sigma = math.sqrt(0.8 / 2.0)
        vals = sigma * z1 + 1j * (sigma * z2)
        power = np.mean(np.abs(vals) ** 2)
        assert power == pytest.approx(0.8, rel=5e-3)
        assert np.var(vals.real) == pytest.approx(0.4, rel=1e-2)
        assert np.var(vals.imag) == pytest.approx(0.4, rel=1e-2)
        # the scalar path draws the same offsets, bit for bit
        for i in range(1000):
            offset = sample_thermal_offset(0.8, TrialStream(5, i))
            assert (offset.real, offset.imag) == (sigma * z1[i], sigma * z2[i])

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
        rec = simulate_outcomes(QPSK_HALF, BETA, "bayes", IDEAL, n, 13)
        for i in (0, 1, 17, 500, 1234, n - 1):
            u = counter_uniform(13, i, 0)
            true_state = min(int(u * 4), 3) + 1
            ref = simulate_trial(true_state, QPSK_HALF, BETA, "bayes", IDEAL, TrialStream(13, i))
            out = outcome(rec, i)
            assert out.true_state == ref.true_state
            assert out.hypothesis == ref.hypothesis
            assert out.probe_sequence == ref.probe_sequence
            assert out.click_times == ref.click_times

    def test_error_fraction_matches_outcomes(self):
        n = 30_000
        rec = simulate_outcomes(QPSK_HALF, BETA, "cyclic", IDEAL, n, 19)
        est = estimate_error(QPSK_HALF, BETA, "cyclic", IDEAL, n, 19)
        assert est.p_err == np.count_nonzero(rec.hypothesis != rec.true_state) / n

    def test_click_count_law(self):
        # with all states identical the count is plain Poisson(beta^2)
        rec = simulate_outcomes(PskAlphabet(4, 0.0), 1.0, "cyclic", IDEAL, 200_000, 3)
        counts = np.diff(rec.click_offsets)
        kmax = 9
        obs = np.bincount(np.minimum(counts, kmax), minlength=kmax + 1)
        expected = [poisson_pmf(1.0, k) for k in range(kmax)]
        expected.append(1.0 - sum(expected))
        _, p = stats.chisquare(obs, np.array(expected) * len(counts))
        assert p > 1e-3

    def test_invalid_trials(self):
        with pytest.raises(ValueError):
            estimate_error(QPSK_HALF, BETA, "cyclic", IDEAL, 0, 1)

    def test_bright_pulse_refused(self, monkeypatch):
        # each click is one round of the engine: 10^12 expected clicks per
        # pulse would never finish, so the surplus is refused before any block
        def engine(*args):
            raise AssertionError("the engine ran")

        monkeypatch.setattr(pskrx.mc, "_run_block", engine)
        alphabet = PskAlphabet.from_power(4, 1.0)
        runs = [
            lambda: estimate_error(alphabet, 1e6, "cyclic", IDEAL, 1000, 1, workers=1),
            lambda: estimate_errors(alphabet, [0.5, 1e6], "bayes", IDEAL, 1000, 1, workers=1),
            lambda: simulate_outcomes(alphabet, 1e6, "cyclic", IDEAL, 10, 1),
        ]
        for run in runs:
            with pytest.raises(ValueError, match="clicks per pulse"):
                run()

    @pytest.mark.parametrize(
        "beta_sq, kwargs, refused",
        [
            (0.5 * MAX_EXPECTED_CLICKS, {}, False),
            (2.0 * MAX_EXPECTED_CLICKS, {}, True),
            # the mean thermal count adds eta * n_th, the dark counts add too
            (0.5 * MAX_EXPECTED_CLICKS, {"n_th": 0.6 * MAX_EXPECTED_CLICKS}, True),
            (0.5 * MAX_EXPECTED_CLICKS, {"eta": 0.5, "n_th": 0.6 * MAX_EXPECTED_CLICKS}, False),
            (0.5 * MAX_EXPECTED_CLICKS, {"dark_rate": 0.6 * MAX_EXPECTED_CLICKS}, True),
            # dead time lets at most 1 / dead_time clicks through
            (1e12, {"dead_time": 10.0 / MAX_EXPECTED_CLICKS}, False),
            (1e12, {"dead_time": 0.5 / MAX_EXPECTED_CLICKS}, True),
        ],
    )
    def test_click_bound(self, beta_sq, kwargs, refused):
        # states of zero amplitude click at beta^2, so the count is plain
        jobs = lambda: _jobs(PskAlphabet(4, 0.0), [0.1, math.sqrt(beta_sq)], "cyclic",
                             ImperfectionModel(**kwargs), 10, 1, 1, False)
        if refused:
            with pytest.raises(ValueError, match="clicks per pulse"):
                jobs()
        else:
            assert len(jobs()) == 1


class TestTrialRecords:
    def test_columns_in_trial_order(self):
        rec = simulate_outcomes(QPSK_HALF, BETA, "bayes", ImperfectionModel(dead_time=0.1), 500, 7)
        assert isinstance(rec, TrialRecords)
        assert len(rec) == 500
        for col in (rec.true_state, rec.hypothesis, rec.confidence):
            assert col.shape == (500,)
        assert rec.click_offsets.shape == (501,)
        assert rec.click_times.shape == rec.probes.shape == (rec.click_offsets[-1],)
        # each trial's clicks are a slice in time order, each after the dead time
        for s, e in zip(rec.click_offsets[:-1].tolist(), rec.click_offsets[1:].tolist()):
            assert (np.diff(rec.click_times[s:e]) >= 0.1).all()
        assert ((rec.hypothesis >= 1) & (rec.hypothesis <= 4)).all()
        assert ((rec.confidence > 0.0) & (rec.confidence <= 1.0)).all()

    def test_one_trial_as_an_outcome(self):
        # the scalar reference's view of trial i reads the columns' slices
        rec = simulate_outcomes(QPSK_HALF, BETA, "bayes", ImperfectionModel(dead_time=0.1), 500, 7)
        assert outcome(rec, -1) == outcome(rec, 499) and outcome(rec, -500) == outcome(rec, 0)
        assert outcome(rec, np.int64(3)) == outcome(rec, 3)
        for i in (500, -501):
            with pytest.raises(IndexError):
                outcome(rec, i)
        with pytest.raises(TypeError):
            outcome(rec, 1.0)
        for i in (0, 3, 250, 499):
            out = outcome(rec, i)
            s, e = rec.click_offsets[i : i + 2]
            assert out.true_state == rec.true_state[i]
            assert out.hypothesis.state == rec.hypothesis[i]
            assert out.hypothesis.confidence == rec.confidence[i]
            assert out.click_times == tuple(rec.click_times[s:e])
            assert out.probe_sequence == (1, *rec.probes[s:e])
            assert out.correct == (rec.hypothesis[i] == rec.true_state[i])

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
            out = outcome(rec, i)
            assert len(out.click_times) == counts[i]
            assert all(b > a for a, b in zip(out.click_times, out.click_times[1:]))

    def test_needs_a_trial(self):
        with pytest.raises(ValueError):
            simulate_outcomes(QPSK_HALF, BETA, "cyclic", IDEAL, 0, 1)

    @pytest.mark.parametrize(
        "strategy, M, alpha_sq, beta_sq, n_th, dark_rate, digest",
        [
            ("cyclic", 4, 1.0, 0.23, 0.0, 0.2,
             "501d151895bbf343266ad2cea2b3ec1a8eab01834b9ce45fead9c1907040a9e8"),
            ("bayes", 4, 1.0, 0.23, 0.0, 0.2,
             "c6db2ea7d1b32f8a5478fb50bcbd74a03e8f4af5ddfda6057d4479509ae4ccf3"),
            ("bayes", 8, 2.0, 0.23, 0.1, 0.01,
             "5fdd15cd16fa471a596eacfb718e2ac7816b90a23af3bc26d8350441b4f6a633"),
            ("cyclic", 8, 2.0, 0.23, 0.1, 0.01,
             "79cac6c397596e9811f73a9af97186925037df52a782225345d8320c132a2d2d"),
            # nulling under excess noise: zero-likelihood clicks as well
            ("bayes", 4, 1.0, 0.0, 0.8, 0.0,
             "35dc8ee1fee4f074440f0cd15c47bdc211bcf7e2e32b4c7bf5f4e43a15c21325"),
        ],
        ids=["cyclic-m4-dark", "bayes-m4-dark", "bayes-m8-imperfect", "cyclic-m8-imperfect",
             "bayes-m4-nulling-thermal"],
    )
    def test_golden_columns_long_dead_time(
        self, strategy, M, alpha_sq, beta_sq, n_th, dark_rate, digest
    ):
        # dead time 0.3 blocks many trials up to the pulse's end; two
        # engine blocks, every column hashed bit for bit
        imp = ImperfectionModel(eta=0.8, n_th=n_th, dead_time=0.3, dark_rate=dark_rate)
        rec = simulate_outcomes(
            PskAlphabet.from_power(M, alpha_sq), math.sqrt(beta_sq), strategy, imp, 40_000, 29
        )
        h = hashlib.sha256()
        for col in (rec.true_state, rec.hypothesis, rec.confidence, rec.click_offsets,
                    rec.click_times, rec.probes):
            h.update(np.ascontiguousarray(col).tobytes())
        assert h.hexdigest() == digest


def _payload_digest(payload) -> str:
    h = hashlib.sha256()
    for col in payload:
        h.update(np.ascontiguousarray(col).tobytes())
    return h.hexdigest()


# blocks run back to back in one process, in an order that grows and shrinks
# every per-round array: M=16 on a full block, M=2 on 7 trials, M=8 with
# excess noise and long dead time, then the first block again
_BLOCK_SEQUENCE = [
    (16, 6.0, ImperfectionModel(eta=0.8, dark_rate=0.05), 0, 32_768),
    (2, 1.0, IDEAL, 100, 107),
    (8, 2.0, ImperfectionModel(eta=0.8, n_th=0.1, dead_time=0.3, dark_rate=0.01), 5_000, 25_000),
    (16, 6.0, ImperfectionModel(eta=0.8, dark_rate=0.05), 0, 32_768),
]


class TestBlockSequence:
    # (n_err, payload digest) of each block at beta 0 and 0.48, in the order
    # of _BLOCK_SEQUENCE; no block may see what an earlier one left behind
    @pytest.mark.parametrize(
        "strategy, expected",
        [
            ("cyclic", [
                (25224, "64822b8109db0d10a85c6a410170705594d2055ac5662e1b5946f27263d7a71d"),
                (22763, "9286a3b877084b97dedf5d98059a300fb0eb985c39127c8acd4cd36078203e12"),
                (0, "c4ab543c439e4914ea594e77686e9c9172b236cf769341a0c312c989b07d4bc7"),
                (0, "f0b724256e3c14f4bb61296ff434bc5f9115e6c33a82909f32edd9e693015f1b"),
                (15066, "a5d797cff084ad51b1c3e57473a7a56e8e4b9c32d6bfbe707659456d2ab89f97"),
                (14624, "b03074cab611b598d72ff3881d204040c35ba18eed4fe7f32bc93c51c2a637f4"),
            ]),
            ("bayes", [
                (16551, "853ccab4e7e9944a5aebf9975382e7afcaebcb364cc788d32f223a4156e89312"),
                (15779, "c8b797284950aa1b4a50ed56e61732fbcfbd25a564f56511e634eb44e0f211f1"),
                (0, "bc940dcc0d266d5c5fee84ab04f46b10d93170bfef96441e2d2a5a3cb31dc942"),
                (0, "1092e50c9fd75066ae337a8d250a6a4550aca6a3ee5419a3a3d76259a939358b"),
                (12252, "50384928668c3704e2ab01c053d7725195f5265bef6c5fdd9ce9af3489006d88"),
                (11832, "faf928467c7438fb23553478953a62c22b6cb561214aa59bb8495b21ce782249"),
            ]),
        ],
    )
    def test_golden_payloads_in_one_process(self, strategy, expected):
        got = []
        for M, alpha_sq, imp, lo, hi in _BLOCK_SEQUENCE:
            blocks = _run_block(
                (PskAlphabet.from_power(M, alpha_sq), (0.0, 0.48), strategy, imp, 41, lo, hi, True)
            )
            got += [(n_err, _payload_digest(payload)) for n_err, payload in blocks]
        assert got == expected + expected[:2]

    @pytest.mark.parametrize(
        "strategy, p_errs",
        [("cyclic", [0.7804, 0.73907, 0.71491]), ("bayes", [0.65947, 0.62162, 0.61009])],
    )
    def test_golden_estimates_any_workers(self, strategy, p_errs):
        alphabet = PskAlphabet.from_power(8, 1.0)
        imp = ImperfectionModel(eta=0.8, n_th=0.1, dead_time=0.02, dark_rate=0.01)
        for workers in (1, 2):
            est = estimate_errors(alphabet, [0.0, 0.3, 0.48], strategy, imp, 100_000, 43, workers)
            assert [e.p_err for e in est] == p_errs


_DECISION_COLUMNS = ("true_state", "hypothesis", "click_offsets", "click_times", "probes")


class TestGoldenDecisions:
    # the Bayesian runs of the golden tests below: every column but the
    # confidence, pinned apart from the confidences' bits
    @pytest.mark.parametrize(
        "M, alpha_sq, beta_sq, n_th, dark_rate, digest",
        [
            (4, 1.0, 0.23, 0.0, 0.2,
             "28f329d27cf86621305b63412b97d5410d59feeec694b52d46d1f173c2b3a192"),
            (8, 2.0, 0.23, 0.1, 0.01,
             "bb011a9735429e5ee5fb97e30e7671afff7265b19891b15e88a282e1a4168abd"),
            (4, 1.0, 0.0, 0.8, 0.0,
             "56ebdb33407e49196742caa30cd1384055822ba99bdbc2d123cc334c215addcd"),
        ],
        ids=["m4-dark", "m8-imperfect", "m4-nulling-thermal"],
    )
    def test_long_dead_time(self, M, alpha_sq, beta_sq, n_th, dark_rate, digest):
        imp = ImperfectionModel(eta=0.8, n_th=n_th, dead_time=0.3, dark_rate=dark_rate)
        rec = simulate_outcomes(
            PskAlphabet.from_power(M, alpha_sq), math.sqrt(beta_sq), "bayes", imp, 40_000, 29
        )
        h = hashlib.sha256()
        for name in _DECISION_COLUMNS:
            h.update(np.ascontiguousarray(getattr(rec, name)).tobytes())
        assert h.hexdigest() == digest

    def test_block_sequence(self):
        got = []
        for M, alpha_sq, imp, lo, hi in _BLOCK_SEQUENCE:
            blocks = _run_block(
                (PskAlphabet.from_power(M, alpha_sq), (0.0, 0.48), "bayes", imp, 41, lo, hi, True)
            )
            # payload column 2 is the confidence
            got += [(n_err, _payload_digest(p[:2] + p[3:])) for n_err, p in blocks]
        expected = [
            (16551, "14c5ea2590f383c3b941858ae1b219ad9464e4a2aa75970ece7748fc3350e2e3"),
            (15779, "efb690f8007351a871237acda0b4e7b204b747c0b4a1d59b3513ed2949038470"),
            (0, "c45ea733dfc1b5a908c8d99b084070610bb5b820e6fa1ecf1927fd7a945efe0b"),
            (0, "9913e6aee6573fe2544ac5cef65ece5e46164658cbabace9cb31d02136cc9da4"),
            (12252, "9430a2f273844f8f975fab838f475a12069c8be8d4dbd211689ecade2fbb2c73"),
            (11832, "9f8eb2330d87c1a66d7e6defacf69157e7e766d86498ecf35829d4a27f57c222"),
        ]
        assert got == expected + expected[:2]


class TestWorkspace:
    def test_blocks_share_the_buffers(self):
        # a block of the size run before, then a smaller one, run in the
        # buffers the first block left: none is added, grown or replaced
        ws = Workspace()
        alphabet = PskAlphabet.from_power(8, 2.0)
        imp = ImperfectionModel(eta=0.8, n_th=0.1, dead_time=0.02, dark_rate=0.01)

        def addresses():
            return {key: buf.__array_interface__["data"][0] for key, buf in ws._buffers.items()}

        _run_block((alphabet, (0.0, BETA), "bayes", imp, 3, 0, 32_768, False), ws)
        first = addresses()
        for lo, hi in ((32_768, 65_536), (65_536, 65_600)):
            _run_block((alphabet, (0.0, BETA), "bayes", imp, 3, lo, hi, False), ws)
            assert addresses() == first

    @pytest.mark.skipif(
        not sys.platform.startswith("linux"), reason="reads Linux's minor page-fault count"
    )
    def test_blocks_after_the_first_fault_in_no_memory(self, monkeypatch):
        # a block that allocated its working set afresh would fault it in
        # again, ~2,000 minor faults; blocks 2-4 of one call run in the first's
        import resource

        import pskrx.mc

        faults = []
        run_block = pskrx.mc._run_block

        def counted(*args, **kwargs):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            result = run_block(*args, **kwargs)
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
            return result

        monkeypatch.setattr(pskrx.mc, "_run_block", counted)
        imp = ImperfectionModel(eta=0.8, n_th=0.1, dead_time=0.02, dark_rate=0.01)
        estimate_error(QPSK_HALF, BETA, "bayes", imp, 4 * 32_768, 7, workers=1)
        assert len(faults) == 4
        assert max(faults[1:]) < 500, faults


def _replay(alphabet, beta, strategy, imp, trials, seed):
    """Block-engine records next to the scalar path's, trial by trial."""
    rec = simulate_outcomes(alphabet, beta, strategy, imp, trials, seed)
    for i in range(trials):
        u = counter_uniform(seed, i, 0)
        true_state = min(int(u * alphabet.M), alphabet.M - 1) + 1
        ref = simulate_trial(true_state, alphabet, beta, strategy, imp, TrialStream(seed, i))
        yield outcome(rec, i), ref


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
    # efficiency, dark counts and dead time together: the true click rate
    # comes from the engine's rate table when n_th is 0, from the field when not
    st.builds(
        ImperfectionModel,
        eta=st.floats(0.05, 1.0),
        n_th=st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
        dead_time=st.floats(0.0, 0.6),
        dark_rate=st.floats(0.0, 2.0),
    ),
)


# all four imperfections, for the Bayesian examples at M >= 8 below
_IMPERFECT = ImperfectionModel(eta=0.8, n_th=0.1, dead_time=0.02, dark_rate=0.01)


class TestScalarBlockAgreement:
    # Bayesian probing at M >= 8 in every run, where a sum of the posterior's
    # weights in another order than left to right would round differently
    @example(M=8, alpha_sq=2.0, beta=0.48, strategy="bayes", imp=_IMPERFECT, seed=22)
    @example(M=16, alpha_sq=3.0, beta=0.48, strategy="bayes", imp=_IMPERFECT, seed=23)
    @example(M=33, alpha_sq=4.0, beta=0.48, strategy="bayes", imp=_IMPERFECT, seed=24)
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


class TestRowSum:
    # the normaliser adds the posterior's rows left to right: the bits of
    # numpy's own row sum x.sum(axis=0) over several columns, and in each
    # column those of the scalar reference's sum of one trial's weights
    @pytest.mark.parametrize("M", [*range(2, 41), 127, 128, 129, 300])
    def test_bits_of_numpys_row_sum(self, M):
        rng = np.random.default_rng(M)
        # nonnegative like posterior weights, over 24 orders of magnitude
        x = rng.random((M, 500)) * 10.0 ** rng.uniform(-12.0, 12.0, (M, 500))
        total = PosteriorScratch(Workspace(), M, 500).column_sums(x)
        assert np.array_equal(total, x.sum(axis=0))
        for j in range(0, 500, 25):
            assert total[j] == weight_sum(x[:, j])


class TestColumnCount:
    # the engine updates many trials' posteriors in one call, and one column
    # alone for the trials that never click, a round's last running trial
    # and every trace; a column's bits and probe must not depend on which.
    # numpy's reduce over axis 0 would fail this: it adds one column's rows
    # pairwise, several columns' in sequence
    @pytest.mark.parametrize("M", [2, 7, 8, 9, 16, 33, 200])
    def test_a_column_alone_as_among_many(self, M):
        m = 64
        rng = np.random.default_rng(M)
        w = rng.uniform(-14.0, 0.0, (M, m))
        w -= w.max(axis=0)
        click_rates, final_rates = rng.uniform(0.0, 8.0, (2, M, m))
        click_lag, final_lag = -rng.random((2, m))
        probe = rng.integers(0, M, m)
        # every fifth column holds its probe alone, at rate 0: a click it
        # cannot explain, which leaves its log weights and probe unchanged
        for j in range(0, m, 5):
            w[:, j], click_rates[probe[j], j] = -np.inf, 0.0
            w[probe[j], j] = 0.0
        click_logs = np.log(click_rates, out=np.full((M, m), -np.inf), where=click_rates > 0.0)
        scratch = PosteriorScratch(Workspace(), M, m)

        def update(cols):
            p = probe[cols].copy()
            after = click_update(
                w[:, cols], click_rates[:, cols].copy(), click_logs[:, cols],
                click_lag[cols], p, scratch,
            )
            clicked = after.copy(), p.copy()
            final = final_rates[:, cols].copy()
            conf = final_update(after, final, final_lag[cols], p, scratch)
            return clicked, (final, p, conf.copy())

        (w_all, p_all), (f_all, d_all, c_all) = update(slice(None))
        held = np.arange(m) % 5 != 0
        assert (w_all[:, ~held] == w[:, ~held]).all() and (p_all[~held] == probe[~held]).all()
        assert (w_all.max(axis=0) == 0.0).all()
        for j in range(m):
            (w_j, p_j), (f_j, d_j, c_j) = update(slice(j, j + 1))
            assert w_j[:, 0].tobytes() == w_all[:, j].tobytes()
            assert p_j[0] == p_all[j]
            assert f_j[:, 0].tobytes() == f_all[:, j].tobytes()
            assert (d_j[0], c_j[0]) == (d_all[j], c_all[j])


class TestZeroLikelihoodClick:
    # exact nulling under excess noise: a thermal click can be impossible
    # under every hypothesis the receiver still holds
    @pytest.mark.parametrize("M,alpha_sq", [(2, 0.5), (4, 1.0), (4, 2.0), (8, 2.0)])
    def test_posteriors_stay_finite(self, M, alpha_sq):
        alphabet = PskAlphabet.from_power(M, alpha_sq)
        imp = ImperfectionModel(n_th=0.8)
        conf = simulate_outcomes(alphabet, 0.0, "bayes", imp, 20_000, 1).confidence
        assert np.isfinite(conf).all()
        assert (conf > 0.0).all() and (conf <= 1.0).all()
        for out, ref in _replay(alphabet, 0.0, "bayes", imp, 300, 1):
            _assert_same_trial(out, ref)

    def test_posterior_and_probe_unchanged(self):
        # one hypothesis left, probed at rate 0: the click changes nothing
        log_weights = np.array([-np.inf, 0.0, -np.inf, -np.inf])
        ps = PosteriorState(log_weights, probe=2, last_event_time=0.2)
        out = bayes_click_update(ps, 0.5, np.array([2.0, 0.0, 2.0, 8.0]))
        assert (out.log_weights == ps.log_weights).all()
        assert out.probe == 2
        assert out.last_event_time == 0.5
        assert out.click_count == ps.click_count + 1

    def test_bright_noisy_pulses_answered(self):
        # bright nulling receivers: a late thermal click on the probed state
        # has likelihood e^{-4000 t} under the other hypothesis, a weight
        # that underflows but a log weight that does not.  The click moves
        # the probe off the true state, which then clicks hundreds of times
        for M, alpha_sq, n_th in [(2, 1000.0, 1.0), (4, 300.0, 0.4)]:
            alphabet = PskAlphabet.from_power(M, alpha_sq)
            imp = ImperfectionModel(n_th=n_th)
            est = estimate_error(alphabet, 0.0, "bayes", imp, 2000, 1)
            assert 0.0 < est.p_err < 1.0 and est.std_err > 0.0
            conf = simulate_outcomes(alphabet, 0.0, "bayes", imp, 2000, 1).confidence
            assert ((conf > 0.0) & (conf <= 1.0)).all()
            longest = 0
            for out, ref in _replay(alphabet, 0.0, "bayes", imp, 40, 1):
                _assert_same_trial(out, ref)
                longest = max(longest, len(out.click_times))
            assert longest > 500
        out = bayes_click_update(initial_posterior(2), 0.5, np.array([0.0, 4000.0]))
        assert out.log_weights.tolist() == [-np.inf, 0.0] and out.probe == 2
        out = bayes_silence_update(initial_posterior(2), 0.5, np.array([4000.0, 4000.0]))
        assert out.probs.tolist() == [0.5, 0.5]


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


# 1 and 7 trials: more processes than trials; 65,537: prime; 100,000: the
# old layout of three 32,768-trial blocks plus a tail
PARTITION_TRIALS = [1, 7, 65_537, 100_000]


class TestTrialPartition:
    @pytest.mark.parametrize("trials", PARTITION_TRIALS + [10**6])
    @pytest.mark.parametrize("processes", [1, 2, 3, 5, 64])
    def test_blocks_cover_the_trials(self, trials, processes):
        blocks = _trial_blocks(trials, processes)
        assert blocks[0][0] == 0
        assert blocks[-1][1] == trials
        assert all(prev_hi == lo for (_, prev_hi), (lo, _) in zip(blocks, blocks[1:]))
        sizes = [hi - lo for lo, hi in blocks]
        assert 0 < min(sizes) and max(sizes) <= _BLOCK
        n = len(blocks)
        if n > 1:
            assert min(sizes) >= _MIN_BLOCK
        if n % processes:
            # a multiple of the processes would need blocks below _MIN_BLOCK:
            # as many as fit
            assert trials < -(-n // processes) * processes * _MIN_BLOCK
            assert n == max(1, trials // _MIN_BLOCK)
        elif n > processes:
            # the fewest: one block fewer per process would overfill a block
            assert -(-trials // (n - processes)) > _BLOCK

    def test_fewer_larger_blocks(self):
        assert _trial_blocks(100_000, 2) == [(i * 25_000, (i + 1) * 25_000) for i in range(4)]
        # 31 blocks of 32,768 would do; 32 share out evenly
        assert _trial_blocks(10**6, 2) == [(i * 31_250, (i + 1) * 31_250) for i in range(32)]

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("trials", PARTITION_TRIALS)
    def test_partition_never_changes_a_result(self, strategy, trials, monkeypatch):
        # up to 5 processes whatever the host has, so the worker counts cut
        # the trials differently
        monkeypatch.setattr(pskrx.mc, "usable_cpus", lambda: 5)
        alphabet = PskAlphabet.from_power(4, 1.0)
        imp = ImperfectionModel(eta=0.8, n_th=0.2, dark_rate=0.05)
        grid = [0.3, BETA, 0.8]
        one = estimate_errors(alphabet, grid, strategy, imp, trials, 23, workers=1)
        for workers in (2, 3, 5):
            assert estimate_errors(alphabet, grid, strategy, imp, trials, 23, workers) == one


def _fail_on_job_1(job, workspace=None):
    """A job function for a worker: it raises on job 1."""
    if job == 1:
        raise ValueError("job 1 failed")
    return job


@pytest.mark.usefixtures("two_cpus")
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

    def test_records_start_no_pool(self, pool_events):
        # four blocks on two CPUs, all run in this process
        simulate_outcomes(QPSK_HALF, BETA, "cyclic", IDEAL, 100_000, 1)
        assert pool_events == []

    def test_one_usable_cpu_starts_no_pool(self, pool_events, monkeypatch):
        monkeypatch.setattr(pskrx.mc, "usable_cpus", lambda: 1)
        estimate_error(QPSK_HALF, BETA, "cyclic", IDEAL, 100_000, 1, workers=4)
        assert pool_events == []

    def test_blocks_follow_the_processes(self, pool_events, monkeypatch):
        # on two CPUs a million workers cut the trials as two do
        run_block, blocks = pskrx.mc._run_block, []

        def logged(job, workspace=None):
            blocks.append(job[5:7])
            return run_block(job, workspace)

        monkeypatch.setattr(pskrx.mc, "_run_block", logged)
        estimate_error(QPSK_HALF, BETA, "cyclic", IDEAL, 100_000, 1, workers=2)
        two = blocks[:]
        estimate_error(QPSK_HALF, BETA, "cyclic", IDEAL, 100_000, 1, workers=10**6)
        assert two == blocks[len(two):] == _trial_blocks(100_000, 2)

    def test_processes_capped_at_the_usable_cpus(self, pool_sizes, monkeypatch):
        # a million workers start one process a CPU
        monkeypatch.setattr(pskrx.mc, "usable_cpus", lambda: 3)
        est = estimate_error(QPSK_HALF, BETA, "cyclic", IDEAL, 20_000, 1, workers=10**6)
        assert pool_sizes == [3]
        assert est == estimate_error(QPSK_HALF, BETA, "cyclic", IDEAL, 20_000, 1, workers=1)
        with WorkerPool(2) as pool:
            estimate_error(QPSK_HALF, BETA, "cyclic", IDEAL, 20_000, 1, pool)
        assert pool_sizes == [3, 2]

    def test_start_method_pinned(self, pool_contexts):
        # fork on Linux whatever the interpreter's default; elsewhere the platform's
        estimate_error(QPSK_HALF, BETA, "cyclic", IDEAL, 100_000, 1, workers=2)
        [context] = pool_contexts
        if sys.platform == "linux":
            assert context.get_start_method() == "fork"
        else:
            assert context is None

    def test_stops_on_an_error(self, pool_events):
        with pytest.raises(ValueError, match="job 1 failed"):
            with WorkerPool(2) as pool:
                pool.map(_fail_on_job_1, [0, 1])
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
        rec = simulate_outcomes(PskAlphabet(4, 0.0), 0.0, "cyclic", imp, 150_000, 43)
        counts = np.diff(rec.click_offsets)
        # mixed Poisson with exponential mean: P(0) = 1/(1+n_th)
        assert counts.mean() == pytest.approx(0.8, rel=2e-2)
        assert (counts == 0).mean() == pytest.approx(1 / 1.8, rel=5e-3)
