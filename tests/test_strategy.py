import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pskrx.core import PskAlphabet
from pskrx.mc import PosteriorScratch, Workspace, map_pick

from scalar_reference import (
    Hypothesis,
    PosteriorState,
    bayes_click_update,
    bayes_finalize,
    bayes_silence_update,
    cyclic_finalize,
    displaced_rates,
    initial_posterior,
    select_probe,
)

# the recurring demonstration point: M=4, |alpha|^2 = 0.5, |beta|^2 = 0.23
A = PskAlphabet.from_power(4, 0.5)
B = math.sqrt(0.23)

# first-click posterior at t1 = 0.15, frozen from the exact one-shot
# formula p_k ~ n_k exp(-n_k t1) (recomputed below as the oracle)
T1_POSTERIOR = (0.0428714073171284, 0.27653124323974826, 0.40406610620337496, 0.27653124323974826)

# terminal posterior of state 3 for the four-click demonstration record;
# frozen from the recursion (the tabulated reference prints 0.434, but its
# first column does not renormalize consistently -- see the t1 row, whose
# printed entries sum to 0.981; the self-consistent value is pinned here)
FINAL_CONFIDENCE = 0.40808896113342485


def one_shot_first_click(rates, t1):
    w = rates * np.exp(-rates * t1)
    return w / w.sum()


class TestCyclic:
    @pytest.mark.parametrize(
        "count,M,state", [(0, 4, 1), (5, 4, 2), (7, 4, 4), (0, 8, 1), (9, 8, 2)]
    )
    def test_finalize(self, count, M, state):
        h = cyclic_finalize(count, M)
        assert h == Hypothesis(state, 1.0)

    def test_negative_count(self):
        with pytest.raises(ValueError):
            cyclic_finalize(-1, 4)

    @given(st.integers(0, 40), st.lists(st.floats(0.001, 0.999), max_size=10))
    def test_memoryless_in_click_times(self, count, _times):
        # the cyclic hypothesis is a function of the count alone
        assert cyclic_finalize(count, 4).state == 1 + count % 4


class TestSelectProbe:
    def test_plain_argmax(self):
        assert select_probe(np.array([0.1, 0.2, 0.6, 0.1]), 1) == 3

    def test_tie_prefers_smallest_phase_step(self):
        probs = np.array([0.1, 0.4, 0.1, 0.4])
        assert select_probe(probs, 3) == 4  # step 1 beats step 3
        assert select_probe(probs, 1) == 2
        assert select_probe(probs, 4) == 4  # current probe wins its own tie

    @given(
        M=st.integers(2, 16),
        levels=st.lists(st.integers(0, 3), min_size=16 * 9, max_size=16 * 9),
        probes=st.lists(st.integers(0, 15), min_size=9, max_size=9),
    )
    def test_engine_pick_on_columns(self, M, levels, probes):
        # the engine's pick on (M, m) columns agrees with the scalar one
        # column by column; few weight levels make ties common
        w = np.array(levels[: M * 9], dtype=float).reshape(M, 9)
        probe = np.array(probes, dtype=np.int64) % M
        expected = [select_probe(w[:, j], int(probe[j]) + 1) for j in range(9)]
        top = map_pick(w, probe, PosteriorScratch(Workspace(), M, 9))
        assert (probe + 1).tolist() == expected
        assert top.tolist() == w.max(axis=0).tolist()


class TestBayesUpdates:
    def test_first_click_reference(self):
        ps = initial_posterior(4)
        rates = displaced_rates(A, 1, B)
        ps = bayes_click_update(ps, 0.15, rates)
        np.testing.assert_allclose(ps.probs, T1_POSTERIOR, atol=1e-12)
        np.testing.assert_allclose(ps.probs, one_shot_first_click(rates, 0.15), atol=1e-14)
        # the published reference rounds these three to 0.277, 0.403, 0.277
        np.testing.assert_allclose(ps.probs[1:], (0.277, 0.403, 0.277), atol=2e-3)
        assert ps.probe == 3
        assert ps.click_count == 1 and ps.last_event_time == 0.15

    def test_uniform_rates_change_nothing(self):
        ps = initial_posterior(4)
        out = bayes_click_update(ps, 0.4, np.full(4, 1.3))
        np.testing.assert_allclose(out.probs, 0.25, atol=1e-15)
        assert out.probe == 1

    def test_single_click_crossover(self):
        # late first clicks favor the adjacent states over the opposite one
        rates = displaced_rates(A, 1, B)
        t_star = math.log(rates[2] / rates[1]) / (rates[2] - rates[1])
        assert t_star == pytest.approx(0.376, abs=0.005)
        before = bayes_click_update(initial_posterior(4), t_star - 1e-3, rates)
        after = bayes_click_update(initial_posterior(4), t_star + 1e-3, rates)
        assert np.argmax(before.probs) == 2
        assert after.probs[1] == after.probs[3] > after.probs[2]

    def test_non_monotone_time_rejected(self):
        ps = initial_posterior(4)
        ps = bayes_click_update(ps, 0.5, np.array([1.0, 2.0, 3.0, 2.0]))
        with pytest.raises(ValueError):
            bayes_click_update(ps, 0.4, np.array([1.0, 2.0, 3.0, 2.0]))

    def test_silence_identity_cases(self):
        ps = initial_posterior(4)
        out = bayes_silence_update(ps, 0.0, np.array([1.0, 2.0, 3.0, 2.0]))
        assert (out.probs == ps.probs).all()
        out = bayes_silence_update(ps, 0.6, np.full(4, 2.0))
        np.testing.assert_allclose(out.probs, 0.25, atol=1e-15)
        assert out.last_event_time == 0.6

    def test_silence_favors_probed_state(self):
        ps = initial_posterior(4)
        rates = displaced_rates(A, 1, B)
        out = bayes_silence_update(ps, 1.0, rates)
        assert int(np.argmax(out.probs)) + 1 == 1

    def test_no_clicks_finalizes_to_probed(self):
        ps = initial_posterior(4)
        h = bayes_finalize(ps, displaced_rates(A, 1, B))
        assert h.state == 1

    def test_four_click_demonstration_record(self):
        # clicks at 0.15, 0.35, 0.54, 0.71: probes 1 -> 3 -> 4 -> 2 -> 3,
        # final hypothesis state 3
        ps = initial_posterior(4)
        probes = [ps.probe]
        for t in (0.15, 0.35, 0.54, 0.71):
            ps = bayes_click_update(ps, t, displaced_rates(A, ps.probe, B))
            probes.append(ps.probe)
        h = bayes_finalize(ps, displaced_rates(A, ps.probe, B))
        assert probes == [1, 3, 4, 2, 3]
        assert h.state == 3
        assert h.confidence == pytest.approx(FINAL_CONFIDENCE, abs=1e-12)
        assert h.confidence == pytest.approx(0.43, abs=0.03)

    @given(
        t1=st.floats(0.01, 0.99),
        rates=st.lists(st.floats(0.01, 6.0), min_size=4, max_size=4),
    )
    @settings(max_examples=80)
    def test_sequential_consistency(self, t1, rates):
        # silence to just before the click, then the click reweighting,
        # reproduces the one-shot first-click posterior
        rates = np.array(rates)
        mid = bayes_silence_update(initial_posterior(4), t1 * 0.999, rates)
        out = bayes_click_update(mid, t1, rates)
        np.testing.assert_allclose(out.probs, one_shot_first_click(rates, t1), atol=1e-12)

    @given(
        shift=st.integers(1, 3),
        t1=st.floats(0.05, 0.95),
        rates=st.lists(st.floats(0.01, 6.0), min_size=4, max_size=4),
    )
    @settings(max_examples=60)
    def test_rotation_equivariance(self, shift, t1, rates):
        rates = np.array(rates)
        out = bayes_click_update(initial_posterior(4), t1, rates)
        rolled = PosteriorState(np.zeros(4), probe=1 + shift)
        out_rolled = bayes_click_update(rolled, t1, np.roll(rates, shift))
        np.testing.assert_allclose(out_rolled.probs, np.roll(out.probs, shift), atol=1e-14)
        assert out_rolled.probe == 1 + (out.probe - 1 + shift) % 4

    @given(
        times=st.lists(st.floats(0.01, 0.99), min_size=1, max_size=8, unique=True),
        rates=st.lists(st.floats(0.0, 5.0), min_size=4, max_size=4),
    )
    @settings(max_examples=80)
    def test_posterior_stays_normalized(self, times, rates):
        rates = np.array(rates)
        if rates.max() == 0.0:
            return
        ps = initial_posterior(4)
        for t in sorted(times):
            ps = bayes_click_update(ps, t, rates + 0.01)
            assert (ps.probs >= 0).all()
            assert ps.probs.sum() == pytest.approx(1.0, abs=1e-12)


class TestPosteriorStateValidation:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            PosteriorState(np.array([0.5, 0.6]), probe=1)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            PosteriorState(np.array([-0.1, 1.1]), probe=1)

    def test_rejects_bad_probe(self):
        with pytest.raises(ValueError):
            PosteriorState(np.array([0.5, 0.5]), probe=3)
