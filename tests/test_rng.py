import numpy as np
import pytest
from hypothesis import given, strategies as st

from pskrx._rng import box_muller, counter_uniform

from scalar_reference import TrialStream


class TestCounterUniform:
    def test_deterministic(self):
        assert counter_uniform(1, 2, 3) == counter_uniform(1, 2, 3)

    def test_distinct_coordinates_decorrelate(self):
        base = counter_uniform(1, 2, 3)
        assert counter_uniform(2, 2, 3) != base
        assert counter_uniform(1, 3, 3) != base
        assert counter_uniform(1, 2, 4) != base

    def test_open_interval(self):
        u = counter_uniform(0, np.arange(200_000, dtype=np.uint64), 0)
        assert (u > 0.0).all() and (u < 1.0).all()

    def test_vector_matches_scalar(self):
        trials = np.arange(50, dtype=np.uint64)
        vec = counter_uniform(9, trials, 5)
        scalars = np.array([counter_uniform(9, int(t), 5) for t in trials])
        np.testing.assert_array_equal(vec, scalars)

    def test_uniform_moments(self):
        u = counter_uniform(123, np.arange(1_000_000, dtype=np.uint64), 2)
        assert u.mean() == pytest.approx(0.5, abs=2e-3)
        assert u.var() == pytest.approx(1 / 12, abs=2e-3)
        # crude serial correlation check across the trial axis
        corr = np.corrcoef(u[:-1], u[1:])[0, 1]
        assert abs(corr) < 5e-3

    @pytest.mark.parametrize(
        "seed, trial, slot, value",
        [
            (0, 0, 0, 0.20310281705476102),
            (0, 1, 3, 0.29009305164512605),
            (2**64 - 1, 5, 1, 0.6202656373904676),
            (-7, 12, 4, 0.8428185508695771),
            (123, 2**40, 0, 0.7399218590816603),
            (9, 3, 2**20, 0.8583642502517539),
            (2**63 + 11, 2**40 + 1, 2**20 + 3, 0.9155806498183763),
        ],
    )
    def test_pinned_values(self, seed, trial, slot, value):
        # exact values of the stream: a change to the hash fails here first
        assert counter_uniform(seed, trial, slot) == value

    def test_pinned_array_values(self):
        trials = np.array([0, 1, 2**40, 2**64 - 1], dtype=np.uint64)
        expected = [0.677210754743081, 0.48139144801032113, 0.3643138773767555,
                    0.16082425484321455]
        assert counter_uniform(42, trials, 7).tolist() == expected

    @given(seed=st.integers(0, 2**64 - 1), trial=st.integers(0, 2**48), slot=st.integers(0, 2**20))
    def test_always_in_open_interval(self, seed, trial, slot):
        u = counter_uniform(seed, trial, slot)
        assert 0.0 < u < 1.0


def test_box_muller_moments():
    n = 500_000
    u1 = counter_uniform(7, np.arange(n, dtype=np.uint64), 1)
    u2 = counter_uniform(7, np.arange(n, dtype=np.uint64), 2)
    z1, z2 = box_muller(u1, u2)
    for z in (z1, z2):
        assert z.mean() == pytest.approx(0.0, abs=5e-3)
        assert z.var() == pytest.approx(1.0, abs=1e-2)
    assert abs(np.mean(z1 * z2)) < 5e-3


class TestTrialStream:
    def test_slot_layout(self):
        s = TrialStream(11, 42)
        assert s.true_state_uniform() == counter_uniform(11, 42, 0)
        s.offset_normals()
        assert s.wait_uniform() == counter_uniform(11, 42, 3)
        assert s.wait_uniform() == counter_uniform(11, 42, 4)

    def test_streams_independent_of_each_other(self):
        a = [TrialStream(1, 0).wait_uniform() for _ in range(1)]
        b = [TrialStream(1, 1).wait_uniform() for _ in range(1)]
        assert a != b
