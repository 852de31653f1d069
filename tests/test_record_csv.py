"""simulate's record writer against reference writers, byte for byte.

Its float kernel, ``_fmt_slots``, is checked against ``format(x, ".17g")``
value by value.

The CSV reference below is the earlier per-trial writer, which also
matches the golden digests of ``TestSimulate::test_golden_bytes``: it
joins the click times and probes of every trial and each row's fields as
strings.  The JSON reference is ``json.dumps(rows, indent=2)`` of one dict
per trial built from the same columns.  The writer in ``pskrx.cli`` must
produce the same text in both formats for any records and any chunk
size, so the tests shrink the chunk to put its edges everywhere.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pskrx.cli
from pskrx import PskAlphabet
from pskrx.mc import IDEAL, ImperfectionModel, TrialRecords, simulate_outcomes

# --- reference writer ------------------------------------------------------

_RECORD_CHUNK = 1 << 14


def _fmt(x: float) -> str:
    """Floats are serialized with 17 significant digits (round-trip safe)."""
    return format(float(x), ".17g")


def _record_columns(rec: TrialRecords, lo: int, hi: int) -> dict[str, list]:
    """simulate's output columns for trials lo..hi-1, one list per field."""
    offsets = rec.click_offsets[lo : hi + 1].tolist()
    first, last = offsets[0], offsets[-1]
    spans = [(s - first, e - first) for s, e in zip(offsets, offsets[1:])]
    times = list(map(_fmt, rec.click_times[first:last].tolist()))
    probes = [f";{p}" for p in rec.probes[first:last].tolist()]
    true_state = rec.true_state[lo:hi].tolist()
    hypothesis = rec.hypothesis[lo:hi].tolist()
    return {
        "trial": list(range(lo, hi)),
        "true_state": true_state,
        "hypothesis": hypothesis,
        "confidence": rec.confidence[lo:hi].tolist(),
        "correct": [int(h == t) for h, t in zip(hypothesis, true_state)],
        "n_clicks": [e - s for s, e in spans],
        "click_times": [";".join(times[s:e]) for s, e in spans],
        "probes": ["1" + "".join(probes[s:e]) for s, e in spans],
    }


def _record_csv(rec: TrialRecords):
    """simulate's CSV text, one piece per chunk of trials.

    Fields hold digits, '.', '-', '+', 'e' and ';' only, so none needs quoting.
    """
    for lo in range(0, len(rec), _RECORD_CHUNK):
        columns = _record_columns(rec, lo, min(lo + _RECORD_CHUNK, len(rec)))
        if lo == 0:
            yield ",".join(columns) + "\n"
        columns["confidence"] = map(_fmt, columns["confidence"])
        fields = zip(*(map(str, column) for column in columns.values()))
        yield "".join(",".join(row) + "\n" for row in fields)


def _record_json(rec: TrialRecords) -> str:
    """simulate's JSON text: one dict per trial, serialized at once."""
    columns = _record_columns(rec, 0, len(rec))
    rows = [dict(zip(columns, row)) for row in zip(*columns.values())]
    return json.dumps(rows, indent=2) + "\n"


# --- tests -----------------------------------------------------------------


def records(n_clicks, times, probes, true_state, hypothesis, confidence):
    """TrialRecords with the engine's dtypes from plain lists."""
    return TrialRecords(
        true_state=np.array(true_state, dtype=np.int64),
        hypothesis=np.array(hypothesis, dtype=np.int64),
        confidence=np.array(confidence, dtype=np.float64),
        click_offsets=np.concatenate(([0], np.cumsum(n_clicks, dtype=np.int64))),
        click_times=np.array(times, dtype=np.float64),
        probes=np.array(probes, dtype=np.int64),
    )


def assert_same_text(rec, chunk, monkeypatch):
    monkeypatch.setattr(pskrx.cli, "_RECORD_CHUNK", chunk)
    assert "".join(pskrx.cli._record_text(rec, "csv")) == "".join(_record_csv(rec))


def assert_same_json(rec, chunk, monkeypatch):
    monkeypatch.setattr(pskrx.cli, "_RECORD_CHUNK", chunk)
    assert "".join(pskrx.cli._record_text(rec, "json")) == _record_json(rec)


# with chunks of 3: trials 0 and 3 open a chunk without a click, 2 and 5
# close one without a click, 6..8 form a chunk with no click at all, and the
# last chunk is a single trial
EDGES = records(
    n_clicks=[0, 2, 0, 0, 1, 0, 0, 0, 0, 3],
    times=[0.125, 0.75, 3.2e-05, 1e-300, 0.5, 0.9999999999999999],
    probes=[2, 3, 4, 3, 1, 2],
    true_state=[1, 2, 3, 4, 1, 2, 3, 4, 1, 2],
    hypothesis=[1, 3, 3, 4, 2, 2, 1, 4, 1, 3],
    confidence=[1.0, 0.5, 0.3333333333333333, 1.0, 0.25, 1.0, 0.71022512, 1.0, 1.0, 2.5e-05],
)

# M = 16: probes of two digits, confidences of 17 significant digits
SIXTEEN = records(
    n_clicks=[3, 0, 4, 1],
    times=[0.01, 0.02, 0.03, 0.1, 0.2, 0.3, 0.4, 0.99],
    probes=[10, 16, 9, 11, 12, 13, 14, 15],
    true_state=[16, 1, 14, 9],
    hypothesis=[9, 1, 14, 15],
    confidence=[0.123456789012345678, 1.0, 0.99999999999999989, 0.0625],
)

SINGLE_TRIALS = [
    records([0], [], [], [2], [2], [1.0]),
    records([2], [4.5e-05, 0.5], [2, 3], [3], [1], [0.5]),
]


class TestAgainstReference:
    @pytest.mark.parametrize("chunk", [1, 2, 3, 4, 1 << 14])
    @pytest.mark.parametrize("rec", [EDGES, SIXTEEN], ids=["edges", "m16"])
    def test_hand_built_records(self, monkeypatch, rec, chunk):
        assert_same_text(rec, chunk, monkeypatch)

    @pytest.mark.parametrize("rec", SINGLE_TRIALS, ids=["silent", "two-clicks"])
    def test_single_trial(self, monkeypatch, rec):
        assert_same_text(rec, 3, monkeypatch)

    def test_exponent_form_and_unit_confidence(self, monkeypatch):
        # .17g writes 3.2e-05 in exponent form and a confidence of 1.0 as 1
        monkeypatch.setattr(pskrx.cli, "_RECORD_CHUNK", 3)
        text = "".join(pskrx.cli._record_text(EDGES, "csv")).splitlines()
        assert text[0] == "trial,true_state,hypothesis,confidence,correct,n_clicks,click_times,probes"
        assert text[1] == "0,1,1,1,1,0,,1"
        assert text[5] == "4,1,2,0.25,0,1,3.1999999999999999e-05,1;4"
        assert text[10] == "9,2,3,2.5000000000000001e-05,0,3,1e-300;0.5;0.99999999999999989,1;3;1;2"

    @given(
        M=st.integers(2, 16),
        alpha_sq=st.floats(0.0, 4.0),
        beta=st.one_of(st.just(0.0), st.floats(0.0, 1.5)),
        strategy=st.sampled_from(["cyclic", "bayes"]),
        imp=st.sampled_from([
            IDEAL,
            ImperfectionModel(eta=0.8, n_th=0.1, dead_time=0.02, dark_rate=0.01),
            ImperfectionModel(dead_time=0.3, dark_rate=1.5),
        ]),
        trials=st.integers(1, 40),
        seed=st.integers(0, 2**32),
        chunk=st.integers(1, 7),
    )
    @settings(max_examples=100, deadline=None)
    def test_seeded_runs(self, M, alpha_sq, beta, strategy, imp, trials, seed, chunk):
        rec = simulate_outcomes(
            PskAlphabet.from_power(M, alpha_sq), beta, strategy, imp, trials, seed
        )
        with pytest.MonkeyPatch.context() as mp:
            assert_same_text(rec, chunk, mp)


IMPERFECT = ImperfectionModel(eta=0.8, n_th=0.1, dead_time=0.02, dark_rate=0.01)


class TestJsonAgainstReference:
    # chunks of 1 and 5 divide EDGES' 10 trials exactly, 3 does not; SIXTEEN
    # has 4 trials
    @pytest.mark.parametrize("chunk", [1, 3, 5, 1 << 14])
    @pytest.mark.parametrize("rec", [EDGES, SIXTEEN], ids=["edges", "m16"])
    def test_hand_built_records(self, monkeypatch, rec, chunk):
        assert_same_json(rec, chunk, monkeypatch)

    @pytest.mark.parametrize("chunk", [1, 3, 1 << 14])
    @pytest.mark.parametrize("rec", SINGLE_TRIALS, ids=["silent", "two-clicks"])
    def test_single_trial(self, monkeypatch, rec, chunk):
        # one object and no comma after it
        assert_same_json(rec, chunk, monkeypatch)

    @pytest.mark.parametrize("chunk", [1, 3, 1 << 14])
    @pytest.mark.parametrize("trials", [1, 6, 7])
    @pytest.mark.parametrize("imp", [IDEAL, IMPERFECT], ids=["ideal", "imperfect"])
    @pytest.mark.parametrize("strategy", ["cyclic", "bayes"])
    def test_seeded_runs(self, monkeypatch, strategy, imp, trials, chunk):
        # cyclic confidences are exactly 1.0, which JSON writes as 1.0 and CSV as 1
        rec = simulate_outcomes(PskAlphabet.from_power(4, 1.0), 0.48, strategy, imp, trials, 9)
        assert_same_json(rec, chunk, monkeypatch)


# --- the float kernel ------------------------------------------------------


def assert_slots_format(x):
    x = np.asarray(x, dtype=np.float64)
    lead, digits = pskrx.cli._fmt_slots(x)
    assert ["%s%s" % pair for pair in zip(lead.tolist(), digits.tolist())] == [
        format(v, ".17g") for v in x.tolist()
    ]
    return lead.tolist(), digits.tolist()


# the doubles on both sides of each decade's edges
EDGE_NEIGHBOURS = [
    y for p in (1e-4, 1e-3, 1e-2, 0.1, 1.0) for y in (np.nextafter(p, 0.0), p, np.nextafter(p, 2.0))
]


class TestFloatSlots:
    @given(st.lists(st.floats(1e-4, 1.0, exclude_max=True), min_size=1, max_size=64))
    @settings(max_examples=300, deadline=None)
    def test_inside_the_decades(self, xs):
        _, digits = assert_slots_format(xs)
        assert all(isinstance(d, int) for d in digits)

    def test_decade_edges(self):
        assert_slots_format(EDGE_NEIGHBOURS)

    def test_trailing_zeros(self):
        lead, digits = assert_slots_format([0.5, 0.25, 0.0625, 0.1, 0.001, 1e-4, 0.30000000000000004])
        assert lead[:3] == ["0.", "0.", "0.0"] and digits[:3] == [5, 25, 625]

    def test_ties_round_half_to_even(self):
        # m / 2**q with m odd has one digit too many: the 18th is a 5, ending a tie
        rng = np.random.default_rng(17)
        for q, lo, hi in ((18, 26215, 262143), (19, 5243, 52428), (20, 1049, 10485), (21, 211, 2097)):
            odd = rng.integers(lo // 2, hi // 2, 200) * 2 + 1
            assert_slots_format(odd / 2.0**q)

    def test_fallback_values(self):
        lead, digits = assert_slots_format([1.0, 5e-324, 3e-05, 0.5])
        assert lead[:3] == ["1", "4.9406564584124654e-324", "3.0000000000000001e-05"]
        assert digits == ["", "", "", 5]

    def test_empty(self):
        assert assert_slots_format([]) == ([], [])
