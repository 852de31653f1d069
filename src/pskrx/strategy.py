"""Probing strategies: deterministic state machines fed by click times.

Both receivers start by probing state 1 and change the displacement
only at detection events.

*Cyclic probing* rotates 1 -> 2 -> ... -> M -> 1 on every click and is
memoryless in the click times; the final hypothesis is fixed by the
count alone: 1 + (clicks mod M).

*Bayesian probing* tracks the posterior over all M hypotheses.  Between
events the posterior is reweighted by the no-click survival factors
e^{-n_k dt}; at a click it is additionally reweighted by the click
densities n_k, after which the receiver switches to probing the
maximum-a-posteriori state.  The final decision (at t = 1) includes the
trailing no-click factor since the last event.  A click that is
impossible under every hypothesis still held (all of them have nominal
rate 0) leaves the posterior and the probe unchanged.

Tie-breaking: when several hypotheses share the maximal posterior --
an exact tie occurs between mirror-symmetric states -- the receiver
picks the candidate reachable with the smallest nonnegative phase-shift
increment from the current probe, i.e. the smallest (k - probe) mod M.
This is deterministic and minimizes feedback actuation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import PrecisionError

_NORMALIZATION_TOL = 1e-12


@dataclass(frozen=True)
class Hypothesis:
    """Final receiver decision: a state index 1..M and its confidence.

    Confidence is the terminal posterior for Bayesian probing and 1.0
    for cyclic probing (which tracks no posterior).
    """

    state: int
    confidence: float = 1.0


def cyclic_finalize(click_count: int, M: int) -> Hypothesis:
    """Hypothesis after the pulse: the state probed when it ended."""
    if click_count < 0:
        raise ValueError(f"click count must be >= 0, got {click_count}")
    return Hypothesis(1 + click_count % M, 1.0)


@dataclass(frozen=True)
class PosteriorState:
    """Bayesian-probing state between events.

    ``probs[k-1]`` is the posterior of hypothesis k; ``probe`` the state
    currently displaced nearest the vacuum; ``last_event_time`` the time
    from which the next exposure interval is measured.
    """

    probs: np.ndarray
    probe: int
    last_event_time: float = 0.0
    click_count: int = 0

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "probs", probs)
        if probs.ndim != 1 or len(probs) < 2:
            raise ValueError("posterior needs one entry per state")
        if (probs < 0).any() or abs(probs.sum() - 1.0) > _NORMALIZATION_TOL:
            raise ValueError("posterior must be nonnegative and sum to 1")
        if not 1 <= self.probe <= len(probs):
            raise ValueError(f"probe {self.probe} outside 1..{len(probs)}")


def initial_posterior(M: int) -> PosteriorState:
    """Symmetric priors at t = 0, probing state 1."""
    return PosteriorState(np.full(M, 1.0 / M), probe=1)


def select_probe(probs: np.ndarray, current_probe: int) -> int:
    """Maximum-a-posteriori state, ties broken by the smallest phase step.

    Candidates are scanned in order of (k - current_probe) mod M, so the
    first maximum encountered is the cheapest feedback action; in
    particular the current probe wins any tie it is part of.
    """
    M = len(probs)
    order = (current_probe - 1 + np.arange(M)) % M
    return int(order[np.argmax(probs[order])]) + 1


def bayes_click_update(
    ps: PosteriorState, t: float, rates: np.ndarray
) -> PosteriorState:
    """Posterior after a detection at time t under the given rates.

    Each hypothesis is reweighted by its inter-event likelihood
    n_k e^{-n_k dt} (survival since the last event times the click
    density), then the probe moves to the new MAP state.  A click with
    zero likelihood under every hypothesis still held (every state of
    nonzero posterior has nominal rate 0) carries no usable information:
    the posterior and the probe stay unchanged and only the clock and the
    click count advance.  A click time equal to the last event (an
    exponential wait can round to zero) is accepted as zero exposure;
    going backward is an error.
    """
    if t < ps.last_event_time:
        raise ValueError(
            f"click time {t} before last event {ps.last_event_time}"
        )
    dt = t - ps.last_event_time
    lik = ps.probs * rates
    if not lik.any():
        # impossible under every hypothesis still held: no information
        return replace(ps, last_event_time=t, click_count=ps.click_count + 1)
    w = lik * np.exp(-rates * dt)
    total = w.sum()
    if not total > 0.0:
        raise PrecisionError(f"click likelihood underflows at t={t} under every hypothesis")
    w /= total
    return PosteriorState(
        probs=w,
        probe=select_probe(w, ps.probe),
        last_event_time=t,
        click_count=ps.click_count + 1,
    )


def bayes_silence_update(
    ps: PosteriorState, t_end: float, rates: np.ndarray
) -> PosteriorState:
    """Posterior after a click-free interval ending at t_end.

    Reweights by the survival factors e^{-n_k dt} only; silence triggers
    no feedback, so the probe stays put.  The posterior is renormalized
    even for dt = 0 (a pulse that ends in a blind window), as the block
    engine does, so both paths give the same bits.
    """
    if t_end < ps.last_event_time:
        raise ValueError(
            f"end time {t_end} before last event {ps.last_event_time}"
        )
    dt = t_end - ps.last_event_time
    w = ps.probs * np.exp(-rates * dt)
    total = w.sum()
    if not total > 0.0:
        raise PrecisionError(f"survival underflows by t={t_end} under every hypothesis")
    w /= total
    return replace(ps, probs=w, last_event_time=t_end)


def bayes_finalize(ps: PosteriorState, rates: np.ndarray) -> Hypothesis:
    """Decision at the end of the pulse.

    Applies the trailing no-click survival to t = 1, then returns the
    MAP state (same tie-break as probe selection) with its posterior as
    the confidence.
    """
    final = bayes_silence_update(ps, 1.0, rates)
    state = select_probe(final.probs, final.probe)
    return Hypothesis(state, float(final.probs[state - 1]))
