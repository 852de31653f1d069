"""Scalar reference for the trial engine: one pulse at a time, in plain loops.

The package runs its receivers only as the block engine of
:mod:`pskrx.mc`, on (M, n) columns of trials.  This module replays one
trial with per-trial Python and per-hypothesis numpy, from the same
counter-based draws (the slot layout of :mod:`pskrx._rng`) and with the
same floating-point operations in the same order, so a test can ask for
the engine's records bit for bit.

*Cyclic probing* rotates 1 -> 2 -> ... -> M -> 1 on every click and is
memoryless in the click times; the final hypothesis is fixed by the
count alone: 1 + (clicks mod M).

*Bayesian probing* tracks the posterior over all M hypotheses as the
log weights of a :class:`PosteriorState`, their maximum 0.  Between
events each log weight gains the no-click survival term -n_k dt; at a
click it also gains the log click density log n_k, after which the
receiver probes the maximum-a-posteriori state (:func:`select_probe`,
ties to the smallest phase step from the current probe) and the maximum
is subtracted.  The final decision (at t = 1) includes the trailing
no-click term since the last event, and its confidence is the one
normalisation: 1 / sum_k exp(L_k - L_max), the M terms added left to
right, the order in which the engine adds its rows.

A trial's record is a :class:`TrialOutcome`; :func:`outcome` reads trial
i of the engine's :class:`~pskrx.mc.TrialRecords` as one, for comparing
the two paths trial by trial.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import reduce
from math import inf, log, sqrt
from operator import add

import numpy as np

from pskrx._rng import box_muller, slot_uniform, trial_keys
from pskrx.core import PskAlphabet, probe_relative_rates
from pskrx.mc import STRATEGIES, ImperfectionModel, TrialRecords, nominal_rate_table


@dataclass(frozen=True)
class Hypothesis:
    """Final receiver decision: a state index 1..M and its confidence.

    Confidence is the terminal posterior for Bayesian probing and 1.0
    for cyclic probing (which tracks no posterior).
    """

    state: int
    confidence: float = 1.0


@dataclass(frozen=True)
class TrialOutcome:
    """Full record of one simulated pulse."""

    true_state: int
    click_times: tuple[float, ...]
    probe_sequence: tuple[int, ...]
    hypothesis: Hypothesis
    correct: bool


def outcome(rec: TrialRecords, i: int) -> TrialOutcome:
    """Trial i of the engine's records; a negative i counts from the end."""
    i = range(len(rec))[i]  # IndexError and TypeError as for a list
    s, e = rec.click_offsets[i : i + 2].tolist()
    true_state = int(rec.true_state[i])
    hyp = Hypothesis(int(rec.hypothesis[i]), float(rec.confidence[i]))
    return TrialOutcome(
        true_state=true_state,
        click_times=tuple(rec.click_times[s:e].tolist()),
        probe_sequence=(1, *rec.probes[s:e].tolist()),
        hypothesis=hyp,
        correct=hyp.state == true_state,
    )


def weight_sum(w: np.ndarray) -> float:
    """One trial's posterior weights added left to right, as the engine adds its rows."""
    return reduce(add, w.tolist())


def rate_logs(rates: np.ndarray) -> np.ndarray:
    """The natural log of each rate, -inf for a zero rate."""
    return np.array([log(r) if r > 0.0 else -inf for r in rates.tolist()])


class TrialStream:
    """Per-trial random stream addressed by (master seed, trial index).

    Draws the slots of :func:`pskrx._rng.counter_uniform` with the layout
    documented in :mod:`pskrx._rng`, from the trial's key hashed once.
    Wait draws are indexed by an internal cursor so a scalar simulation
    consumes exactly the slots the vectorized engine would.
    """

    def __init__(self, master_seed: int, trial_index: int):
        self.master_seed = int(master_seed)
        self.trial_index = int(trial_index)
        self._key = trial_keys(self.master_seed, self.trial_index)
        self._next_wait = 0

    def _uniform(self, slot: int) -> float:
        return float(slot_uniform(self._key, slot))

    def true_state_uniform(self) -> float:
        return self._uniform(0)

    def offset_normals(self) -> tuple[float, float]:
        z1, z2 = box_muller(self._uniform(1), self._uniform(2))
        return float(z1), float(z2)

    def wait_uniform(self) -> float:
        u = self._uniform(3 + self._next_wait)
        self._next_wait += 1
        return u


def displaced_rates(alphabet: PskAlphabet, probe: int, beta: float) -> np.ndarray:
    """Mean photon numbers of all M states while probing state ``probe`` (1-based).

    rates[k-1] = |alpha e^{i theta_k} - (alpha+beta) e^{i theta_probe}|^2.
    """
    return np.roll(probe_relative_rates(alphabet, beta), probe - 1)


def cyclic_finalize(click_count: int, M: int) -> Hypothesis:
    """Hypothesis after the pulse: the state probed when it ended."""
    if click_count < 0:
        raise ValueError(f"click count must be >= 0, got {click_count}")
    return Hypothesis(1 + click_count % M, 1.0)


@dataclass(frozen=True)
class PosteriorState:
    """Bayesian-probing state between events.

    ``log_weights[k-1]`` is the log weight of hypothesis k, the largest
    0 (a weight of 0 is -inf); ``probe`` the state currently displaced
    nearest the vacuum; ``last_event_time`` the time from which the next
    exposure interval is measured.
    """

    log_weights: np.ndarray
    probe: int
    last_event_time: float = 0.0
    click_count: int = 0

    def __post_init__(self):
        lw = np.asarray(self.log_weights, dtype=float)
        object.__setattr__(self, "log_weights", lw)
        if lw.ndim != 1 or len(lw) < 2:
            raise ValueError("posterior needs one entry per state")
        if np.isnan(lw).any() or lw.max() != 0.0:
            raise ValueError("log weights must be numbers whose maximum is 0")
        if not 1 <= self.probe <= len(lw):
            raise ValueError(f"probe {self.probe} outside 1..{len(lw)}")

    @property
    def probs(self) -> np.ndarray:
        """The posterior probabilities, exp(L_k) / sum_j exp(L_j)."""
        w = np.exp(self.log_weights)
        return w / weight_sum(w)


def initial_posterior(M: int) -> PosteriorState:
    """Symmetric priors at t = 0, probing state 1."""
    return PosteriorState(np.zeros(M), probe=1)


def select_probe(weights: np.ndarray, current_probe: int) -> int:
    """Maximum-a-posteriori state, ties broken by the smallest phase step.

    ``weights`` are the posterior's weights or log weights.  Candidates
    are scanned in order of (k - current_probe) mod M, so the first
    maximum encountered is the cheapest feedback action; in particular
    the current probe wins any tie it is part of.
    """
    M = len(weights)
    order = (current_probe - 1 + np.arange(M)) % M
    return int(order[np.argmax(weights[order])]) + 1


def _survived(ps: PosteriorState, t: float, rates: np.ndarray) -> np.ndarray:
    """Log weights at t after the click-free exposure since the last event, unshifted.

    A time equal to the last event (an exponential wait can round to
    zero) is accepted as zero exposure; going backward is an error.
    """
    if t < ps.last_event_time:
        raise ValueError(f"time {t} before last event {ps.last_event_time}")
    # rates * -dt is -rates * dt to the bit: rounding is sign-symmetric
    return rates * (ps.last_event_time - t) + ps.log_weights


def bayes_click_update(ps: PosteriorState, t: float, rates: np.ndarray) -> PosteriorState:
    """Posterior after a detection at time t under the given rates.

    Each hypothesis's log weight gains its inter-event log-likelihood
    log n_k - n_k dt, the probe moves to the new MAP state, and the
    maximum is subtracted.  A click with zero likelihood under every
    hypothesis still held (every log weight -inf after it) leaves the
    posterior and the probe unchanged; only the clock and the click
    count advance.
    """
    lw = _survived(ps, t, rates) + rate_logs(rates)
    top = lw.max()
    if top == -inf:
        return replace(ps, last_event_time=t, click_count=ps.click_count + 1)
    return PosteriorState(
        log_weights=lw - top,
        probe=select_probe(lw, ps.probe),
        last_event_time=t,
        click_count=ps.click_count + 1,
    )


def bayes_silence_update(ps: PosteriorState, t_end: float, rates: np.ndarray) -> PosteriorState:
    """Posterior after a click-free interval ending at t_end.

    Each log weight gains its survival term -n_k dt only, and the maximum
    is subtracted; silence triggers no feedback, so the probe stays put.
    """
    lw = _survived(ps, t_end, rates)
    return replace(ps, log_weights=lw - lw.max(), last_event_time=t_end)


def bayes_finalize(ps: PosteriorState, rates: np.ndarray) -> Hypothesis:
    """Decision at the end of the pulse: the MAP state after the trailing survival.

    The survival term applies also for dt = 0 (a pulse that ends in a
    blind window), as in the engine.  The confidence is the decision's
    posterior probability, 1 / sum_k exp(L_k - L_max).
    """
    lw = _survived(ps, 1.0, rates)
    state = select_probe(lw, ps.probe)
    return Hypothesis(state, 1.0 / weight_sum(np.exp(lw - lw[state - 1])))


def sample_thermal_offset(n_th: float, trial_rng: TrialStream) -> complex:
    """One realized thermal amplitude offset for a pulse.

    Independent zero-mean Gaussian quadratures of variance n_th/2, so the
    offset adds n_th photons on average.
    """
    if not n_th >= 0.0:
        raise ValueError(f"thermal photon number {n_th} must be >= 0")
    z1, z2 = trial_rng.offset_normals()
    sigma = sqrt(n_th / 2.0)
    return complex(sigma * z1, sigma * z2)


def simulate_trial(
    true_state: int,
    alphabet: PskAlphabet,
    beta: float,
    strategy: str,
    imperfections: ImperfectionModel,
    trial_rng: TrialStream,
) -> TrialOutcome:
    """Simulate one pulse, as the block engine runs trial ``trial_rng.trial_index``."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; use one of {STRATEGIES}")
    M = alphabet.M
    if not 1 <= true_state <= M:
        raise ValueError(f"true state {true_state} outside 1..{M}")
    imp = imperfections
    amps = alphabet.amplitudes
    recv = -(alphabet.alpha + beta) * np.exp(1j * alphabet.phases)
    nominal = nominal_rate_table(alphabet, beta, imp)
    eps = sample_thermal_offset(imp.n_th, trial_rng)

    ps = initial_posterior(M) if strategy == "bayes" else None
    probe = 1
    count = 0
    resume = 0.0
    click_times: list[float] = []
    probes: list[int] = [1]

    while resume < 1.0:
        f = amps[true_state - 1] + eps + recv[probe - 1]
        # products, not scalar ** 2: libm pow may round x**2 differently
        # from the x*x the array square computes
        rate = imp.eta * (f.real * f.real + f.imag * f.imag) + imp.dark_rate
        u = trial_rng.wait_uniform()
        with np.errstate(divide="ignore", over="ignore"):
            t = resume + -np.log(u) / rate
        if not t < 1.0:
            break
        if strategy == "bayes":
            rates = nominal[(np.arange(M) - (probe - 1)) % M]
            ps = bayes_click_update(ps, float(t), rates)
            probe = ps.probe
        count += 1
        if strategy == "cyclic":
            probe = 1 + count % M
        click_times.append(float(t))
        probes.append(probe)
        resume = min(float(t) + imp.dead_time, 1.0)
        if strategy == "bayes":
            ps = replace(ps, last_event_time=resume)

    if strategy == "bayes":
        rates = nominal[(np.arange(M) - (probe - 1)) % M]
        hyp = bayes_finalize(ps, rates)
    else:
        hyp = cyclic_finalize(count, M)
    return TrialOutcome(
        true_state=true_state,
        click_times=tuple(click_times),
        probe_sequence=tuple(probes),
        hypothesis=hyp,
        correct=hyp.state == true_state,
    )
