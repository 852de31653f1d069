"""Monte Carlo trial engine with deterministic, worker-independent runs.

A trial simulates one pulse on [0, 1]:

1. one thermal amplitude offset is drawn per pulse (independent
   Gaussian quadratures of variance n_th/2 each -- noise bandwidth of
   the order of the repetition rate, so constant within the pulse);
2. while probing state p the detector clicks at rate
   eta * |alpha_k + eps + d_p|^2 + dark_rate;
3. inter-click waits are exponential at the current rate (the rate only
   changes at recorded clicks, so memorylessness applies);
4. each recorded click triggers the strategy's feedback immediately and
   blinds the detector for ``dead_time`` (arrivals in the blind window
   are lost; the next recorded click is resume + Exp(rate));
5. at t = 1 the strategy finalizes.

Receiver knowledge: Bayesian updates use the *nominal* rates
eta * n_k + dark_rate (the receiver is calibrated for its efficiency
and dark counts) with exposure times that exclude blind windows (the
receiver knows its own detector); the realized thermal offset is *not*
known to the receiver, so excess noise acts purely as a channel
impairment.  A click with zero likelihood under every hypothesis the
receiver still holds (every state of nonzero posterior has nominal
rate 0 -- e.g. a thermal click while nulling the last surviving
hypothesis at beta = 0, or any click when every nominal rate is zero)
carries no usable information and leaves the posterior and the probe
unchanged.  A posterior that still turns non-finite (a likelihood that
underflows under every held hypothesis) raises
:class:`~pskrx.errors.PrecisionError`; no NaN is returned.

Randomness is addressed per trial through counter-based streams
(see :mod:`pskrx._rng`): trial i's r-th wait is slot 3 + r of trial i
whichever block of trials it runs in.  So the scalar
:func:`simulate_trial` reproduces exactly the trial the vectorized
engine runs, and :func:`estimate_errors` may cut its trials into
blocks sized for the worker count and hand them to any worker without
changing a bit of its result.  :func:`estimate_errors` evaluates
several surpluses in one pass: each block of trials draws its true
states and thermal offsets once and runs every surplus on them (common
random numbers); :func:`estimate_error` is its one-surplus case.  A
:class:`WorkerPool` runs the blocks, and one pool can serve every call
of a command.  :func:`simulate_outcomes` runs the same trials in
process and keeps the engine's columns as :class:`TrialRecords`.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack, nullcontext
from dataclasses import dataclass
from math import sqrt

import numpy as np

from ._rng import TrialStream, box_muller, counter_uniform
from .core import PskAlphabet, probe_relative_rates
from .errors import PrecisionError
from .strategy import (
    Hypothesis,
    PosteriorState,
    bayes_click_update,
    bayes_finalize,
    cyclic_finalize,
    initial_posterior,
)

_BLOCK = 1 << 15
# several workers get about this many blocks each, so none idles long at the end
_BLOCKS_PER_WORKER = 4
# ... but no block below this size: a short call stays one block, run in process
_MIN_BLOCK = 1 << 12

STRATEGIES = ("cyclic", "bayes")


@dataclass(frozen=True)
class ImperfectionModel:
    """Detector and channel imperfections; defaults are ideal.

    eta: quantum efficiency of the photon counter in [0, 1].
    n_th: mean thermal photons per pulse (excess noise), >= 0.
    dead_time: post-click blind window as a fraction of the pulse, in [0, 1).
    dark_rate: mean dark counts per pulse, >= 0.
    """

    eta: float = 1.0
    n_th: float = 0.0
    dead_time: float = 0.0
    dark_rate: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"quantum efficiency {self.eta} outside [0, 1]")
        if not self.n_th >= 0.0:
            raise ValueError(f"thermal photon number {self.n_th} must be >= 0")
        if not 0.0 <= self.dead_time < 1.0:
            raise ValueError(f"dead time {self.dead_time} outside [0, 1)")
        if not self.dark_rate >= 0.0:
            raise ValueError(f"dark rate {self.dark_rate} must be >= 0")


IDEAL = ImperfectionModel()


@dataclass(frozen=True)
class TrialOutcome:
    """Full record of one simulated pulse."""

    true_state: int
    click_times: tuple[float, ...]
    probe_sequence: tuple[int, ...]
    hypothesis: Hypothesis
    correct: bool


@dataclass(frozen=True, eq=False)
class TrialRecords:
    """Full records of trials 0..n-1, one flat array per field, in trial order.

    States are 1-based.  Trial i clicked at
    ``click_times[click_offsets[i]:click_offsets[i + 1]]`` and probed
    ``probes`` of the same slice after those clicks; every trial starts
    by probing state 1.  The records form a read-only sequence of
    :class:`TrialOutcome`: ``len``, integer indexing (negative indices
    count from the end) and iteration build one outcome at a time.
    """

    true_state: np.ndarray
    hypothesis: np.ndarray
    confidence: np.ndarray
    click_offsets: np.ndarray
    click_times: np.ndarray
    probes: np.ndarray

    def __len__(self) -> int:
        return len(self.true_state)

    def __getitem__(self, i: int) -> TrialOutcome:
        i = range(len(self))[i]  # IndexError and TypeError as for a list
        s, e = self.click_offsets[i : i + 2].tolist()
        true_state = int(self.true_state[i])
        hyp = Hypothesis(int(self.hypothesis[i]), float(self.confidence[i]))
        return TrialOutcome(
            true_state=true_state,
            click_times=tuple(self.click_times[s:e].tolist()),
            probe_sequence=(1, *self.probes[s:e].tolist()),
            hypothesis=hyp,
            correct=hyp.state == true_state,
        )

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))


@dataclass(frozen=True)
class ErrorEstimate:
    """Estimated average error probability with binomial standard error."""

    p_err: float
    std_err: float
    trials: int
    seed: int


def _check_strategy(strategy: str) -> None:
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; use one of {STRATEGIES}")


def nominal_rate_table(
    alphabet: PskAlphabet, beta: float, imperfections: ImperfectionModel
) -> np.ndarray:
    """Click rates the receiver assumes, by phase offset from the probe.

    eta * n_d + dark_rate; never below eta * n_d since dark counts only
    add to the optical rate.
    """
    return imperfections.eta * probe_relative_rates(alphabet, beta) + imperfections.dark_rate


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
    """Simulate one pulse; the scalar reference for the block engine."""
    _check_strategy(strategy)
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
            ps = PosteriorState(ps.probs, ps.probe, resume, ps.click_count)

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


# ---------------------------------------------------------------------------
# vectorized block engine
# ---------------------------------------------------------------------------


def _map_pick(w: np.ndarray, probe0: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Vectorized MAP pick with the smallest-phase-step tie-break.

    ``order[p]`` lists the states by phase step from probe p, so the
    first maximum of the posterior along it is the pick.
    """
    rows = np.arange(len(w))
    cand = order[probe0]
    step = np.argmax(w[rows[:, None], cand], axis=1)
    return cand[rows, step]


def _run_block(
    alphabet: PskAlphabet,
    betas: tuple[float, ...],
    strategy: str,
    imp: ImperfectionModel,
    master_seed: int,
    lo: int,
    hi: int,
    collect: bool = False,
) -> list:
    """Simulate trials [lo, hi) at every surplus in ``betas``.

    The true states and thermal offsets (slots 0-2) are drawn once and
    every surplus runs on them.  Returns one (n_err, payload) per
    surplus; the payload is None unless ``collect``, else the block's
    columns (true state, hypothesis, confidence, click count, click
    times, probe after each click), states 1-based, clicks in trial order.
    """
    M = alphabet.M
    idx = np.arange(lo, hi, dtype=np.uint64)
    u0 = counter_uniform(master_seed, idx, 0)
    true0 = np.minimum((u0 * M).astype(np.int64), M - 1)
    field0 = alphabet.amplitudes[true0]
    if imp.n_th > 0.0:
        # without excess noise the offset is exactly zero: slots 1-2 go unread
        z1, z2 = box_muller(
            counter_uniform(master_seed, idx, 1), counter_uniform(master_seed, idx, 2)
        )
        sigma = sqrt(imp.n_th / 2.0)
        field0 = field0 + (sigma * z1 + 1j * (sigma * z2))
    step = np.arange(M)
    # order[p, j]: the state j phase steps ahead of probe p
    order = (step[:, None] + step[None, :]) % M
    return [
        _run_surplus(alphabet, beta, strategy, imp, master_seed, idx, true0, field0, order, collect)
        for beta in betas
    ]


def _run_surplus(alphabet, beta, strategy, imp, master_seed, idx, true0, field0, order, collect):
    """One surplus on the block's shared draws; see :func:`_run_block`."""
    M = alphabet.M
    n = len(idx)
    bayes = strategy == "bayes"
    recv = -(alphabet.alpha + beta) * np.exp(1j * alphabet.phases)
    # rates_by_probe[p, k]: nominal rate of state k while probing p
    k = np.arange(M)
    rates_by_probe = nominal_rate_table(alphabet, beta, imp)[(k[None, :] - k[:, None]) % M]

    probe0 = np.zeros(n, dtype=np.int64)
    count = np.zeros(n, dtype=np.int64)
    resume = np.zeros(n)
    w = np.full((n, M), 1.0 / M) if bayes else None
    hyp0 = np.empty(n, dtype=np.int64)
    conf = np.ones(n)

    clicks_trial = [np.empty(0, dtype=np.int64)]
    clicks_time = [np.empty(0)]
    clicks_probe = [np.empty(0, dtype=np.int64)]

    def _finalize(rows):
        if not rows.size:
            return
        if bayes:
            dt = 1.0 - resume[rows]
            rates = rates_by_probe[probe0[rows]]
            wf = w[rows] * np.exp(-rates * dt[:, None])
            wf /= wf.sum(axis=1, keepdims=True)
            pick = _map_pick(wf, probe0[rows], order)
            hyp0[rows] = pick
            conf[rows] = wf[np.arange(rows.size), pick]
        else:
            hyp0[rows] = count[rows] % M

    act = np.arange(n)
    rnd = 0
    while act.size:
        f = field0[act] + recv[probe0[act]]
        rate = imp.eta * (f.real**2 + f.imag**2) + imp.dark_rate
        u = counter_uniform(master_seed, idx[act], 3 + rnd)
        # a zero or tiny rate means a wait past the pulse's end: no click
        with np.errstate(divide="ignore", over="ignore"):
            t_click = resume[act] + -np.log(u) / rate
        clicked = t_click < 1.0
        _finalize(act[~clicked])

        pos = act[clicked]
        if pos.size:
            tc = t_click[clicked]
            if bayes:
                rates = rates_by_probe[probe0[pos]]
                lik = w[pos] * rates
                wc = lik * np.exp(-rates * (tc - resume[pos])[:, None])
                total = wc.sum(axis=1, keepdims=True)
                upd = pos
                if not total.all():
                    # a click impossible under every hypothesis still
                    # held leaves the posterior and the probe unchanged
                    held = lik.any(axis=1)
                    upd, wc, total = pos[held], wc[held], total[held]
                # a total that underflowed to 0 leaves NaN, refused below
                with np.errstate(invalid="ignore"):
                    wc /= total
                w[upd] = wc
                probe0[upd] = _map_pick(wc, probe0[upd], order)
            count[pos] += 1
            if not bayes:
                probe0[pos] = count[pos] % M
            resume[pos] = np.minimum(tc + imp.dead_time, 1.0)
            if collect:
                clicks_trial.append(pos)
                clicks_time.append(tc)
                clicks_probe.append(probe0[pos] + 1)
            blocked = resume[pos] >= 1.0
            _finalize(pos[blocked])
            pos = pos[~blocked]
        act = pos
        rnd += 1

    bad = np.count_nonzero(~np.isfinite(conf))
    if bad:
        raise PrecisionError(
            f"{bad} of {n} trials ended with a non-finite posterior "
            f"(M={M}, beta={beta!r}): a click likelihood underflowed"
        )
    n_err = int(np.sum(hyp0 != true0))
    if not collect:
        return n_err, None
    # clicks were collected round by round and each trial clicks at most
    # once a round, so a stable sort by trial puts each trial's in time order
    order = np.argsort(np.concatenate(clicks_trial), kind="stable")
    payload = (
        true0 + 1,
        hyp0 + 1,
        conf,
        count,
        np.concatenate(clicks_time)[order],
        np.concatenate(clicks_probe)[order],
    )
    return n_err, payload


def _block_errors(args) -> list[int]:
    return [n_err for n_err, _ in _run_block(*args)]


def _trial_blocks(trials: int, workers: int) -> list[tuple[int, int]]:
    """Contiguous spans [lo, hi) of near-equal size that cover trials 0..trials-1.

    One worker gets blocks of up to ``_BLOCK`` trials.  Several get about
    ``_BLOCKS_PER_WORKER`` blocks each, within [``_MIN_BLOCK``, ``_BLOCK``]
    trials, so the last blocks to finish keep every worker busy.
    """
    size = _BLOCK
    if workers > 1:
        size = min(_BLOCK, max(_MIN_BLOCK, -(-trials // (_BLOCKS_PER_WORKER * workers))))
    n = -(-trials // size)
    return [(i * trials // n, (i + 1) * trials // n) for i in range(n)]


class WorkerPool:
    """Worker processes for the trial engine, shared by every call given the pool.

    A context manager.  The processes start on the first call that has
    more than one block of trials, and only if ``workers > 1``; they stop
    when the context exits, also on an exception.  Blocks run in any
    worker and in any order: the result cannot depend on it.
    """

    def __init__(self, workers: int):
        self.workers = workers
        self._stack = ExitStack()
        self._executor = None

    def __enter__(self) -> WorkerPool:
        return self

    def __exit__(self, *exc) -> None:
        self._executor = None
        self._stack.close()

    def map(self, fn, jobs: list) -> list:
        """``[fn(job) for job in jobs]``, in worker processes when that can pay."""
        if self.workers < 2 or len(jobs) < 2:
            return [fn(job) for job in jobs]
        if self._executor is None:
            # the module attribute, so a tracer or test that replaces it sees every start
            pool = ProcessPoolExecutor(max_workers=self.workers)
            self._executor = self._stack.enter_context(pool)
        return list(self._executor.map(fn, jobs, chunksize=1))


def estimate_errors(
    alphabet: PskAlphabet,
    betas,
    strategy: str,
    imperfections: ImperfectionModel | None,
    trials: int,
    master_seed: int,
    workers: int | WorkerPool = 1,
) -> list[ErrorEstimate]:
    """Average error probability over equiprobable true states, per surplus.

    Every surplus runs on the same trials (common random numbers) in one
    pass: each block of trials is one job that carries all the surpluses.
    ``workers`` is a :class:`WorkerPool` to run the jobs in, or a worker
    count for a pool of this call alone.  The blocks are derived from
    ``trials`` and the worker count, but every random draw is addressed
    by (master_seed, trial index, slot), so neither the partition nor the
    scheduling can change any outcome, and aggregation is plain counting:
    the result is bit-identical for fixed (master_seed, trials) whatever
    ``workers`` is.  Each estimate equals the one :func:`estimate_error`
    gives for its surplus alone.
    """
    _check_strategy(strategy)
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    betas = tuple(float(b) for b in betas)
    if not betas:
        raise ValueError("need at least one surplus")
    imp = imperfections if imperfections is not None else IDEAL
    shared = isinstance(workers, WorkerPool)
    with (nullcontext(workers) if shared else WorkerPool(workers)) as pool:
        jobs = [
            (alphabet, betas, strategy, imp, master_seed, lo, hi)
            for lo, hi in _trial_blocks(trials, pool.workers)
        ]
        per_block = pool.map(_block_errors, jobs)
    estimates = []
    for n_err in map(sum, zip(*per_block)):
        p = n_err / trials
        estimates.append(
            ErrorEstimate(
                p_err=p,
                std_err=sqrt(p * (1.0 - p) / trials),
                trials=trials,
                seed=master_seed,
            )
        )
    return estimates


def estimate_error(
    alphabet: PskAlphabet,
    beta: float,
    strategy: str,
    imperfections: ImperfectionModel | None,
    trials: int,
    master_seed: int,
    workers: int | WorkerPool = 1,
) -> ErrorEstimate:
    """Average error probability at one surplus; see :func:`estimate_errors`."""
    return estimate_errors(
        alphabet, (beta,), strategy, imperfections, trials, master_seed, workers
    )[0]


def simulate_outcomes(
    alphabet: PskAlphabet,
    beta: float,
    strategy: str,
    imperfections: ImperfectionModel | None,
    trials: int,
    master_seed: int,
) -> TrialRecords:
    """Full records of trials 0..trials-1, the ones :func:`estimate_error` counts.

    Runs in this process, in blocks of ``_BLOCK`` trials.
    """
    _check_strategy(strategy)
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    imp = imperfections if imperfections is not None else IDEAL
    blocks = []
    for lo in range(0, trials, _BLOCK):
        hi = min(lo + _BLOCK, trials)
        [(_, payload)] = _run_block(
            alphabet, (beta,), strategy, imp, master_seed, lo, hi, collect=True
        )
        blocks.append(payload)
    true_state, hypothesis, confidence, count, click_times, probes = map(
        np.concatenate, zip(*blocks)
    )
    return TrialRecords(
        true_state=true_state,
        hypothesis=hypothesis,
        confidence=confidence,
        click_offsets=np.concatenate(([0], np.cumsum(count))),
        click_times=click_times,
        probes=probes,
    )
