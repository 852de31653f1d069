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

The block engine keeps the Bayesian posterior hypothesis-major: one
(M, n) array whose row k holds state k's weight in each of the n trials
still running.  With M of 2 to a few dozen, every step of the click
loop (likelihoods, normalisation, the MAP pick with its tie-break) is
then a few operations on whole rows of n values, not a per-trial
operation on M values.  The normaliser adds the rows in the pairwise
order numpy uses to sum one trial's M weights (:func:`_row_sum`).  A
plain sum over the rows would round differently for M >= 8: the
engine's posteriors would part from the scalar path's bits, and seeded
outputs from the bits they had with a trial-major posterior.

The rest of a running trial's state is compacted the same way and kept
column-aligned with the posterior.  One int64 array holds each trial's
position in the block, its RNG key (hashed once per block; each round
finishes one slot from it), its probe, its click count and, without
excess noise, its true state; one float row holds its resume time.  A
round reads them as contiguous rows and, when trials finish, shrinks
every array with one take of the columns kept: nothing is gathered from
or scattered back to full-length per-trial arrays.  A trial's
hypothesis, confidence and click count are written once, when it
finishes, so no round writes state that a later round reads back by
index.  The trials that never click all hold the prior at probe 0 from
t = 0, so one column gives their decision.  Without excess noise a
trial's true click rate is one lookup in an (M, M) table of true state
and probe, built with the expression the scalar path evaluates; with
it, the trial's offset field rides along as two more float rows.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack, nullcontext
from dataclasses import dataclass
from math import sqrt

import numpy as np

from ._rng import TrialStream, box_muller, slot_uniform, trial_keys
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


def _row_sum(x: np.ndarray) -> np.ndarray:
    """``x.sum(axis=0)`` of an (M, n) array, bit for bit as numpy sums one row.

    numpy reduces a contiguous run of M values pairwise: in sequence for
    M < 8, in eight interleaved accumulators up to 128 values, and by
    halving above that.  Adding whole rows in that order gives each
    column the bits that ``x.T.sum(axis=1)`` or a 1-D ``.sum()`` of it
    gives, where a plain ``x.sum(axis=0)`` would add in sequence.
    """
    m = len(x)
    if m < 8:
        total = x[0].copy()
        for row in x[1:]:
            total += row
        return total
    if m > 128:
        half = m // 2 - (m // 2) % 8
        return _row_sum(x[:half]) + _row_sum(x[half:])
    tail = m - m % 8
    acc = x[:8]
    if tail > 8:
        acc = acc + x[8:16]
        for i in range(16, tail, 8):
            acc += x[i : i + 8]
    total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
    for row in x[tail:]:
        total += row
    return total


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

    Each trial's key is hashed once; the true states and thermal offsets
    (slots 0-2) are drawn once and every surplus runs on them.  Returns
    one (n_err, payload) per surplus; the payload is None unless
    ``collect``, else the block's columns (true state, hypothesis,
    confidence, click count, click times, probe after each click), states
    1-based, clicks in trial order.
    """
    M = alphabet.M
    keys = trial_keys(master_seed, np.arange(lo, hi, dtype=np.uint64))
    true0 = np.minimum((slot_uniform(keys, 0) * M).astype(np.int64), M - 1)
    field0 = None
    if imp.n_th > 0.0:
        # without excess noise the offset is exactly zero: slots 1-2 go unread
        z1, z2 = box_muller(slot_uniform(keys, 1), slot_uniform(keys, 2))
        sigma = sqrt(imp.n_th / 2.0)
        field0 = alphabet.amplitudes[true0] + (sigma * z1 + 1j * (sigma * z2))
    return [
        _run_surplus(alphabet, beta, strategy, imp, keys, true0, field0, collect)
        for beta in betas
    ]


def _run_surplus(alphabet, beta, strategy, imp, keys, true0, field0, collect):
    """One surplus on the block's shared draws; see :func:`_run_block`.

    ``field0`` is each trial's amplitude with its thermal offset, or None
    when there is no offset.
    """
    M = alphabet.M
    n = len(keys)
    bayes = strategy == "bayes"
    recv = -(alphabet.alpha + beta) * np.exp(1j * alphabet.phases)
    # steps[k, p]: phase steps from probe p ahead to state k, in the
    # narrowest integer type that holds 2M (the MAP pick's arithmetic);
    # rate_table[k, p]: nominal rate of state k while probing p
    k = np.arange(M)
    steps = ((k[:, None] - k[None, :]) % M).astype(np.min_scalar_type(2 * M))
    rate_table = nominal_rate_table(alphabet, beta, imp)[steps]
    no_max = steps.dtype.type(M)

    # outputs, each written once, when its trial finishes
    hyp0 = np.empty(n, dtype=np.int64)
    conf = np.ones(n)
    count = np.zeros(n, dtype=np.int64)
    clicks_trial = [np.empty(0, dtype=np.int64)]
    clicks_time = [np.empty(0)]
    clicks_probe = [np.empty(0, dtype=np.int64)]

    # the state of the trials still running, column j for the j-th of them:
    # ints rows trial (position in the block), key, probe, click count and,
    # without an offset, true state * M; reals rows resume time and, with an
    # offset, the field's real and imaginary parts; w[k, j] the posterior
    # weight of state k
    ints = np.zeros((5 if field0 is None else 4, n), dtype=np.int64)
    ints[0] = np.arange(n)
    ints[1] = keys.view(np.int64)
    if field0 is None:
        # the true click rate of state k probed at p is true_rate[k * M + p]
        f = alphabet.amplitudes[:, None] + recv
        true_rate = (imp.eta * (f.real**2 + f.imag**2) + imp.dark_rate).ravel()
        ints[4] = true0 * M
        reals = np.zeros((1, n))
    else:
        reals = np.stack([np.zeros(n), field0.real, field0.imag])
    w = np.full((M, n), 1.0 / M) if bayes else None

    def _pick(wt, probe):
        """MAP state of each column of ``wt``, and its weight.

        Of several maxima the pick is the one fewest phase steps ahead of
        the probe.  A column holding NaN has a NaN maximum and keeps its probe.
        """
        top = wt.max(axis=0)
        ahead = np.take(steps, probe, axis=1)
        ahead += (wt != top) * no_max
        return (probe + ahead.min(axis=0)) % M, top

    def _shrink(running, ints, reals, w, alike=False):
        """Finish the trials whose column of ``running`` is False; keep the rest.

        With ``alike``, the trials that finish share their state (the
        prior at probe 0 from t = 0), so one column gives their decision.
        Returns the state of the trials kept and their columns.
        """
        cols = np.flatnonzero(~running)
        trial, _, probe, clicks = ints[:4].take(cols, axis=1)
        if collect:
            count[trial] = clicks
        if bayes:
            rep = cols[:1] if alike else cols
            wf = np.take(rate_table, probe[: len(rep)], axis=1)
            wf *= reals[0].take(rep) - 1.0
            np.exp(wf, out=wf)
            wf *= w.take(rep, axis=1)
            wf /= _row_sum(wf)
            hyp0[trial], conf[trial] = _pick(wf, probe[: len(rep)])
        else:
            # the cyclic decision is the click count mod M, which is the probe
            hyp0[trial] = probe
        keep = np.flatnonzero(running)
        if bayes:
            w = w.take(keep, axis=1)
        return ints.take(keep, axis=1), reals.take(keep, axis=1), w, keep

    rnd = 0
    while ints.shape[1]:
        if field0 is None:
            rate = true_rate.take(ints[4] + ints[2])
        else:
            fr = reals[1] + recv.real.take(ints[2])
            fi = reals[2] + recv.imag.take(ints[2])
            rate = imp.eta * (fr**2 + fi**2) + imp.dark_rate
        # resume + -log(u) / rate, in place; a zero or tiny rate means a
        # wait past the pulse's end: no click
        t_click = slot_uniform(ints[1].view(np.uint64), 3 + rnd)
        with np.errstate(divide="ignore", over="ignore"):
            np.log(t_click, out=t_click)
            np.negative(t_click, out=t_click)
            t_click /= rate
        t_click += reals[0]
        clicked = t_click < 1.0
        if not clicked.all():
            ints, reals, w, keep = _shrink(clicked, ints, reals, w, alike=rnd == 0)
            if not keep.size:
                break
            t_click = t_click[keep]

        probe, resume = ints[2], reals[0]
        if bayes:
            rates = np.take(rate_table, probe, axis=1)
            lik = w * rates
            # rates * -dt is -rates * dt to the bit: rounding is sign-symmetric
            wn = rates
            wn *= resume - t_click
            np.exp(wn, out=wn)
            wn *= lik
            total = _row_sum(wn)
            held = slice(None)
            if not total.all():
                # a click impossible under every hypothesis still
                # held leaves the posterior and the probe unchanged
                held = lik.any(axis=0)
                wn[:, ~held], total[~held] = w[:, ~held], 1.0
            # a total that underflowed to 0 leaves NaN, refused below
            with np.errstate(invalid="ignore"):
                wn /= total
            probe[held] = _pick(wn[:, held], probe[held])[0]
            w = wn
        ints[3] += 1
        if not bayes:
            np.remainder(ints[3], M, out=probe)
        # a trial blocked up to the pulse's end (resume 1.0) waits past it
        # next round and finishes in that round's shrink, with no exposure
        np.minimum(t_click + imp.dead_time, 1.0, out=resume)
        if collect:
            clicks_trial.append(ints[0].copy())
            clicks_time.append(t_click)
            clicks_probe.append(probe + 1)
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
