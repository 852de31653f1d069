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

Both receivers start by probing state 1 and move the displacement only
at recorded clicks.  *Cyclic probing* rotates the probe 1 -> 2 -> ...
-> M -> 1 on every click; its decision is the state probed when the
pulse ends, 1 + (clicks mod M).  *Bayesian probing* tracks the
posterior over the M hypotheses: each click reweights it by the
inter-event likelihoods and moves the probe to the maximum-a-posteriori
state (:func:`click_update`, :func:`map_pick`), and at t = 1 it decides
for the MAP state after the trailing no-click survival
(:func:`final_update`).

Receiver knowledge: Bayesian updates use the *nominal* rates
eta * n_k + dark_rate (the receiver is calibrated for its efficiency
and dark counts) with exposure times that exclude blind windows (the
receiver knows its own detector); the realized thermal offset is *not*
known to the receiver, so excess noise acts purely as a channel
impairment.  A click that no hypothesis the receiver still holds can
explain changes nothing (see :func:`click_update`).

Randomness is addressed per trial through counter-based streams
(see :mod:`pskrx._rng`): trial i's r-th wait is slot 3 + r of trial i
whichever block of trials it runs in.  So a scalar replay of one trial
(the test suite's reference, ``tests/scalar_reference.py``) reproduces
exactly the trial the vectorized engine runs, and
:func:`estimate_errors` may cut its trials into any blocks and hand
them to any worker without changing a bit of its result.
:func:`estimate_errors` evaluates several surpluses in one pass: each
block of trials draws its true states and thermal offsets once and runs
every surplus on them (common random numbers); :func:`estimate_error`
is its one-surplus case.  A :class:`WorkerPool` runs the blocks, and
one pool can serve every call of a command.  The blocks follow the
processes that run them, not the workers asked for: the fewest of at
most ``_BLOCK`` trials whose count is a multiple of the pool's
processes (:func:`_trial_blocks`), since each block pays a fixed cost
in numpy calls a round, whatever its size.  With one process the blocks
run in this process and no pool starts.  Every block is one job of
:func:`_jobs`, run by :func:`_run_block`.  :func:`simulate_outcomes`
runs the same trials through a one-process pool, so in this process, in
the blocks one process gets, and keeps the engine's columns as
:class:`TrialRecords`.

The block engine keeps the Bayesian posterior hypothesis-major, as log
weights: one (M, n) array whose row k holds state k's log weight in each
of the n trials still running, each column's maximum 0.  With M of 2 to
a few dozen, every step of the click loop (log-likelihoods, the MAP pick
with its tie-break) is then a few operations on whole rows of n values,
not a per-trial operation on M values.  Those steps are
:func:`click_update`, :func:`final_update` and :func:`map_pick`;
:func:`posterior_trace`, which the ``trace`` command calls, runs the
same functions on one column.  A click adds log n_k - n_k dt to row k
and needs no normaliser.  Only :func:`final_update` normalises, once per
trial (and :func:`posterior_trace` once, for all its columns), adding a
column's weights exp(L_k - L_max) in one order, left to right: row 0,
then each later row added in turn.  So a column gets the same bits
whatever other columns share its call, and the scalar reference adds one
trial's weights in that order.  ``np.add.reduce(x, axis=0)`` would not
do: it adds the rows in sequence for several columns but pairwise for
one, and one-column calls are common (the trials that never click, a
round's last running trial, every ``trace`` call).

The rest of a running trial's state is compacted the same way and kept
column-aligned with the posterior.  One int64 array holds each trial's
position in the block, its RNG key (hashed once per block; each round
finishes one slot from it), its probe and, without excess noise, its
true state; one float row holds its resume time.  A round reads them as
contiguous rows and, when trials finish, shrinks every array with one
take of the columns kept: nothing is gathered from or scattered back to
full-length per-trial arrays.  A trial's hypothesis and confidence are
written once, when it finishes, so no round writes state that a later
round reads back by index; the records' click counts are counted from
the clicks collected.  The trials that never click all hold the prior at
probe 0 from t = 0, so one column gives their decision.  Without excess
noise a trial's true click rate is one lookup in an (M, M) table of true
state and probe, built with the expression the scalar reference
evaluates; with it, the trial's offset field rides along as two more
float rows.

The engine owns its working memory.  Every array of block size (the
state above and its spare for compaction, the rates, the click times,
the scratch of the MAP pick, of the normaliser and of the RNG's word
mixing) is a view into a
:class:`Workspace` of preallocated buffers, written with ``out=``
arguments, so after a process's first block its rounds and blocks
allocate and free no array of block size.  Without it each block gave
its working set back to the allocator and faulted it in again: about
2,000 minor page faults a 32,768-trial block, kernel time that a
profile of the Python process does not show.  A worker process keeps
one workspace for its life; a run in this process (one process, a
single block, :func:`simulate_outcomes`) holds one for the pool's map
call and drops it when the call returns, so none outlives a command.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack, nullcontext
from dataclasses import dataclass
from math import inf, log, sqrt

import numpy as np

from ._rng import box_muller, slot_uniform, trial_keys
from .core import PskAlphabet, probe_relative_rates

_BLOCK = 1 << 15
# no block is split below this size: a short call stays one block, run in process
_MIN_BLOCK = 1 << 12
# fork starts a worker in hundredths of a second, forkserver and spawn in
# tenths (Python 3.14 makes forkserver Linux's default); elsewhere the
# platform's default stands
_START_CONTEXT = multiprocessing.get_context("fork") if sys.platform == "linux" else None

STRATEGIES = ("cyclic", "bayes")

# most clicks a pulse may be expected to have: each click is one round of
# the trial engine (the bright-pulse tests run at about 4,000), so a count
# far past this would keep a run clicking for hours
MAX_EXPECTED_CLICKS = 1e5


@dataclass(frozen=True)
class ImperfectionModel:
    """Detector and channel imperfections; defaults are ideal.

    eta: quantum efficiency of the photon counter in [0, 1].
    n_th: mean thermal photons per pulse (excess noise), finite and >= 0.
    dead_time: post-click blind window as a fraction of the pulse, in [0, 1).
    dark_rate: mean dark counts per pulse, finite and >= 0.
    """

    eta: float = 1.0
    n_th: float = 0.0
    dead_time: float = 0.0
    dark_rate: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"quantum efficiency {self.eta} outside [0, 1]")
        if not 0.0 <= self.n_th < inf:
            raise ValueError(f"thermal photon number {self.n_th} must be finite and >= 0")
        if not 0.0 <= self.dead_time < 1.0:
            raise ValueError(f"dead time {self.dead_time} outside [0, 1)")
        if not 0.0 <= self.dark_rate < inf:
            raise ValueError(f"dark rate {self.dark_rate} must be finite and >= 0")


IDEAL = ImperfectionModel()


@dataclass(frozen=True, eq=False)
class TrialRecords:
    """Full records of trials 0..n-1, one flat array per field, in trial order.

    States are 1-based.  Trial i clicked at
    ``click_times[click_offsets[i]:click_offsets[i + 1]]`` and probed
    ``probes`` of the same slice after those clicks; every trial starts
    by probing state 1.  ``len`` is the number of trials.
    """

    true_state: np.ndarray
    hypothesis: np.ndarray
    confidence: np.ndarray
    click_offsets: np.ndarray
    click_times: np.ndarray
    probes: np.ndarray

    def __len__(self) -> int:
        return len(self.true_state)


@dataclass(frozen=True)
class ErrorEstimate:
    """Estimated average error probability with binomial standard error."""

    p_err: float
    std_err: float
    trials: int
    seed: int


def nominal_rate_table(
    alphabet: PskAlphabet, beta: float, imperfections: ImperfectionModel
) -> np.ndarray:
    """Click rates the receiver assumes, by phase offset from the probe.

    eta * n_d + dark_rate; never below eta * n_d since dark counts only
    add to the optical rate.
    """
    return imperfections.eta * probe_relative_rates(alphabet, beta) + imperfections.dark_rate


def rate_tables(rates: np.ndarray, steps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rates by phase offset, and their ``math.log`` (-inf for 0), indexed by ``steps``."""
    logs = np.array([log(r) if r > 0.0 else -inf for r in rates.tolist()])
    return rates[steps], logs[steps]


def phase_steps(M: int) -> np.ndarray:
    """Entry [k, p] is (k - p) mod M: the phase steps from probe p ahead to state k.

    In the narrowest integer type that holds 2M, for the MAP pick's
    arithmetic.  A table by phase offset indexed with it, such as
    ``nominal_rate_table(...)[phase_steps(M)]``, gives at [k, p] the
    entry of state k while probing p.
    """
    k = np.arange(M)
    return ((k[:, None] - k[None, :]) % M).astype(np.min_scalar_type(2 * M))


# ---------------------------------------------------------------------------
# vectorized block engine
# ---------------------------------------------------------------------------


class Workspace:
    """Block-size arrays that every round, surplus and block run in it reuse.

    ``ws(name, size, dtype)`` hands out the first ``size`` elements of the
    flat buffer kept under ``(name, dtype)``.  A buffer grows to the
    largest size asked of it and never shrinks.  The engine asks for each
    buffer at the size of its block, whatever part of it a round uses, so
    once a workspace has run a block, blocks of that size or smaller
    allocate no array of block size.  A buffer holds whatever its last
    user left: every user writes it before reading it.
    """

    def __init__(self):
        self._buffers: dict = {}

    def __call__(self, name: str, size: int, dtype=np.float64) -> np.ndarray:
        key = (name, np.dtype(dtype))
        buf = self._buffers.get(key)
        if buf is None or buf.size < size:
            buf = self._buffers[key] = np.empty(size, dtype)
        return buf[:size]

    def iota(self, n: int) -> np.ndarray:
        """0, 1, ..., n - 1 as a read-only uint64 array."""
        buf = self._buffers.get("iota")
        if buf is None or buf.size < n:
            buf = self._buffers["iota"] = np.arange(n, dtype=np.uint64)
            buf.flags.writeable = False
        return buf[:n]


# a worker process's workspace, kept for the process's life
_process_workspace: Workspace | None = None


# ---------------------------------------------------------------------------
# Bayesian probing on (M, m) columns: one posterior and one probe per column
# ---------------------------------------------------------------------------


def _view(buf: np.ndarray, rows: int, m: int) -> np.ndarray:
    """The first rows * m elements of a flat buffer, as a (rows, m) array."""
    return buf[: rows * m].reshape(rows, m)


class PosteriorScratch:
    """Scratch of :func:`map_pick`, :func:`click_update` and :func:`final_update`.

    For up to n columns of M states: the :func:`phase_steps` table and
    flat buffers of the workspace ``ws``, asked for once at n columns.  A
    call on m <= n columns uses their first m (or rows * m) elements, so a
    caller whose columns shrink keeps one for all its rounds.
    """

    def __init__(self, ws: Workspace, M: int, n: int):
        self.steps = steps = phase_steps(M)
        # added to the steps of a state off the maximum: more than any step
        self.no_max = steps.dtype.type(M)
        # wrap[s] is s mod M for s < 2M: a probe moved ahead by fewer than M
        # steps wraps with a take, which costs a fifth of an integer division
        self.wrap = np.arange(2 * M, dtype=np.int64) % M
        self.top, self.total = ws("top", n), ws("total", n)
        self.ahead_min = ws("ahead_min", n, steps.dtype)
        self.ahead, self.off = ws("ahead", M * n, steps.dtype), ws("off", M * n, steps.dtype)

    def column_sums(self, x: np.ndarray) -> np.ndarray:
        """Each column's sum of the (M, m) array ``x``, its rows added left to right."""
        total = self.total[: x.shape[1]]
        np.copyto(total, x[0])
        for row in x[1:]:
            total += row
        return total


def map_pick(w: np.ndarray, probe: np.ndarray, scratch: PosteriorScratch) -> np.ndarray:
    """Move each column's probe to its maximum-a-posteriori state; return that state's weight.

    ``w`` holds the posteriors, as weights or log weights, and ``probe``
    the columns' 0-based probes, moved in place.  Of several states that
    share the maximal weight (mirror-symmetric states tie exactly) the
    pick is the one fewest phase steps ahead of the probe, the smallest
    (k - probe) mod M: deterministic, the least feedback actuation, and
    the probe itself wins any tie it is part of.
    """
    M, m = w.shape
    top = w.max(axis=0, out=scratch.top[:m])
    ahead = scratch.steps.take(probe, axis=1, out=_view(scratch.ahead, M, m), mode="clip")
    off = np.not_equal(w, top, out=_view(scratch.off, M, m))
    off *= scratch.no_max
    ahead += off
    probe += ahead.min(axis=0, out=scratch.ahead_min[:m])
    scratch.wrap.take(probe, out=probe, mode="clip")
    return top


def click_update(
    w: np.ndarray,
    rates: np.ndarray,
    logs: np.ndarray,
    lag: np.ndarray,
    probe: np.ndarray,
    scratch: PosteriorScratch,
) -> np.ndarray:
    """Each column's log weights after a click, its probe moved to the new MAP state.

    ``w`` holds the log weights at the last event; ``rates`` the nominal
    rate of each state while probing the column's probe, overwritten with
    the log weights after the click and returned; ``logs`` the rates'
    logs; ``lag`` is the last event's time minus the click's, the
    exposure negated.  Each state's log weight gains its inter-event
    log-likelihood: the survival term -n_k dt since the last event, then
    the log click density log n_k.  :func:`map_pick` moves the probe,
    and the column's maximum is subtracted so that it is 0 again.

    A click with zero likelihood under every state that a column still
    holds (every state of finite log weight has nominal rate 0: a thermal
    click while nulling the last surviving state at beta = 0, or any
    click when every nominal rate is zero) carries no usable information
    and leaves that column's log weights and probe unchanged.
    """
    # rates * -dt is -rates * dt to the bit: rounding is sign-symmetric
    wn = rates
    wn *= lag
    wn += w
    wn += logs
    # a column all -inf ties everywhere, so the pick keeps its probe
    top = map_pick(wn, probe, scratch)
    if top.min() == -inf:
        held = top > -inf
        wn[:, ~held], top[~held] = w[:, ~held], 0.0
    wn -= top
    return wn


def final_update(
    w: np.ndarray,
    rates: np.ndarray,
    lag: np.ndarray,
    probe: np.ndarray,
    scratch: PosteriorScratch,
) -> np.ndarray:
    """Each column's decision at the pulse's end; return its posterior probability.

    ``w`` holds the log weights at the last event; ``rates`` the nominal
    rate of each state while probing the column's probe, overwritten with
    the weights exp(L_k - L_max) at t = 1; ``lag`` is the last event's
    time minus 1.  The trailing no-click survival adds -n_k dt to each
    log weight, also for dt = 0 (the pulse ends in a blind window), and
    :func:`map_pick` moves the probe to the decision, the state of log
    weight L_max.  The confidence is its posterior probability,
    1 / sum_k exp(L_k - L_max), the sum taken by
    :meth:`PosteriorScratch.column_sums`.
    """
    rates *= lag
    rates += w
    rates -= map_pick(rates, probe, scratch)
    np.exp(rates, out=rates)
    total = scratch.column_sums(rates)
    return np.divide(1.0, total, out=total)


def posterior_trace(
    alphabet: PskAlphabet, beta: float, clicks: list[float]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """An ideal receiver's posteriors after each click and at t = 1.

    Returns the posteriors as the (M, len(clicks) + 1) columns
    exp(L - L_max) / sum of one trial's log weights L, updated by
    :func:`click_update` at each click and by :func:`final_update` at
    t = 1; the probe active from each column's time on; and each column's
    MAP state, the decision in the last.  States are 1-based.
    """
    M, n = alphabet.M, len(clicks) + 1
    scratch = PosteriorScratch(Workspace(), M, n)
    rate_table, log_table = rate_tables(probe_relative_rates(alphabet, beta), scratch.steps)
    posteriors = np.empty((M, n))
    probes, map_states = np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64)
    w = np.zeros((M, 1))
    probe = np.zeros(1, dtype=np.int64)
    last = 0.0
    for j, t in enumerate(clicks):
        lag = np.array([last - t])
        w = click_update(w, rate_table[:, probe], log_table[:, probe], lag, probe, scratch)
        # the click moved the probe to the MAP state, of log weight 0
        posteriors[:, j : j + 1] = np.exp(w)
        probes[j] = map_states[j] = probe[0]
        last = t
    final, decision = rate_table[:, probe], probe.copy()
    # final_update leaves exp(L - L_max) in final
    final_update(w, final, np.array([last - 1.0]), decision, scratch)
    posteriors[:, -1:] = final
    probes[-1], map_states[-1] = probe[0], decision[0]
    posteriors /= scratch.column_sums(posteriors)
    return posteriors, probes + 1, map_states + 1


def _run_block(job: tuple, workspace: Workspace | None = None) -> list:
    """Simulate one job of :func:`_jobs`: trials [lo, hi) at every surplus in ``betas``.

    Each trial's key is hashed once; the true states and thermal offsets
    (slots 0-2) are drawn once and every surplus runs on them.  Returns
    one (n_err, payload) per surplus; the payload is None unless
    ``collect``, else the block's columns (true state, hypothesis,
    confidence, click count, click times, probe after each click), states
    1-based, clicks in trial order.  The block's arrays live in
    ``workspace``, by default the one this process keeps for its life.
    """
    global _process_workspace
    alphabet, betas, strategy, imp, master_seed, lo, hi, collect = job
    if workspace is None:
        if _process_workspace is None:
            _process_workspace = Workspace()
        workspace = _process_workspace
    ws = workspace
    M = alphabet.M
    n = hi - lo
    keys = np.add(ws.iota(n), np.uint64(lo), out=ws("keys", n, np.uint64))
    mix = ws("mix", n, np.uint64)
    trial_keys(master_seed, keys, out=keys, scratch=mix)
    u = slot_uniform(keys, 0, out=ws("u", n), scratch=mix)
    u *= M
    true0 = ws("true0", n, np.int64)
    true0[:] = u  # truncated, as astype truncates
    np.minimum(true0, M - 1, out=true0)
    field0 = None
    if imp.n_th > 0.0:
        # without excess noise the offset is exactly zero: slots 1-2 go unread
        field0 = ws("field_re", n), ws("field_im", n)
        box_muller(
            slot_uniform(keys, 1, out=field0[0], scratch=mix),
            slot_uniform(keys, 2, out=u, scratch=mix),
            out=field0,
        )
        sigma = sqrt(imp.n_th / 2.0)
        # each trial's amplitude plus its offset, one quadrature at a time
        for z, part in zip(field0, (alphabet.amplitudes.real, alphabet.amplitudes.imag)):
            z *= sigma
            z += np.take(part, true0, out=u, mode="clip")
    return [
        _run_surplus(alphabet, beta, strategy, imp, keys, true0, field0, collect, ws)
        for beta in betas
    ]


def _run_surplus(alphabet, beta, strategy, imp, keys, true0, field0, collect, ws):
    """One surplus on the block's shared draws; see :func:`_run_block`.

    ``field0`` is each trial's amplitude with its thermal offset, as its
    real and imaginary parts, or None when there is no offset.  Every
    array of block size is a view into a flat buffer of the workspace
    ``ws``, asked for at the block's size: a round with m trials still
    running uses its first m (or rows * m) elements.
    """
    M = alphabet.M
    n = len(keys)
    bayes = strategy == "bayes"
    recv = -(alphabet.alpha + beta) * np.exp(1j * alphabet.phases)
    recv_parts = np.ascontiguousarray(recv.real), np.ascontiguousarray(recv.imag)
    scratch = PosteriorScratch(ws, M, n)
    # rate_table[k, p]: nominal rate of state k while probing p; log_table its log
    rate_table, log_table = rate_tables(nominal_rate_table(alphabet, beta, imp), scratch.steps)

    # outputs, each written once, when its trial finishes
    hyp0 = ws("hyp0", n, np.int64)
    conf = ws("conf", n)
    conf.fill(1.0)
    clicks_trial = [np.empty(0, dtype=np.int64)]
    clicks_time = [np.empty(0)]
    clicks_probe = [np.empty(0, dtype=np.int64)]

    # the state of the trials still running, column j for the j-th of them:
    # ints rows trial (position in the block), key, probe and, without an
    # offset, true state * M; reals rows resume time and, with an
    # offset, the field's real and imaginary parts; w[k, j] the log weight
    # of state k.  The state lives in the first buffer of its pair;
    # compaction takes the columns kept into the second and swaps the two.
    # The posterior has a trio: the click update writes the next posterior
    # over the rates, with the rates' logs in the third
    ints_rows = 4 if field0 is None else 3
    reals_rows = 1 if field0 is None else 3
    ints_pair = [ws("ints0", ints_rows * n, np.int64), ws("ints1", ints_rows * n, np.int64)]
    reals_pair = [ws("reals0", reals_rows * n), ws("reals1", reals_rows * n)]
    t_pair = [ws("t0", n), ws("t1", n)]
    ints = ints_pair[0].reshape(ints_rows, n)
    ints[0] = ws.iota(n)
    ints[1] = keys.view(np.int64)
    ints[2] = 0
    reals = reals_pair[0].reshape(reals_rows, n)
    reals[0] = 0.0
    # the field path would serve n_th = 0 too, bit for bit, but 6-12% slower
    if field0 is None:
        # the true click rate of state k probed at p is true_rate[k * M + p]
        f = alphabet.amplitudes[:, None] + recv
        true_rate = (imp.eta * (f.real**2 + f.imag**2) + imp.dark_rate).ravel()
        np.multiply(true0, M, out=ints[3])
    else:
        reals[1:] = field0
    w = w_trio = None
    if bayes:
        w_trio = [ws("w0", M * n), ws("w1", M * n), ws("w2", M * n)]
        w = w_trio[0].reshape(M, n)
        w.fill(0.0)

    # scratch of a round
    rate_buf, index_buf, mix_buf = ws("rate", n), ws("index", n, np.int64), ws("mix", n, np.uint64)
    clicked_buf, done_buf = ws("clicked", n, bool), ws("done", n, bool)
    finished_buf, exposure_buf = ws("finished", 3 * n, np.int64), ws("exposure", n)

    def shrink(running, alike):
        """Finish the trials whose column of ``running`` is False; keep the rest.

        With ``alike``, the trials that finish share their state (the
        prior at probe 0 from t = 0), so one column gives their decision.
        Returns the positions of the columns kept.
        """
        nonlocal ints, reals, w
        cols = np.flatnonzero(np.logical_not(running, out=done_buf[: len(running)]))
        finished = _view(finished_buf, 3, len(cols))
        trial, _, probe = ints[:3].take(cols, axis=1, out=finished, mode="clip")
        if bayes:
            rep = cols[:1] if alike else cols
            r = len(rep)
            probe = probe[:r]
            rates = rate_table.take(probe, axis=1, out=_view(w_trio[1], M, r), mode="clip")
            lag = reals[0].take(rep, out=exposure_buf[:r], mode="clip")
            lag -= 1.0
            wt = w.take(rep, axis=1, out=_view(w_trio[2], M, r), mode="clip")
            conf[trial] = final_update(wt, rates, lag, probe, scratch)
        # the decision is the probe: the MAP state that final_update moved
        # it to, or for cyclic probing the click count mod M
        hyp0[trial] = probe
        keep = np.flatnonzero(running)
        m = len(keep)
        ints = ints.take(keep, axis=1, out=_view(ints_pair[1], ints_rows, m), mode="clip")
        reals = reals.take(keep, axis=1, out=_view(reals_pair[1], reals_rows, m), mode="clip")
        ints_pair.reverse()
        reals_pair.reverse()
        if bayes:
            w = w.take(keep, axis=1, out=_view(w_trio[1], M, m), mode="clip")
            w_trio[:2] = w_trio[1], w_trio[0]
        return keep

    rnd = 0
    while ints.shape[1]:
        m = ints.shape[1]
        probe = ints[2]
        rate = rate_buf[:m]
        if field0 is None:
            true_rate.take(np.add(ints[3], probe, out=index_buf[:m]), out=rate, mode="clip")
        else:
            # eta * (fr**2 + fi**2) + dark_rate, fr and fi the field's parts
            # at this probe, fi in the spare buffer of the click times
            fi = t_pair[1][:m]
            for out, part, recv_part in zip((rate, fi), reals[1:], recv_parts):
                recv_part.take(probe, out=out, mode="clip")
                out += part
                np.square(out, out=out)
            rate += fi
            rate *= imp.eta
            rate += imp.dark_rate
        # resume + -log(u) / rate, in place; a zero or tiny rate means a
        # wait past the pulse's end: no click
        t_click = slot_uniform(
            ints[1].view(np.uint64), 3 + rnd, out=t_pair[0][:m], scratch=mix_buf[:m]
        )
        with np.errstate(divide="ignore", over="ignore"):
            np.log(t_click, out=t_click)
            np.negative(t_click, out=t_click)
            t_click /= rate
        t_click += reals[0]
        clicked = np.less(t_click, 1.0, out=clicked_buf[:m])
        if not clicked.all():
            keep = shrink(clicked, alike=rnd == 0)
            m = len(keep)
            if not m:
                break
            t_click = t_click.take(keep, out=t_pair[1][:m], mode="clip")
            t_pair.reverse()

        probe, resume = ints[2], reals[0]
        if bayes:
            rates = rate_table.take(probe, axis=1, out=_view(w_trio[1], M, m), mode="clip")
            logs = log_table.take(probe, axis=1, out=_view(w_trio[2], M, m), mode="clip")
            lag = np.subtract(resume, t_click, out=rate_buf[:m])
            w = click_update(w, rates, logs, lag, probe, scratch)
            w_trio[:2] = w_trio[1], w_trio[0]
        if not bayes:
            # the probe is the click count mod M: one step ahead, wrapped
            scratch.wrap[1:].take(probe, out=probe, mode="clip")
        # a trial blocked up to the pulse's end (resume 1.0) waits past it
        # next round and finishes in that round's shrink, with no exposure
        np.add(t_click, imp.dead_time, out=resume)
        np.minimum(resume, 1.0, out=resume)
        if collect:
            clicks_trial.append(ints[0].copy())
            clicks_time.append(t_click.copy())
            clicks_probe.append(probe + 1)
        rnd += 1

    n_err = int(np.count_nonzero(np.not_equal(hyp0, true0, out=done_buf)))
    if not collect:
        return n_err, None
    # clicks were collected round by round and each trial clicks at most
    # once a round, so a stable sort by trial puts each trial's in time order
    clicks_trial = np.concatenate(clicks_trial)
    order = np.argsort(clicks_trial, kind="stable")
    payload = (
        true0 + 1,
        hyp0 + 1,
        conf.copy(),
        np.bincount(clicks_trial, minlength=n),
        np.concatenate(clicks_time)[order],
        np.concatenate(clicks_probe)[order],
    )
    return n_err, payload


def _trial_blocks(trials: int, processes: int) -> list[tuple[int, int]]:
    """Contiguous spans [lo, hi) of near-equal size that cover trials 0..trials-1.

    The fewest blocks of at most ``_BLOCK`` trials whose count is a
    multiple of ``processes``, so that each process runs as many blocks
    as the others and none idles at the end.  A split never goes below
    ``_MIN_BLOCK`` trials a block: a call too short for a multiple of
    ``processes`` such blocks gets as many as it fills, at least one.
    Every block a process runs pays a fixed cost of each round's numpy
    calls, so no more blocks are made than this needs.
    """
    n = -(-trials // _BLOCK)
    n = max(n, min(-(-n // processes) * processes, trials // _MIN_BLOCK))
    return [(i * trials // n, (i + 1) * trials // n) for i in range(n)]


def _jobs(alphabet, betas, strategy, imperfections, trials, master_seed, processes, collect):
    """The :func:`_run_block` jobs, one per block of ``trials`` on ``processes`` processes.

    A job is (alphabet, betas, strategy, imperfections, master_seed, lo, hi, collect).
    A surplus whose pulse is expected to click more than
    ``MAX_EXPECTED_CLICKS`` times is refused before any block runs.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; use one of {STRATEGIES}")
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    betas = tuple(float(b) for b in betas)
    if not betas:
        raise ValueError("need at least one surplus")
    for beta in betas:
        # the largest rate plus the mean thermal count, at most 1/dead_time
        clicks = (float(nominal_rate_table(alphabet, beta, imperfections).max())
                  + imperfections.eta * imperfections.n_th)
        if imperfections.dead_time > 0.0:
            clicks = min(clicks, 1.0 / imperfections.dead_time)
        if not clicks <= MAX_EXPECTED_CLICKS:
            raise ValueError(
                f"a pulse at beta={beta!r} is expected to click {clicks:.3g} times; "
                f"the trial engine simulates at most {MAX_EXPECTED_CLICKS:g} clicks per pulse"
            )
    return [
        (alphabet, betas, strategy, imperfections, master_seed, lo, hi, collect)
        for lo, hi in _trial_blocks(trials, processes)
    ]


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class WorkerPool:
    """Worker processes for the trial engine, shared by every call given the pool.

    A context manager.  ``processes``, fixed when the pool is made, is
    ``workers`` capped at :func:`usable_cpus`: a CPU-bound worker past
    the CPUs would add only its start.  The blocks of every call follow
    it (see :func:`_trial_blocks`).  The processes start on the first
    call that has more than one block of trials, and only if
    ``processes > 1``; they stop when the context exits, also on an
    exception.  On Linux they are forked.  Blocks run in any worker and
    in any order: the result cannot depend on it.
    """

    def __init__(self, workers: int):
        self.processes = min(workers, usable_cpus())
        self._stack = ExitStack()
        self._executor = None

    def __enter__(self) -> WorkerPool:
        return self

    def __exit__(self, *exc) -> None:
        self._executor = None
        self._stack.close()

    def map(self, fn, jobs: list) -> list:
        """``[fn(job) for job in jobs]``, in worker processes when that can pay.

        A worker process runs ``fn(job)`` on the workspace it keeps for its
        life; in this process every job runs as ``fn(job, workspace)`` on
        one workspace, dropped when the call returns.
        """
        if self.processes < 2 or len(jobs) < 2:
            workspace = Workspace()
            return [fn(job, workspace) for job in jobs]
        if self._executor is None:
            # the module attribute, so a tracer or test that replaces it sees every start
            pool = ProcessPoolExecutor(max_workers=self.processes, mp_context=_START_CONTEXT)
            self._executor = self._stack.enter_context(pool)
        return list(self._executor.map(fn, jobs, chunksize=1))


def estimate_errors(
    alphabet: PskAlphabet,
    betas,
    strategy: str,
    imperfections: ImperfectionModel,
    trials: int,
    master_seed: int,
    workers: int | WorkerPool = 1,
) -> list[ErrorEstimate]:
    """Average error probability over equiprobable true states, per surplus.

    Every surplus runs on the same trials (common random numbers) in one
    pass: each block of trials is one job that carries all the surpluses.
    ``workers`` is a :class:`WorkerPool` to run the jobs in, or a worker
    count for a pool of this call alone.  The blocks are derived from
    ``trials`` and the pool's processes, but every random draw is addressed
    by (master_seed, trial index, slot), so neither the partition nor the
    scheduling can change any outcome, and aggregation is plain counting:
    the result is bit-identical for fixed (master_seed, trials) whatever
    ``workers`` is.  Each estimate equals the one :func:`estimate_error`
    gives for its surplus alone.
    """
    shared = isinstance(workers, WorkerPool)
    with (nullcontext(workers) if shared else WorkerPool(workers)) as pool:
        jobs = _jobs(
            alphabet, betas, strategy, imperfections, trials, master_seed, pool.processes, False
        )
        per_block = pool.map(_run_block, jobs)
    p_errs = [sum(n_err for n_err, _ in surplus) / trials for surplus in zip(*per_block)]
    return [ErrorEstimate(p, sqrt(p * (1.0 - p) / trials), trials, master_seed) for p in p_errs]


def estimate_error(
    alphabet: PskAlphabet,
    beta: float,
    strategy: str,
    imperfections: ImperfectionModel,
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
    imperfections: ImperfectionModel,
    trials: int,
    master_seed: int,
) -> TrialRecords:
    """Full records of trials 0..trials-1, the ones :func:`estimate_error` counts.

    Runs in this process, through a one-process :class:`WorkerPool`, in the
    blocks that :func:`_trial_blocks` gives one process; the pool drops its
    workspace before the columns are joined.
    """
    with WorkerPool(1) as pool:
        jobs = _jobs(alphabet, (beta,), strategy, imperfections, trials, master_seed, 1, True)
        blocks = [payload for [(_, payload)] in pool.map(_run_block, jobs)]
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
