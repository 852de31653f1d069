"""Counter-based random streams for reproducible Monte Carlo.

Every random quantity consumed by a trial is addressed as
``(master_seed, trial_index, slot)`` and produced by a stateless integer
mixing function.  Two properties follow directly:

* a trial's randomness never depends on how trials are batched or
  scheduled, so estimates are bit-identical for any worker count;
* the same draw can be reproduced one trial at a time (the test
  suite's scalar reference, ``tests/scalar_reference.py``) and in a
  vectorized block without sharing generator state.

The mixer is the SplitMix64 finalizer applied as a hash combine over the
three words.  The combine comes in two parts: :func:`trial_keys` mixes
the seed and trial words into one 64-bit key per trial, and
:func:`slot_uniform` finishes a slot from a key.  A key does not change
between the draws of a trial, so the block engine hashes each trial's
key once per block and pays one mixing round per draw after that;
:func:`counter_uniform` is the composition of the two parts.  Slot
layout used by the trial engine:

====  =======================================================
slot  meaning
====  =======================================================
0     uniform that selects the true state (equal priors)
1, 2  uniforms behind the Box-Muller thermal-offset normals
3+j   uniform behind the j-th inter-click exponential wait
====  =======================================================
"""

from __future__ import annotations

import numpy as np

_WORD = 1 << 64
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _mix64(x: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """SplitMix64 finalizer, in place on a uint64 array: bijective avalanche.

    ``scratch`` is a uint64 array shaped like ``x`` to hold the shifted
    words, or None for a temporary at each shift.
    """
    # uint64 arithmetic wraps silently; keep numpy quiet about it anyway
    with np.errstate(over="ignore"):
        x ^= np.right_shift(x, np.uint64(30), out=scratch)
        x *= _MIX1
        x ^= np.right_shift(x, np.uint64(27), out=scratch)
        x *= _MIX2
        x ^= np.right_shift(x, np.uint64(31), out=scratch)
    return x


def trial_keys(
    seed: int,
    trials: np.ndarray | int,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """The 64-bit key of each trial of ``seed``, uint64 values shaped like ``trials``.

    ``out`` is a uint64 array to write the keys into (``trials`` itself
    will do), or None for a new one; ``scratch`` is :func:`_mix64`'s.
    """
    h = _mix64(np.array((seed % _WORD) ^ _GOLDEN, dtype=np.uint64))
    with np.errstate(over="ignore"):
        keys = np.multiply(np.asarray(trials, dtype=np.uint64), np.uint64(_GOLDEN), out=out)
    keys ^= h
    return _mix64(keys, scratch)


def slot_uniform(
    keys: np.ndarray,
    slot: int,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """Uniform draw(s) in the open interval (0, 1) for one slot of keyed trials.

    Values are taken from the top 53 bits of the mixed word and offset by
    half an ulp so that log() and division are always safe.  ``out`` is a
    float64 array shaped like ``keys`` to write them into, or None for a
    new one; the words are mixed in its memory.  ``scratch`` is
    :func:`_mix64`'s.
    """
    if out is None:
        out = np.empty(np.shape(keys))
    h = np.bitwise_xor(keys, np.uint64(slot * int(_MIX1) % _WORD), out=out.view(np.uint64))
    _mix64(h, scratch)
    h >>= np.uint64(11)
    # below 2**53, so exact as a signed word, whose conversion is the
    # faster; each word is read before its float is written over it
    out[...] = h.view(np.int64)
    out += 0.5
    out *= 1.0 / 9007199254740992.0
    return out


def counter_uniform(seed: int, trial: np.ndarray | int, slot: int):
    """Uniform draw(s) in the open interval (0, 1) for (seed, trial, slot).

    ``trial`` may be a scalar or a uint64 array; the result matches its
    shape.
    """
    u = slot_uniform(trial_keys(seed, trial), slot)
    if u.ndim == 0:
        return float(u)
    return u


def box_muller(u1, u2, out=None):
    """Two independent standard normals from two (0,1) uniforms.

    ``out`` is a pair of float64 arrays to write the normals into, the
    first of which may be ``u1`` itself; ``u2`` is then overwritten.
    Without ``out`` the normals are new arrays and the inputs stay as
    they are.
    """
    if out is None:
        u2 = np.array(u2, dtype=np.float64)
        out = (np.empty(np.shape(u1)), np.empty(u2.shape))
    z1, z2 = out
    np.multiply(2.0 * np.pi, u2, out=z2)
    np.cos(z2, out=u2)
    np.sin(z2, out=z2)
    # z1 = r = sqrt(-2 log u1), then r * sin and r * cos of the angle
    np.log(u1, out=z1)
    z1 *= -2.0
    np.sqrt(z1, out=z1)
    z2 *= z1
    z1 *= u2
    return z1, z2

