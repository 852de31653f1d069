"""Displacement-surplus optimization.

The receiver's free parameter is the real surplus amplitude beta by
which the probed state overshoots the vacuum.  The optimum satisfies a
stationarity condition d P_err / d beta = 0:

* the analytic cyclic objective has an exact derivative, summed by the
  evaluator beside the error itself (see :mod:`pskrx.analytic`).  A
  coarse scan finds the basin: its points, and the new points of each
  rescan after the bracket doubles, are one batched evaluation
  (:func:`~pskrx.analytic.cyclic_error_probabilities`).  The
  stationarity condition is then solved in the scan cell where the
  derivative changes sign, by safeguarded secant steps of one
  evaluation each; the reported stationarity gap is the exact
  |dP/dbeta| at the optimum;
* the Monte Carlo objective is noisy and has no usable derivative.  It
  is evaluated on a caller-visible grid with common random numbers (one
  master seed shared by every candidate, so the comparison noise is
  strongly correlated) in one engine pass: the whole grid is a single
  :func:`~pskrx.mc.estimate_errors` call that draws each trial once.  A
  single parabolic refinement around the grid minimum follows as one
  more estimate; both run in the caller's :class:`~pskrx.mc.WorkerPool`
  when given one.

beta is parameterized by amplitude internally; results carry the
photon-number form beta^2 as well, since experimental conventions use
either.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .analytic import CyclicError, cyclic_error_probabilities, cyclic_error_probability
from .core import PskAlphabet
from .errors import PrecisionError
from .mc import ImperfectionModel, WorkerPool, estimate_error, estimate_errors

_MAX_BRACKET_HI = 8.0
_SCAN_POINTS = 9
_MAX_ROOT_STEPS = 60
# the exact optimum's amplitude tolerance, and the count-series truncation of
# its objective: looser than the evaluator's default, it biases every value by
# less than 1e-9, far below the scale the optimum is quoted at
_BETA_TOL = 1e-6
_TAIL_TOL = 1e-9
# candidates of the default Monte Carlo grid
_GRID_POINTS = 9


@dataclass(frozen=True)
class OptimizationResult:
    """Located minimum of an error-probability objective over beta."""

    beta_opt: float
    p_err_at_opt: float
    objective_kind: str
    evaluations: int
    bracket: tuple[float, float]
    at_boundary: bool = False
    flat: bool = False
    stationarity_gap: float | None = None
    p_err_std: float | None = None

    @property
    def beta_opt_sq(self) -> float:
        """The optimum in photon-number units."""
        return self.beta_opt * self.beta_opt


def optimize_beta_analytic(
    alphabet: PskAlphabet,
    bracket: tuple[float, float] = (0.0, 2.0),
) -> OptimizationResult:
    """Minimize the analytic cyclic error probability over beta.

    A coarse scan locates the global basin inside the bracket (the
    objective is not assumed unimodal), and the bracket's upper edge is
    doubled while the minimum keeps landing on it (up to a hard cap,
    beyond which the boundary flag is set).  Each scan evaluates the
    points it has not seen before as one batch.  The exact derivative then
    picks the scan cell where dP/dbeta changes sign beside the scan
    minimum, and ``_stationary_point`` solves dP/dbeta = 0 in it to
    amplitude tolerance ``_BETA_TOL``.  The optimum sits at the bracket's
    low edge when dP/dbeta >= 0 there; a root within 10 ``_BETA_TOL`` of
    the edge is flagged as a boundary optimum too, and gives way to the
    edge if the edge's error is no larger.
    """
    lo, hi = bracket
    if not 0.0 <= lo < hi:
        raise ValueError(f"invalid bracket {bracket}")
    cache: dict[float, CyclicError] = {}

    def f(b: float) -> CyclicError:
        b = float(b)
        if b not in cache:
            cache[b] = cyclic_error_probability(alphabet, b, _TAIL_TOL)
        return cache[b]

    while True:
        grid = np.linspace(lo, hi, _SCAN_POINTS).tolist()
        fresh = [b for b in grid if b not in cache]
        cache.update(zip(fresh, cyclic_error_probabilities(alphabet, fresh, _TAIL_TOL)))
        scan = [cache[b] for b in grid]
        i = int(np.argmin([e.p_err for e in scan]))
        if i == _SCAN_POINTS - 1 and hi < _MAX_BRACKET_HI:
            hi = min(2.0 * hi, _MAX_BRACKET_HI)
            continue
        break

    slope = scan[i].slope
    if slope > 0.0 and i > 0:
        cell = i - 1
    elif slope < 0.0 and i < _SCAN_POINTS - 1:
        cell = i
    else:
        cell = None  # stationary on the grid, or at an edge of the bracket
    if cell is None:
        beta_opt = float(grid[i])
    elif scan[cell].slope < 0.0 < scan[cell + 1].slope:
        beta_opt = _stationary_point(f, float(grid[cell]), float(grid[cell + 1]), _BETA_TOL)
    else:
        raise PrecisionError(
            f"dP/dbeta keeps its sign across the scan cell next to beta={grid[i]:.6g}, "
            "where the scan has its least error"
        )
    at_low = beta_opt <= lo + 10 * _BETA_TOL
    at_high = beta_opt >= hi - 10 * _BETA_TOL and hi >= _MAX_BRACKET_HI
    if at_low and f(lo).p_err <= f(beta_opt).p_err:
        beta_opt = lo
    best = f(beta_opt)
    return OptimizationResult(
        beta_opt=beta_opt,
        p_err_at_opt=best.p_err,
        objective_kind="analytic-cyclic",
        evaluations=len(cache),
        bracket=(lo, hi),
        at_boundary=at_low or at_high,
        stationarity_gap=None if at_low or at_high else abs(best.slope),
    )


def _stationary_point(f, a: float, b: float, tol: float) -> float:
    """A root of f(beta).slope in [a, b], where it rises through 0.

    Secant steps from the last two iterates, safeguarded as in Brent's
    zeroin: a step that leaves the bracket, or that is not half as long
    as the step before last, is replaced by bisection, and a step
    shorter than tol / 2 is lengthened to tol / 2 toward the root, so
    once the root is pinned the next step crosses it and the bracket
    closes.  Stops when the bracket is narrower than ``tol`` and returns
    its end with the smaller |slope|.
    """
    sa, sb = f(a).slope, f(b).slope
    x0, s0, x1, s1 = (b, sb, a, sa) if -sa < sb else (a, sa, b, sb)
    before_last = last = b - a
    for _ in range(_MAX_ROOT_STEPS):
        if b - a < tol:
            return a if -sa <= sb else b
        c = x1 - s1 * (x1 - x0) / (s1 - s0) if s1 != s0 else x1
        if not (a < c < b and abs(c - x1) <= 0.5 * before_last):
            c = 0.5 * (a + b)
        elif abs(c - x1) < 0.5 * tol:
            c = x1 - 0.5 * tol if s1 > 0.0 else x1 + 0.5 * tol
        before_last, last = last, abs(c - x1)
        sc = f(c).slope
        if sc == 0.0:
            return c
        if sc < 0.0:
            a, sa = c, sc
        else:
            b, sb = c, sc
        x0, s0, x1, s1 = x1, s1, c, sc
    raise PrecisionError(f"dP/dbeta = 0 not solved to {tol:g} in [{a:.9g}, {b:.9g}]")


def default_beta_grid(alphabet: PskAlphabet, imperfections: ImperfectionModel) -> np.ndarray:
    """Candidate surpluses centered on the efficiency-compensated optimum.

    Finite quantum efficiency rescales the detected power, so the ideal
    optimum at the rescaled amplitude, divided back by sqrt(eta), is a
    good center; a generous spread covers the shift the remaining
    imperfections can cause.
    """
    eta = max(imperfections.eta, 1e-6)
    scaled = PskAlphabet(alphabet.M, sqrt(eta) * alphabet.alpha)
    center = optimize_beta_analytic(scaled).beta_opt / sqrt(eta)
    half = max(0.35, 0.6 * center)
    return np.linspace(max(0.0, center - half), center + half, _GRID_POINTS)


def optimize_beta_mc(
    alphabet: PskAlphabet,
    strategy: str,
    imperfections: ImperfectionModel,
    trials: int,
    master_seed: int,
    grid=None,
    workers: int | WorkerPool = 1,
) -> OptimizationResult:
    """Minimize a Monte Carlo error estimate over a strictly increasing beta grid.

    Every candidate is evaluated with the same master seed (common
    random numbers), which makes the objective a deterministic function
    of beta and cancels most of the comparison noise.  The grid runs as
    one batched estimate, so its trials are drawn once for all
    candidates.  One parabolic refinement is attempted around the grid
    minimum.  ``workers`` is passed to both estimates: a shared
    :class:`~pskrx.mc.WorkerPool` serves them both, while a worker count
    gives each estimate a pool of its own.  If the whole grid lies within
    one standard error the objective is flat at this trial budget; the
    grid minimum is returned with the ``flat`` flag set.
    """
    if grid is None:
        grid = default_beta_grid(alphabet, imperfections)
    grid = np.asarray(grid, dtype=float)
    if len(grid) < 8 or not np.all(grid[1:] > grid[:-1]):
        raise ValueError(f"need a strictly increasing grid of >= 8 candidates, got {grid}")
    if trials < 10_000:
        raise ValueError(f"need >= 10000 trials per candidate, got {trials}")

    estimates = estimate_errors(
        alphabet, grid, strategy, imperfections, trials, master_seed, workers
    )
    vals = np.array([e.p_err for e in estimates])
    errs = np.array([e.std_err for e in estimates])
    evaluations = len(grid)
    i = int(np.argmin(vals))
    flat = bool(vals.max() - vals.min() <= errs.max())

    best_beta, best = float(grid[i]), estimates[i]
    if not flat and 0 < i < len(grid) - 1:
        x = grid[i - 1 : i + 2]
        y = vals[i - 1 : i + 2]
        denom = (x[0] - x[1]) * (y[1] - y[2]) - (x[1] - x[2]) * (y[0] - y[1])
        if denom != 0.0:
            vertex = 0.5 * (
                (x[0] + x[1])
                - (x[1] - x[2])
                * ((x[0] - x[2]) * (y[0] - y[1]) - (x[0] - x[1]) * (y[0] - y[2]))
                / denom
            )
            vertex = float(np.clip(vertex, x[0], x[2]))
            cand = estimate_error(
                alphabet, vertex, strategy, imperfections, trials, master_seed, workers
            )
            evaluations += 1
            if cand.p_err < best.p_err:
                best_beta, best = vertex, cand
    return OptimizationResult(
        beta_opt=best_beta,
        p_err_at_opt=best.p_err,
        objective_kind=f"mc-{strategy}",
        evaluations=evaluations,
        bracket=(float(grid[0]), float(grid[-1])),
        at_boundary=i in (0, len(grid) - 1),
        flat=flat,
        p_err_std=best.std_err,
    )
