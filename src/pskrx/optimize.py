"""Displacement-surplus optimization.

The receiver's free parameter is the real surplus amplitude beta by
which the probed state overshoots the vacuum.  The optimum satisfies a
stationarity condition d P_err / d beta = 0, but neither objective has
a usable closed-form derivative (the Monte Carlo one is noisy), so both
searches are derivative-free:

* the analytic cyclic objective is scanned on a coarse grid, then
  refined with bounded Brent minimization; the stationarity condition
  is checked a posteriori by a central finite difference;
* the Monte Carlo objective is evaluated on a caller-visible grid with
  common random numbers (one master seed shared by every candidate, so
  the comparison noise is strongly correlated) in one engine pass: the
  whole grid is a single :func:`~pskrx.mc.estimate_errors` call that
  draws each trial once.  A single parabolic refinement around the grid
  minimum follows as one more estimate; both run in the caller's
  :class:`~pskrx.mc.WorkerPool` when given one.

beta is parameterized by amplitude internally; results carry the
photon-number form beta^2 as well, since experimental conventions use
either.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np
from scipy import optimize as sciopt

from .analytic import cyclic_error_probability
from .core import PskAlphabet
from .errors import PrecisionError
from .mc import ImperfectionModel, WorkerPool, estimate_error, estimate_errors

_MAX_BRACKET_HI = 8.0
_SCAN_POINTS = 9


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
    tol: float = 1e-6,
    tail_tol: float = 1e-9,
    grad_tol: float = 1e-6,
) -> OptimizationResult:
    """Minimize the analytic cyclic error probability over beta.

    A coarse scan locates the global basin inside the bracket (the
    objective is not assumed unimodal), Brent refines to amplitude
    tolerance ``tol``, and the bracket's upper edge is doubled while the
    minimum keeps landing on it (up to a hard cap, beyond which the
    boundary flag is set).  The count-series truncation ``tail_tol`` is
    looser than the evaluator's default: it biases every objective value
    by less than 1e-9, far below the scale the optimum is quoted at.
    """
    lo, hi = bracket
    if not 0.0 <= lo < hi:
        raise ValueError(f"invalid bracket {bracket}")
    evaluations = 0
    cache: dict[float, float] = {}

    def f(b: float) -> float:
        nonlocal evaluations
        b = float(b)
        if b not in cache:
            evaluations += 1
            cache[b] = cyclic_error_probability(alphabet, b, tail_tol).p_err
        return cache[b]

    while True:
        grid = np.linspace(lo, hi, _SCAN_POINTS)
        vals = [f(b) for b in grid]
        i = int(np.argmin(vals))
        if i == _SCAN_POINTS - 1 and hi < _MAX_BRACKET_HI:
            hi = min(2.0 * hi, _MAX_BRACKET_HI)
            continue
        sub_lo = grid[max(i - 1, 0)]
        sub_hi = grid[min(i + 1, _SCAN_POINTS - 1)]
        res = sciopt.minimize_scalar(
            f, bounds=(sub_lo, sub_hi), method="bounded", options={"xatol": tol}
        )
        beta_opt = float(res.x)
        break

    at_low = beta_opt <= lo + 10 * tol
    at_high = beta_opt >= hi - 10 * tol and hi >= _MAX_BRACKET_HI
    gap = None
    if not (at_low or at_high):
        # the probe must stay inside the bracket: beta_opt - h >= lo
        h = min(max(1e-4, 4 * tol), beta_opt - lo)
        gap = abs(f(beta_opt + h) - f(beta_opt - h)) / (2 * h)
        if gap > grad_tol:
            raise PrecisionError(
                f"stationarity check failed at beta={beta_opt:.6g}: "
                f"|dP/dbeta| = {gap:.3g} > {grad_tol:g}"
            )
    if at_low:
        beta_opt = lo if f(lo) <= f(beta_opt) else beta_opt
    return OptimizationResult(
        beta_opt=beta_opt,
        p_err_at_opt=f(beta_opt),
        objective_kind="analytic-cyclic",
        evaluations=evaluations,
        bracket=(lo, hi),
        at_boundary=at_low or at_high,
        stationarity_gap=gap,
    )


def default_beta_grid(
    alphabet: PskAlphabet, imperfections: ImperfectionModel, points: int = 9
) -> np.ndarray:
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
    return np.linspace(max(0.0, center - half), center + half, points)


def optimize_beta_mc(
    alphabet: PskAlphabet,
    strategy: str,
    imperfections: ImperfectionModel | None,
    trials: int,
    master_seed: int,
    grid=None,
    workers: int | WorkerPool = 1,
) -> OptimizationResult:
    """Minimize a Monte Carlo error estimate over a beta grid.

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
    imp = imperfections if imperfections is not None else ImperfectionModel()
    if grid is None:
        grid = default_beta_grid(alphabet, imp)
    grid = np.asarray(grid, dtype=float)
    if len(grid) < 8:
        raise ValueError(f"need a grid of >= 8 candidates, got {len(grid)}")
    if trials < 10_000:
        raise ValueError(f"need >= 10000 trials per candidate, got {trials}")

    estimates = estimate_errors(alphabet, grid, strategy, imp, trials, master_seed, workers)
    vals = np.array([e.p_err for e in estimates])
    errs = np.array([e.std_err for e in estimates])
    evaluations = len(grid)
    i = int(np.argmin(vals))

    if vals.max() - vals.min() <= errs.max():
        return OptimizationResult(
            beta_opt=float(grid[i]),
            p_err_at_opt=float(vals[i]),
            objective_kind=f"mc-{strategy}",
            evaluations=evaluations,
            bracket=(float(grid[0]), float(grid[-1])),
            at_boundary=i in (0, len(grid) - 1),
            flat=True,
            p_err_std=float(errs[i]),
        )

    best_beta, best = float(grid[i]), estimates[i]
    if 0 < i < len(grid) - 1:
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
            if vertex >= 0.0:
                cand = estimate_error(
                    alphabet, vertex, strategy, imp, trials, master_seed, workers
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
        p_err_std=best.std_err,
    )
