"""The benchmark's workloads: the CLI calls they make and how each output is checked.

One operation is one grid point, run as its own in-process
``pskrx.cli.main`` call.  A workload's grid is run in passes; pass ``n``
derives its inputs (Monte Carlo seeds, power jitter) from the workload
seed and ``n``, so no two passes repeat an input and a cache keyed on
inputs cannot shorten later passes.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import oracle
from pskrx import ImperfectionModel, PskAlphabet
from pskrx.mc import estimate_error

HERE = Path(__file__).resolve().parent

BETA_SQ = 0.23
# the one detector setting with all four imperfections
IMPERFECT = {"eta": 0.8, "n_th": 0.1, "dead_time": 0.02, "dark_rate": 0.01}
DETECTORS = {"ideal": {}, "imperfect": IMPERFECT}

# A run checks up to ~100 Monte Carlo estimates and comparing two commits
# takes ~20 runs per workload: at 4 standard errors a correct program
# would fail a check somewhere with ~10% probability, at 5 with ~0.1%.
Z_MC = 5.0
EXACT_TOL = 1e-9
BOUND_TOL = 1e-9


@dataclass(frozen=True)
class Op:
    """One CLI call: the grid point it belongs to and what its check needs."""

    point: int
    argv: tuple[str, ...]
    inputs: dict
    out_path: Path | None = None


def derived(workload: str, seed: int, pass_index: int, point: int = 0) -> int:
    """A 48-bit value fixed by the workload seed, the pass and the point."""
    text = f"{workload}/{seed}/{pass_index}/{point}".encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:6], "big")


def _flags(params: dict) -> list[str]:
    out = []
    for key, value in params.items():
        out += [f"--{key.replace('_', '-')}", repr(value) if isinstance(value, float) else str(value)]
    return out


def _rows(data: bytes) -> list[dict]:
    return list(csv.DictReader(io.StringIO(data.decode())))


def _one_row(data: bytes) -> dict:
    rows = _rows(data)
    if len(rows) != 1:
        raise ValueError(f"expected one output row, got {len(rows)}")
    return {k: float(v) for k, v in rows[0].items()}


def _check_bounds(row: dict, M: int, errors: list[str]) -> None:
    for column, ref in (("sql", oracle.sql), ("helstrom", oracle.helstrom)):
        want = ref(M, row["alpha_sq"])
        if not abs(row[column] - want) <= BOUND_TOL:
            errors.append(f"{column} {row[column]!r} != oracle {want!r}")


def _check_echo(row: dict, inputs: dict, errors: list[str]) -> None:
    for key in ("alpha_sq", "trials", "seed"):
        if key in inputs and row[key] != inputs[key]:
            errors.append(f"{key} column {row[key]!r} != input {inputs[key]!r}")


def _check_std_err(row: dict, errors: list[str]) -> None:
    p, n = row["p_err"], row["trials"]
    if not 0.0 <= p <= 1.0 or not math.isclose(row["std_err"], math.sqrt(p * (1 - p) / n), rel_tol=1e-12):
        errors.append(f"p_err {p!r} / std_err {row['std_err']!r} inconsistent at {n:g} trials")


class Workload:
    name: str
    points: list[dict]
    known_failure: dict | None = None

    def ops(self, seed: int, pass_index: int, nproc: int, out_dir: Path) -> list[Op]:
        raise NotImplementedError

    def check(self, op: Op, data: bytes) -> list[str]:
        raise NotImplementedError


class ExactOptimize(Workload):
    """``optimize --objective analytic``: the exact evaluator under the optimizer."""

    name = "exact-optimize"
    points = [
        {"m": 4, "alpha_sq": 1e-4},
        {"m": 4, "alpha_sq": 1e-2},
        {"m": 4, "alpha_sq": 1.0},
        {"m": 4, "alpha_sq": 4.0},
        {"m": 8, "alpha_sq": 1e-4},
    ]
    # Exits with code 2 at the parent commit: the stationarity probe of
    # optimize_beta_analytic evaluates a negative beta.  Traced runs try
    # it once, so a fix shows as cli.known_failures dropping to 0.
    known_failure = {"m": 4, "alpha_sq": 8.0}

    def op_for(self, point: int, params: dict, jitter: float, nproc: int) -> Op:
        alpha_sq = params["alpha_sq"] * (1.0 + 1e-6 * (2.0 * jitter - 1.0))
        argv = ("optimize", *_flags({"m": params["m"], "alpha_sq": alpha_sq}),
                "--objective", "analytic", "--seed", "0", "--workers", str(nproc))
        return Op(point, argv, {"m": params["m"], "alpha_sq": alpha_sq})

    def ops(self, seed, pass_index, nproc, out_dir):
        return [
            self.op_for(i, p, derived(self.name, seed, pass_index, i) / 2**48, nproc)
            for i, p in enumerate(self.points)
        ]

    def check(self, op, data):
        row = _one_row(data)
        M, errors = op.inputs["m"], []
        _check_echo(row, op.inputs, errors)
        beta_sq, p_err = row["beta_opt_sq"], row["p_err"]
        exact = oracle.cyclic_error(M, row["alpha_sq"], beta_sq)
        if not abs(p_err - exact) <= EXACT_TOL:
            errors.append(f"p_err_at_opt {p_err!r} != oracle {exact!r}")
        # the reported surplus must be a minimum: nudging it cannot help
        beta = math.sqrt(beta_sq)
        for other in (beta * 0.99, beta * 1.01):
            if oracle.cyclic_error(M, row["alpha_sq"], other * other) < exact - EXACT_TOL:
                errors.append(f"beta_opt_sq {beta_sq!r} is not a minimum")
        if not oracle.helstrom(M, row["alpha_sq"]) <= p_err:
            errors.append(f"p_err {p_err!r} below the Helstrom bound")
        # cyclic probing is sub-SQL for M = 4 at every power; for M = 8 it
        # stays above the SQL at weak power (see the acceptance tests)
        if M == 4 and not p_err < oracle.sql(M, row["alpha_sq"]):
            errors.append(f"p_err {p_err!r} not below the SQL")
        return errors


class McEstimate(Workload):
    """``sweep --beta-policy fixed``: long trial-engine runs, no exact evaluator."""

    name = "mc-estimate"
    trials = 1_000_000
    points = [
        {"strategy": s, "m": M, "detector": d, "alpha_sq": a}
        for s in ("cyclic", "bayes")
        for M in (4, 8)
        for d in DETECTORS
        for a in (0.1, 0.5, 2.0)
    ]

    def __init__(self):
        with open(HERE / "reference.json", encoding="utf-8") as fh:
            self.reference = {
                (r["strategy"], r["m"], r["detector"], r["alpha_sq"]): r for r in json.load(fh)
            }

    def ops(self, seed, pass_index, nproc, out_dir):
        mc_seed = derived(self.name, seed, pass_index)
        out = []
        for i, p in enumerate(self.points):
            params = {"strategy": p["strategy"], "m": p["m"], "alpha_sq": p["alpha_sq"],
                      "beta_policy": "fixed", "beta_sq": BETA_SQ, "trials": self.trials,
                      "seed": mc_seed, "workers": nproc, **DETECTORS[p["detector"]]}
            out.append(Op(i, ("sweep", *_flags(params)),
                          {**p, "trials": self.trials, "seed": mc_seed}))
        return out

    def check(self, op, data):
        row = _one_row(data)
        p, errors = op.inputs, []
        _check_echo(row, p, errors)
        _check_std_err(row, errors)
        _check_bounds(row, p["m"], errors)
        if not abs(row["beta_sq"] - BETA_SQ) <= 1e-15:
            errors.append(f"beta_sq {row['beta_sq']!r} != {BETA_SQ}")
        if p["strategy"] == "cyclic" and p["detector"] == "ideal":
            want, want_err = oracle.cyclic_error(p["m"], p["alpha_sq"], row["beta_sq"]), 0.0
        else:
            ref = self.reference[p["strategy"], p["m"], p["detector"], p["alpha_sq"]]
            want, want_err = ref["p_err"], ref["std_err"]
        if not abs(row["p_err"] - want) <= Z_MC * math.hypot(row["std_err"], want_err):
            errors.append(f"p_err {row['p_err']!r} +- {row['std_err']:.2g} vs {want!r} +- {want_err:.2g}")
        return errors


class McOptimize(Workload):
    """``sweep --beta-policy mc``: many short engine calls behind the CRN optimizer."""

    name = "mc-optimize"
    trials = 100_000
    points = [{"alpha_sq": a} for a in (0.1, 0.25, 0.5, 1.0, 1.5, 2.0)]

    def ops(self, seed, pass_index, nproc, out_dir):
        mc_seed = derived(self.name, seed, pass_index)
        out = []
        for i, p in enumerate(self.points):
            params = {"strategy": "bayes", "m": 4, "alpha_sq": p["alpha_sq"],
                      "beta_policy": "mc", "eta": 0.8, "opt_trials": self.trials,
                      "trials": self.trials, "seed": mc_seed, "workers": nproc}
            out.append(Op(i, ("sweep", *_flags(params)),
                          {**p, "trials": self.trials, "seed": mc_seed}))
        return out

    def check(self, op, data):
        row = _one_row(data)
        errors = []
        _check_echo(row, op.inputs, errors)
        _check_std_err(row, errors)
        _check_bounds(row, 4, errors)
        if not 0.0 <= row["beta_sq"] < math.inf:
            errors.append(f"beta_sq {row['beta_sq']!r} is not a surplus")
        if not row["helstrom"] <= row["p_err"] <= 0.75:
            errors.append(f"p_err {row['p_err']!r} outside [Helstrom, 1 - 1/M]")
        return errors


class Records(Workload):
    """``simulate``: per-trial records through the engine's collect path, written as CSV."""

    name = "records"
    trials = 100_000
    points = [{"m": 4, "alpha_sq": 0.5}, {"m": 8, "alpha_sq": 2.0}]

    def ops(self, seed, pass_index, nproc, out_dir):
        mc_seed = derived(self.name, seed, pass_index)
        out = []
        for i, p in enumerate(self.points):
            path = out_dir / f"records-{i}.csv"
            params = {"strategy": "bayes", **p, "beta_sq": BETA_SQ, "trials": self.trials,
                      "seed": mc_seed, **IMPERFECT, "out": path}
            out.append(Op(i, ("simulate", *_flags(params)), {**p, "seed": mc_seed}, path))
        return out

    def check(self, op, data):
        M, errors = op.inputs["m"], []
        wrong = n_rows = 0
        # rows are read one at a time, so the check adds little to rss_peak_mb
        for i, r in enumerate(csv.DictReader(io.StringIO(data.decode()))):
            n_rows += 1
            truth, hyp = int(r["true_state"]), int(r["hypothesis"])
            times = [float(t) for t in r["click_times"].split(";") if t]
            conf = float(r["confidence"])
            wrong += r["correct"] == "0"
            if (int(r["trial"]) != i or not 1 <= truth <= M or not 1 <= hyp <= M
                    or r["correct"] != str(int(hyp == truth))
                    or int(r["n_clicks"]) != len(times)
                    or len(r["probes"].split(";")) != len(times) + 1
                    or not 0.0 < conf <= 1.0):
                errors.append(f"malformed record {i}: {r}")
            if any(not b > a for a, b in zip([0.0, *times], [*times, 1.0])):
                errors.append(f"click times of trial {i} do not increase inside (0, 1)")
            if len(errors) > 5:
                return errors
        if n_rows != self.trials:
            return errors + [f"{n_rows} records for {self.trials} trials"]
        # the records and the estimator share the trial stream
        est = estimate_error(
            PskAlphabet.from_power(M, op.inputs["alpha_sq"]), math.sqrt(BETA_SQ), "bayes",
            ImperfectionModel(**IMPERFECT), self.trials, op.inputs["seed"], workers=1,
        )
        if wrong / self.trials != est.p_err:
            errors.append(f"share incorrect {wrong / self.trials!r} != estimate_error {est.p_err!r}")
        return errors


WORKLOADS = {w.name: w for w in (ExactOptimize, McEstimate, McOptimize, Records)}
