"""Command-line front end: sweeps, traces, bounds, optimization, trials.

Subcommands
-----------
sweep     error probability vs. signal power for one receiver setup
trace     posterior trace for a given click record (ideal receiver)
bench     SQL and Helstrom reference curves
optimize  optimal displacement surplus vs. signal power
simulate  raw per-trial records

Every option can also be supplied through a flat ``key = value`` spec
file (``--spec FILE``); explicit flags override file entries, and
``--dump-spec FILE`` records the fully resolved configuration (seed
included) so the run can be reproduced byte for byte.  Randomized
commands honor ``--seed``; when it is omitted a fresh seed is drawn,
printed on stderr, and written into the outputs.  ``--workers`` caps
the Monte Carlo parallelism (default: PSKRX_WORKERS or the CPU count):
``sweep`` and ``optimize`` run every Monte Carlo estimate in one worker
pool, started when first needed and stopped when the command ends.
The output is identical for any worker count.

Exit codes: 0 success, 2 argument error, 3 precision/convergence
error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from math import sqrt

from . import bench as bench_mod
from .core import PskAlphabet, displaced_rates
from .errors import PrecisionError
from .mc import ImperfectionModel, TrialRecords, WorkerPool, estimate_error, simulate_outcomes
from .optimize import optimize_beta_analytic, optimize_beta_mc
from .strategy import (
    bayes_click_update,
    bayes_silence_update,
    initial_posterior,
    select_probe,
)

EXIT_OK = 0
EXIT_ARGS = 2
EXIT_PRECISION = 3
EXIT_IO = 4

_DEFAULT_POWERS = "0.1,0.25,0.5,1,1.5,2"

# option schema per subcommand: name -> (converter, default, help)
_FLOATS = "floats"
_SCHEMA: dict[str, dict[str, tuple]] = {
    "sweep": {
        "m": (int, 4, "alphabet size M"),
        "alpha_sq": (_FLOATS, _DEFAULT_POWERS, "signal powers |alpha|^2, comma list"),
        "strategy": (str, "cyclic", "probing strategy: cyclic or bayes"),
        "beta_policy": (str, "analytic", "displacement: fixed, zero, analytic or mc"),
        "beta_sq": (float, 0.0, "surplus photon number for --beta-policy fixed"),
        "trials": (int, 100_000, "Monte Carlo trials per grid point"),
        "opt_trials": (int, 100_000, "trials per candidate for --beta-policy mc"),
        "eta": (float, 1.0, "detector quantum efficiency"),
        "n_th": (float, 0.0, "mean thermal photons per pulse"),
        "dead_time": (float, 0.0, "detector dead time, fraction of the pulse"),
        "dark_rate": (float, 0.0, "mean dark counts per pulse"),
        "seed": (int, None, "master seed (omit for a fresh printed one)"),
        "workers": (int, None, "worker processes for the trial engine"),
        "format": (str, "csv", "output format: csv or json"),
        "out": (str, None, "output path (default stdout)"),
    },
    "trace": {
        "m": (int, 4, "alphabet size M"),
        "alpha_sq": (_FLOATS, "0.5", "signal power |alpha|^2 (single value)"),
        "beta_sq": (float, 0.23, "displacement surplus photon number"),
        "clicks": (_FLOATS, "", "detection times, comma list in (0,1)"),
        "format": (str, "csv", "output format: csv or json"),
        "out": (str, None, "output path (default stdout)"),
    },
    "bench": {
        "m": (int, 4, "alphabet size M"),
        "alpha_sq": (_FLOATS, _DEFAULT_POWERS, "signal powers, comma list"),
        "format": (str, "csv", "output format: csv or json"),
        "out": (str, None, "output path (default stdout)"),
    },
    "optimize": {
        "m": (int, 4, "alphabet size M"),
        "alpha_sq": (_FLOATS, _DEFAULT_POWERS, "signal powers, comma list"),
        "strategy": (str, "cyclic", "probing strategy: cyclic or bayes"),
        "objective": (str, "auto", "auto, analytic or mc"),
        "trials": (int, 100_000, "trials per candidate (mc objective)"),
        "beta_grid": (_FLOATS, "", "candidate surplus amplitudes (mc objective)"),
        "eta": (float, 1.0, "detector quantum efficiency"),
        "n_th": (float, 0.0, "mean thermal photons per pulse"),
        "dead_time": (float, 0.0, "detector dead time, fraction of the pulse"),
        "dark_rate": (float, 0.0, "mean dark counts per pulse"),
        "seed": (int, None, "master seed"),
        "workers": (int, None, "worker processes"),
        "format": (str, "csv", "output format: csv or json"),
        "out": (str, None, "output path (default stdout)"),
    },
    "simulate": {
        "m": (int, 4, "alphabet size M"),
        "alpha_sq": (_FLOATS, "0.5", "signal power |alpha|^2 (single value)"),
        "beta_sq": (float, 0.0, "displacement surplus photon number"),
        "strategy": (str, "cyclic", "probing strategy: cyclic or bayes"),
        "trials": (int, 10, "number of trials to record"),
        "eta": (float, 1.0, "detector quantum efficiency"),
        "n_th": (float, 0.0, "mean thermal photons per pulse"),
        "dead_time": (float, 0.0, "detector dead time, fraction of the pulse"),
        "dark_rate": (float, 0.0, "mean dark counts per pulse"),
        "seed": (int, None, "master seed"),
        "format": (str, "csv", "output format: csv or json"),
        "out": (str, None, "output path (default stdout)"),
    },
}

_RANDOMIZED = {"sweep", "optimize", "simulate"}

# commands whose alpha_sq is a power grid rather than a single value
_GRID_COMMANDS = {"sweep", "bench", "optimize"}

_BETA_POLICIES = ("fixed", "zero", "analytic", "mc")

# simulate writes its CSV this many trials at a time, to bound the text held at once
_RECORD_CHUNK = 1 << 14


def _fmt(x: float) -> str:
    """Floats are serialized with 17 significant digits (round-trip safe)."""
    return format(float(x), ".17g")


def _parse_floats(text: str) -> list[float]:
    return [float(part) for part in str(text).split(",") if part.strip()]


def _convert(name: str, conv, raw):
    if raw is None:
        return None
    try:
        if conv is _FLOATS:
            return _parse_floats(raw)
        return conv(raw)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"bad value for {name!r}: {raw!r}") from exc


def _read_spec(path: str, command: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    declared = values.pop("command", command)
    if declared != command:
        raise ValueError(
            f"spec file {path} is for command {declared!r}, not {command!r}"
        )
    unknown = set(values) - set(_SCHEMA[command])
    if unknown:
        raise ValueError(f"unknown spec keys for {command}: {sorted(unknown)}")
    return values


def _dump_spec(path: str, command: str, resolved: dict) -> None:
    lines = [f"command = {command}"]
    for name, (conv, _, _) in _SCHEMA[command].items():
        value = resolved[name]
        if value is None:
            continue
        if conv is _FLOATS:
            text = ",".join(_fmt(v) for v in value)
        elif conv is float:
            text = _fmt(value)
        else:
            text = str(value)
        lines.append(f"{name} = {text}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _resolve(command: str, args: argparse.Namespace) -> dict:
    """Merge defaults, spec file, and explicit flags (flags win)."""
    schema = _SCHEMA[command]
    spec_values = _read_spec(args.spec, command) if args.spec else {}
    resolved = {}
    for name, (conv, default, _) in schema.items():
        value = getattr(args, name)
        if value is None:
            value = spec_values.get(name, default)
        resolved[name] = _convert(name, conv, value) if value is not None else None
    if command in _RANDOMIZED and resolved.get("seed") is None:
        resolved["seed"] = int.from_bytes(os.urandom(6), "big")
        print(f"seed: {resolved['seed']}", file=sys.stderr)
    if "workers" in schema and resolved.get("workers") is None:
        resolved["workers"] = int(os.environ.get("PSKRX_WORKERS", os.cpu_count() or 1))
    if "format" in schema and resolved["format"] not in ("csv", "json"):
        raise ValueError(f"unknown format {resolved['format']!r}; use csv or json")
    if "strategy" in schema and resolved.get("strategy") not in (None, "cyclic", "bayes"):
        raise ValueError(f"unknown strategy {resolved['strategy']!r}")
    if command in _GRID_COMMANDS:
        powers = resolved["alpha_sq"]
        if not powers:
            raise ValueError("empty alpha_sq grid")
        if any(b <= a for a, b in zip(powers, powers[1:])):
            raise ValueError(f"alpha_sq grid must be strictly increasing: {powers}")
    if "trials" in schema and resolved["trials"] < 1:
        raise ValueError(f"need at least one trial, got {resolved['trials']}")
    if command == "sweep" and resolved["beta_policy"] not in _BETA_POLICIES:
        raise ValueError(f"unknown beta policy {resolved['beta_policy']!r}")
    return resolved


def _imperfections(cfg: dict) -> ImperfectionModel:
    return ImperfectionModel(
        eta=cfg["eta"],
        n_th=cfg["n_th"],
        dead_time=cfg["dead_time"],
        dark_rate=cfg["dark_rate"],
    )


def _single_power(cfg: dict) -> float:
    powers = cfg["alpha_sq"]
    if len(powers) != 1:
        raise ValueError(f"this command takes a single alpha_sq, got {powers}")
    return powers[0]


def _write_rows(cfg: dict, header: list[str], rows: list[dict]) -> None:
    if cfg["format"] == "json":
        text = json.dumps(rows, indent=2) + "\n"
    else:
        buf = io.StringIO()
        out = csv.writer(buf, lineterminator="\n")
        out.writerow(header)
        for row in rows:
            out.writerow(
                [_fmt(v) if isinstance(v, float) else v for v in (row[h] for h in header)]
            )
        text = buf.getvalue()
    _emit(cfg, [text])


def _emit(cfg: dict, pieces) -> None:
    """Write the output text, given as an iterable of pieces."""
    if cfg["out"] is None:
        sys.stdout.writelines(pieces)
    else:
        with open(cfg["out"], "w", encoding="utf-8", newline="") as fh:
            fh.writelines(pieces)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _sweep_beta(cfg: dict, alphabet: PskAlphabet, pool: WorkerPool) -> float:
    """The displacement surplus amplitude of one sweep point, by beta policy."""
    policy = cfg["beta_policy"]
    if policy == "zero":
        return 0.0
    if policy == "fixed":
        return sqrt(cfg["beta_sq"])
    if policy == "analytic":
        return optimize_beta_analytic(alphabet).beta_opt
    return optimize_beta_mc(
        alphabet,
        cfg["strategy"],
        _imperfections(cfg),
        cfg["opt_trials"],
        cfg["seed"] + 1,  # decoupled from the final-estimate stream
        workers=pool,
    ).beta_opt


def cmd_sweep(cfg: dict) -> None:
    imp = _imperfections(cfg)
    header = ["alpha_sq", "beta_sq", "p_err", "std_err", "sql", "helstrom", "trials", "seed"]
    rows = []
    with WorkerPool(cfg["workers"]) as pool:
        for alpha_sq in cfg["alpha_sq"]:
            alphabet = PskAlphabet.from_power(cfg["m"], alpha_sq)
            beta = _sweep_beta(cfg, alphabet, pool)
            est = estimate_error(
                alphabet, beta, cfg["strategy"], imp, cfg["trials"], cfg["seed"], pool
            )
            sql = bench_mod.sql_heterodyne(alphabet.alpha, cfg["m"])
            helstrom = bench_mod.helstrom_mpsk(alphabet.alpha, cfg["m"])
            if not 0.0 <= est.p_err <= 1.0:
                raise ValueError(f"error probability {est.p_err} outside [0, 1]")
            if helstrom > sql + 1e-12:
                raise ValueError("quantum bound above the classical one")
            rows.append(
                {
                    "alpha_sq": float(alpha_sq),
                    "beta_sq": beta * beta,
                    "p_err": est.p_err,
                    "std_err": est.std_err,
                    "sql": sql,
                    "helstrom": helstrom,
                    "trials": cfg["trials"],
                    "seed": cfg["seed"],
                }
            )
    _write_rows(cfg, header, rows)


def trace_rows(M: int, alpha_sq: float, beta_sq: float, clicks: list[float]) -> list[dict]:
    """Posterior after each click and at t = 1 for an ideal receiver.

    Each row carries the probe active on the interval *starting* at the
    row's time; the receiver always begins by probing state 1.
    """
    if any(not 0.0 < t < 1.0 for t in clicks):
        raise ValueError(f"click times must lie strictly inside (0, 1): {clicks}")
    if any(later <= earlier for earlier, later in zip(clicks, clicks[1:])):
        raise ValueError(f"click times must be strictly increasing: {clicks}")
    alphabet = PskAlphabet.from_power(M, alpha_sq)
    beta = sqrt(beta_sq)
    ps = initial_posterior(M)
    rows = []

    def _row(t: float, state) -> dict:
        row = {"t": t, "probe": state.probe}
        for k in range(M):
            row[f"p{k + 1}"] = float(state.probs[k])
        row["map_state"] = select_probe(state.probs, state.probe)
        return row

    for t in clicks:
        rates = displaced_rates(alphabet, ps.probe, beta)
        ps = bayes_click_update(ps, t, rates)
        rows.append(_row(t, ps))
    rates = displaced_rates(alphabet, ps.probe, beta)
    final = bayes_silence_update(ps, 1.0, rates)
    rows.append(_row(1.0, final))
    return rows


def cmd_trace(cfg: dict) -> None:
    M = cfg["m"]
    rows = trace_rows(M, _single_power(cfg), cfg["beta_sq"], cfg["clicks"])
    header = ["t", "probe"] + [f"p{k + 1}" for k in range(M)] + ["map_state"]
    _write_rows(cfg, header, rows)


def cmd_bench(cfg: dict) -> None:
    header = ["alpha_sq", "sql", "helstrom"]
    rows = []
    for alpha_sq in cfg["alpha_sq"]:
        alpha = sqrt(alpha_sq)
        rows.append(
            {
                "alpha_sq": float(alpha_sq),
                "sql": bench_mod.sql_heterodyne(alpha, cfg["m"]),
                "helstrom": bench_mod.helstrom_mpsk(alpha, cfg["m"]),
            }
        )
    _write_rows(cfg, header, rows)


def cmd_optimize(cfg: dict) -> None:
    imp = _imperfections(cfg)
    # the options the exact objective cannot model: it assumes the ideal cyclic receiver
    non_ideal = [
        f"--{name.replace('_', '-')} {cfg[name]}"
        for name in ("strategy", "eta", "n_th", "dead_time", "dark_rate")
        if cfg[name] != _SCHEMA["optimize"][name][1]
    ]
    objective = cfg["objective"]
    if objective == "auto":
        objective = "mc" if non_ideal else "analytic"
    if objective not in ("analytic", "mc"):
        raise ValueError(f"unknown objective {objective!r}")
    if objective == "analytic" and non_ideal:
        raise ValueError(
            "--objective analytic evaluates the ideal cyclic receiver and would ignore "
            f"{', '.join(non_ideal)}; use --objective mc"
        )
    header = ["alpha_sq", "beta_opt_sq", "p_err"]
    rows = []
    with WorkerPool(cfg["workers"]) as pool:
        for alpha_sq in cfg["alpha_sq"]:
            alphabet = PskAlphabet.from_power(cfg["m"], alpha_sq)
            if objective == "analytic":
                res = optimize_beta_analytic(alphabet)
            else:
                grid = cfg["beta_grid"] or None
                res = optimize_beta_mc(
                    alphabet,
                    cfg["strategy"],
                    imp,
                    cfg["trials"],
                    cfg["seed"],
                    grid=grid,
                    workers=pool,
                )
            rows.append(
                {
                    "alpha_sq": float(alpha_sq),
                    "beta_opt_sq": res.beta_opt_sq,
                    "p_err": res.p_err_at_opt,
                }
            )
    _write_rows(cfg, header, rows)


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


def cmd_simulate(cfg: dict) -> None:
    alphabet = PskAlphabet.from_power(cfg["m"], _single_power(cfg))
    rec = simulate_outcomes(
        alphabet,
        sqrt(cfg["beta_sq"]),
        cfg["strategy"],
        _imperfections(cfg),
        cfg["trials"],
        cfg["seed"],
    )
    if cfg["format"] == "csv":
        _emit(cfg, _record_csv(rec))
        return
    columns = _record_columns(rec, 0, len(rec))
    header = list(columns)
    _write_rows(cfg, header, [dict(zip(header, row)) for row in zip(*columns.values())])


_COMMANDS = {
    "sweep": cmd_sweep,
    "trace": cmd_trace,
    "bench": cmd_bench,
    "optimize": cmd_optimize,
    "simulate": cmd_simulate,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pskrx",
        description="Adaptive displacement receivers for M-ary PSK coherent states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, schema in _SCHEMA.items():
        p = sub.add_parser(command, help=f"run the {command} command")
        p.add_argument("--spec", default=None, help="flat key=value config file")
        p.add_argument("--dump-spec", default=None, help="write the resolved config here")
        for name, (_, default, help_text) in schema.items():
            p.add_argument(
                f"--{name.replace('_', '-')}",
                dest=name,
                default=None,
                help=f"{help_text} (default: {default})",
            )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _resolve(args.command, args)
        if args.dump_spec:
            _dump_spec(args.dump_spec, args.command, cfg)
        _COMMANDS[args.command](cfg)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ARGS
    except PrecisionError as exc:
        print(f"precision error: {exc}", file=sys.stderr)
        return EXIT_PRECISION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
