"""Command-line front end: sweeps, traces, bounds, optimization, trials.

Subcommands
-----------
sweep     error probability vs. signal power for one receiver setup
trace     posterior trace for a given click record (ideal receiver)
bench     SQL and Helstrom reference curves
optimize  optimal displacement surplus vs. signal power
simulate  raw per-trial records, CSV and JSON from one chunked writer

Every option can also be supplied through a flat ``key = value`` spec
file (``--spec FILE``); explicit flags override file entries, and
``--dump-spec FILE`` records the fully resolved configuration (seed
included) so the run can be reproduced byte for byte.  Randomized
commands honor ``--seed``; when it is omitted a fresh seed is drawn,
printed on stderr, and written into the outputs; ``optimize`` with the
exact objective uses no random numbers, so it draws no seed.
``--workers``, at least 1, caps the Monte Carlo parallelism (default:
PSKRX_WORKERS or the CPUs this process may run on): ``sweep`` and
``optimize`` run every Monte Carlo estimate in one worker pool, started
when first needed and stopped when the command ends.  The pool starts
no more processes than the CPUs this process may run on, whatever
``--workers`` asks, and none when that leaves one.  The output is
identical for any worker count.
An option that the chosen mode would ignore is an argument error:
``sweep``'s ``beta_sq`` outside ``--beta-policy fixed`` and
``opt_trials`` outside ``mc``, each compared with its default, and a
non-ideal receiver, ``trials`` or ``beta_grid`` under ``optimize``'s
exact objective (``--seed`` and ``--workers`` are accepted there and
change nothing).

``main(argv)`` may be called any number of times in one process: it
builds its parser on the first call and reuses it after that, so
importing the module builds none.

Exit codes: 0 success, 2 argument error, 3 precision/convergence
error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from math import sqrt

import numpy as np

from . import bench as bench_mod
from .core import PskAlphabet
from .errors import PrecisionError
from .mc import (
    STRATEGIES,
    ImperfectionModel,
    TrialRecords,
    WorkerPool,
    estimate_error,
    posterior_trace,
    simulate_outcomes,
    usable_cpus,
)
from .optimize import optimize_beta_analytic, optimize_beta_mc

EXIT_OK = 0
EXIT_ARGS = 2
EXIT_PRECISION = 3
EXIT_IO = 4

_DEFAULT_POWERS = "0.1,0.25,0.5,1,1.5,2"

# option schema per subcommand: name -> (converter, default, help)
_FLOATS = "floats"
# the detector options of sweep, optimize and simulate: ImperfectionModel's fields
_DETECTOR = {
    "eta": (float, 1.0, "detector quantum efficiency"),
    "n_th": (float, 0.0, "mean thermal photons per pulse"),
    "dead_time": (float, 0.0, "detector dead time, fraction of the pulse"),
    "dark_rate": (float, 0.0, "mean dark counts per pulse"),
}
_SCHEMA: dict[str, dict[str, tuple]] = {
    "sweep": {
        "m": (int, 4, "alphabet size M"),
        "alpha_sq": (_FLOATS, _DEFAULT_POWERS, "signal powers |alpha|^2, comma list"),
        "strategy": (str, "cyclic", "probing strategy: cyclic or bayes"),
        "beta_policy": (str, "analytic", "displacement: fixed, zero, analytic or mc"),
        "beta_sq": (float, 0.0, "surplus photon number for --beta-policy fixed"),
        "trials": (int, 100_000, "Monte Carlo trials per grid point"),
        "opt_trials": (int, 100_000, "trials per candidate for --beta-policy mc"),
        **_DETECTOR,
        "seed": (int, None, "master seed (omit for a fresh printed one)"),
        "workers": (int, None, "worker processes for the trial engine"),
        "format": (str, "csv", "output format: csv or json"),
        "out": (str, None, "output path (default stdout)"),
    },
    "trace": {
        "m": (int, 4, "alphabet size M"),
        "alpha_sq": (float, "0.5", "signal power |alpha|^2 (single value)"),
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
        **_DETECTOR,
        "seed": (int, None, "master seed"),
        "workers": (int, None, "worker processes"),
        "format": (str, "csv", "output format: csv or json"),
        "out": (str, None, "output path (default stdout)"),
    },
    "simulate": {
        "m": (int, 4, "alphabet size M"),
        "alpha_sq": (float, "0.5", "signal power |alpha|^2 (single value)"),
        "beta_sq": (float, 0.0, "displacement surplus photon number"),
        "strategy": (str, "cyclic", "probing strategy: cyclic or bayes"),
        "trials": (int, 10, "number of trials to record"),
        **_DETECTOR,
        "seed": (int, None, "master seed"),
        "format": (str, "csv", "output format: csv or json"),
        "out": (str, None, "output path (default stdout)"),
    },
}

_RANDOMIZED = {"sweep", "optimize", "simulate"}

_BETA_POLICIES = ("fixed", "zero", "analytic", "mc")

# sweep options that one beta policy alone reads
_POLICY_OPTIONS = {"beta_sq": "fixed", "opt_trials": "mc"}

# the largest alphabet accepted: the engine and trace tabulate phase steps and
# posteriors as M x M and M x trials arrays
_MAX_M = 1024

# simulate's output fields, in column order
_RECORD_FIELDS = (
    "trial", "true_state", "hypothesis", "confidence",
    "correct", "n_clicks", "click_times", "probes",
)

# simulate writes its records this many trials at a time, to bound the text held at once
_RECORD_CHUNK = 1 << 14


def _fmt(x: float) -> str:
    """Floats are serialized with 17 significant digits (round-trip safe)."""
    return format(float(x), ".17g")


# The doubles nearest 1e-4, 1e-3, 0.01 and 0.1 each lie above that power of
# ten with no double in between, so comparing with them finds floor(log10 v)
# exactly; _fmt_slots calls a value's place in this table its decade.
_DECADES = np.array([1e-4, 1e-3, 1e-2, 1e-1, 1.0])
# by decade 1..4: what %.17g writes before the 17 digits, and 10**(16 - e)
# for e = floor(log10 v), which is exact in binary64 and takes those digits
# to the integer part
_LEADS = np.array([None, "0.000", "0.00", "0.0", "0."], dtype=object)
_SCALES = np.array([1.0, 1e20, 1e19, 1e18, 1e17])


def _veltkamp(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split doubles exactly into halves of at most 26 significant bits each."""
    t = 134217729.0 * a  # 2**27 + 1
    high = t - (t - a)
    return high, a - high


_SCALE_HIGH, _SCALE_LOW = _veltkamp(_SCALES)


def _fmt_slots(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_fmt`` of each value of ``x`` as two slots, a lead and its digits.

    ``"%s%s" % (lead[i], digits[i])`` is ``_fmt(x[i])``.  For a value v in
    [1e-4, 1) the lead is "0." and the zeros before the first significant
    digit, and the digits are a Python int: with e = floor(log10 v), the
    exact product v 10**(16 - e) is the double p plus its rounding error,
    both found by Dekker's TwoProduct.  p is an even integer of at least
    10**16 > 2**53, so p + rint(error) rounds the product half to even, as
    %.17g does, and it stays below 10**17 because no double lies within
    half a unit of the 17th digit below 10**(e + 1).  Trailing zeros are
    divided away.  Any other value is ``_fmt``'s string with "" as its
    digits.
    """
    decade = np.searchsorted(_DECADES, x, side="right")
    outside = np.flatnonzero((decade == 0) | (decade == 5))
    rest = [_fmt(t) for t in x[outside].tolist()]
    if rest:
        # stand-ins keep the arithmetic finite; their slots are replaced below
        x = x.copy()
        x[outside], decade[outside] = 0.5, 4
    product = x * _SCALES[decade]
    x_high, x_low = _veltkamp(x)
    s_high, s_low = _SCALE_HIGH[decade], _SCALE_LOW[decade]
    error = ((x_high * s_high - product) + x_high * s_low + x_low * s_high) + x_low * s_low
    n = product.astype(np.int64) + np.rint(error).astype(np.int64)
    zeros = np.flatnonzero(n % 10 == 0)
    while zeros.size:
        n[zeros] //= 10
        zeros = zeros[n[zeros] % 10 == 0]
    lead, digits = _LEADS[decade], n.astype(object)
    lead[outside], digits[outside] = rest, ""
    return lead, digits


def _parse_floats(text: str) -> list[float]:
    return [float(part) for part in str(text).split(",") if part.strip()]


def _convert(name: str, conv, raw):
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
    if resolved["m"] > _MAX_M:
        raise ValueError(f"alphabet size M must be at most {_MAX_M}, got {resolved['m']}")
    # checked before anything takes its square root
    if "beta_sq" in schema and not resolved["beta_sq"] >= 0.0:
        raise ValueError(f"displacement surplus must be >= 0, got {resolved['beta_sq']}")
    if "workers" in schema:
        origin = ""
        if resolved["workers"] is None:
            env = os.environ.get("PSKRX_WORKERS")
            if env is None:
                resolved["workers"] = usable_cpus()
            else:
                resolved["workers"] = _convert("PSKRX_WORKERS", int, env)
                origin = " from PSKRX_WORKERS"
        if resolved["workers"] < 1:
            raise ValueError(f"need at least one worker, got {resolved['workers']}{origin}")
    if "format" in schema and resolved["format"] not in ("csv", "json"):
        raise ValueError(f"unknown format {resolved['format']!r}; use csv or json")
    if "strategy" in schema and resolved["strategy"] not in STRATEGIES:
        raise ValueError(f"unknown strategy {resolved['strategy']!r}")
    if schema["alpha_sq"][0] is _FLOATS:  # a grid of powers
        powers = resolved["alpha_sq"]
        if not powers:
            raise ValueError("empty alpha_sq grid")
        if any(b <= a for a, b in zip(powers, powers[1:])):
            raise ValueError(f"alpha_sq grid must be strictly increasing: {powers}")
    if "trials" in schema and resolved["trials"] < 1:
        raise ValueError(f"need at least one trial, got {resolved['trials']}")
    if command == "sweep":
        policy = resolved["beta_policy"]
        if policy not in _BETA_POLICIES:
            raise ValueError(f"unknown beta policy {policy!r}")
        for name, reader in _POLICY_OPTIONS.items():
            if resolved[name] != schema[name][1] and policy != reader:
                raise ValueError(
                    f"--beta-policy {policy} would ignore --{name.replace('_', '-')} "
                    f"{resolved[name]}; it is read by --beta-policy {reader} only"
                )
    # the exact objective draws nothing, so it needs no seed
    randomized = command in _RANDOMIZED and not (
        command == "optimize" and _optimize_objective(resolved) == "analytic"
    )
    if randomized and resolved["seed"] is None:
        resolved["seed"] = int.from_bytes(os.urandom(6), "big")
        print(f"seed: {resolved['seed']}", file=sys.stderr)
    return resolved


def _imperfections(cfg: dict) -> ImperfectionModel:
    return ImperfectionModel(**{name: cfg[name] for name in _DETECTOR})


def _write_rows(cfg: dict, header: list[str], rows: list[dict]) -> None:
    if cfg["format"] == "json":
        text = json.dumps(rows, indent=2) + "\n"
    else:
        # every field is a number or a plain name: none needs quoting
        lines = [header, *([row[h] for h in header] for row in rows)]
        text = "".join(
            ",".join(_fmt(v) if isinstance(v, float) else str(v) for v in line) + "\n"
            for line in lines
        )
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
    row's time; the receiver always begins by probing state 1.  The
    posteriors are :func:`pskrx.mc.posterior_trace`'s.
    """
    if any(not 0.0 < t < 1.0 for t in clicks):
        raise ValueError(f"click times must lie strictly inside (0, 1): {clicks}")
    if any(later <= earlier for earlier, later in zip(clicks, clicks[1:])):
        raise ValueError(f"click times must be strictly increasing: {clicks}")
    posteriors, probes, map_states = posterior_trace(
        PskAlphabet.from_power(M, alpha_sq), sqrt(beta_sq), clicks
    )
    rows = []
    for t, probe, column, map_state in zip(
        [*clicks, 1.0], probes.tolist(), posteriors.T.tolist(), map_states.tolist()
    ):
        row = {"t": t, "probe": probe}
        row.update((f"p{k + 1}", p) for k, p in enumerate(column))
        row["map_state"] = map_state
        rows.append(row)
    return rows


def cmd_trace(cfg: dict) -> None:
    M = cfg["m"]
    rows = trace_rows(M, cfg["alpha_sq"], cfg["beta_sq"], cfg["clicks"])
    header = ["t", "probe"] + [f"p{k + 1}" for k in range(M)] + ["map_state"]
    _write_rows(cfg, header, rows)


def cmd_bench(cfg: dict) -> None:
    header = ["alpha_sq", "sql", "helstrom"]
    rows = []
    for alpha_sq in cfg["alpha_sq"]:
        alpha = PskAlphabet.from_power(cfg["m"], alpha_sq).alpha
        rows.append(
            {
                "alpha_sq": float(alpha_sq),
                "sql": bench_mod.sql_heterodyne(alpha, cfg["m"]),
                "helstrom": bench_mod.helstrom_mpsk(alpha, cfg["m"]),
            }
        )
    _write_rows(cfg, header, rows)


def _changed_options(cfg: dict, names) -> list[str]:
    """optimize's options among ``names`` that differ from their defaults, as flags."""
    schema = _SCHEMA["optimize"]
    return [
        f"--{name.replace('_', '-')} {cfg[name]}"
        for name in names
        if cfg[name] != _convert(name, schema[name][0], schema[name][1])
    ]


def _optimize_objective(cfg: dict) -> str:
    """optimize's objective, 'analytic' or 'mc', with ``auto`` resolved."""
    # the options the exact objective cannot model: it assumes the ideal cyclic receiver
    non_ideal = _changed_options(cfg, ("strategy", *_DETECTOR))
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
    # --seed and --workers, which every randomized command takes, stay accepted
    # and change nothing
    trial_options = _changed_options(cfg, ("trials", "beta_grid"))
    if objective == "analytic" and trial_options:
        raise ValueError(
            f"the exact objective (--objective {cfg['objective']}) runs no trials and "
            f"would ignore {', '.join(trial_options)}; use --objective mc"
        )
    return objective


def cmd_optimize(cfg: dict) -> None:
    imp = _imperfections(cfg)
    objective = _optimize_objective(cfg)
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


def _row_template(fmt: str, n: int) -> str:
    """The ``%``-template of one simulate record with n clicks.

    Both formats have the same slots in the same order.  A CSV row ends in
    "\n"; a JSON row is one object of ``json.dumps(rows, indent=2)`` and
    ends in ",\n".
    """
    slots = ["%d", "%d", "%d", "%s%s", "%d", "%d", ";".join(["%s%s"] * n), "1" + ";%d" * n]
    if fmt == "csv":
        return ",".join(slots) + "\n"
    slots[6:] = [f'"{slot}"' for slot in slots[6:]]
    fields = ",\n".join(f'    "{name}": {slot}' for name, slot in zip(_RECORD_FIELDS, slots))
    return f"  {{\n{fields}\n  }},\n"


def _record_text(rec: TrialRecords, fmt: str):
    """simulate's output in format ``fmt``: a head, then one piece per chunk of trials.

    A chunk is one ``%``-format: the row templates of its trials, chosen by
    click count, joined, and applied to all of the chunk's values in row
    order (six leading fields, the click times, the probes after each
    click).  Each float fills two ``%s`` slots: a click time's are its
    ``_fmt_slots``, which together read as ``_fmt`` writes it, and so are
    the confidence's in CSV; JSON puts the float and "" there, since ``%s``
    of a float is the ``repr`` that ``json.dumps`` writes.  The integer
    fields stay Python ints.  The string fields hold digits, '.', '-', '+',
    'e' and ';' only, so none needs quoting or escaping.  JSON's head is
    "[" and its last row closes the array in place of its ",".
    """
    json_fmt = fmt == "json"
    yield "[\n" if json_fmt else ",".join(_RECORD_FIELDS) + "\n"
    templates: dict[int, str] = {}
    for lo in range(0, len(rec), _RECORD_CHUNK):
        hi = min(lo + _RECORD_CHUNK, len(rec))
        offsets = rec.click_offsets[lo : hi + 1]
        first, last = int(offsets[0]), int(offsets[-1])
        n_clicks = np.diff(offsets)
        widths = 7 + 3 * n_clicks
        starts = np.cumsum(widths) - widths
        values = np.empty(int(widths.sum()), dtype=object)
        true_state, hypothesis = rec.true_state[lo:hi], rec.hypothesis[lo:hi]
        confidence = rec.confidence[lo:hi]
        for field, column in enumerate((
            np.arange(lo, hi),
            true_state,
            hypothesis,
            *((confidence.tolist(), "") if json_fmt else _fmt_slots(confidence)),
            (true_state == hypothesis).astype(np.int64),
            n_clicks,
        )):
            values[starts + field] = column
        # click j of a trial with n clicks fills 7 + 2j and 8 + 2j past its
        # row start, and its probe 7 + 2n + j
        row = np.repeat(starts, n_clicks)
        j = np.arange(last - first) - np.repeat(offsets[:-1] - first, n_clicks)
        at = row + 7 + 2 * j
        values[at], values[at + 1] = _fmt_slots(rec.click_times[first:last])
        values[row + 7 + 2 * np.repeat(n_clicks, n_clicks) + j] = rec.probes[first:last]
        counts = n_clicks.tolist()
        for n in set(counts) - templates.keys():
            templates[n] = _row_template(fmt, n)
        rows = [templates[n] for n in counts]
        if json_fmt and hi == len(rec):
            rows[-1] = rows[-1][:-2] + "\n]\n"
        yield "".join(rows) % tuple(values.tolist())


def cmd_simulate(cfg: dict) -> None:
    alphabet = PskAlphabet.from_power(cfg["m"], cfg["alpha_sq"])
    rec = simulate_outcomes(
        alphabet,
        sqrt(cfg["beta_sq"]),
        cfg["strategy"],
        _imperfections(cfg),
        cfg["trials"],
        cfg["seed"],
    )
    _emit(cfg, _record_text(rec, cfg["format"]))


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


# main's parser: built on its first call, then reused for the rest of the process
_main_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _main_parser().parse_args(argv)
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
