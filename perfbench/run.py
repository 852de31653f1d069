"""Benchmark for pskrx: run one workload through the CLI and print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload exact-optimize --seed 1 --seconds 28 --trace 0

The program is imported from ``src/`` of the checkout that holds this
script; nothing is installed or built.  The workload's grid is run in
passes for ``--seconds`` (the first pass always runs to the end), every
output is checked, and the last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` each operation runs once untraced and once traced and
the metrics are the per-layer ones.  The line before it records the
seed, the host, the versions and the sha256 of the workload's output
bytes.  See perfbench/README.md for what each metric should move.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread per process, set before numpy loads, so the
# only parallelism is the trial engine's --workers = nproc processes
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from contextlib import nullcontext, redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
NPROC = len(os.sched_getaffinity(0))
SETUP_REPEATS = 3


def import_program():
    """Import pskrx.cli from this checkout's src/, or exit non-zero."""
    sys.path.insert(0, str(SRC))
    try:
        import pskrx.cli
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import pskrx from {SRC}: {exc}")
    if Path(pskrx.cli.__file__).resolve().parent != SRC / "pskrx":
        sys.exit(f"perfbench: pskrx imported from {pskrx.cli.__file__}, not from {SRC}")
    return pskrx.cli


def measure_setup() -> float:
    """Median wall time for a fresh interpreter to import pskrx.cli."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import pskrx.cli"], cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def call_cli(cli, op, tracer=None):
    """Run one operation in process; returns (exit code, wall s, data bytes, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err), (tracer.span("cli") if tracer else nullcontext()):
            code = cli.main(list(op.argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # an operation that crashes is counted as failed
        code = -1
        err.write(traceback.format_exc())
    wall = time.perf_counter() - start
    if op.out_path is not None and code == 0:
        data = op.out_path.read_bytes()
    else:
        data = out.getvalue().encode()
    return code, wall, data, err.getvalue()


def check(workload, op, code: int, data: bytes, stderr: str) -> list[str]:
    if code != 0:
        return [f"exit code {code}: {stderr.strip()[-500:]}"]
    try:
        return workload.check(op, data)
    except (ValueError, KeyError) as exc:
        return [f"unreadable output: {exc!r}"]


def sum_of_medians(samples: dict[int, list[dict]], key: str) -> float:
    """Cost of one full pass: per grid point the median over passes, summed."""
    return sum(statistics.median(s[key] for s in point) for point in samples.values())


def traced_call(cli, op, tracer, op_id: int):
    tracer.op = op_id
    with tracer.installed():
        return call_cli(cli, op, tracer)


def measure(cli, workload, seed: int, deadline: float, tracer) -> dict:
    """Run passes over the grid; after the first, only operations that fit before the deadline."""
    samples: dict[int, list[dict]] = defaultdict(list)
    took: dict[int, float] = {}  # last time spent on each point, checks included
    attempted = failed = 0
    pass_digests = []
    pass_index = 0
    while True:
        digest, ran, complete = hashlib.sha256(), False, True
        for op in workload.ops(seed, pass_index, NPROC, OUT_DIR):
            started = time.monotonic()
            if pass_index > 0 and started + took[op.point] > deadline:
                complete = False
                continue
            ran = True
            attempted += 1
            # traced runs alternate which of the two calls goes first
            traced_first = tracer is not None and attempted % 2 == 1
            if traced_first:
                traced = traced_call(cli, op, tracer, attempted)
            code, wall, data, stderr = call_cli(cli, op)
            if tracer is not None and not traced_first:
                traced = traced_call(cli, op, tracer, attempted)
            errors = check(workload, op, code, data, stderr)
            sample = {"wall": wall}
            if tracer is not None:
                t_code, t_wall, t_data, _ = traced
                if (t_code, t_data) != (code, data):
                    errors.append("traced output differs from untraced output")
                sample.update(tracer.op_metrics(attempted, len(t_data)), traced_wall=t_wall)
            if errors:
                failed += 1
                print(f"perfbench: FAILED {' '.join(op.argv)}: {'; '.join(errors)}", file=sys.stderr)
            samples[op.point].append(sample)
            digest.update(data)
            took[op.point] = time.monotonic() - started
        if not ran:
            break
        if complete:
            pass_digests.append(digest.hexdigest())
        pass_index += 1
    return {"samples": samples, "attempted": attempted, "failed": failed,
            "passes": pass_index, "pass_sha256": pass_digests}


def known_failures(cli, workload) -> int:
    """Known-failing inputs that still fail (exit non-zero or a failed check)."""
    if workload.known_failure is None:
        return 0
    op = workload.op_for(-1, workload.known_failure, 0.5, NPROC)
    code, _, data, stderr = call_cli(cli, op)
    return int(bool(check(workload, op, code, data, stderr)))


def layer_probes() -> dict[str, float]:
    """Trial-engine and RNG speed on fixed inputs, outside any workload."""
    import numpy as np
    from pskrx import IDEAL, PskAlphabet
    from pskrx._rng import counter_uniform
    from pskrx.mc import estimate_error

    def median_seconds(fn, repeats: int) -> float:
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    alphabet, beta, trials = PskAlphabet.from_power(4, 0.5), math.sqrt(0.23), 1 << 18

    def engine(strategy: str, workers: int) -> float:
        return median_seconds(
            lambda: estimate_error(alphabet, beta, strategy, IDEAL, trials, 7, workers), 3)

    bayes_1w = engine("bayes", 1)
    draws = np.arange(1 << 20, dtype=np.uint64)
    return {
        "mc.cyclic.trials_per_s_1w": trials / engine("cyclic", 1),
        "mc.bayes.trials_per_s_1w": trials / bayes_1w,
        "mc.speedup_nproc": bayes_1w / engine("bayes", NPROC),
        "rng.draws_per_s": draws.size / median_seconds(lambda: counter_uniform(7, draws, 3), 5),
    }


def per_layer(run: dict, tracer, cli, workload) -> dict[str, float]:
    samples = run["samples"]
    keys = next(iter(samples.values()))[0].keys()
    m = {key: sum_of_medians(samples, key) for key in keys}
    call_ms = tracer.analytic_call_ms()
    return {
        **{k: v for k, v in m.items() if "." in k},
        "trials_per_s": m["trials"] / m["wall"],
        "analytic.ms_per_call_p50": statistics.median(call_ms) if call_ms else 0.0,
        "analytic.m_max_mean": statistics.fmean(tracer.analytic_m_max) if call_ms else 0.0,
        "mc.trials_per_s": m["mc.trials"] / m["mc.busy_s"] if m["mc.busy_s"] else 0.0,
        "cli.known_failures": float(known_failures(cli, workload)),
        "trace.overhead_s": m["traced_wall"] - m["wall"],
        **layer_probes(),
    }


def end_to_end(run: dict, setup_s: float) -> dict[str, float]:
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return {
        "wall_s": sum_of_medians(run["samples"], "wall"),
        "setup_s": setup_s,
        "rss_peak_mb": rss_kb / 1024.0,
    }


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(args, run: dict) -> dict:
    import numpy
    import scipy

    try:
        import mpmath
        mpmath_version = mpmath.__version__
    except ImportError:
        mpmath_version = None
    src = hashlib.sha256()
    for path in sorted((SRC / "pskrx").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "nproc": NPROC,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "mpmath": mpmath_version,
        "git_sha": git_sha(), "src_sha256": src.hexdigest(),
        "passes": run["passes"], "data_sha256": run["pass_sha256"][0],
        "pass_sha256": run["pass_sha256"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    cli = import_program()
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]()
    OUT_DIR.mkdir(exist_ok=True)
    os.environ["PSKRX_WORKERS"] = str(NPROC)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))

    deadline = time.monotonic() + args.seconds
    if args.trace:
        tracer = tracing.Tracer()
        run = measure(cli, workload, args.seed, deadline, tracer)
        values, declared = per_layer(run, tracer, cli, workload), spec["per_layer"]
        with open(OUT_DIR / f"spans-{args.workload}-{args.seed}.json", "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
    else:
        setup_s = measure_setup()
        run = measure(cli, workload, args.seed, deadline, None)
        values, declared = end_to_end(run, setup_s), spec["end_to_end"]
    with open(OUT_DIR / f"ops-{args.workload}-{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(run["samples"], fh)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    for name, metric in metrics.items():
        print(f"{name:32s} {metric['value']:>16.6g} {metric['unit']}", file=sys.stderr)
    print(json.dumps(provenance(args, run)))
    print(json.dumps({"correct": run["failed"] == 0, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
