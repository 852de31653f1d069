"""Write reference.json: high-statistics error estimates for the mc-estimate grid.

The points with no exact oracle (Bayesian probing, or any imperfection)
are checked against these values.  They were produced once, at the
commit that introduced the benchmark, with

    python3 perfbench/make_reference.py

from the repository root.  Rerunning it is only needed if the grid or
the receiver definition changes.
"""

from __future__ import annotations

import json
import math
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from pskrx import ImperfectionModel, PskAlphabet  # noqa: E402
from pskrx.mc import estimate_error  # noqa: E402

from workloads import BETA_SQ, DETECTORS, McEstimate  # noqa: E402

TRIALS = 10_000_000
SEED = 20141217


def main() -> None:
    out = []
    for p in McEstimate.points:
        if p["strategy"] == "cyclic" and p["detector"] == "ideal":
            continue  # checked against the exact oracle
        est = estimate_error(
            PskAlphabet.from_power(p["m"], p["alpha_sq"]), math.sqrt(BETA_SQ), p["strategy"],
            ImperfectionModel(**DETECTORS[p["detector"]]), TRIALS, SEED, workers=len(os.sched_getaffinity(0)),
        )
        out.append({**p, "beta_sq": BETA_SQ, "p_err": est.p_err, "std_err": est.std_err,
                    "trials": TRIALS, "seed": SEED})
        print(out[-1], flush=True)
    with open(HERE / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
