"""Acceptance gate: one test per release criterion, each printing a
PASS line with the measured numbers when its assertions hold.

Monte Carlo criteria run at 10^6 trials per point with fixed seeds and
compare at 4 binomial standard errors; analytic criteria pin their
stated absolute tolerances.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import filecmp
import math
import time

import numpy as np
import pytest

from pskrx.analytic import cyclic_error_probability, m_click_probability
from pskrx.bench import helstrom_mpsk, sql_heterodyne
from pskrx.cli import main, trace_rows
from pskrx.core import PskAlphabet
from pskrx.mc import IDEAL, ImperfectionModel, estimate_error
from pskrx.optimize import optimize_beta_analytic, optimize_beta_mc

from oracles import gram_srm_oracle, poisson_pmf

SEED = 20260809
TRIALS = 1_000_000
OPT_TRIALS = 100_000


def report(criterion: int, text: str) -> None:
    print(f"[criterion {criterion:2d}] PASS: {text}")


def margin(a, b, *errs) -> float:
    """(b - a) in units of the combined standard error."""
    return (b - a) / math.hypot(*errs)


def mc_optimal_beta(alphabet, strategy, imperfections, seed) -> float:
    return optimize_beta_mc(
        alphabet, strategy, imperfections, OPT_TRIALS, seed
    ).beta_opt


def test_criterion_01_poisson_reduction():
    start = time.perf_counter()
    worst = 0.0
    for n in (0.1, 0.5, 1.0, 2.0, 5.0):
        for m in range(11):
            p = m_click_probability([n] * (m + 1), m)
            worst = max(worst, abs(p - poisson_pmf(n, m)))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-12
    assert elapsed < 1.0
    report(1, f"constant-rate counting matches Poisson, worst |diff| = {worst:.2e}, {elapsed:.2f} s")


def test_criterion_02_analytic_mc_equivalence():
    worst = 0.0
    for alpha_sq in (0.25, 0.5, 1.0, 2.0):
        alphabet = PskAlphabet.from_power(4, alpha_sq)
        for beta_sq in (0.0, 0.1, 0.23, 0.5):
            beta = math.sqrt(beta_sq)
            ana = cyclic_error_probability(alphabet, beta).p_err
            est = estimate_error(alphabet, beta, "cyclic", IDEAL, TRIALS, SEED + 2)
            z = abs(est.p_err - ana) / est.std_err
            worst = max(worst, z)
            assert z <= 4.0, (alpha_sq, beta_sq, z)
    report(2, f"ideal cyclic MC matches the exact series on the 4x4 grid, worst |z| = {worst:.2f}")


def test_criterion_03_posterior_trace_table():
    rows = trace_rows(4, 0.5, 0.23, [0.15, 0.35, 0.54, 0.71])
    first, last = rows[0], rows[-1]
    assert first["p2"] == pytest.approx(0.277, abs=2e-3)
    assert first["p3"] == pytest.approx(0.403, abs=2e-3)
    assert first["p4"] == pytest.approx(0.277, abs=2e-3)
    # the receiver starts on state 1 and hops to 3 at the first click
    assert first["probe"] == 3
    assert last["map_state"] == 3
    # the tabulated reference prints 0.024 for the first entry, but its
    # column then sums to 0.981; the recursion's self-consistent value
    # is pinned instead and the deviation documented here
    assert first["p1"] == pytest.approx(0.0428714073, abs=1e-6)
    report(3, "click-record posteriors reproduce the reference table "
              f"(p2..p4 = {first['p2']:.3f}, {first['p3']:.3f}, {first['p4']:.3f}; "
              f"probes 1 -> 3; final state 3; p1 = {first['p1']:.4f} self-consistent)")


def test_criterion_04_first_click_crossover():
    lo, hi = 0.2, 0.5
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if trace_rows(4, 0.5, 0.23, [mid])[0]["map_state"] == 3:
            lo = mid
        else:
            hi = mid
    t_star = 0.5 * (lo + hi)
    assert t_star == pytest.approx(0.376, abs=0.005)
    report(4, f"first-click argmax flips at t1 = {t_star:.4f}")


def test_criterion_05_optimal_displacement_curve():
    start = time.perf_counter()
    grid = np.geomspace(1e-4, 4.0, 20)
    curve = [optimize_beta_analytic(PskAlphabet.from_power(4, a2)).beta_opt_sq for a2 in grid]
    elapsed = time.perf_counter() - start
    assert curve[0] == pytest.approx(1.2, abs=0.15)
    assert all(b <= a + 1e-6 for a, b in zip(curve, curve[1:]))
    assert curve[-1] < 0.1
    assert elapsed < 60.0
    report(5, f"surplus curve: {curve[0]:.3f} photons at 1e-4, non-increasing to "
              f"{curve[-1]:.2e} at 4.0, {elapsed:.1f} s")


@pytest.fixture(scope="module")
def optimized_grid_results():
    """Per-point optimized receivers for the sub-SQL grids.

    QPSK runs both strategies; the eight-state reference curve is for
    Bayesian probing (cyclic probing with M = 8 needs up to seven
    detections to reach a hypothesis and is not sub-SQL at weak power).
    """
    results = {}
    for M, powers, strategies in (
        (4, (0.1, 0.25, 0.5, 1.0, 1.5, 2.0), ("cyclic", "bayes")),
        (8, (0.5, 1.0, 2.0), ("bayes",)),
    ):
        for alpha_sq in powers:
            alphabet = PskAlphabet.from_power(M, alpha_sq)
            for strategy in strategies:
                if strategy == "cyclic":
                    beta = optimize_beta_analytic(alphabet).beta_opt
                else:
                    beta = mc_optimal_beta(alphabet, strategy, IDEAL, SEED + 60)
                est = estimate_error(alphabet, beta, strategy, IDEAL, TRIALS, SEED + 6)
                results[(M, alpha_sq, strategy)] = est
    return results


def test_criterion_06_sub_sql_everywhere(optimized_grid_results):
    worst_sql, worst_floor = math.inf, math.inf
    for (M, alpha_sq, strategy), est in optimized_grid_results.items():
        alpha = math.sqrt(alpha_sq)
        sql = sql_heterodyne(alpha, M)
        hel = helstrom_mpsk(alpha, M)
        z_sql = margin(est.p_err, sql, est.std_err)
        z_floor = margin(hel, est.p_err, est.std_err)
        worst_sql = min(worst_sql, z_sql)
        worst_floor = min(worst_floor, z_floor)
        assert z_sql > 4.0, (M, alpha_sq, strategy, est.p_err, sql)
        assert z_floor > -4.0, (M, alpha_sq, strategy, est.p_err, hel)
    report(6, f"optimized receivers beat the SQL at every grid point "
              f"(min margin {worst_sql:.1f} sigma) and respect the quantum floor "
              f"(min {worst_floor:.1f} sigma)")


def test_criterion_07_nulling_receiver_sql_crossing():
    low = estimate_error(PskAlphabet.from_power(4, 0.4), 0.0, "cyclic", IDEAL, TRIALS, SEED + 7)
    high = estimate_error(PskAlphabet.from_power(4, 1.0), 0.0, "cyclic", IDEAL, TRIALS, SEED + 7)
    z_above = margin(sql_heterodyne(math.sqrt(0.4), 4), low.p_err, low.std_err)
    z_below = margin(high.p_err, sql_heterodyne(1.0, 4), high.std_err)
    assert z_above > 4.0
    assert z_below > 4.0
    report(7, f"exact-nulling receiver crosses the SQL between 0.4 "
              f"(+{z_above:.0f} sigma above) and 1.0 ({z_below:.0f} sigma below)")


def test_criterion_08_strategy_ordering(optimized_grid_results):
    strict = None
    for alpha_sq in (0.1, 0.25, 0.5, 1.0, 1.5, 2.0):
        cyc = optimized_grid_results[(4, alpha_sq, "cyclic")]
        bay = optimized_grid_results[(4, alpha_sq, "bayes")]
        z = margin(bay.p_err, cyc.p_err, cyc.std_err, bay.std_err)
        assert z > -4.0, (alpha_sq, bay.p_err, cyc.p_err)
        if alpha_sq == 2.0:
            strict = z
            assert z > 4.0
    report(8, f"Bayesian probing never loses and wins strictly at power 2.0 "
              f"(+{strict:.0f} sigma)")


def test_criterion_09_quantum_efficiency():
    margins = []
    imp = ImperfectionModel(eta=0.7)
    for alpha_sq in (1.0, 1.5, 2.0):
        alphabet = PskAlphabet.from_power(4, alpha_sq)
        beta = mc_optimal_beta(alphabet, "cyclic", imp, SEED + 90)
        est = estimate_error(alphabet, beta, "cyclic", imp, TRIALS, SEED + 9)
        z = margin(est.p_err, sql_heterodyne(math.sqrt(alpha_sq), 4), est.std_err)
        margins.append(z)
        assert z > 4.0, (alpha_sq, est.p_err)
    imp = ImperfectionModel(eta=0.6)
    alphabet = PskAlphabet.from_power(4, 1.0)
    beta = mc_optimal_beta(alphabet, "bayes", imp, SEED + 91)
    est = estimate_error(alphabet, beta, "bayes", imp, TRIALS, SEED + 9)
    z_bayes = margin(est.p_err, sql_heterodyne(1.0, 4), est.std_err)
    assert z_bayes > 4.0
    report(9, f"sub-SQL at 70% efficiency (cyclic, margins {margins[0]:.0f}/"
              f"{margins[1]:.0f}/{margins[2]:.0f} sigma) and 60% (Bayesian, "
              f"+{z_bayes:.0f} sigma)")


def test_criterion_10_imperfection_monotonicity():
    alphabet = PskAlphabet.from_power(4, 1.0)
    beta = optimize_beta_analytic(alphabet).beta_opt
    ramps = {
        "n_th": [ImperfectionModel(n_th=x) for x in (0.0, 0.2, 0.4, 0.8)],
        "dead_time": [ImperfectionModel(dead_time=x) for x in (0.0, 0.05, 0.10, 0.20)],
        "dark_rate": [ImperfectionModel(dark_rate=x) for x in (0.0, 0.2, 0.4, 0.8)],
        "eta": [ImperfectionModel(eta=x) for x in (1.0, 0.9, 0.8, 0.7)],
    }
    cache: dict = {}

    def run(imp):
        if imp not in cache:
            cache[imp] = estimate_error(alphabet, beta, "cyclic", imp, TRIALS, SEED + 10)
        return cache[imp]

    for name, ramp in ramps.items():
        ests = [run(imp) for imp in ramp]
        for a, b in zip(ests, ests[1:]):
            z = margin(a.p_err, b.p_err, a.std_err, b.std_err)
            assert z > -4.0, (name, a.p_err, b.p_err)
    report(10, "error is non-decreasing along each single-imperfection ramp "
               "(thermal noise, dead time, dark counts, efficiency)")


def test_criterion_11_dead_time_robustness():
    imp = ImperfectionModel(dead_time=0.20)
    margins = []
    for alpha_sq in (1.0, 2.0):
        alphabet = PskAlphabet.from_power(4, alpha_sq)
        beta = mc_optimal_beta(alphabet, "bayes", imp, SEED + 110)
        est = estimate_error(alphabet, beta, "bayes", imp, TRIALS, SEED + 11)
        z = margin(est.p_err, sql_heterodyne(math.sqrt(alpha_sq), 4), est.std_err)
        margins.append(z)
        assert z > 4.0, (alpha_sq, est.p_err)
    report(11, f"Bayesian probing stays sub-SQL with a 20% dead time "
               f"(+{margins[0]:.0f} / +{margins[1]:.0f} sigma)")


def test_criterion_12_helstrom_oracle():
    worst = 0.0
    for M in (2, 4, 8):
        for alpha_sq in (0.1, 0.5, 1.0, 2.0):
            alpha = math.sqrt(alpha_sq)
            diff = abs(helstrom_mpsk(alpha, M) - gram_srm_oracle(alpha, M, 60))
            worst = max(worst, diff)
            assert diff <= 1e-8
    worst2 = 0.0
    for alpha_sq in (0.1, 0.5, 1.0, 2.0):
        closed = 0.5 * (1 - math.sqrt(1 - math.exp(-4 * alpha_sq)))
        diff = abs(helstrom_mpsk(math.sqrt(alpha_sq), 2) - closed)
        worst2 = max(worst2, diff)
        assert diff <= 1e-10
    report(12, f"circulant formula vs Gram square root: worst {worst:.1e}; "
               f"binary closed form: worst {worst2:.1e}")


def test_criterion_13_worker_independent_csv(tmp_path):
    paths = []
    for workers in (1, 4, 8):
        out = tmp_path / f"sweep_w{workers}.csv"
        code = main([
            "sweep", "--m", "4", "--alpha-sq", "0.25,0.5,1", "--strategy", "bayes",
            "--beta-policy", "fixed", "--beta-sq", "0.23", "--trials", "30000",
            "--seed", str(SEED), "--workers", str(workers), "--out", str(out),
        ])
        assert code == 0
        paths.append(out)
    assert filecmp.cmp(paths[0], paths[1], shallow=False)
    assert filecmp.cmp(paths[0], paths[2], shallow=False)
    report(13, "sweep output is byte-identical for 1, 4 and 8 workers")
