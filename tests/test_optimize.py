import math

import numpy as np
import pytest

import pskrx.mc
from pskrx.analytic import cyclic_error_probability
from pskrx.core import PskAlphabet
from pskrx.mc import IDEAL, estimate_error
from pskrx.optimize import (
    default_beta_grid,
    optimize_beta_analytic,
    optimize_beta_mc,
)


class TestAnalytic:
    def test_weak_signal_surplus(self):
        res = optimize_beta_analytic(PskAlphabet.from_power(4, 1e-4))
        assert res.beta_opt_sq == pytest.approx(1.2, abs=0.15)
        assert res.objective_kind == "analytic-cyclic"
        assert res.stationarity_gap is not None and res.stationarity_gap < 1e-6

    def test_bright_signal_surplus_vanishes(self):
        res = optimize_beta_analytic(PskAlphabet.from_power(4, 10.0))
        assert res.beta_opt_sq < 0.05

    def test_descending_in_power(self):
        vals = [
            optimize_beta_analytic(PskAlphabet.from_power(4, a2)).beta_opt_sq
            for a2 in np.geomspace(0.05, 4.0, 6)
        ]
        assert all(b <= a + 1e-6 for a, b in zip(vals, vals[1:]))

    def test_result_invariants(self):
        res = optimize_beta_analytic(PskAlphabet.from_power(4, 0.5))
        lo, hi = res.bracket
        assert lo <= res.beta_opt <= hi
        f = lambda b: cyclic_error_probability(PskAlphabet.from_power(4, 0.5), b, 1e-9).p_err
        assert res.p_err_at_opt <= f(lo) + 1e-12
        assert res.p_err_at_opt <= f(hi) + 1e-12
        assert res.beta_opt_sq == res.beta_opt**2

    def test_multistart_agreement(self):
        # scan plus refinement is insensitive to the starting bracket
        a = PskAlphabet.from_power(4, 0.3)
        base = optimize_beta_analytic(a)
        for bracket in ((0.0, 1.4), (0.0, 2.6)):
            other = optimize_beta_analytic(a, bracket=bracket)
            assert other.beta_opt == pytest.approx(base.beta_opt, abs=1e-4)

    def test_optimum_near_lower_edge(self):
        # beta_opt ~ 1.7e-5 lies in the first scan cell, close to the edge
        res = optimize_beta_analytic(PskAlphabet.from_power(4, 8.0))
        assert 0.0 <= res.beta_opt < 1e-3
        assert res.stationarity_gap is not None and res.stationarity_gap < 1e-6

    @pytest.mark.parametrize(
        "M, alpha_sq", [(2, 0.3), (4, 1e-4), (4, 0.25), (4, 4.0), (8, 2.0), (16, 1.0)]
    )
    def test_interior_optimum_is_stationary(self, M, alpha_sq):
        # the gap is the exact |dP/dbeta| where the root solve stopped
        alphabet = PskAlphabet.from_power(M, alpha_sq)
        res = optimize_beta_analytic(alphabet)
        assert not res.at_boundary
        assert res.stationarity_gap <= 1e-6
        exact = cyclic_error_probability(alphabet, res.beta_opt, 1e-9)
        assert res.stationarity_gap == abs(exact.slope)
        assert res.p_err_at_opt == exact.p_err

    def test_optimum_at_the_edge_is_flagged(self):
        # at alpha^2 = 10 dP/dbeta vanishes within 10 tol of beta = 0
        res = optimize_beta_analytic(PskAlphabet.from_power(4, 10.0))
        assert res.at_boundary and res.beta_opt < 1e-5
        assert res.stationarity_gap is None

    @pytest.mark.parametrize("M, evaluations", [(16, 17), (64, 22)])
    def test_rescan_evaluations(self, M, evaluations):
        # the doubled bracket's scan reuses the points it shares with the first
        res = optimize_beta_analytic(PskAlphabet.from_power(M, 1e-4))
        assert res.evaluations == evaluations

    def test_root_solve_evaluations(self):
        # the 9-point scan plus a few root-solve steps, not ~20 of Brent's
        res = optimize_beta_analytic(PskAlphabet.from_power(4, 1.0))
        assert 9 < res.evaluations <= 16

    def test_bad_bracket(self):
        with pytest.raises(ValueError):
            optimize_beta_analytic(PskAlphabet(4, 1.0), bracket=(1.0, 0.5))


class TestMonteCarlo:
    def test_matches_analytic_optimum(self):
        a = PskAlphabet.from_power(4, 0.5)
        ana = optimize_beta_analytic(a)
        mc = optimize_beta_mc(a, "cyclic", IDEAL, 1_000_000, 99)
        assert abs(mc.beta_opt_sq - ana.beta_opt_sq) <= 0.05
        assert mc.objective_kind == "mc-cyclic"

    def test_common_random_numbers_deterministic(self):
        a = PskAlphabet.from_power(4, 0.5)
        grid = np.linspace(0.2, 0.8, 9)
        r1 = optimize_beta_mc(a, "bayes", IDEAL, 20_000, 3, grid=grid)
        r2 = optimize_beta_mc(a, "bayes", IDEAL, 20_000, 3, grid=grid)
        assert r1.beta_opt == r2.beta_opt
        assert r1.p_err_at_opt == r2.p_err_at_opt

    def test_objective_reevaluation_bitwise(self):
        a = PskAlphabet.from_power(4, 0.5)
        e1 = estimate_error(a, 0.45, "cyclic", IDEAL, 50_000, 7)
        e2 = estimate_error(a, 0.45, "cyclic", IDEAL, 50_000, 7)
        assert e1.p_err == e2.p_err

    def test_flat_objective_flagged(self):
        res = optimize_beta_mc(
            PskAlphabet(4, 0.0), "cyclic", IDEAL, 20_000, 5,
            grid=np.linspace(0.4, 0.401, 9),
        )
        assert res.flat

    def test_zero_surplus_is_the_nulling_receiver(self):
        a = PskAlphabet.from_power(4, 1.0)
        est = estimate_error(a, 0.0, "cyclic", IDEAL, 400_000, 9)
        ana = cyclic_error_probability(a, 0.0).p_err
        assert abs(est.p_err - ana) < 4 * est.std_err

    def test_one_pool_for_the_grid(self, monkeypatch, two_cpus):
        starts = []

        class CountingPool:
            def __init__(self, max_workers, mp_context=None):
                starts.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs, chunksize=1):
                return map(fn, jobs)

        monkeypatch.setattr(pskrx.mc, "ProcessPoolExecutor", CountingPool)
        grid = np.linspace(0.2, 1.0, 9)
        res = optimize_beta_mc(
            PskAlphabet.from_power(4, 0.5), "cyclic", IDEAL, 40_000, 5, grid=grid, workers=2
        )
        vertex_evaluations = res.evaluations - len(grid)
        assert len(starts) == 1 + vertex_evaluations

    def test_grid_validation(self):
        a = PskAlphabet(4, 1.0)
        with pytest.raises(ValueError):
            optimize_beta_mc(a, "cyclic", IDEAL, 20_000, 1, grid=[0.1, 0.2])
        with pytest.raises(ValueError):
            optimize_beta_mc(a, "cyclic", IDEAL, 500, 1, grid=np.linspace(0, 1, 9))

    def test_default_grid_centers_on_compensated_optimum(self):
        from pskrx.mc import ImperfectionModel

        a = PskAlphabet.from_power(4, 1.0)
        imp = ImperfectionModel(eta=0.7)
        grid = default_beta_grid(a, imp)
        assert len(grid) >= 8
        ideal_scaled = optimize_beta_analytic(PskAlphabet.from_power(4, 0.7)).beta_opt
        center = ideal_scaled / math.sqrt(0.7)
        assert grid[0] <= center <= grid[-1]
