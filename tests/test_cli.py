import csv
import hashlib
import io
import json
import re
from pathlib import Path

import pytest

import pskrx.cli
from pskrx.cli import (
    _SCHEMA,
    EXIT_ARGS,
    EXIT_IO,
    EXIT_OK,
    EXIT_PRECISION,
    _read_spec,
    main,
    trace_rows,
)
from pskrx.errors import PrecisionError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.DictReader(io.StringIO(text)))
    assert rows, text
    return rows


SEVENTEEN_SIG = re.compile(r"^-?(\d+(\.\d+)?|\d?\.\d+)(e[+-]?\d+)?$", re.IGNORECASE)


class TestBench:
    def test_columns_and_zero_row(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "--m", "4", "--alpha-sq", "0,0.2,1")
        assert code == EXIT_OK
        rows = parse_csv(out)
        assert list(rows[0]) == ["alpha_sq", "sql", "helstrom"]
        assert float(rows[0]["sql"]) == pytest.approx(0.75, abs=1e-9)
        assert float(rows[0]["helstrom"]) == pytest.approx(0.75, abs=1e-12)
        for row in rows[1:]:
            assert float(row["helstrom"]) < float(row["sql"])

    def test_binary_reference_value(self, capsys):
        _, out, _ = run_cli(capsys, "bench", "--m", "2", "--alpha-sq", "0.2")
        row = parse_csv(out)[0]
        assert float(row["helstrom"]) == pytest.approx(0.1289639, abs=1e-6)

    def test_json_mirrors_csv(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "--m", "4", "--alpha-sq", "0.5", "--format", "json")
        assert code == EXIT_OK
        data = json.loads(out)
        assert list(data[0]) == ["alpha_sq", "sql", "helstrom"]


class TestTrace:
    def test_reference_click_record(self, capsys):
        code, out, _ = run_cli(
            capsys, "trace",
            "--alpha-sq", "0.5", "--beta-sq", "0.23",
            "--clicks", "0.15,0.35,0.54,0.71",
        )
        assert code == EXIT_OK
        rows = parse_csv(out)
        assert len(rows) == 5
        first = rows[0]
        assert float(first["p2"]) == pytest.approx(0.277, abs=2e-3)
        assert float(first["p3"]) == pytest.approx(0.403, abs=2e-3)
        assert float(first["p4"]) == pytest.approx(0.277, abs=2e-3)
        assert first["probe"] == "3"
        assert rows[-1]["t"] == "1"
        assert rows[-1]["map_state"] == "3"

    def test_empty_click_list(self, capsys):
        code, out, _ = run_cli(capsys, "trace", "--alpha-sq", "0.5", "--beta-sq", "0.23", "--clicks", "")
        rows = parse_csv(out)
        assert code == EXIT_OK and len(rows) == 1
        assert rows[0]["map_state"] == "1"

    def test_first_click_crossover(self, capsys):
        _, out_lo, _ = run_cli(capsys, "trace", "--alpha-sq", "0.5", "--beta-sq", "0.23", "--clicks", "0.37")
        _, out_hi, _ = run_cli(capsys, "trace", "--alpha-sq", "0.5", "--beta-sq", "0.23", "--clicks", "0.385")
        assert parse_csv(out_lo)[0]["map_state"] == "3"
        assert parse_csv(out_hi)[0]["map_state"] != "3"

    def test_non_monotone_rejected(self, capsys):
        code, _, err = run_cli(capsys, "trace", "--alpha-sq", "0.5", "--clicks", "0.5,0.4")
        assert code == EXIT_ARGS and "increasing" in err

    def test_trace_rows_validation(self):
        with pytest.raises(ValueError):
            trace_rows(4, 0.5, 0.23, [0.0, 0.5])
        with pytest.raises(ValueError):
            trace_rows(4, 0.5, 0.23, [1.5])


class TestSweep:
    def test_columns_and_determinism(self, tmp_path, capsys):
        args = (
            "sweep", "--m", "4", "--alpha-sq", "0.25,1", "--strategy", "cyclic",
            "--beta-policy", "zero", "--trials", "20000", "--seed", "42",
        )
        code, out1, _ = run_cli(capsys, *args)
        assert code == EXIT_OK
        rows = parse_csv(out1)
        assert list(rows[0]) == [
            "alpha_sq", "beta_sq", "p_err", "std_err", "sql", "helstrom", "trials", "seed",
        ]
        assert all(row["seed"] == "42" for row in rows)
        code, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_worker_count_invisible(self, capsys):
        base = (
            "sweep", "--m", "4", "--alpha-sq", "0.5", "--strategy", "bayes",
            "--beta-policy", "fixed", "--beta-sq", "0.23",
            "--trials", "30000", "--seed", "9",
        )
        outs = []
        for workers in ("1", "4"):
            code, out, _ = run_cli(capsys, *base, "--workers", workers)
            assert code == EXIT_OK
            outs.append(out)
        assert outs[0] == outs[1]

    def test_seventeen_digit_floats(self, capsys):
        _, out, _ = run_cli(
            capsys, "sweep", "--alpha-sq", "0.5", "--beta-policy", "zero",
            "--trials", "5000", "--seed", "1",
        )
        for row in parse_csv(out):
            for field in ("p_err", "std_err", "sql", "helstrom"):
                assert SEVENTEEN_SIG.match(row[field]), row[field]
        # round-trips exactly through float parsing
        row = parse_csv(out)[0]
        assert float(row["sql"]) == float(f"{float(row['sql']):.17g}")

    def test_generated_seed_is_printed(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--alpha-sq", "0.25", "--beta-policy", "zero", "--trials", "2000",
        )
        assert code == EXIT_OK
        assert re.search(r"seed: \d+", err)

    def test_output_file_and_io_error(self, tmp_path, capsys):
        target = tmp_path / "rows.csv"
        code, out, _ = run_cli(
            capsys, "sweep", "--alpha-sq", "0.25", "--beta-policy", "zero",
            "--trials", "2000", "--seed", "3", "--out", str(target),
        )
        assert code == EXIT_OK and out == ""
        assert target.read_text().startswith("alpha_sq,")
        code, _, err = run_cli(
            capsys, "sweep", "--alpha-sq", "0.25", "--beta-policy", "zero",
            "--trials", "2000", "--seed", "3", "--out", str(tmp_path / "no" / "dir.csv"),
        )
        assert code == EXIT_IO and err

    def test_bad_arguments(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--strategy", "quantum", "--trials", "1000")
        assert code == EXIT_ARGS and "strategy" in err
        code, _, _ = run_cli(capsys, "sweep", "--alpha-sq", "not-a-number")
        assert code == EXIT_ARGS

    def test_nulling_policy_straddles_the_sql(self, capsys):
        _, out, _ = run_cli(
            capsys, "sweep", "--m", "4", "--alpha-sq", "0.3,1.5",
            "--beta-policy", "zero", "--trials", "100000", "--seed", "6",
        )
        weak, bright = parse_csv(out)
        assert float(weak["p_err"]) > float(weak["sql"])
        assert float(bright["p_err"]) < float(bright["sql"])

    def test_grid_must_increase(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--alpha-sq", "1,0.5", "--beta-policy", "zero",
            "--trials", "1000", "--seed", "1",
        )
        assert code == EXIT_ARGS and "increasing" in err

    def test_workers_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("PSKRX_WORKERS", "2")
        code, out, _ = run_cli(
            capsys, "sweep", "--alpha-sq", "0.25", "--beta-policy", "zero",
            "--trials", "5000", "--seed", "1",
        )
        assert code == EXIT_OK
        assert parse_csv(out)


MC_SWEEP = (
    "sweep", "--alpha-sq", "0.5,1", "--strategy", "bayes", "--beta-policy", "mc",
    "--eta", "0.8", "--opt-trials", "10000", "--trials", "20000", "--seed", "31",
)
MC_OPTIMIZE = (
    "optimize", "--alpha-sq", "0.5,1", "--strategy", "bayes", "--objective", "mc",
    "--eta", "0.8", "--trials", "10000", "--seed", "32",
)


class TestWorkerPool:
    @pytest.mark.parametrize("argv", [MC_SWEEP, MC_OPTIMIZE], ids=["sweep", "optimize"])
    def test_one_pool_per_command(self, capsys, pool_events, argv):
        code, _, _ = run_cli(capsys, *argv, "--workers", "2")
        assert code == EXIT_OK
        assert pool_events == ["start", "stop"]

    def test_single_block_starts_no_pool(self, capsys, pool_events):
        code, _, _ = run_cli(
            capsys, "sweep", "--alpha-sq", "0.5,1", "--beta-policy", "fixed",
            "--trials", "1000", "--seed", "1", "--workers", "2",
        )
        assert code == EXIT_OK
        assert pool_events == []

    @pytest.mark.parametrize(
        "error, exit_code", [(PrecisionError, EXIT_PRECISION), (ValueError, EXIT_ARGS)]
    )
    def test_pool_stops_on_error_exit(self, capsys, pool_events, monkeypatch, error, exit_code):
        def failing_estimate(*args):
            raise error("engine failure")

        # the grid search starts the pool; the sweep's own estimate then fails
        monkeypatch.setattr(pskrx.cli, "estimate_error", failing_estimate)
        code, _, err = run_cli(capsys, *MC_SWEEP, "--workers", "2")
        assert code == exit_code
        assert "engine failure" in err
        assert pool_events == ["start", "stop"]

    @pytest.mark.parametrize("argv", [MC_SWEEP, MC_OPTIMIZE], ids=["sweep", "optimize"])
    def test_output_independent_of_workers(self, capsys, argv):
        outs = []
        for workers in ("1", "2", "3"):
            code, out, _ = run_cli(capsys, *argv, "--workers", workers)
            assert code == EXIT_OK
            outs.append(out)
        assert outs[0] == outs[1] == outs[2]


class TestSpecFiles:
    def test_dump_and_rerun_byte_identical(self, tmp_path, capsys):
        spec = tmp_path / "run.spec"
        args = (
            "sweep", "--m", "4", "--alpha-sq", "0.25,0.5", "--strategy", "cyclic",
            "--beta-policy", "zero", "--trials", "10000", "--seed", "77",
        )
        code, out1, _ = run_cli(capsys, *args, "--dump-spec", str(spec))
        assert code == EXIT_OK
        text = spec.read_text()
        assert text.startswith("command = sweep")
        assert "seed = 77" in text
        code, out2, _ = run_cli(capsys, "sweep", "--spec", str(spec))
        assert code == EXIT_OK
        assert out1 == out2

    def test_flags_override_spec(self, tmp_path, capsys):
        spec = tmp_path / "run.spec"
        spec.write_text("command = bench\nm = 4\nalpha_sq = 0.2\n")
        _, out, _ = run_cli(capsys, "bench", "--spec", str(spec), "--m", "2")
        row = parse_csv(out)[0]
        assert float(row["helstrom"]) == pytest.approx(0.1289639, abs=1e-6)

    def test_unknown_key_rejected(self, tmp_path, capsys):
        spec = tmp_path / "run.spec"
        spec.write_text("command = bench\nbogus = 1\n")
        code, _, err = run_cli(capsys, "bench", "--spec", str(spec))
        assert code == EXIT_ARGS and "bogus" in err

    def test_wrong_command_rejected(self, tmp_path, capsys):
        spec = tmp_path / "run.spec"
        spec.write_text("command = sweep\nm = 4\n")
        code, _, err = run_cli(capsys, "bench", "--spec", str(spec))
        assert code == EXIT_ARGS and "sweep" in err


class TestOptimize:
    def test_analytic_objective(self, capsys):
        code, out, _ = run_cli(
            capsys, "optimize", "--m", "4", "--alpha-sq", "0.0001,4",
            "--objective", "analytic", "--seed", "1",
        )
        assert code == EXIT_OK
        rows = parse_csv(out)
        assert list(rows[0]) == ["alpha_sq", "beta_opt_sq", "p_err"]
        assert float(rows[0]["beta_opt_sq"]) == pytest.approx(1.2, abs=0.15)
        assert float(rows[1]["beta_opt_sq"]) < 0.1
        assert float(rows[1]["beta_opt_sq"]) < float(rows[0]["beta_opt_sq"])

    def test_analytic_optimum_near_lower_edge(self, capsys):
        code, out, _ = run_cli(
            capsys, "optimize", "--m", "4", "--alpha-sq", "8", "--objective", "analytic",
        )
        assert code == EXIT_OK
        assert float(parse_csv(out)[0]["beta_opt_sq"]) < 1e-6

    @pytest.mark.parametrize(
        "flag, value",
        [("--strategy", "bayes"), ("--eta", "0.5"), ("--n-th", "0.8"),
         ("--dead-time", "0.1"), ("--dark-rate", "0.2")],
    )
    def test_analytic_objective_rejects_other_receivers(self, capsys, flag, value):
        # the exact objective models the ideal cyclic receiver only
        code, out, err = run_cli(
            capsys, "optimize", "--m", "4", "--alpha-sq", "1", "--objective", "analytic",
            "--seed", "1", flag, value,
        )
        assert code == EXIT_ARGS and out == ""
        assert f"{flag} {value}" in err

    def test_nonpositive_trials_rejected(self, capsys):
        # even the analytic objective, which runs no trials
        code, out, err = run_cli(
            capsys, "optimize", "--alpha-sq", "1", "--objective", "analytic", "--trials", "0",
        )
        assert code == EXIT_ARGS and out == "" and "trial" in err

    def test_mc_objective(self, capsys):
        code, out, _ = run_cli(
            capsys, "optimize", "--m", "4", "--alpha-sq", "0.5", "--strategy", "bayes",
            "--objective", "mc", "--trials", "20000", "--seed", "5",
            "--beta-grid", "0.2,0.3,0.4,0.45,0.5,0.55,0.6,0.7,0.8",
        )
        assert code == EXIT_OK
        row = parse_csv(out)[0]
        assert 0.0 <= float(row["beta_opt_sq"]) <= 0.8**2


IMPERFECT = ["--eta", "0.8", "--n-th", "0.1", "--dead-time", "0.02", "--dark-rate", "0.01"]


def _small(strategy, fmt, detector):
    return ["--alpha-sq", "0.5", "--beta-sq", "0.23", "--strategy", strategy,
            "--trials", "400", "--seed", "21", "--format", fmt, *detector]


class TestSimulate:
    def test_record_shape(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--alpha-sq", "0.5", "--beta-sq", "0.23",
            "--strategy", "bayes", "--trials", "25", "--seed", "8",
        )
        assert code == EXIT_OK
        rows = parse_csv(out)
        assert len(rows) == 25
        for row in rows:
            n = int(row["n_clicks"])
            times = [float(x) for x in row["click_times"].split(";") if x]
            probes = [int(x) for x in row["probes"].split(";") if x]
            assert len(times) == n
            assert len(probes) == n + 1
            assert probes[0] == 1
            assert row["correct"] in ("0", "1")

    def test_rfc4180_quoting_roundtrip(self, capsys):
        _, out, _ = run_cli(
            capsys, "simulate", "--alpha-sq", "2", "--beta-sq", "0",
            "--trials", "10", "--seed", "2",
        )
        rows = parse_csv(out)  # csv module applies RFC 4180 parsing
        assert len(rows) == 10

    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_nonpositive_trials_rejected(self, capsys, trials):
        code, out, err = run_cli(capsys, "simulate", "--trials", trials, "--seed", "1")
        assert code == EXIT_ARGS and out == "" and "trial" in err

    @pytest.mark.parametrize(
        "argv, digest",
        [
            pytest.param(
                _small("cyclic", "csv", []),
                "607ae15636ca4c5321482f16e380a8245918cb93efcffe9685c8b0f1812d54a7",
                id="cyclic-ideal-csv",
            ),
            pytest.param(
                _small("cyclic", "json", []),
                "04548e7115e2e85922d2ac0101bf3048ef54d07c57f7b0f75d981dc158824aff",
                id="cyclic-ideal-json",
            ),
            pytest.param(
                _small("cyclic", "csv", IMPERFECT),
                "711e1c3d088bfb1fc3f1a51b4cee7da83f9ed80e5dffe34c9bb25204ac759f7e",
                id="cyclic-imperfect-csv",
            ),
            pytest.param(
                _small("cyclic", "json", IMPERFECT),
                "e178cff7c2a629302dde9d1870debf4f300af8b67b678db35965eac3866e3c14",
                id="cyclic-imperfect-json",
            ),
            pytest.param(
                _small("bayes", "csv", []),
                "a01c65bc821cf21675dedabaa81c6550d3c573250bdd824915e66ff392bd24d7",
                id="bayes-ideal-csv",
            ),
            pytest.param(
                _small("bayes", "json", []),
                "b3b791a07067397c76a8a499e89700e5717999e1b579b1dcc2af7612d755824d",
                id="bayes-ideal-json",
            ),
            pytest.param(
                _small("bayes", "csv", IMPERFECT),
                "7834a55303ed8ab4e225963c500c32a463fb61b0140aa8da04494d2ca85660f9",
                id="bayes-imperfect-csv",
            ),
            pytest.param(
                _small("bayes", "json", IMPERFECT),
                "b839e3e53f115c095cc5d25596e6ab5fbacaf82d99728e2e177652404fc8ec92",
                id="bayes-imperfect-json",
            ),
            # 40,000 trials: two engine blocks
            pytest.param(
                ["--m", "8", "--alpha-sq", "2", "--beta-sq", "0.23", "--strategy", "bayes",
                 "--trials", "40000", "--seed", "22", *IMPERFECT],
                "941d6d9d595b26c1613ff4643cc7dc34d20b96b28dd8c01e68a24b6b188f9591",
                id="bayes-imperfect-40000-csv",
            ),
            pytest.param(
                ["--alpha-sq", "0.5", "--beta-sq", "0.23", "--strategy", "cyclic",
                 "--trials", "20000", "--seed", "23", "--format", "json", *IMPERFECT],
                "64d1f749492d8e457d244df3ea8c6a839fcfb8f0b693b9f578fe1f3763e38a0d",
                id="cyclic-imperfect-20000-json",
            ),
            # nulling under excess noise: clicks impossible under every held hypothesis
            pytest.param(
                ["--alpha-sq", "1", "--beta-sq", "0", "--strategy", "bayes", "--n-th", "0.8",
                 "--trials", "3000", "--seed", "15"],
                "47e2b2e8e85361fdfe24d9ca2e80ed166e0c08345924eaa14c5159b3f9caccbb",
                id="bayes-nulling-thermal-csv",
            ),
        ],
    )
    def test_golden_bytes(self, capsys, argv, digest):
        # digests taken from the earlier writer, which formatted one row object
        # per trial: writing from the record columns must not change a byte
        code, out, _ = run_cli(capsys, "simulate", *argv)
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == digest


SPEC_DIR = Path(__file__).resolve().parents[1] / "specs"
SPEC_HEADERS = {
    "sweep": "alpha_sq,beta_sq,p_err,std_err,sql,helstrom,trials,seed",
    "optimize": "alpha_sq,beta_opt_sq,p_err",
}


@pytest.mark.parametrize("path", sorted(SPEC_DIR.glob("*.spec")), ids=lambda p: p.name)
def test_shipped_spec_file_runs(path, capsys):
    # each experiment spec, cut to its first power and few trials
    command = re.search(r"^command\s*=\s*(\w+)", path.read_text(), re.MULTILINE).group(1)
    first_power = _read_spec(str(path), command)["alpha_sq"].split(",")[0]
    argv = [command, "--spec", str(path), "--alpha-sq", first_power]
    for name, value in (("trials", "2000"), ("opt_trials", "10000")):
        if name in _SCHEMA[command]:
            argv += [f"--{name.replace('_', '-')}", value]
    code, out, _ = run_cli(capsys, *argv, "--workers", "1")
    assert code == EXIT_OK
    assert out.splitlines()[0] == SPEC_HEADERS[command]
