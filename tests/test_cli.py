import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import pskrx.cli
import pskrx.mc
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


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def columns_digest(text, columns):
    """sha256 of the named columns of CSV ``text``, a comma-joined line a row."""
    rows = list(csv.reader(io.StringIO(text)))
    keep = [rows[0].index(c) for c in columns]
    return sha256("\n".join(",".join(row[i] for i in keep) for row in rows))


BENCH_GOLDEN_ARGV = ("bench", "--m", "8", "--alpha-sq", "0.01,0.5,2,6")
BENCH_GOLDEN_DIGEST = "6097f29a7685196222ca0e4e2a4e6acb603c5f5a1cbc6d5aa192edb8e0b1b0df"

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

    def test_golden_bytes(self, capsys):
        # pins the SQL's Gauss-Legendre wedge rule and the circulant Helstrom
        # formula bit for bit
        code, out, _ = run_cli(capsys, *BENCH_GOLDEN_ARGV)
        assert code == EXIT_OK
        assert sha256(out) == BENCH_GOLDEN_DIGEST

    @pytest.mark.parametrize("power", ["-1", "inf"])
    def test_bad_power_refused(self, capsys, power):
        # checked before anything takes its square root
        code, out, err = run_cli(capsys, "bench", "--alpha-sq", power)
        assert code == EXIT_ARGS and out == ""
        assert f"error: mean photon number must be finite and >= 0, got {float(power)}" in err


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

    @pytest.mark.parametrize(
        "m, alpha_sq, beta_sq, clicks, digest",
        [
            # the reference record
            ("4", "0.5", "0.23", "0.15,0.35,0.54,0.71",
             "c91a4a95f18ff4401c64be3cc76f6c45bbd2b1a6e91e2dbc082bbc630d527006"),
            # nulling: the second click is impossible under the one state still held
            ("2", "0.5", "0", "0.3,0.6",
             "839bded991ffe696a837fe7327e28a715d2af8a7d9cfbaddd1b48af8e1907a62"),
            # mirror ties; at M >= 8 the normaliser's left-to-right order fixes the last bits
            ("8", "2", "0.1", "0.1,0.2,0.45,0.9",
             "920b26ede70d7d7ea0631f5d27e53d9e4eac1017df4f90ba97c625f4a9daa535"),
            ("16", "3", "0", "0.05,0.2,0.3,0.6,0.61,0.9",
             "0f6ac08c65219d577621d45b25e3c8e106b7396cf0ae17055cccbb06449b39e0"),
            ("4", "0.5", "0.23", "",
             "aa0c095179b0fb7ce8a6aead44e92a4b1545d5580c3049a0fd331f8491320043"),
        ],
        ids=["reference", "nulling", "m8-ties", "m16", "no-clicks"],
    )
    def test_golden_bytes(self, capsys, m, alpha_sq, beta_sq, clicks, digest):
        code, out, _ = run_cli(
            capsys, "trace", "--m", m, "--alpha-sq", alpha_sq, "--beta-sq", beta_sq,
            "--clicks", clicks,
        )
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "m, alpha_sq, beta_sq, clicks, digest",
        [
            ("4", "0.5", "0.23", "0.15,0.35,0.54,0.71",
             "448290f10a9ad3eb04f1dbd761b044ccc80262b4b43adcc9bca4ba91ccf7c971"),
            ("2", "0.5", "0", "0.3,0.6",
             "13824feb8fc7b366374845810ff184193792a98fe833c399efec8fc1afc6ff43"),
            ("8", "2", "0.1", "0.1,0.2,0.45,0.9",
             "9a6f5b74aee1ba274e83b0b5dbd18c86404edb56f45b0f12305a1a8884dfb330"),
            ("16", "3", "0", "0.05,0.2,0.3,0.6,0.61,0.9",
             "b09902af7f36049b5b8df2392ad10eaa22101b3b17ac65e3f1748e399f1c709c"),
            ("4", "0.5", "0.23", "",
             "cd916cc2f04fc6f8bc12c2de7d65857893026db16d7e7ac669093a40add9a5bd"),
        ],
        ids=["reference", "nulling", "m8-ties", "m16", "no-clicks"],
    )
    def test_golden_decisions(self, capsys, m, alpha_sq, beta_sq, clicks, digest):
        # the runs of test_golden_bytes: their probes and MAP states, pinned
        # apart from the posteriors' bits
        code, out, _ = run_cli(
            capsys, "trace", "--m", m, "--alpha-sq", alpha_sq, "--beta-sq", beta_sq,
            "--clicks", clicks,
        )
        assert code == EXIT_OK
        assert columns_digest(out, ["probe", "map_state"]) == digest

    @pytest.mark.parametrize(
        "argv",
        [
            # a click on the nulled state of a bright signal: its likelihood
            # e^{-4000 t} under the other state underflows, its log does not
            ["--m", "2", "--alpha-sq", "1000", "--beta-sq", "0", "--clicks", "0.5"],
            # no click under rates of 1000 and more: every survival to t = 1
            # underflows, the differences of their logs do not
            ["--m", "4", "--alpha-sq", "1000", "--beta-sq", "1000", "--clicks", ""],
        ],
    )
    def test_bright_pulse_answered(self, capsys, argv):
        code, out, err = run_cli(capsys, "trace", *argv)
        assert code == EXIT_OK and err == ""
        assert "nan" not in out.lower()
        rows = parse_csv(out)
        for row in rows:
            probs = [float(row[f"p{k + 1}"]) for k in range(len(row) - 3)]
            assert sum(probs) == pytest.approx(1.0, abs=1e-15)
            assert probs[int(row["map_state"]) - 1] == max(probs)

    def test_overflowing_power_refused(self, capsys):
        # a power whose click rates overflow is an argument error, not a NaN row
        code, out, err = run_cli(capsys, "trace", "--alpha-sq", "1e308", "--clicks", "0.5")
        assert code == EXIT_ARGS and out == "" and "overflow" in err


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

    def test_golden_bytes_mc_policy(self, capsys):
        # the beta grid of every point is one multi-surplus engine pass
        code, out, _ = run_cli(
            capsys, "sweep", "--m", "8", "--alpha-sq", "0.5,2", "--strategy", "bayes",
            "--beta-policy", "mc", "--opt-trials", "20000", "--trials", "20000",
            "--seed", "25", "--workers", "1",
        )
        assert code == EXIT_OK
        digest = "55bd727b11193378d2ac463c9c0b230f1f768475d8d880b46b49091f8097a641"
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_golden_bytes_mc_policy_inefficient(self, capsys):
        # no excess noise but eta < 1: the click rates of the mc-optimize setting
        code, out, _ = run_cli(
            capsys, "sweep", "--m", "4", "--alpha-sq", "0.5,2", "--strategy", "bayes",
            "--beta-policy", "mc", "--eta", "0.8", "--opt-trials", "20000",
            "--trials", "20000", "--seed", "26", "--workers", "1",
        )
        assert code == EXIT_OK
        digest = "ccb44d42ab0dcad4a43249de07ab0fea61a92f936962bddfba633f5c5aba6bec"
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "option, value, policies",
        [
            ("beta_sq", "0.23", ["zero", "analytic", "mc"]),
            ("opt_trials", "20000", ["fixed", "zero", "analytic"]),
        ],
    )
    @pytest.mark.parametrize("source", ["flag", "spec"])
    def test_option_unread_by_policy_rejected(
        self, tmp_path, capsys, option, value, policies, source
    ):
        flag = f"--{option.replace('_', '-')}"
        for policy in policies:
            argv = ["sweep", "--alpha-sq", "0.5", "--beta-policy", policy,
                    "--trials", "1000", "--seed", "1", "--workers", "1"]
            if source == "flag":
                argv += [flag, value]
            else:
                spec = tmp_path / "run.spec"
                spec.write_text(f"command = sweep\n{option} = {value}\n")
                argv += ["--spec", str(spec)]
            code, out, err = run_cli(capsys, *argv)
            assert code == EXIT_ARGS and out == ""
            assert f"--beta-policy {policy} would ignore {flag} " in err

    def test_workers_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("PSKRX_WORKERS", "2")
        code, out, _ = run_cli(
            capsys, "sweep", "--alpha-sq", "0.25", "--beta-policy", "zero",
            "--trials", "5000", "--seed", "1",
        )
        assert code == EXIT_OK
        assert parse_csv(out)

    @pytest.mark.parametrize(
        "value, message",
        [
            ("abc", "bad value for 'PSKRX_WORKERS': 'abc'"),
            ("0", "need at least one worker, got 0 from PSKRX_WORKERS"),
        ],
    )
    def test_bad_workers_env_named(self, capsys, monkeypatch, value, message):
        monkeypatch.setenv("PSKRX_WORKERS", value)
        code, out, err = run_cli(
            capsys, "sweep", "--alpha-sq", "0.25", "--beta-policy", "zero",
            "--trials", "1000", "--seed", "1",
        )
        assert code == EXIT_ARGS and out == ""
        assert message in err

    @pytest.mark.parametrize(
        "affinity, cpu_count, expected", [({0}, 8, 1), ({0, 3, 5}, 8, 3), (None, 6, 6)]
    )
    def test_default_workers_are_the_usable_cpus(
        self, tmp_path, capsys, monkeypatch, affinity, cpu_count, expected
    ):
        # the CPU affinity mask where the OS has one, else the CPU count
        monkeypatch.delenv("PSKRX_WORKERS", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        if affinity is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(affinity), raising=False)
        spec = tmp_path / "run.spec"
        code, _, _ = run_cli(
            capsys, "sweep", "--alpha-sq", "0.25", "--beta-policy", "zero",
            "--trials", "1000", "--seed", "1", "--dump-spec", str(spec),
        )
        assert code == EXIT_OK
        assert f"workers = {expected}" in spec.read_text().splitlines()


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
    def test_one_pool_per_command(self, capsys, pool_events, two_cpus, argv):
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
    def test_pool_stops_on_error_exit(
        self, capsys, pool_events, two_cpus, monkeypatch, error, exit_code
    ):
        def failing_estimate(*args):
            raise error("engine failure")

        # the grid search starts the pool; the sweep's own estimate then fails
        monkeypatch.setattr(pskrx.cli, "estimate_error", failing_estimate)
        code, _, err = run_cli(capsys, *MC_SWEEP, "--workers", "2")
        assert code == exit_code
        assert "engine failure" in err
        assert pool_events == ["start", "stop"]

    def test_processes_capped_at_the_usable_cpus(self, capsys, pool_sizes, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        code, _, _ = run_cli(
            capsys, "sweep", "--alpha-sq", "0.5", "--beta-policy", "zero",
            "--trials", "20000", "--seed", "1", "--workers", "1000000",
        )
        assert code == EXIT_OK
        assert pool_sizes == [2]

    @pytest.mark.parametrize("workers", ["0", "-4"])
    @pytest.mark.parametrize("command", ["sweep", "optimize"])
    def test_workers_below_one_rejected(self, capsys, command, workers):
        code, out, err = run_cli(
            capsys, command, "--alpha-sq", "0.5", "--trials", "1000", "--seed", "1",
            "--workers", workers,
        )
        assert code == EXIT_ARGS and out == ""
        assert f"need at least one worker, got {workers}" in err

    @pytest.mark.parametrize("argv", [MC_SWEEP, MC_OPTIMIZE], ids=["sweep", "optimize"])
    def test_output_independent_of_workers(self, capsys, monkeypatch, argv):
        # three usable CPUs whatever the host has, so 1, 2 and 3 workers run
        # in as many processes, each count with its own blocks
        monkeypatch.setattr(pskrx.mc, "usable_cpus", lambda: 3)
        outs = []
        for workers in ("1", "2", "3", "64"):
            code, out, _ = run_cli(capsys, *argv, "--workers", workers)
            assert code == EXIT_OK
            outs.append(out)
        assert all(out == outs[0] for out in outs)


class TestNegativeSurplus:
    @pytest.mark.parametrize(
        "argv",
        [
            ["trace", "--clicks", "0.2"],
            ["simulate", "--seed", "1"],
            ["sweep", "--beta-policy", "fixed", "--trials", "1000", "--seed", "1",
             "--workers", "1"],
        ],
        ids=["trace", "simulate", "sweep-fixed"],
    )
    @pytest.mark.parametrize("beta_sq", ["-1", "nan"])
    def test_refused_before_its_square_root(self, capsys, argv, beta_sq):
        code, out, err = run_cli(capsys, *argv, "--beta-sq", beta_sq)
        assert code == EXIT_ARGS and out == ""
        assert f"error: displacement surplus must be >= 0, got {float(beta_sq)}" in err


class TestAlphabetBounds:
    @pytest.mark.parametrize(
        "argv",
        [["trace", "--m", "100000", "--clicks", "0.5"], ["simulate", "--m", "1025", "--seed", "1"]],
        ids=["trace", "simulate"],
    )
    def test_m_above_1024_refused(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_ARGS and out == ""
        assert f"alphabet size M must be at most 1024, got {argv[2]}" in err

    def test_m_1024_accepted(self, capsys):
        code, out, _ = run_cli(capsys, "trace", "--m", "1024", "--clicks", "0.5")
        assert code == EXIT_OK and out.splitlines()[0].endswith(",p1024,map_state")

    @pytest.mark.parametrize(
        "argv",
        [["optimize", "--objective", "analytic"], ["trace", "--clicks", "0.5"]],
        ids=["optimize", "trace"],
    )
    def test_infinite_power_refused_without_warnings(self, capsys, recwarn, argv):
        code, out, err = run_cli(capsys, *argv, "--alpha-sq", "inf")
        assert code == EXIT_ARGS and out == ""
        assert "mean photon number must be finite and >= 0, got inf" in err
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize(
        "argv", [["trace", "--clicks", "0.5"], ["simulate", "--seed", "1"]],
        ids=["trace", "simulate"],
    )
    def test_list_of_powers_refused(self, capsys, argv):
        # trace and simulate take a single power
        code, out, _ = run_cli(capsys, *argv, "--alpha-sq", "0.5,1")
        assert code == EXIT_ARGS and out == ""


# one small run of each subcommand
EVERY_COMMAND = {
    "sweep": ["sweep", "--alpha-sq", "0.5", "--beta-policy", "zero", "--trials", "2000",
              "--seed", "3", "--workers", "1"],
    "trace": ["trace", "--clicks", "0.2,0.6"],
    "bench": ["bench", "--alpha-sq", "0.5,1"],
    "optimize": ["optimize", "--alpha-sq", "0.5", "--objective", "analytic"],
    "simulate": ["simulate", "--trials", "20", "--seed", "5"],
}


class TestReusedParser:
    # main builds its parser once per process: no call may leave anything
    # behind for the next

    @pytest.mark.parametrize("command", sorted(EVERY_COMMAND))
    def test_repeated_call_same_bytes(self, capsys, command):
        first = run_cli(capsys, *EVERY_COMMAND[command])
        assert first[0] == EXIT_OK
        assert run_cli(capsys, *EVERY_COMMAND[command]) == first

    @pytest.mark.parametrize(
        "failing, raises",
        [
            # argparse's own error, after it has read every golden option
            ([*BENCH_GOLDEN_ARGV, "--format", "json", "--no-such-option"], True),
            # a ValueError from resolving the options
            ([*BENCH_GOLDEN_ARGV, "--format", "xml"], False),
        ],
        ids=["argparse-error", "value-error"],
    )
    def test_golden_bytes_after_an_argument_error(self, capsys, failing, raises):
        if raises:
            with pytest.raises(SystemExit) as exc:
                main(failing)
            code = exc.value.code
        else:
            code = main(failing)
        assert code == EXIT_ARGS
        assert capsys.readouterr().out == ""
        code, out, _ = run_cli(capsys, *BENCH_GOLDEN_ARGV)
        assert code == EXIT_OK
        assert sha256(out) == BENCH_GOLDEN_DIGEST

    def test_spec_values_do_not_carry_over(self, tmp_path, capsys):
        spec = tmp_path / "bench.spec"
        spec.write_text("command = bench\nm = 8\nalpha_sq = 0.01,0.5,2,6\nformat = csv\n")
        code, out, _ = run_cli(capsys, "bench", "--spec", str(spec))
        assert code == EXIT_OK and sha256(out) == BENCH_GOLDEN_DIGEST
        # the next call without --spec reads the defaults, M=4 and six powers
        code, bare, _ = run_cli(capsys, "bench", "--format", "json")
        assert code == EXIT_OK
        code, explicit, _ = run_cli(
            capsys, "bench", "--m", "4", "--alpha-sq", "0.1,0.25,0.5,1,1.5,2",
            "--format", "json",
        )
        assert code == EXIT_OK and bare == explicit
        assert len(json.loads(bare)) == 6

    def test_import_builds_none_and_main_builds_once(self):
        # counts every argparse parser a fresh interpreter builds: none on
        # import, then those of main's first call, and no more on its second
        src = str(Path(pskrx.cli.__file__).resolve().parents[1])
        code = "\n".join([
            "import argparse, io, sys",
            "built = []",
            "init = argparse.ArgumentParser.__init__",
            "def counting_init(self, *args, **kwargs):",
            "    built.append(self)",
            "    init(self, *args, **kwargs)",
            "argparse.ArgumentParser.__init__ = counting_init",
            "import pskrx.cli",
            "assert not built, f'import built {len(built)} parsers'",
            "out, sys.stdout = sys.stdout, io.StringIO()",
            "first = pskrx.cli.main(['bench', '--alpha-sq', '0.5'])",
            "n_first = len(built)",
            "second = pskrx.cli.main(['bench', '--alpha-sq', '0.5'])",
            "sys.stdout = out",
            "assert first == second == 0",
            "assert n_first > 0 and len(built) == n_first, (n_first, len(built))",
        ])
        done = subprocess.run(
            [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True,
        )
        assert done.returncode == 0, done.stderr


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

    def test_dump_and_rerun_analytic_policy(self, tmp_path, capsys):
        # the record lists beta_sq and opt_trials at their defaults, which
        # the analytic policy accepts
        spec = tmp_path / "run.spec"
        args = ("sweep", "--alpha-sq", "0.5", "--trials", "2000", "--seed", "78")
        code, out1, _ = run_cli(capsys, *args, "--workers", "1", "--dump-spec", str(spec))
        assert code == EXIT_OK
        text = spec.read_text()
        assert "beta_policy = analytic" in text
        assert "beta_sq = 0" in text and "opt_trials = 100000" in text
        code, out2, _ = run_cli(capsys, "sweep", "--spec", str(spec))
        assert code == EXIT_OK
        assert out1 == out2

    @pytest.mark.parametrize(
        "argv, dumped",
        [
            (["trace", "--m", "8", "--alpha-sq", "2", "--clicks", "0.1,0.45"],
             "command = trace\nm = 8\nalpha_sq = 2\nbeta_sq = 0.23000000000000001\n"
             "clicks = 0.10000000000000001,0.45000000000000001\nformat = csv\n"),
            (["simulate", "--alpha-sq", "0.5", "--beta-sq", "0.23", "--strategy", "bayes",
              "--trials", "20", "--seed", "5"],
             "command = simulate\nm = 4\nalpha_sq = 0.5\nbeta_sq = 0.23000000000000001\n"
             "strategy = bayes\ntrials = 20\neta = 1\nn_th = 0\ndead_time = 0\n"
             "dark_rate = 0\nseed = 5\nformat = csv\n"),
        ],
        ids=["trace", "simulate"],
    )
    def test_dump_and_rerun_single_power(self, tmp_path, capsys, argv, dumped):
        spec = tmp_path / "run.spec"
        code, out1, _ = run_cli(capsys, *argv, "--dump-spec", str(spec))
        assert code == EXIT_OK
        assert spec.read_text() == dumped
        code, out2, _ = run_cli(capsys, argv[0], "--spec", str(spec))
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

    @pytest.mark.parametrize(
        "objective", [[], ["--objective", "analytic"]], ids=["auto", "analytic"]
    )
    def test_exact_objective_draws_no_seed(self, capsys, objective):
        code, out, err = run_cli(capsys, "optimize", "--alpha-sq", "0.25,1", *objective)
        assert code == EXIT_OK
        assert "seed:" not in err
        digest = "587c2e2b6abb63bee23f5b5b6da1489ced19d250fb0d125052ef353047ae6f3a"
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        # an explicit seed is still accepted, and changes nothing
        code, seeded, _ = run_cli(capsys, "optimize", "--alpha-sq", "0.25,1", *objective,
                                  "--seed", "0")
        assert code == EXIT_OK and seeded == out

    @pytest.mark.parametrize(
        "m, digest",
        [("16", "eb4c5bd73834e20a48fbb77e0343c3da50ba0aa9d414f688d4b93b341a954b81"),
         ("64", "4b2b37abece471edcf121bef29304bcaf3e5e9177d30a05c0eb7e5bb2cb55461")],
        ids=["m16", "m64"],
    )
    def test_golden_bytes_rescan(self, capsys, m, digest):
        # alpha^2 = 1e-4: the optimum lies past the first bracket, so the
        # scan doubles it and runs again (17 and 22 exact evaluations)
        code, out, _ = run_cli(
            capsys, "optimize", "--m", m, "--alpha-sq", "0.0001", "--objective", "analytic",
        )
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_golden_bytes_long_series(self, capsys):
        # M=8 up to alpha^2 = 4: uniformization series of many terms
        code, out, _ = run_cli(
            capsys, "optimize", "--m", "8", "--alpha-sq", "0.5,2,4", "--objective", "analytic",
        )
        assert code == EXIT_OK
        digest = "87225dbb043a34499a87258b3891bad6b2fcb3ce6059ca58d6389fbe370ccd75"
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "argv, pinned",
        [
            (("--m", "4", "--alpha-sq", "0.0001,0.01,1,4,8", "--objective", "analytic"),
             [(1.2244802367278256, 0.74590631375142402),
              (1.0420501099447472, 0.70672883588441671),
              (0.092350405261697618, 0.18522389995314409),
              (8.3128135591277837e-05, 0.0015675034067159795),
              (2.8224799000056959e-10, 9.8463864915167986e-07)]),
            (("--m", "8", "--alpha-sq", "0.0001", "--objective", "analytic"),
             [(2.8899135139444119, 0.87323306413749147)]),
            (("--alpha-sq", "0.25,1"),
             [(0.44218249327644554, 0.48514062785611112),
              (0.092350405261697618, 0.18522389995314409)]),
            (("--m", "8", "--alpha-sq", "0.5,2,4", "--objective", "analytic"),
             [(1.250610056597522, 0.70294728013490959),
              (0.32407102237483021, 0.43296217497801398),
              (0.05475257905191773, 0.19624592852449527)]),
        ],
        ids=["m4", "m8", "auto", "m8-long-series"],
    )
    def test_exact_optimum_values(self, capsys, argv, pinned):
        # (beta_opt_sq, p_err) as Brent found them: any optimizer of the
        # exact objective must land within its amplitude tolerance of the
        # same surplus, and so within 1e-12 of the same error
        code, out, _ = run_cli(capsys, "optimize", *argv)
        assert code == EXIT_OK
        rows = parse_csv(out)
        assert len(rows) == len(pinned)
        for row, (beta_sq, p_err) in zip(rows, pinned):
            beta = float(row["beta_opt_sq"]) ** 0.5
            assert abs(beta - beta_sq**0.5) <= 1e-6, row
            assert abs(float(row["p_err"]) - p_err) <= 1e-12, row

    def test_nonpositive_trials_rejected(self, capsys):
        # even the analytic objective, which runs no trials
        code, out, err = run_cli(
            capsys, "optimize", "--alpha-sq", "1", "--objective", "analytic", "--trials", "0",
        )
        assert code == EXIT_ARGS and out == "" and "trial" in err

    @pytest.mark.parametrize("option, value", [("trials", "5000"), ("beta_grid", "1,2")])
    @pytest.mark.parametrize("source", ["flag", "spec"])
    @pytest.mark.parametrize("objective", ["analytic", "auto"])
    def test_exact_objective_rejects_trial_options(
        self, tmp_path, capsys, option, value, source, objective
    ):
        # the exact objective runs no trials; --seed and --workers stay accepted
        flag = f"--{option.replace('_', '-')}"
        argv = ["optimize", "--alpha-sq", "0.5", "--objective", objective,
                "--seed", "3", "--workers", "1"]
        if source == "flag":
            argv += [flag, value]
        else:
            spec = tmp_path / "run.spec"
            spec.write_text(f"command = optimize\n{option} = {value}\n")
            argv += ["--spec", str(spec)]
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_ARGS and out == ""
        assert f"(--objective {objective}) runs no trials and would ignore {flag} " in err

    def test_dump_and_rerun_exact_objective(self, tmp_path, capsys):
        # the record lists trials and beta_grid at their defaults, which the
        # exact objective accepts
        spec = tmp_path / "run.spec"
        args = ("optimize", "--alpha-sq", "0.25,1", "--objective", "analytic",
                "--seed", "0", "--workers", "1")
        code, out1, _ = run_cli(capsys, *args, "--dump-spec", str(spec))
        assert code == EXIT_OK
        text = spec.read_text()
        assert "trials = 100000" in text and "beta_grid = \n" in text
        code, out2, _ = run_cli(capsys, "optimize", "--spec", str(spec))
        assert code == EXIT_OK
        assert out1 == out2

    def test_mc_objective_refuses_an_unordered_grid(self, capsys):
        code, out, err = run_cli(
            capsys, "optimize", "--alpha-sq", "1", "--objective", "mc", "--trials", "10000",
            "--seed", "1", "--workers", "1", "--beta-grid=0.5,0.1,0.9,0.3,0.7,0.2,0.8,0.4",
        )
        assert code == EXIT_ARGS and out == "" and "strictly increasing" in err

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

    @pytest.mark.parametrize("option", ["--n-th", "--dark-rate"])
    def test_infinite_rate_refused(self, capsys, monkeypatch, option):
        # an infinite rate would keep the engine clicking at t = 0 for ever
        def engine(*args):
            raise AssertionError("the engine ran")

        monkeypatch.setattr(pskrx.cli, "simulate_outcomes", engine)
        code, out, err = run_cli(
            capsys, "simulate", "--trials", "3", "--seed", "1", "--alpha-sq", "0.5", option, "inf"
        )
        assert code == EXIT_ARGS and out == "" and "must be finite" in err

    def test_bright_pulse_refused(self, capsys, monkeypatch):
        # a pulse expected to click 10^12 times would keep the engine running
        # for hours: the command exits 2 before any block runs
        def engine(*args):
            raise AssertionError("the engine ran")

        monkeypatch.setattr(pskrx.mc, "_run_block", engine)
        code, out, err = run_cli(
            capsys, "sweep", "--alpha-sq", "1", "--beta-policy", "fixed", "--beta-sq", "1e12",
            "--trials", "1000", "--seed", "1", "--workers", "1",
        )
        assert code == EXIT_ARGS and out == "" and "clicks per pulse" in err

    def test_csv_and_json_agree(self, capsys):
        # one writer fills the same values into each format's row template;
        # every field must match, numbers as floats (JSON writes confidence
        # with repr, CSV with .17g)
        argv = ["simulate", "--m", "8", "--alpha-sq", "2", "--beta-sq", "0.23",
                "--strategy", "bayes", "--trials", "3000", "--seed", "28", *IMPERFECT]
        code, text, _ = run_cli(capsys, *argv)
        assert code == EXIT_OK
        code, js, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == EXIT_OK
        rows, objects = parse_csv(text), json.loads(js)
        assert len(rows) == len(objects) == 3000
        for row, obj in zip(rows, objects):
            assert list(row) == list(obj)
            for key, value in obj.items():
                if isinstance(value, str):
                    assert row[key] == value
                else:
                    assert float(row[key]) == float(value)
            times = [float(t) for t in row["click_times"].split(";") if t]
            assert len(times) == int(row["n_clicks"])

    @pytest.mark.parametrize(
        "argv, digest",
        [
            pytest.param(
                _small("bayes", "csv", []),
                "e90df377e8c6c429ec3992c3dafbc0aebe9977d25eab29903eaed656319889a3",
                id="bayes-ideal",
            ),
            pytest.param(
                _small("bayes", "csv", IMPERFECT),
                "1d32ae250ea859f8fa6563d368d56b57a30e04d48c032dab8815cacaac8f85fb",
                id="bayes-imperfect",
            ),
            pytest.param(
                ["--m", "8", "--alpha-sq", "2", "--beta-sq", "0.23", "--strategy", "bayes",
                 "--trials", "40000", "--seed", "22", *IMPERFECT],
                "5eae3959d2ebe477451aef4ac4094fb9dcbd32d444b6846655665fa0afc27db3",
                id="bayes-imperfect-40000",
            ),
            pytest.param(
                ["--alpha-sq", "1", "--beta-sq", "0", "--strategy", "bayes", "--n-th", "0.8",
                 "--trials", "3000", "--seed", "15"],
                "db2b991979c9cc36a98dd870a756713608bd84252bcf43c774fd60fb5aa5dc43",
                id="bayes-nulling-thermal",
            ),
            pytest.param(
                ["--m", "16", "--alpha-sq", "2", "--beta-sq", "0.23", "--strategy", "bayes",
                 "--trials", "40000", "--seed", "24", *IMPERFECT],
                "51ba96682df8373c0b3e134bf052aaed2ff6dd2d43dac918947f1835501d9c23",
                id="bayes-m16-imperfect-40000",
            ),
        ],
    )
    def test_golden_decisions(self, capsys, argv, digest):
        # the Bayesian runs of test_golden_bytes (each JSON golden holds the
        # records of its CSV twin): every column but the confidence, pinned
        # apart from the confidences' bits
        code, out, _ = run_cli(capsys, "simulate", *argv)
        assert code == EXIT_OK
        columns = ["trial", "true_state", "hypothesis", "correct", "n_clicks", "click_times",
                   "probes"]
        assert columns_digest(out, columns) == digest

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
                "8f68ca871844ef2818fa4a808e485fee28aabe93ed28ab7ef090fd1475263ebd",
                id="bayes-ideal-csv",
            ),
            pytest.param(
                _small("bayes", "json", []),
                "afab4e1418ada753b172fb63226af792e37bc40d7fa641172f9de1fa034912a5",
                id="bayes-ideal-json",
            ),
            pytest.param(
                _small("bayes", "csv", IMPERFECT),
                "1f2d8a7508a0f85fd45198791b32177830a8bbe730ba724629d44d5f88fdf2a0",
                id="bayes-imperfect-csv",
            ),
            pytest.param(
                _small("bayes", "json", IMPERFECT),
                "6fe2b91c4eb50fb9decdb4bb747246d84b5c20448d346397ad5f55ab529097d4",
                id="bayes-imperfect-json",
            ),
            # 40,000 trials: two engine blocks
            pytest.param(
                ["--m", "8", "--alpha-sq", "2", "--beta-sq", "0.23", "--strategy", "bayes",
                 "--trials", "40000", "--seed", "22", *IMPERFECT],
                "d62f55ab46580b0c333ba673406c4a57acaf4f091029537ac3723bb9a4b0ff6a",
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
                "f4e2bc9380e99db55b8a7996f242228ae31a62d9ebd74d3f55baf9ca0a3dcbe6",
                id="bayes-nulling-thermal-csv",
            ),
            # M=16 over two engine blocks: posterior row sums of 16 terms
            pytest.param(
                ["--m", "16", "--alpha-sq", "2", "--beta-sq", "0.23", "--strategy", "bayes",
                 "--trials", "40000", "--seed", "24", *IMPERFECT],
                "c6021a5fe2fb3c933645795987bbe30b138aaa3d581ba37682d0bdcbe115d75d",
                id="bayes-m16-imperfect-40000-csv",
            ),
            # two blocks with dead-time blocking and no thermal offset
            pytest.param(
                ["--alpha-sq", "1", "--beta-sq", "0.23", "--strategy", "cyclic",
                 "--trials", "40000", "--seed", "27", "--eta", "0.8", "--dead-time", "0.05",
                 "--dark-rate", "0.2"],
                "49827a22c4d4211595598d0e8199724eab64b9af0c0ca2325fac83c96f62a0f8",
                id="cyclic-dead-time-40000-csv",
            ),
        ],
    )
    def test_golden_bytes(self, capsys, argv, digest):
        # the cyclic digests come from an earlier writer, which formatted one
        # row object per trial: writing from the record columns must not
        # change a byte
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
    spec = _read_spec(str(path), command)
    argv = [command, "--spec", str(path), "--alpha-sq", spec["alpha_sq"].split(",")[0]]
    # optimize's exact objective runs no trials and rejects --trials
    if "trials" in _SCHEMA[command] and spec.get("objective") != "analytic":
        argv += ["--trials", "2000"]
    if spec.get("beta_policy") == "mc":
        argv += ["--opt-trials", "10000"]
    code, out, _ = run_cli(capsys, *argv, "--workers", "1")
    assert code == EXIT_OK
    assert out.splitlines()[0] == SPEC_HEADERS[command]
