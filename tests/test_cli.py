import hashlib
import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bellpoly.cli import main
from bellpoly.core import CorrelationVector, Scenario, bell3_vector, ch_shape_vector
from bellpoly.models import (
    concept_scenario,
    distinguish_events,
    singlet_scenario,
    maximal_violation_config,
    vessels_scenario,
)
from bellpoly.scenario_io import (
    ScenarioFormatError,
    dumps_scenario,
    load_scenario,
    loads_scenario,
    save_scenario,
    scenario_to_dict,
)


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "bellpoly.cli", *args],
        capture_output=True,
        text=True,
    )


def write_scenario(tmp_path, name, scenario):
    path = tmp_path / name
    save_scenario(scenario, path)
    return str(path)


def run_into_closed_pipe(args, head, buffered):
    """Run the CLI, read `head` from its stdout, close the pipe; (exit code, stderr)."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "bellpoly.cli", *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )
    assert proc.stdout.read(len(head)) == head
    proc.stdout.close()
    stderr = proc.stderr.read()
    return proc.wait(timeout=60), stderr


def assert_one_error_line(stderr):
    assert "Traceback" not in stderr
    assert stderr.startswith("error: ") and stderr.count("\n") == 1


ZEROS = Scenario(
    "zeros", "explicit",
    vector=ch_shape_vector(0, 0, 0, 0, 0, 0, 0, 0),
    expectations=None,
)


class TestEvaluate:
    def test_builtin_vessels(self):
        proc = run_cli("evaluate", "--builtin", "vessels")
        assert proc.returncode == 0
        assert "CHSH |E13-E14|+|E23+E24| = 4" in proc.stdout
        assert "CH2" in proc.stdout and "VIOLATED" in proc.stdout

    def test_builtin_singlet_max_violation(self):
        proc = run_cli("evaluate", "--builtin", "singlet", "--angles", "0,90,45,135")
        assert proc.returncode == 0
        line = next(l for l in proc.stdout.splitlines() if l.startswith("CHSH"))
        value = float(line.split("=")[1])
        assert value == pytest.approx(2 * math.sqrt(2), abs=1e-11)

    def test_all_zero_file(self, tmp_path):
        scenario = Scenario(
            "zeros", "explicit",
            vector=ch_shape_vector(0, 0, 0, 0, 0, 0, 0, 0),
            expectations=None,
        )
        data = scenario_to_dict(scenario)
        data["expectations"] = {"1,3": 0, "1,4": 0, "2,3": 0, "2,4": 0}
        path = tmp_path / "zeros.json"
        path.write_text(json.dumps(data))
        proc = run_cli("evaluate", str(path))
        assert proc.returncode == 0
        assert "CHSH |E13-E14|+|E23+E24| = 0" in proc.stdout
        assert "VIOLATED" not in proc.stdout

    def test_unknown_field_rejected(self, tmp_path):
        data = scenario_to_dict(vessels_scenario())
        data["surprise"] = 1
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        proc = run_cli("evaluate", str(path))
        assert proc.returncode == 2
        assert "surprise" in proc.stderr

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "name": "x",\n  !\n}')
        proc = run_cli("evaluate", str(path))
        assert proc.returncode == 2
        assert "line 3" in proc.stderr

    def test_missing_file(self):
        proc = run_cli("evaluate", "/nonexistent/path.json")
        assert proc.returncode == 2

    def test_no_input(self):
        proc = run_cli("evaluate")
        assert proc.returncode == 2

    def test_angles_only_apply_to_singlet(self):
        proc = run_cli("evaluate", "--builtin", "vessels", "--angles", "0,90,45,135")
        assert proc.returncode == 2

    def test_singlet_file(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({
            "name": "s", "kind": "singlet",
            "angles_deg": {"a1": 0, "a2": 90, "a3": 45, "a4": 135},
        }))
        proc = run_cli("evaluate", str(path))
        assert proc.returncode == 0
        assert "2.8284271247461" in proc.stdout


class TestMembership:
    def test_distinguished_vessels_inside(self, tmp_path):
        scenario = Scenario(
            "dv", "explicit", vector=distinguish_events(vessels_scenario())
        )
        path = write_scenario(tmp_path, "dv.json", scenario)
        proc = run_cli("membership", path)
        assert proc.returncode == 0
        assert "inside" in proc.stdout
        assert "reconstruction error = 0" in proc.stdout

    def test_raw_vessels_outside(self, tmp_path):
        path = write_scenario(tmp_path, "vessels.json", vessels_scenario())
        proc = run_cli("membership", path)
        assert proc.returncode == 1
        assert "outside" in proc.stdout
        assert "CH2 = 1" in proc.stdout

    def test_product_vector_inside(self, tmp_path):
        v = ch_shape_vector(
            Fraction(1, 2), Fraction(1, 3), Fraction(1, 5), Fraction(2, 3),
            Fraction(1, 10), Fraction(1, 3), Fraction(1, 15), Fraction(2, 9),
        )
        path = write_scenario(tmp_path, "prod.json", Scenario("p", "explicit", vector=v))
        proc = run_cli("membership", path, "--exact")
        assert proc.returncode == 0

    def test_rational_ch2_just_above_zero_is_named(self, tmp_path, capsys):
        half, tiny = Fraction(1, 2), Fraction(1, 10 ** 10)
        v = ch_shape_vector(half, half, half, half, half - tiny, half, half, half)
        path = write_scenario(tmp_path, "ch2.json", Scenario("ch2", "explicit", vector=v))
        assert main(["evaluate", path]) == 0
        assert "  CH2  p14+p23+p24-p13-p2-p4 = 1/10000000000  VIOLATED\n" in capsys.readouterr().out
        for exact in ([], ["--exact"]):
            assert main(["membership", path, *exact]) == 1
            assert ("violated facet: CH2 = 1/10000000000 (allowed [-1, 0])\n"
                    in capsys.readouterr().out)

    def test_capacity_exit_code(self, tmp_path):
        scenario = Scenario(
            "big", "explicit",
            vector=CorrelationVector(17, (), {i: 0 for i in range(1, 18)}, {}),
        )
        path = write_scenario(tmp_path, "big.json", scenario)
        proc = run_cli("membership", path)
        assert proc.returncode == 3


class TestDistinguish:
    def test_builtin_vessels_file(self, tmp_path):
        out = tmp_path / "dv.json"
        proc = run_cli("distinguish", "--builtin", "vessels", "--out", str(out))
        assert proc.returncode == 0
        scenario = load_scenario(out)
        v = scenario.vector
        assert v.n == 8 and v.pairs == ((1, 5), (2, 7), (3, 6), (4, 8))
        assert v.components() == [
            0, Fraction(1, 2), Fraction(1, 2), Fraction(1, 2),
            0, Fraction(1, 2), Fraction(1, 2), Fraction(1, 2),
            0, Fraction(1, 4), Fraction(1, 4), Fraction(1, 4),
        ]

    def test_concept_matches_vessels_numbers(self, tmp_path):
        a, b = tmp_path / "c.json", tmp_path / "v.json"
        assert run_cli("distinguish", "--builtin", "concept", "--out", str(a)).returncode == 0
        assert run_cli("distinguish", "--builtin", "vessels", "--out", str(b)).returncode == 0
        va, vb = load_scenario(a).vector, load_scenario(b).vector
        assert va == vb

    def test_round_trip_membership(self, tmp_path):
        out = tmp_path / "dv.json"
        run_cli("distinguish", "--builtin", "vessels", "--out", str(out))
        assert run_cli("membership", str(out)).returncode == 0

    def test_wrong_shape_input(self, tmp_path):
        v = bell3_vector(1, 1, 1, 1, 1, 1)
        path = write_scenario(tmp_path, "n3.json", Scenario("n3", "explicit", vector=v))
        proc = run_cli("distinguish", path)
        assert proc.returncode == 2

    def test_stdout_output(self):
        proc = run_cli("distinguish", "--builtin", "vessels")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["n"] == 8


class TestSweep:
    HEADER = "rho,epsilon,e_ab,e_ab2,e_a2b,e_a2b2,chsh,violates,regime"

    def test_header_and_rows(self, tmp_path):
        out = tmp_path / "sweep.csv"
        proc = run_cli("sweep", "--rho-steps", "21", "--eps-steps", "21", "--out", str(out))
        assert proc.returncode == 0
        lines = out.read_text().splitlines()
        assert lines[0] == self.HEADER
        assert len(lines) == 442
        last = lines[-1].split(",")
        assert float(last[0]) == 1.0 and float(last[1]) == 1.0
        assert float(last[6]) == pytest.approx(2 * math.sqrt(2), abs=1e-11)
        assert last[7] == "1"
        zero_row = next(l for l in lines[1:] if l.startswith("0,0.5,"))
        cells = zero_row.split(",")
        assert float(cells[6]) == 0.0 and cells[7] == "0"

    def test_row_major_order(self, tmp_path):
        out = tmp_path / "s.csv"
        run_cli("sweep", "--rho-steps", "3", "--eps-steps", "2", "--out", str(out))
        rows = [l.split(",")[:2] for l in out.read_text().splitlines()[1:]]
        assert rows == [
            ["0", "0"], ["0", "1"], ["0.5", "0"], ["0.5", "1"], ["1", "0"], ["1", "1"]
        ]

    def test_monte_carlo_header_and_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sweep", "--rho-steps", "3", "--eps-steps", "3",
                "--trials", "2000", "--seed", "7"]
        assert run_cli(*args, "--out", str(a)).returncode == 0
        assert run_cli(*args, "--out", str(b)).returncode == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text().splitlines()[0] == self.HEADER + ",mc_chsh,mc_stderr"

    def test_bytes_independent_of_cpu_count(self):
        # the bytes must not depend on how many CPUs the process may use
        cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
        if len(cpus) < 2:
            pytest.skip("needs at least two usable CPUs")
        cmd = [sys.executable, "-m", "bellpoly.cli", "sweep", "--rho-steps", "5",
               "--eps-steps", "5", "--trials", "20001", "--seed", "7"]
        pinned = subprocess.run(
            cmd, capture_output=True, preexec_fn=lambda: os.sched_setaffinity(0, {cpus[0]})
        )
        free = subprocess.run(cmd, capture_output=True)
        assert pinned.returncode == free.returncode == 0
        assert pinned.stdout == free.stdout
        assert len(free.stdout.splitlines()) == 26

    @pytest.mark.parametrize(
        "args, sha256",
        [
            (["--rho-steps", "21", "--eps-steps", "21"],
             "fe18af6e0835e7cbaa9fbe71b947cfae39389375cc8c1ed0994ef2b3833ce124"),
            (["--rho-steps", "401", "--eps-steps", "401"],
             "8a957c8b4237f191522ec6952e1b8f30fe6b96a7243527a88b8f486c7eda1037"),
            (["--rho-steps", "5", "--eps-steps", "5", "--trials", "20001", "--seed", "7"],
             "b7fa3891c75d630e3e38ce2a13456ba0e0c874e2183518703b60ef4cc79b52c3"),
        ],
        ids=["closed-21x21", "closed-401x401", "mc-5x5"],
    )
    def test_pinned_bytes(self, tmp_path, args, sha256):
        cmd = [sys.executable, "-m", "bellpoly.cli", "sweep", *args]
        stdout = subprocess.run(cmd, capture_output=True, check=True).stdout
        out = tmp_path / "s.csv"
        subprocess.run([*cmd, "--out", str(out)], capture_output=True, check=True)
        assert hashlib.sha256(stdout).hexdigest() == sha256
        assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256

    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("steps, head", [("101", "rho,epsilo"), ("3", "")],
                             ids=["closed-mid-stream", "closed-before-reading"])
    def test_closed_stdout_pipe_exits_4(self, buffered, steps, head):
        # buffered, the 3x3 rows sit in stdout's buffer until the final flush
        code, stderr = run_into_closed_pipe(
            ["sweep", "--rho-steps", steps, "--eps-steps", steps], head, buffered
        )
        assert code == 4
        assert_one_error_line(stderr)

    def test_step_count_validation(self):
        assert run_cli("sweep", "--rho-steps", "1", "--eps-steps", "5").returncode == 2

    def test_unwritable_path(self):
        proc = run_cli("sweep", "--rho-steps", "2", "--eps-steps", "2",
                       "--out", "/nonexistent-dir/x.csv")
        assert proc.returncode == 4


def command_args(command, tmp_path):
    """A run of each command that writes stdout. The membership vector is outside, so
    a working stdout exits 1; distinguish-out fails on stdout after writing its file."""
    if command == "membership":
        return ["membership", write_scenario(tmp_path, "v.json", vessels_scenario())]
    if command == "distinguish-out":
        return ["distinguish", "--builtin", "vessels", "--out", str(tmp_path / "d.json")]
    if command == "simulate":
        return ["simulate", "--rho", "1", "--eps", "1", "--trials", "1000"]
    if command == "sweep":
        return ["sweep", "--rho-steps", "3", "--eps-steps", "3"]
    return [command, "--builtin", "vessels"]


class TestOutputFailure:
    """A stdout that cannot be written exits 4, with one error line, for every command."""

    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize(
        "command", ["evaluate", "membership", "distinguish", "distinguish-out", "simulate"]
    )
    def test_closed_stdout_pipe_exits_4(self, tmp_path, command, buffered):
        code, stderr = run_into_closed_pipe(command_args(command, tmp_path), "", buffered)
        assert code == 4
        assert_one_error_line(stderr)

    @pytest.mark.parametrize(
        "command", ["evaluate", "membership", "distinguish", "simulate", "sweep"]
    )
    def test_dev_full_exits_4(self, tmp_path, command):
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "bellpoly.cli", *command_args(command, tmp_path)],
                stdout=full, stderr=subprocess.PIPE, text=True,
            )
        assert proc.returncode == 4
        assert_one_error_line(proc.stderr)

    def test_unencodable_stdout_exits_4(self, tmp_path):
        # the text cannot be encoded for stdout: an output failure, although a ValueError
        scenario = Scenario("caf\u00e9", "explicit", vector=vessels_scenario().vector)
        path = write_scenario(tmp_path, "cafe.json", scenario)
        env = {**os.environ, "PYTHONIOENCODING": "ascii"}
        proc = subprocess.run([sys.executable, "-m", "bellpoly.cli", "evaluate", path],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 4
        assert_one_error_line(proc.stderr)
        assert "codec can't encode" in proc.stderr


class TestSimulate:
    def test_saturated_exact(self):
        proc = run_cli("simulate", "--rho", "1", "--eps", "0.25",
                       "--angle-deg", "45", "--trials", "5000", "--seed", "1")
        assert proc.returncode == 0
        assert "monte carlo estimate = -1.0" in proc.stdout
        assert "closed form          = -1.0" in proc.stdout

    def test_quantum_point(self):
        proc = run_cli("simulate", "--rho", "1", "--eps", "1",
                       "--angle-deg", "45", "--trials", "100000", "--seed", "2")
        assert proc.returncode == 0
        est = float(next(
            l for l in proc.stdout.splitlines() if l.startswith("monte carlo")
        ).split("=")[1])
        assert est == pytest.approx(-math.sqrt(2) / 2, abs=0.02)
        assert "z-score" in proc.stdout

    def test_zero_reach(self):
        proc = run_cli("simulate", "--rho", "0", "--eps", "0.5",
                       "--trials", "20000", "--seed", "3")
        est = float(next(
            l for l in proc.stdout.splitlines() if l.startswith("monte carlo")
        ).split("=")[1])
        assert abs(est) <= 0.03

    def test_zero_trials_rejected(self):
        proc = run_cli("simulate", "--rho", "1", "--eps", "1", "--trials", "0")
        assert proc.returncode == 2

    def test_negative_seed_rejected(self):
        proc = run_cli("simulate", "--rho", "1", "--eps", "1",
                       "--trials", "10", "--seed", "-3")
        assert proc.returncode == 2
        proc = run_cli("sweep", "--rho-steps", "2", "--eps-steps", "2",
                       "--trials", "10", "--seed", "-3")
        assert proc.returncode == 2

    def test_bad_rho_rejected(self):
        proc = run_cli("simulate", "--rho", "2", "--eps", "1", "--trials", "10")
        assert proc.returncode == 2

    @pytest.mark.parametrize(
        "args",
        [
            ["simulate", "--rho", "1", "--eps", "1", "--angle-deg", "inf"],
            ["simulate", "--rho", "1", "--eps", "1", "--trials", "3", "--seed", str(2 ** 128)],
            # a saturated run draws nothing, and still refuses a seed outside Philox's keys
            ["simulate", "--rho", "1", "--eps", "0.25", "--trials", "3", "--seed", str(2 ** 128)],
            ["sweep", "--trials", "3", "--seed", str(2 ** 128)],
            ["sweep", "--trials", "3", "--seed", str(2 ** 128), "--out", "F"],
        ],
        ids=["angle-inf", "simulate-seed-2^128", "simulate-fixed-seed-2^128", "sweep-seed-2^128",
             "sweep-seed-2^128-out"],
    )
    def test_value_errors_exit_2(self, args, tmp_path):
        # refused before any output: nothing on stdout, and no --out file
        out = tmp_path / "F"
        proc = run_cli(*(str(out) if a == "F" else a for a in args))
        assert proc.returncode == 2
        assert_one_error_line(proc.stderr)
        assert proc.stdout == ""
        assert not out.exists()


class TestScenarioIO:
    @pytest.mark.parametrize(
        "scenario",
        [
            vessels_scenario(),
            concept_scenario(),
            singlet_scenario(maximal_violation_config()),
            ZEROS,
        ],
        ids=["vessels", "concept", "singlet", "zeros"],
    )
    def test_round_trip_identity(self, scenario):
        assert loads_scenario(dumps_scenario(scenario)) == scenario

    def test_distinguished_round_trip(self):
        scenario = Scenario(
            "dv", "explicit", vector=distinguish_events(vessels_scenario())
        )
        again = loads_scenario(dumps_scenario(scenario))
        assert again == scenario
        assert isinstance(again.vector.singles[2], Fraction)

    def test_fraction_strings_parse(self):
        text = json.dumps({
            "name": "f", "kind": "explicit", "n": 2, "pairs": [[1, 2]],
            "singles": {"1": "3/8", "2": 0.5}, "joints": {"1,2": "1/8"},
        })
        scenario = loads_scenario(text)
        assert scenario.vector.singles[1] == Fraction(3, 8)
        assert scenario.vector.joints[(1, 2)] == Fraction(1, 8)

    def test_decimal_strings_parse_exact(self):
        scenario = loads_scenario(json.dumps({
            "name": "d", "kind": "explicit", "n": 1, "pairs": [],
            "singles": {"1": "0.375"}, "joints": {},
        }))
        assert scenario.vector.singles[1] == Fraction(3, 8)

    def test_singlet_file(self):
        scenario = loads_scenario(json.dumps({
            "name": "s", "kind": "singlet",
            "angles_deg": {"a1": 0, "a2": 90, "a3": 45, "a4": 135},
        }))
        assert scenario.kind == "singlet"
        assert scenario.vector.joints[(1, 4)] == pytest.approx(
            0.5 * math.sin(math.radians(135) / 2) ** 2, abs=1e-15
        )

    def test_singlet_file_rejects_vector_fields(self):
        with pytest.raises(ScenarioFormatError):
            loads_scenario(json.dumps({
                "name": "s", "kind": "singlet", "n": 4,
                "angles_deg": {"a1": 0, "a2": 90, "a3": 45, "a4": 135},
            }))

    def test_bad_probability_rejected(self):
        with pytest.raises(ScenarioFormatError):
            loads_scenario(json.dumps({
                "name": "x", "kind": "explicit", "n": 1, "pairs": [],
                "singles": {"1": 1.5}, "joints": {},
            }))

    def test_bad_pair_key(self):
        with pytest.raises(ScenarioFormatError):
            loads_scenario(json.dumps({
                "name": "x", "kind": "explicit", "n": 2, "pairs": [[1, 2]],
                "singles": {"1": 0, "2": 0}, "joints": {"1;2": 0},
            }))

    @pytest.mark.parametrize("entry", ['["a", 3]', "[null, 3]", "[1.5, 3]", "[true, 3]"],
                             ids=["string", "null", "float", "bool"])
    def test_pair_entries_must_be_integers(self, tmp_path, entry):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"name": "x", "kind": "explicit", "n": 4, "pairs": [%s], '
            '"singles": {"1": 0.5, "2": 0.5, "3": 0.5, "4": 0.5}, "joints": {"1,3": 0.25}}'
            % entry
        )
        proc = run_cli("membership", str(path))
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "field pairs: bad entry" in proc.stderr

    @pytest.mark.parametrize(
        "field, good, bad, message",
        [
            ("singles", "1", " 1", "bad index"),
            ("singles", "2", "+2", "bad index"),
            ("singles", "1", "0_1", "bad index"),
            ("singles", "1", "\u0661", "bad index"),  # ARABIC-INDIC DIGIT ONE
            ("joints", "1,3", " 1, +3", "bad pair key"),
            ("joints", "1,3", "1,3,", "bad pair key"),
            ("joints", "2,4", "2,\u0664", "bad pair key"),
            ("expectations", "1,4", "1,0_4", "bad pair key"),
        ],
    )
    def test_index_keys_must_be_plain_digits(self, tmp_path, field, good, bad, message):
        # int() reads all but the trailing-comma key as the good one, so the file would load
        data = scenario_to_dict(vessels_scenario())
        data[field] = {bad if k == good else k: v for k, v in data[field].items()}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        proc = run_cli("membership", str(path))
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert f"field {field}: {message}" in proc.stderr

    @pytest.mark.parametrize("command", ["membership", "evaluate", "distinguish"])
    @pytest.mark.parametrize("angle", ["Infinity", "-Infinity", "NaN", "1" + "0" * 400],
                             ids=["inf", "-inf", "nan", "int-1e400"])
    def test_non_finite_angles(self, tmp_path, command, angle):
        path = tmp_path / "s.json"
        path.write_text('{"name": "s", "kind": "singlet", "angles_deg": '
                        '{"a1": %s, "a2": 90, "a3": 45, "a4": 135}}' % angle)
        proc = run_cli(command, str(path))
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "field angles_deg.a1: expected a finite number" in proc.stderr

    @pytest.mark.parametrize("command", ["membership", "evaluate"])
    @pytest.mark.parametrize(
        "first, repeated, key",
        [
            ('"singles": {', '"singles": {"1": 0.5, ', "'1'"),
            ('"joints": {', '"joints": {"1,3": 0.5, ', "'1,3'"),
            ('{"name": ', '{"name": "other", "name": ', "'name'"),
        ],
        ids=["singles", "joints", "name"],
    )
    def test_duplicate_keys(self, tmp_path, command, first, repeated, key):
        # plain json.loads keeps the last value, so the file would load
        text = json.dumps(scenario_to_dict(vessels_scenario()))
        path = tmp_path / "dup.json"
        path.write_text(text.replace(first, repeated, 1))
        proc = run_cli(command, str(path))
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert f"duplicate key {key}" in proc.stderr

    def test_non_utf8_file(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"name": "café"}'.encode("latin-1"))
        proc = run_cli("membership", str(path))
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "not UTF-8" in proc.stderr

    def test_colliding_keys_rejected(self):
        with pytest.raises(ScenarioFormatError):
            loads_scenario(json.dumps({
                "name": "x", "kind": "explicit", "n": 2, "pairs": [[1, 2]],
                "singles": {"1": 0, "01": 0, "2": 0}, "joints": {"1,2": 0},
            }))

    def test_in_process_main_exit_codes(self, tmp_path, capsys):
        path = write_scenario(tmp_path, "v.json", vessels_scenario())
        big = write_scenario(tmp_path, "big.json", Scenario(
            "big", "explicit", vector=CorrelationVector(17, (), {i: 0 for i in range(1, 18)}, {}),
        ))
        no_dir = tmp_path / "no-such-dir"
        fd1 = os.fstat(1)
        assert main(["membership", path]) == 1
        assert main(["evaluate", path]) == 0
        assert main(["membership", str(tmp_path / "missing.json")]) == 2
        assert main(["evaluate", str(tmp_path)]) == 2
        assert main(["membership", big]) == 3
        assert main(["distinguish", "--builtin", "vessels", "--out", str(no_dir / "d.json")]) == 4
        assert main(["sweep", "--rho-steps", "2", "--eps-steps", "2",
                     "--out", str(no_dir / "s.csv")]) == 4
        assert os.path.samestat(os.fstat(1), fd1)  # the caller's stdout was left alone
        capsys.readouterr()

    @staticmethod
    def _mutants(rng, text):
        """Truncations, single-bit flips, and every field at every depth swapped
        for a value of each JSON type."""
        data = text.encode()
        for cut in rng.choice(len(data), 10, replace=False):
            yield data[:cut]
        for k in rng.choice(len(data), 15, replace=False):
            flipped = bytearray(data)
            flipped[k] ^= 1 << int(rng.integers(8))
            yield bytes(flipped)

        def swapped(node):
            keys = node if isinstance(node, dict) else range(len(node))
            for key in keys:
                for other in (None, True, 7, 0.5, "x", [], {}):
                    yield {**node, key: other} if isinstance(node, dict) else \
                        [*node[:key], other, *node[key + 1:]]
                if isinstance(node[key], (dict, list)):
                    for inner in swapped(node[key]):
                        yield {**node, key: inner} if isinstance(node, dict) else \
                            [*node[:key], inner, *node[key + 1:]]

        for doc in swapped(json.loads(text)):
            yield json.dumps(doc).encode()

    def test_malformed_files_exit_0_to_3(self, tmp_path, capsys):
        rng = np.random.default_rng(9)
        mutants = [
            m
            for scenario in (vessels_scenario(), singlet_scenario(maximal_violation_config()),
                             Scenario("b", "explicit", vector=bell3_vector(*[Fraction(1, 4)] * 6)))
            for m in self._mutants(rng, dumps_scenario(scenario))
        ]
        path = tmp_path / "m.json"
        for mutant in mutants:
            path.write_bytes(mutant)
            for command in ("evaluate", "membership", "distinguish"):
                assert main([command, str(path)]) in (0, 1, 2, 3), mutant
        capsys.readouterr()
        for k in rng.choice(len(mutants), 4, replace=False):
            path.write_bytes(mutants[k])
            proc = run_cli("membership", str(path))
            assert proc.returncode in (0, 1, 2, 3)
            assert "Traceback" not in proc.stderr

    @given(
        st.lists(
            st.fractions(min_value=0, max_value=1, max_denominator=64),
            min_size=8, max_size=8,
        )
    )
    def test_round_trip_random_rational_vectors(self, values):
        scenario = Scenario("rand", "explicit", vector=ch_shape_vector(*values))
        again = loads_scenario(dumps_scenario(scenario))
        assert again == scenario
        assert again.vector.components() == scenario.vector.components()
