import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import superdiscord as sd
from superdiscord import cli
from superdiscord.discord import OptimizerConfig
from superdiscord.errors import NoConvergence
from superdiscord.measure import INFINITY

from oracles import binary_entropy, oracle_werner


def run(capsys, *argv):
    rc = cli.main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def state_file(path, m, dim_a=2):
    m = np.asarray(m, dtype=complex)
    path.write_text(
        json.dumps({"dim_a": dim_a, "dim_b": 2, "re": m.real.tolist(), "im": m.imag.tolist()})
    )
    return str(path)


def bell_file(tmp_path):
    v = np.zeros(4)
    v[0] = v[3] = 1 / math.sqrt(2)
    return state_file(tmp_path / "bell.json", np.outer(v, v))


def expected_sweep_row(param, rho, x, cfg):
    """A sweep row rebuilt from separate analyze and verify_resurrection calls."""
    rep = sd.analyze(rho, x, cfg)
    post, gap = math.nan, math.nan
    if math.isfinite(x) and x > 0:
        rec = sd.verify_resurrection(rho, x, cfg)
        post, gap = rec.post_super_discord, rec.gap
    values = (
        param,
        sd.von_neumann_entropy(rho.entries),
        sd.von_neumann_entropy(sd.partial_trace_a(rho)),
        rep.discord + rep.conditional_entropy_qq,
        rep.super_discord + rep.conditional_entropy_qq,
        rep.mutual_info,
        rep.discord,
        rep.super_discord,
        rep.delta,
        post,
        gap,
    )
    return ",".join(cli.fmt_float(v) for v in values)


class TestReport:
    def test_pure_headline(self, capsys):
        rc, out = run(capsys, "report", "--state", "pure", "--lambda0", "0.2", "--x", "0.2")
        assert rc == 0
        data = json.loads(out)
        assert data["delta"] == pytest.approx(0.7010, abs=1e-3)
        assert set(data) == {
            "conditional_entropy_qq",
            "mutual_info",
            "discord",
            "super_discord",
            "delta",
            "strong_basis",
            "weak_basis",
            "strength",
        }

    def test_maximally_mixed_werner(self, capsys):
        rc, out = run(capsys, "report", "--state", "werner", "--z", "0", "--x", "1")
        assert rc == 0
        data = json.loads(out)
        assert data["discord"] == pytest.approx(0.0, abs=1e-9)
        assert data["super_discord"] == pytest.approx(0.0, abs=1e-9)

    def test_bell_file_at_zero_strength(self, capsys, tmp_path):
        rc, out = run(capsys, "report", "--state", f"file:{bell_file(tmp_path)}", "--x", "0")
        assert rc == 0
        data = json.loads(out)
        assert data["super_discord"] == pytest.approx(2.0, abs=1e-9)
        assert data["mutual_info"] == pytest.approx(2.0, abs=1e-9)

    def test_csv_format(self, capsys):
        rc, out = run(capsys, "report", "--state", "werner", "--z", "0.5", "--x", "0.5", "--format", "csv")
        assert rc == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("strength,cond_entropy_qq,mutual_info,discord")
        assert len(lines[0].split(",")) == len(lines[1].split(","))

    def test_out_file(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        rc, out = run(capsys, "report", "--state", "werner", "--z", "0.5", "--out", str(path))
        assert rc == 0 and out == ""
        assert json.loads(path.read_text())["strength"] == 0.5

    def test_deterministic_output(self, capsys):
        argv = ("report", "--state", "random", "--seed", "5", "--x", "0.5")
        _, first = run(capsys, *argv)
        _, second = run(capsys, *argv)
        assert first == second


class TestResurrect:
    def test_pure_headline(self, capsys):
        rc, out = run(capsys, "resurrect", "--state", "pure", "--lambda0", "0.2", "--x", "0.2")
        assert rc == 0
        data = json.loads(out)
        assert data["delta"] == pytest.approx(0.7010, abs=1e-3)
        assert data["post_super_discord"] == pytest.approx(0.7010, abs=1e-3)
        assert data["gap"] <= 1e-3

    def test_werner_coincidence(self, capsys):
        rc, out = run(capsys, "resurrect", "--state", "werner", "--z", "0.6", "--x", "0.5")
        assert rc == 0
        data = json.loads(out)
        assert data["gap"] <= 1e-6
        assert data["coincidence"] is True

    def test_gap_tolerance_exit_code(self, capsys):
        rc, out = run(
            capsys,
            "resurrect", "--state", "random", "--seed", "7", "--x", "0.5",
            "--gap-tol", "1e-15",
        )
        assert rc == 4
        assert json.loads(out)["gap"] > 1e-15


class TestSweep:
    def test_bell_x_sweep_closed_form(self, capsys):
        rc, out = run(
            capsys,
            "sweep", "--state", "pure", "--lambda0", "0.5", "--axis", "x",
            "--start", "0.1", "--stop", "3", "--steps", "10",
        )
        assert rc == 0
        lines = out.strip().split("\n")
        assert lines[0] == "param,S_AB,S_B,cond_entropy_strong,cond_entropy_weak,I,D_s,D_w,delta,D_w_post,gap"
        assert all(len(line.split(",")) == 11 for line in lines)
        rows = [dict(zip(lines[0].split(","), map(float, line.split(",")))) for line in lines[1:]]
        for row in rows:
            expected = binary_entropy((1 + math.tanh(row["param"])) / 2)
            assert row["delta"] == pytest.approx(expected, abs=1e-6)
        dw = [row["D_w"] for row in rows]
        assert all(a + 1e-6 >= b for a, b in zip(dw, dw[1:]))

    def test_werner_z_sweep_matches_oracle(self, capsys):
        rc, out = run(
            capsys,
            "sweep", "--state", "werner", "--axis", "z",
            "--start", "0.1", "--stop", "0.9", "--steps", "5", "--x", "0.5",
        )
        assert rc == 0
        lines = out.strip().split("\n")
        rows = [dict(zip(lines[0].split(","), map(float, line.split(",")))) for line in lines[1:]]
        for row in rows:
            oracle = oracle_werner(row["param"], 0.5)
            assert row["delta"] == pytest.approx(oracle.delta, abs=1e-6)
            assert row["cond_entropy_strong"] == pytest.approx(oracle.strong_ce, abs=1e-6)
            assert row["cond_entropy_weak"] == pytest.approx(oracle.weak_ce, abs=1e-6)

    def test_product_state_sweep_all_zero(self, capsys):
        rc, out = run(
            capsys,
            "sweep", "--state", "pure", "--lambda0", "1", "--axis", "x",
            "--start", "0.2", "--stop", "1", "--steps", "3",
        )
        assert rc == 0
        lines = out.strip().split("\n")
        for line in lines[1:]:
            row = dict(zip(lines[0].split(","), map(float, line.split(","))))
            for key in ("I", "D_s", "D_w", "delta", "D_w_post"):
                assert row[key] == pytest.approx(0.0, abs=1e-9)

    def test_x_sweep_rows_match_library_qudit_file(self, capsys, tmp_path):
        path = state_file(tmp_path / "a4.json", sd.random_state(4, dim_a=4, rank=8).entries, dim_a=4)
        rc, out = run(
            capsys,
            "sweep", "--state", f"file:{path}", "--axis", "x",
            "--start", "0", "--stop", "1", "--steps", "3", "--grid", "16",
        )
        assert rc == 0
        rho, cfg = cli.load_state_file(path), OptimizerConfig(grid_gamma=16, grid_delta=16)
        expected = [expected_sweep_row(float(v), rho, float(v), cfg) for v in np.linspace(0, 1, 3)]
        assert out.strip().split("\n")[1:] == expected

    def test_z_sweep_rows_match_library_werner(self, capsys):
        rc, out = run(
            capsys,
            "sweep", "--state", "werner", "--axis", "z",
            "--start", "0.1", "--stop", "0.9", "--steps", "3", "--x", "0.5", "--grid", "16",
        )
        assert rc == 0
        cfg = OptimizerConfig(grid_gamma=16, grid_delta=16)
        expected = [
            expected_sweep_row(float(v), sd.werner(float(v)), 0.5, cfg) for v in np.linspace(0.1, 0.9, 3)
        ]
        assert out.strip().split("\n")[1:] == expected

    def test_three_minimizations_per_finite_x_row(self, capsys, minimize_calls):
        rc, _ = run(
            capsys,
            "sweep", "--state", "random", "--seed", "3", "--axis", "x",
            "--start", "0.2", "--stop", "2", "--steps", "4", "--grid", "16",
        )
        assert rc == 0
        assert len(minimize_calls) == 1 + 2 * 4  # one strong minimum shared by the rows

    def test_x_sweep_rows_share_the_file_state_minima(self, capsys, tmp_path, minimize_calls):
        path = state_file(tmp_path / "a3.json", sd.random_state(6, dim_a=3, rank=6).entries, dim_a=3)
        rc, _ = run(capsys, "sweep", "--state", f"file:{path}", "--grid", "8", "--axis", "x",
                    "--start", "0.5", "--stop", "2", "--steps", "3")
        assert rc == 0
        # the first row finds the strong minimum, each row its weak and post-state ones
        assert minimize_calls == [INFINITY, 0.5, 0.5, 1.25, 1.25, 2.0, 2.0]

    def test_axis_family_mismatch(self, capsys):
        rc, _ = run(capsys, "sweep", "--state", "pure", "--axis", "z",
                    "--start", "0", "--stop", "1", "--steps", "2")
        assert rc == 2


class TestClassicallyCorrelatedState:
    """diag(0.2, 0, 0, 0.8) has D_s = 0, with its strong minimum on a pole."""

    @pytest.fixture
    def path(self, tmp_path):
        return state_file(tmp_path / "classical.json", np.diag([0.2, 0.0, 0.0, 0.8]))

    @pytest.mark.parametrize("x, dw", [("0.5", 0.618059342414), ("inf", 0.0)])
    def test_report(self, capsys, path, x, dw):
        rc, out = run(capsys, "report", "--state", f"file:{path}", "--x", x)
        assert rc == 0
        data = json.loads(out)
        assert data["discord"] == 0 and data["mutual_info"] == pytest.approx(binary_entropy(0.2))
        assert data["super_discord"] == pytest.approx(dw, abs=1e-12)

    def test_resurrect(self, capsys, path):
        rc, out = run(capsys, "resurrect", "--state", f"file:{path}", "--x", "0.5")
        assert rc == 0
        data = json.loads(out)
        assert data["delta"] == data["post_super_discord"] == pytest.approx(0.618059342414, abs=1e-12)
        assert data["gap"] == 0

    def test_x_sweep(self, capsys, path):
        rc, out = run(capsys, "sweep", "--state", f"file:{path}", "--axis", "x",
                      "--start", "0.5", "--stop", "1", "--steps", "2")
        assert rc == 0
        lines = out.strip().split("\n")
        rows = [dict(zip(lines[0].split(","), map(float, line.split(",")))) for line in lines[1:]]
        assert [row["D_s"] for row in rows] == [0.0, 0.0]
        assert all(row["D_s"] <= row["D_w"] <= row["I"] for row in rows)
        assert [row["gap"] for row in rows] == [0.0, 0.0]


class TestErrorPaths:
    def test_unknown_family(self, capsys):
        assert run(capsys, "report", "--state", "nosuch")[0] == 2

    def test_invalid_state_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        m = np.diag([0.5, 0.6, 0.0, -0.1])
        path.write_text(json.dumps({"dim_a": 2, "dim_b": 2, "re": m.tolist(), "im": np.zeros((4, 4)).tolist()}))
        assert run(capsys, "report", "--state", f"file:{path}")[0] == 2

    def test_missing_file(self, capsys):
        assert run(capsys, "report", "--state", "file:/does/not/exist.json")[0] == 2

    def test_negative_strength(self, capsys):
        for x in ("-0.5", "nan", "abc"):
            assert run(capsys, "report", "--state", "werner", "--x", x) == (2, ""), x
        assert run(capsys, "resurrect", "--state", "werner", "--x", "nan") == (2, "")

    def test_resurrect_requires_finite_positive_x(self, capsys):
        assert run(capsys, "resurrect", "--state", "werner", "--x", "inf")[0] == 2
        assert run(capsys, "resurrect", "--state", "werner", "--x", "0")[0] == 2

    def test_non_finite_state_file(self, capsys, tmp_path):
        m = np.eye(4) / 4
        m[0, 0] = math.nan  # a NaN on the diagonal slips past the Hermitian, trace and eigenvalue checks
        path = state_file(tmp_path / "nan.json", m)
        assert run(capsys, "report", "--state", f"file:{path}") == (2, "")

    @pytest.mark.parametrize("grid", ["1", "2"])
    def test_lattice_of_poles_rejected(self, capsys, grid):
        rc, out = run(capsys, "report", "--state", "random", "--seed", "1", "--x", "0.5", "--grid", grid)
        assert (rc, out) == (2, "")

    def test_sweep_without_steps_rejected(self, capsys):
        rc, out = run(capsys, "sweep", "--state", "werner", "--axis", "z",
                      "--start", "0", "--stop", "1", "--steps", "0")
        assert (rc, out) == (2, "")

    @pytest.mark.parametrize("start", ["-1", "nan"])
    def test_x_sweep_rejects_negative_and_nan_strength(self, capsys, start, minimize_calls):
        rc, out = run(capsys, "sweep", "--state", "random", "--axis", "x",
                      "--start", start, "--stop", "1", "--steps", "2", "--grid", "4")
        assert (rc, out) == (2, "")
        assert minimize_calls == []

    @pytest.mark.parametrize(
        "state, axis, start, stop, message",
        [("werner", "z", "0.5", "1.5", "z must be in [0, 1], got 1.5"),
         ("pure", "lambda0", "0", "1.2", "lambda0 must be in [0, 1], got 1.2"),
         ("werner", "lambda0", "0", "1", "axis 'lambda0' requires --state pure"),
         ("random", "z", "0", "1", "axis 'z' requires --state werner"),
         ("file:BELL", "z", "0", "1", "axis 'z' requires --state werner")],
        ids=["z-out-of-range", "lambda0-out-of-range", "werner-lambda0", "random-z", "file-z"],
    )
    def test_family_sweep_checks_every_row_before_computing(
        self, capsys, tmp_path, minimize_calls, state, axis, start, stop, message
    ):
        rc = cli.main(["sweep", "--state", state.replace("BELL", bell_file(tmp_path)), "--axis", axis,
                       "--start", start, "--stop", stop, "--steps", "3", "--grid", "8"])
        captured = capsys.readouterr()
        assert (rc, captured.out) == (2, "")
        assert captured.err == f"error: {message}\n"
        assert minimize_calls == []

    @pytest.mark.parametrize(
        "state, axis, option",
        [("werner", "z", ["--z", "5"]), ("werner", "z", ["--z", "0.3"]),
         ("pure", "lambda0", ["--lambda0", "0.2"]), ("random", "x", ["--x", "7"]),
         ("random", "x", ["--x", "0.5"])],
        ids=["z-out-of-range", "z-in-range", "lambda0", "x", "x-default-value"],
    )
    def test_sweep_rejects_its_own_axis_option(self, capsys, minimize_calls, monkeypatch, state, axis, option):
        built = []
        monkeypatch.setattr(cli, "resolve_state", lambda args: built.append(args) or sd.werner(0.5))
        rc = cli.main(["sweep", "--state", state, "--axis", axis, "--start", "0.2", "--stop", "0.4",
                       "--steps", "2", "--grid", "4", *option])
        captured = capsys.readouterr()
        assert (rc, captured.out) == (2, "")
        assert captured.err == (
            f"error: --{axis} is the swept axis of this sweep; set its range with --start and --stop\n"
        )
        assert (built, minimize_calls) == ([], [])

    @pytest.mark.parametrize(
        "content",
        [
            "3",
            '{"dim_a": null, "dim_b": 2, "re": [], "im": []}',
            '{"dim_a": 2, "dim_b": 2, "re": {"a": 1}, "im": []}',
            *[json.dumps({"dim_a": dim, "dim_b": 2, "re": (np.eye(4) / 4).tolist(),
                          "im": np.zeros((4, 4)).tolist()}) for dim in (2.7, True, "2")],
            # B is a qubit: the file's dim_b is the one place a B dimension enters
            *[json.dumps({"dim_a": 2, "dim_b": dim, "re": (np.eye(4) / 4).tolist(),
                          "im": np.zeros((4, 4)).tolist()}) for dim in (3, 2.0, True, "2")],
            json.dumps({"dim_a": 2, "dim_b": 2, "re": (np.eye(4) / 4).tolist()}),
        ],
        ids=["not-an-object", "null-dim", "dict-entries", "float-dim", "bool-dim", "string-dim",
             "qutrit-dim_b", "float-dim_b", "bool-dim_b", "string-dim_b", "missing-im"],
    )
    def test_malformed_state_file(self, capsys, tmp_path, content):
        path = tmp_path / "bad.json"
        path.write_text(content)
        assert run(capsys, "report", "--state", f"file:{path}") == (2, "")

    @pytest.mark.parametrize(
        "depth, message",
        [
            # json's decoder raises RecursionError from about 1000 levels on
            (100_000, "error: state file nests too deeply to parse\n"),
            (500, "error: state file 're' and 'im' must be rectangular: "),
        ],
        ids=["beyond-the-decoder", "beyond-numpy"],
    )
    def test_deeply_nested_state_file(self, capsys, tmp_path, minimize_calls, depth, message):
        path = tmp_path / "deep.json"
        path.write_text('{"dim_a": 2, "dim_b": 2, "re": ' + "[" * depth + "]" * depth + ', "im": []}')
        rc = cli.main(["report", "--state", f"file:{path}"])
        captured = capsys.readouterr()
        assert (rc, captured.out) == (2, "")
        assert captured.err.startswith(message)
        assert minimize_calls == []

    @pytest.mark.parametrize(
        "dim_a, re, im",
        [
            (1, (np.eye(2) / 2).tolist(), 0),
            (1, (np.eye(2) / 2).tolist(), [[0]]),
            # a row plus a column would broadcast into the 4x4 matrix of 0.25s, a valid pure state
            (2, [[0.25] * 4], [[0]] * 4),
        ],
        ids=["scalar-im", "one-by-one-im", "row-plus-column"],
    )
    def test_entries_must_be_matrices_of_one_shape(self, capsys, tmp_path, dim_a, re, im):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dim_a": dim_a, "dim_b": 2, "re": re, "im": im}))
        assert run(capsys, "report", "--state", f"file:{path}") == (2, "")

    @pytest.mark.parametrize(
        "re, message",
        [
            # numpy would read both as a valid state, true as 1.0 and "0.5" as 0.5
            ([[True, False], [False, False]], "state file 're' and 'im' entries must be JSON numbers"),
            ([["0.5", 0], [0, "0.5"]], "state file 're' and 'im' entries must be JSON numbers"),
            # numpy raises OverflowError, not ValueError, on an integer beyond float range
            ([[10**400, 0], [0, 0]], "state file 're' and 'im' entries must be finite: int too large to convert to float"),
        ],
        ids=["bool-entries", "string-entries", "huge-int-entry"],
    )
    def test_entries_must_be_json_numbers(self, capsys, tmp_path, minimize_calls, re, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dim_a": 1, "dim_b": 2, "re": re, "im": [[0, 0], [0, 0]]}))
        rc = cli.main(["report", "--state", f"file:{path}"])
        captured = capsys.readouterr()
        assert (rc, captured.out) == (2, "")
        assert captured.err == f"error: {message}\n"
        assert minimize_calls == []

    @pytest.mark.parametrize(
        "axis, state, start, stop",
        [("x", "random", "1", "inf"), ("x", "random", "nan", "1"),
         ("z", "werner", "0", "inf"), ("lambda0", "pure", "0", "nan")],
    )
    def test_sweep_rejects_non_finite_endpoint(self, capsys, recwarn, minimize_calls, axis, state, start, stop):
        rc = cli.main(["sweep", "--state", state, "--axis", axis, "--start", start, "--stop", stop,
                       "--steps", "2", "--grid", "4"])
        captured = capsys.readouterr()
        assert (rc, captured.out) == (2, "")
        assert "--start and --stop" in captured.err
        assert minimize_calls == []
        assert [str(w.message) for w in recwarn] == []

    @pytest.mark.parametrize(
        "argv",
        [["resurrect", "--state", "werner", "--z", "0.6", "--x", "0.5", "--format", "csv"],
         ["sweep", "--state", "werner", "--axis", "z", "--start", "0.1", "--stop", "0.9",
          "--steps", "2", "--format", "json"]],
        ids=["resurrect", "sweep"],
    )
    def test_format_is_a_report_option(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("tol", ["nan", "-1"])
    def test_resurrect_rejects_bad_gap_tol(self, capsys, minimize_calls, tol):
        rc = cli.main(["resurrect", "--state", "werner", "--z", "0.6", "--x", "0.5", "--gap-tol", tol])
        captured = capsys.readouterr()
        assert (rc, captured.out) == (2, "")
        assert "--gap-tol" in captured.err
        assert minimize_calls == []

    def test_resurrect_accepts_infinite_gap_tol(self, capsys):
        rc, out = run(capsys, "resurrect", "--state", "werner", "--z", "0.6", "--x", "0.5", "--gap-tol", "inf")
        assert rc == 0 and json.loads(out)["coincidence"] is True

    def test_negative_seed_rejected(self, capsys):
        rc = cli.main(["report", "--state", "random", "--seed", "-1"])
        captured = capsys.readouterr()
        assert (rc, captured.out) == (2, "")
        assert "seed" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--state", "werner", "--axis", "x", "--start", "0.5", "--stop", "0.5",
             "--steps", "1", "--grid", "4", "--x", "abc"],
            ["report", "--state", "pure", "--z", "0.3"],
            ["report", "--state", "pure", "--seed", "9"],
            ["resurrect", "--state", "werner", "--lambda0", "0.2"],
            ["report", "--state", "file:BELL", "--seed", "1"],
            ["sweep", "--state", "random", "--seed", "2", "--axis", "x", "--start", "0.5",
             "--stop", "1", "--steps", "2", "--grid", "4", "--z", "0.9"],
            ["sweep", "--state", "werner", "--axis", "z", "--start", "0.1", "--stop", "0.9",
             "--steps", "2", "--grid", "4", "--lambda0", "0.3"],
        ],
        ids=["x-sweep-bad-x", "pure-z", "pure-seed", "werner-lambda0", "file-seed", "random-z",
             "z-sweep-lambda0"],
    )
    def test_option_parsed_and_checked_before_any_state(self, capsys, tmp_path, minimize_calls, argv):
        rc = cli.main([arg.replace("BELL", bell_file(tmp_path)) for arg in argv])
        captured = capsys.readouterr()
        assert (rc, captured.out) == (2, "")
        assert captured.err.startswith("error: ")
        assert minimize_calls == []

    def test_family_option_defaults(self, capsys):
        for family, option in (("pure", ["--lambda0", "0.5"]), ("werner", ["--z", "0.5"]),
                               ("random", ["--seed", "0"])):
            argv = ["report", "--state", family, "--grid", "8"]
            assert run(capsys, *argv) == run(capsys, *argv, *option), family

    def test_refine_tol_option_removed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["report", "--state", "werner", "--refine-tol", "10"])
        assert exc.value.code == 2

    def test_no_convergence_exit_code(self, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise NoConvergence("stuck", best_value=0.5)

        monkeypatch.setattr(cli.discord, "analyze", boom)
        assert run(capsys, "report", "--state", "werner")[0] == 3

    def test_refinement_out_of_iterations_exit_code(self, capsys, monkeypatch):
        monkeypatch.setattr(cli.discord, "MAX_REFINE_ITERS", 3)
        assert run(capsys, "report", "--state", "random", "--seed", "1") == (3, "")


def test_cli_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(sd.__file__))
    code = "import sys, superdiscord.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


class TestFormatting:
    def test_infinite_strength_serialized_as_string(self, capsys):
        rc, out = run(capsys, "report", "--state", "werner", "--z", "0.3", "--x", "inf")
        assert rc == 0
        assert json.loads(out)["strength"] == "inf"

    def test_twelve_significant_digits(self):
        assert cli.fmt_float(1 / 3) == "0.333333333333"
        assert cli.fmt_float(1.5e-10) == "1.5e-10"
        assert cli.fmt_float(0.0) == "0"

    def test_non_finite_floats(self):
        assert [cli.fmt_float(v) for v in (math.nan, math.inf, -math.inf)] == ["nan", "inf", "-inf"]
        assert cli.dumps({"a": math.nan, "b": -math.inf}) == '{"a":"nan","b":"-inf"}'

    def test_json_keys_sorted(self, capsys):
        _, out = run(capsys, "report", "--state", "werner", "--z", "0.2")
        keys = list(json.loads(out))
        assert keys == sorted(keys)
