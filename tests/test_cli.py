import csv
import hashlib
import json
import math
import os
import subprocess
import sys

import pytest
from click.testing import CliRunner

import shelterplan
from shelterplan import cli
from shelterplan.cli import main
from shelterplan.domain import BED_SERVICE_ID
from shelterplan.scenarios import DESK_BASE, FULL_BASE

from conftest import parse_variable_name


def digest(path):
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


@pytest.fixture()
def runner():
    return CliRunner()


GEN_ARGS = [
    "generate", "--youth", "12", "--days", "30", "--theta", "0.2",
    "--bed-scale", "0.1", "--seed", "7", "--out", "inst.json",
]


class TestStartup:
    def test_cli_import_loads_no_scipy(self):
        # Only solving needs scipy; every other command starts without it.
        # The search runs no thread pool, so concurrent.futures stays out too.
        code = (
            "import sys, shelterplan.cli; "
            "print([m for m in ('scipy.sparse', 'scipy.optimize', 'concurrent.futures') "
            "if m in sys.modules])"
        )
        src = os.path.dirname(os.path.dirname(shelterplan.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"

    def solve_in_fresh_interpreter(self, runner, tmp_path, then=""):
        # pytest itself has loaded scipy.optimize by now, so only a fresh
        # interpreter shows what a solve loads on its own.
        code = (
            "import sys\n"
            "from shelterplan.cli import main\n"
            "try:\n"
            "    main(['solve', '--instance', 'inst.json', '--gap', '0', '--out', 'sol.json'])\n"
            "except SystemExit as stop:\n"
            "    assert stop.code in (0, None), stop.code\n"
            "print([m for m in ('scipy.sparse', 'scipy.optimize', 'scipy.optimize._highspy._core')\n"
            "       if m in sys.modules])\n" + then
        )
        src = os.path.dirname(os.path.dirname(shelterplan.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        with runner.isolated_filesystem(temp_dir=tmp_path):
            assert runner.invoke(main, GEN_ARGS).exit_code == 0
            out = subprocess.run(
                [sys.executable, "-c", code], env=env, capture_output=True, text=True
            )
            assert out.returncode == 0, out.stderr
            assert json.load(open("sol.json"))["status"] == "Optimal"
        return out.stdout.splitlines()

    def test_solve_loads_only_the_highs_extension(self, runner, tmp_path):
        loaded = self.solve_in_fresh_interpreter(runner, tmp_path)[-1]
        assert loaded == "['scipy.optimize._highspy._core']"

    def test_scipy_optimize_runs_after_solve(self, runner, tmp_path):
        # The HiGHS module a solve loaded from its file is the one that
        # scipy.optimize imports later, and linprog and milp still work.
        then = (
            "import numpy as np\n"
            "from scipy.optimize import Bounds, LinearConstraint, linprog, milp\n"
            "from scipy.optimize._highspy import _highs_wrapper\n"
            "from shelterplan import solver\n"
            "print(_highs_wrapper._h is solver._highs_core())\n"
            "lp = linprog([-1, -1], A_ub=[[1, 2]], b_ub=[3], bounds=[(0, 2)] * 2)\n"
            "mip = milp([-1, -1], integrality=[1, 1], bounds=Bounds(0, 2),\n"
            "           constraints=LinearConstraint([[1, 2]], -np.inf, 3))\n"
            "print(lp.status, lp.fun, mip.status, mip.fun)\n"
        )
        _, same, results = self.solve_in_fresh_interpreter(runner, tmp_path, then)[-3:]
        assert same == "True"
        assert results == "0 -2.5 0 -2.0"


class TestGenerate:
    def test_writes_instance_and_manifest(self, runner, tmp_path):
        with runner.isolated_filesystem(temp_dir=tmp_path):
            result = runner.invoke(main, GEN_ARGS)
            assert result.exit_code == 0, result.output
            doc = json.load(open("inst.json"))
            assert len(doc["youths"]) == 12
            manifest = json.load(open("inst.json.manifest.json"))
            assert manifest["command"] == "generate"
            assert manifest["instance_seed"] == 7
            assert "inst.json" in manifest["outputs"]

    def test_covid_flag_sets_levels(self, runner, tmp_path):
        with runner.isolated_filesystem(temp_dir=tmp_path):
            result = runner.invoke(
                main, ["generate", "--covid", "--days", "20", "--seed", "1",
                       "--out", "c.json"],
            )
            assert result.exit_code == 0, result.output
            manifest = json.load(open("c.json.manifest.json"))
            assert manifest["args"]["youth"] == 400
            assert manifest["args"]["capacity_scale"] == 0.5

    def test_same_flags_identical_digests(self, runner, tmp_path):
        with runner.isolated_filesystem(temp_dir=tmp_path):
            assert runner.invoke(main, GEN_ARGS).exit_code == 0
            d1 = digest("inst.json")
            assert runner.invoke(main, GEN_ARGS[:-1] + ["inst2.json"]).exit_code == 0
            assert d1 == digest("inst2.json")

    def test_bad_theta_is_data_error(self, runner, tmp_path):
        with runner.isolated_filesystem(temp_dir=tmp_path):
            result = runner.invoke(main, ["generate", "--theta", "1.5", "--out", "x.json"])
            assert result.exit_code == 3


class TestSolve:
    def test_default_gap_is_one_percent(self, runner, tmp_path):
        with runner.isolated_filesystem(temp_dir=tmp_path):
            assert runner.invoke(main, GEN_ARGS).exit_code == 0
            result = runner.invoke(
                main, ["solve", "--instance", "inst.json", "--out", "sol.json"]
            )
            assert result.exit_code == 0, result.output
            manifest = json.load(open("sol.json.manifest.json"))
            assert manifest["solver_config"]["rel_gap"] == 0.01
            sol = json.load(open("sol.json"))
            assert sol["status"] in ("Optimal", "GapReached")
            assert sol["gap"] <= 0.01

    def test_gap_zero_proves_optimum(self, runner, tmp_path):
        with runner.isolated_filesystem(temp_dir=tmp_path):
            assert runner.invoke(main, GEN_ARGS).exit_code == 0
            result = runner.invoke(
                main, ["solve", "--instance", "inst.json", "--gap", "0", "--out", "s.json"]
            )
            assert result.exit_code == 0, result.output
            assert json.load(open("s.json"))["status"] == "Optimal"

    def test_time_limit_exits_with_limit_code(self, runner, tmp_path):
        with runner.isolated_filesystem(temp_dir=tmp_path):
            assert runner.invoke(main, GEN_ARGS).exit_code == 0
            result = runner.invoke(
                main,
                ["solve", "--instance", "inst.json", "--time-limit", "0",
                 "--gap", "0", "--out", "s.json"],
            )
            assert result.exit_code == 4, result.output
            assert json.load(open("s.json"))["status"] == "TimeLimit"

    def test_time_limit_before_any_node_writes_strict_json(self, runner, tmp_path, monkeypatch):
        from shelterplan import solver

        calls = []
        real = solver.schedule_heuristic
        monkeypatch.setattr(
            solver, "schedule_heuristic", lambda *a, **kw: calls.append(1) or real(*a, **kw)
        )

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        with runner.isolated_filesystem(temp_dir=tmp_path):
            assert runner.invoke(main, GEN_ARGS).exit_code == 0
            result = runner.invoke(
                main,
                ["solve", "--instance", "inst.json", "--time-limit", "0",
                 "--gap", "0", "--out", "s.json"],
            )
            assert result.exit_code == 4, result.output
            assert calls == []
            doc = json.loads(open("s.json").read(), parse_constant=reject)
            report = json.loads(open("s.json.verify.json").read(), parse_constant=reject)
            assert report["objective_claimed"] == "Infinity"
            assert doc["status"] == "TimeLimit"
            # No block LP ran: the bound is the least the columns can cost.
            assert (doc["objective"], doc["bound"], doc["gap"]) == ("Infinity", 0.0, "Infinity")
            sol = solver.load_solution("s.json")
            assert sol.objective == math.inf and sol.bound == 0.0 and sol.gap == math.inf
            assert sol.to_json() == open("s.json").read().rstrip("\n")

    def test_solution_verifies_via_cli(self, runner, tmp_path):
        with runner.isolated_filesystem(temp_dir=tmp_path):
            assert runner.invoke(main, GEN_ARGS).exit_code == 0
            assert runner.invoke(
                main, ["solve", "--instance", "inst.json", "--out", "sol.json"]
            ).exit_code == 0
            result = runner.invoke(
                main, ["verify", "--instance", "inst.json", "--solution", "sol.json"]
            )
            assert result.exit_code == 0
            assert "verification passed" in result.output

    def test_corrupted_solution_fails_verification(self, runner, tmp_path):
        with runner.isolated_filesystem(temp_dir=tmp_path):
            assert runner.invoke(main, GEN_ARGS).exit_code == 0
            assert runner.invoke(
                main, ["solve", "--instance", "inst.json", "--out", "sol.json"]
            ).exit_code == 0
            doc = json.load(open("sol.json"))
            xkeys = [k for k in doc["values"] if k.startswith("X_")]
            del doc["values"][xkeys[0]]
            json.dump(doc, open("bad.json", "w"))
            result = runner.invoke(
                main, ["verify", "--instance", "inst.json", "--solution", "bad.json"]
            )
            assert result.exit_code == 5

    def test_malformed_instance_is_data_error(self, runner, tmp_path):
        with runner.isolated_filesystem(temp_dir=tmp_path):
            open("broken.json", "w").write("{not json")
            result = runner.invoke(
                main, ["solve", "--instance", "broken.json", "--out", "s.json"]
            )
            assert result.exit_code == 3

    def test_only_one_thread_is_accepted(self, runner, tmp_path):
        with runner.isolated_filesystem(temp_dir=tmp_path):
            assert runner.invoke(main, GEN_ARGS).exit_code == 0
            result = runner.invoke(
                main, ["solve", "--instance", "inst.json", "--threads", "2", "--out", "s.json"]
            )
            assert result.exit_code == 2
            assert not os.path.exists("s.json")


class TestMalformedInput:
    """A wrongly typed field in an input file is a data error (exit 3)."""

    @pytest.fixture()
    def solved(self, runner, tmp_path):
        with runner.isolated_filesystem(temp_dir=tmp_path):
            assert runner.invoke(main, GEN_ARGS).exit_code == 0
            assert runner.invoke(
                main, ["solve", "--instance", "inst.json", "--out", "sol.json"]
            ).exit_code == 0
            yield json.load(open("sol.json"))

    @pytest.mark.parametrize(
        "field, value",
        [("objective", "abc"), ("values", [1, 2]), ("values", {"U_y1_s1_i1": "a"}),
         *(("values", {name: 1.0}) for name in ("X_y1_s1", "X_yab_s1_i1_t1", "Q"))],
    )
    @pytest.mark.parametrize("command", ["verify", "report"])
    def test_bad_solution_field(self, runner, solved, command, field, value):
        json.dump(dict(solved, **{field: value}), open("bad.json", "w"))
        result = runner.invoke(
            main, [command, "--instance", "inst.json", "--solution", "bad.json"]
        )
        assert result.exit_code == 3, result.output
        assert "error:" in result.output

    def test_bad_instance_horizon(self, runner, solved):
        doc = json.load(open("inst.json"))
        doc["horizon_T"] = "sixty"
        json.dump(doc, open("bad.json", "w"))
        result = runner.invoke(main, ["solve", "--instance", "bad.json", "--out", "s.json"])
        assert result.exit_code == 3, result.output
        assert "error:" in result.output

    @pytest.mark.parametrize("command", ["verify", "report"])
    def test_bad_instance_horizon_with_solution(self, runner, solved, command):
        doc = json.load(open("inst.json"))
        doc["horizon_T"] = "sixty"
        json.dump(doc, open("bad.json", "w"))
        result = runner.invoke(
            main, [command, "--instance", "bad.json", "--solution", "sol.json"]
        )
        assert result.exit_code == 3, result.output
        assert "error:" in result.output


class TestBuildAndReport:
    def test_build_exports(self, runner, tmp_path):
        with runner.isolated_filesystem(temp_dir=tmp_path):
            assert runner.invoke(main, GEN_ARGS).exit_code == 0
            result = runner.invoke(
                main,
                ["build", "--instance", "inst.json", "--mps-out", "m.mps",
                 "--triplets-out", "m.tri"],
            )
            assert result.exit_code == 0, result.output
            assert os.path.exists("m.mps") and os.path.exists("m.tri")
            assert "columns:" in result.output

    def test_report_bundle(self, runner, tmp_path):
        with runner.isolated_filesystem(temp_dir=tmp_path):
            assert runner.invoke(main, GEN_ARGS).exit_code == 0
            assert runner.invoke(
                main, ["solve", "--instance", "inst.json", "--out", "sol.json"]
            ).exit_code == 0
            result = runner.invoke(
                main,
                ["report", "--instance", "inst.json", "--solution", "sol.json",
                 "--out-dir", "rep"],
            )
            assert result.exit_code == 0, result.output

            rows = list(csv.reader(open("rep/beds_by_source.csv")))
            assert rows[0] == [
                "organization", "kind", "existing", "extra", "overflow", "incompatibility"
            ]
            assert len(rows) == 1 + 8 + 1  # header, 8 housing orgs, catch-all

            served = sum(
                int(r[2]) + int(r[3]) + int(r[4]) + int(r[5]) for r in rows[1:]
            )
            doc = json.load(open("inst.json"))
            assert served == len(doc["youths"])

            heat = list(csv.reader(open("rep/extra_hours_heatmap.csv")))
            assert len(heat) == 1 + 8
            assert len(heat[0]) == 1 + 14

            series = list(csv.reader(open("rep/overflow_timeseries.csv")))
            assert len(series) == 1 + 30

            # Peak E/O columns are the largest daily bed values in the solution.
            peaks = {}
            for name, v in json.load(open("sol.json"))["values"].items():
                kind, idx = parse_variable_name(name)
                if kind in ("E", "O") and idx["i"] == BED_SERVICE_ID:
                    key = (kind, idx["s"])
                    peaks[key] = max(peaks.get(key, 0), int(round(v)))
            expansion = list(csv.DictReader(open("rep/expansion_percentages.csv")))
            assert expansion[-1]["organization"] == "system_average"
            assert len(expansion) == 8 + 1
            for row in expansion[:-1]:
                s = int(row["organization"])
                assert int(row["peak_extra"]) == peaks.get(("E", s), 0)
                assert int(row["peak_overflow"]) == peaks.get(("O", s), 0)


    def test_report_parses_the_solution_once(self, runner, tmp_path, monkeypatch):
        from shelterplan import scenarios

        calls = []
        real = scenarios._solution_tables
        monkeypatch.setattr(
            scenarios, "_solution_tables", lambda *a: calls.append(1) or real(*a)
        )
        with runner.isolated_filesystem(temp_dir=tmp_path):
            assert runner.invoke(main, GEN_ARGS).exit_code == 0
            assert runner.invoke(
                main, ["solve", "--instance", "inst.json", "--out", "sol.json"]
            ).exit_code == 0
            inst = shelterplan.domain.load_instance("inst.json")
            sol = shelterplan.solver.load_solution("sol.json")
            assert len(cli.write_report_csvs(inst, sol, "rep")) == 5
        assert calls == [1]


class TestScenario:
    def test_single_seed_grid(self, runner, tmp_path):
        with runner.isolated_filesystem(temp_dir=tmp_path):
            result = runner.invoke(main, ["scenario", "--single-seed", "--out-dir", "sc"])
            assert result.exit_code == 0, result.output
            files = os.listdir("sc")
            assert "comparison.csv" in files
            assert (
                sum(1 for f in files if f.startswith("scenario_") and f.endswith(".json"))
                == 8
            )
            rows = list(csv.reader(open("sc/comparison.csv")))
            assert len(rows) == 9
            base_row = next(r for r in rows[1:] if r[0] == "base")
            assert float(base_row[6]) == 0.0  # overflow-cost delta of base vs itself

    @pytest.mark.full_scale
    def test_full_scale_generation(self, runner, tmp_path):
        with runner.isolated_filesystem(temp_dir=tmp_path):
            result = runner.invoke(
                main,
                ["generate", "--youth", "500", "--days", "180", "--theta", "0.2",
                 "--seed", "7", "--out", "full.json"],
            )
            assert result.exit_code == 0, result.output
            doc = json.load(open("full.json"))
            assert len(doc["youths"]) == 500
            assert doc["horizon_T"] == 180


    def test_full_scale_takes_the_grid_path(self, runner, tmp_path, monkeypatch):
        # --full-scale changes only the base config: both runs go through
        # run_grid and write_scenario_outputs, and neither writes an MPS file.
        bases = []
        monkeypatch.setattr(cli, "run_grid", lambda specs, base, config: bases.append(base) or [])
        manifests = []
        with runner.isolated_filesystem(temp_dir=tmp_path):
            for flags in ([], ["--full-scale"]):
                result = runner.invoke(main, ["scenario", "--single-seed", "--out-dir", "sc",
                                              *flags])
                assert result.exit_code == 0, result.output
                assert not [f for f in os.listdir("sc") if f.endswith(".mps")]
                manifests.append(json.load(open("sc/scenario.manifest.json")))
        assert bases == [DESK_BASE, FULL_BASE]
        desk, full = (doc["args"] for doc in manifests)
        assert desk["gap"] == 0.01
        assert full == {**desk, "full_scale": True}


class TestDeterminism:
    def test_pipeline_digests_reproduce(self, runner, tmp_path):
        digests = []
        for run in (1, 2):
            with runner.isolated_filesystem(temp_dir=tmp_path):
                assert runner.invoke(main, GEN_ARGS).exit_code == 0
                assert runner.invoke(
                    main,
                    ["solve", "--instance", "inst.json", "--out", "sol.json",
                     "--threads", "1"],
                ).exit_code == 0
                assert runner.invoke(
                    main,
                    ["report", "--instance", "inst.json", "--solution", "sol.json",
                     "--out-dir", "rep"],
                ).exit_code == 0
                files = ["inst.json", "sol.json"] + sorted(
                    os.path.join("rep", f) for f in os.listdir("rep")
                    if f.endswith(".csv")
                )
                digests.append([digest(f) for f in files])
        assert digests[0] == digests[1]
