"""Command-line interface tests.

Each subcommand is exercised through `main(argv)` against the bundled
data files; expected values reuse the oracles established in the module
test suites (flex tables, stratum labels, crossing counts, the
permutation of the coordinate-circle loop, the invariant chain).
"""

import json
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import cubicflex
from cubicflex.cli import main
from cubicflex.forms import CubicForm, fermat_cubic, triangle_cubic
from cubicflex.track import Line, Loop

DATA = resources.files("cubicflex") / "data"


def data_path(name):
    return str(DATA / f"{name}.json")


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, argv):
    code, out = run(capsys, argv)
    assert code == 0, out
    return json.loads(out)


STRATA = {"fermat": "Smooth", "triangle": "B31", "nodal": "B1",
          "conic_line": "B21", "cuspidal": "B22", "conic_tangent": "B32",
          "concurrent": "B4", "double_line": "B5", "triple_line": "B7"}


class TestClassify:
    @pytest.mark.parametrize("name,want", sorted(STRATA.items()))
    def test_bundled_cubics(self, capsys, name, want):
        doc = run_json(capsys, ["classify", data_path(name)])
        assert doc["stratum"] == want


class TestInflect:
    def test_fermat_has_nine_simple_points(self, capsys):
        doc = run_json(capsys, ["inflect", data_path("fermat")])
        assert len(doc["points"]) == 9
        assert all(p["multiplicity"] == 1 for p in doc["points"])

    def test_cuspidal_multiplicities(self, capsys):
        doc = run_json(capsys, ["inflect", data_path("cuspidal")])
        mults = sorted(p["multiplicity"] for p in doc["points"])
        assert mults == [1, 8]

    def test_truncated_file_is_schema_error(self, capsys, tmp_path):
        doc = json.load(open(data_path("fermat")))
        doc["coeffs"] = doc["coeffs"][:9]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code = main(["inflect", str(bad)])
        assert code == 2


class TestMonodromy:
    def test_loop_c1(self, capsys):
        doc = run_json(capsys, ["monodromy", data_path("loop_c1"),
                                "--labels", "hesse"])
        assert doc["perm"] == "(2,8,5)(3,6,9)"
        assert doc["max_residual"] < 1e-8
        assert doc["steps_taken"] == 7 and doc["steps_refused"] == 0
        # the first step of the circle is INITIAL_STEP, the least of all
        assert doc["min_step_taken"] == 0.01

    def test_cusp_circle(self, capsys):
        doc = run_json(capsys, ["monodromy", data_path("cusp_circle")])
        assert doc["cycle_type"] == [6, 2, 1]

    def test_deterministic_output(self, capsys):
        argv = ["monodromy", data_path("loop_c2"), "--labels", "hesse"]
        _, first = run(capsys, argv)
        _, second = run(capsys, argv)
        assert first == second

    def test_singular_basepoint_is_numerical_failure(self, capsys, tmp_path):
        t, f = triangle_cubic(), fermat_cubic()
        loop = Loop(t, (Line(t, f), Line(f, t)))
        path = tmp_path / "bad_loop.json"
        path.write_text(json.dumps(loop.to_json_dict()))
        code = main(["monodromy", str(path)])
        assert code == 3

    def test_out_and_back_retraces_its_return(self, capsys, tmp_path):
        f = fermat_cubic()
        mid = CubicForm(0.8 * f.coeffs + 0.2 * triangle_cubic().coeffs)
        path = tmp_path / "null_loop.json"
        path.write_text(json.dumps(
            Loop(f, (Line(f, mid), Line(mid, f))).to_json_dict()))
        doc = run_json(capsys, ["monodromy", str(path)])
        assert doc["perm"] == "()"
        assert doc["segments_retraced"] == 1

    @pytest.mark.parametrize("field", ["radius", "turn_start", "turn_end"])
    def test_non_finite_arc_field_is_schema_error(self, capsys, tmp_path,
                                                  field):
        doc = json.load(open(data_path("loop_c1")))
        doc["segments"][0][field] = float("nan")
        path = tmp_path / "nan_loop.json"
        # json writes the NaN token, which json.load reads back
        path.write_text(json.dumps(doc))
        assert main(["monodromy", str(path)]) == 2


class TestGroup:
    def test_hessian_generators(self, capsys):
        doc = run_json(capsys, ["group", "(1,2,4)(5,6,8)(3,9,7)",
                                "(4,5,6)(7,9,8)"])
        assert doc["order"] == 216
        assert doc["transitivity"] == {"1": True, "2": True, "3": False}
        assert doc["orbits"] == [list(range(1, 10))]
        assert set(doc["stabilizer_orders"].values()) == {24}

    def test_point_stabilizer_pair(self, capsys):
        doc = run_json(capsys, ["group", "(4,5,6)(7,9,8)",
                                "(2,8,5)(3,6,9)"])
        assert doc["order"] == 24
        assert doc["orbits"] == [[1], list(range(2, 10))]

    def test_loop_file_as_generator(self, capsys):
        doc = run_json(capsys, ["group", data_path("loop_c1")])
        assert doc["order"] == 3

    def test_empty_is_usage_error(self, capsys):
        assert main(["group"]) == 2

    def test_cycles_sharing_a_letter_is_schema_error(self, capsys):
        assert main(["group", "(1,2)(1,2)"]) == 2
        assert "shares a letter" in capsys.readouterr().err


class TestPencil:
    def test_hesse_pencil(self, capsys):
        doc = run_json(capsys, ["pencil", data_path("fermat"),
                                data_path("triangle")])
        assert doc["total_multiplicity"] == 12
        assert len(doc["crossings"]) == 4
        assert {c["stratum"] for c in doc["crossings"]} == {"B31"}
        assert {c["multiplicity"] for c in doc["crossings"]} == {3}


class TestCusps:
    def test_random_net_has_24_members(self, capsys, tmp_path):
        rng = np.random.default_rng(3)
        paths = []
        for k in range(3):
            f = CubicForm(rng.standard_normal(10)
                          + 1j * rng.standard_normal(10))
            p = tmp_path / f"net{k}.json"
            p.write_text(json.dumps(f.to_json_dict()))
            paths.append(str(p))
        doc = run_json(capsys, ["cusps", *paths])
        assert doc["count"] == 24
        assert len(doc["members"]) == 24


class TestInvariants:
    def test_chain(self, capsys):
        doc = run_json(capsys, ["invariants"])
        assert doc["surface"] == {"k_squared": 18, "euler": 90, "chi": 9,
                                  "genus_ramification": 31}
        assert doc["branch_curve"]["genus"] == 10
        assert doc["dual_curve"]["genus"] == 10


class TestPaperVerify:
    def test_invariants_suite_report(self, capsys, tmp_path):
        out = tmp_path / "report.jsonl"
        code, text = run(capsys, ["paper-verify", "--suite", "invariants",
                                  "--out", str(out)])
        assert code == 0
        assert "6/6 checks passed" in text
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(records) == 6
        assert all(r["passed"] for r in records)
        assert all(r["suite"] == "invariants" for r in records)
        # the command comes from the parsed arguments, not from sys.argv
        assert {r["command"] for r in records} == {
            "paper-verify --suite invariants --seed 0"}
        assert all(set(r) == {"suite", "name", "passed", "expected",
                              "observed", "detail", "seed", "elapsed",
                              "command"} for r in records)

    def test_group_suite_passes(self, capsys):
        code, text = run(capsys, ["paper-verify", "--suite", "group"])
        assert code == 0
        assert "16/16 checks passed" in text

    def test_failed_suite_exits_4(self, capsys, monkeypatch):
        from cubicflex import cli
        from cubicflex.verify import RunRecord
        bad = RunRecord(suite="group", name="synthetic", passed=False,
                        expected="1", observed="2")
        monkeypatch.setattr(cli, "run_suite", lambda *a, **k: [bad])
        assert main(["paper-verify", "--suite", "group"]) == 4


class TestConfigPlumbing:
    @pytest.mark.parametrize("argv,named", [
        (["paper-verify", "--config", "x.json"], "--config"),
        (["paper-verify", "--print-config"], "--print-config"),
        (["inflect", data_path("fermat"), "--json"], "--json"),
        (["classify", data_path("fermat"), "--json"], "--json"),
        (["paper-verify", "--suite", "group", "--json"], "--json"),
        (["paper-verify", "--suite", "group", "--seed", "-1"], "seed"),
        (["paper-verify", "--seed", "a"], "--seed"),
        (["paper-verify", "--seed", "1.5"], "--seed"),
    ], ids=["config", "print-config", "inflect-json", "classify-json",
            "paper-verify-json", "seed-negative", "seed-a", "seed-1.5"])
    def test_removed_option_or_bad_seed_exits_2(self, capsys, argv, named):
        try:
            code = main(argv)
        except SystemExit as exc:   # argparse refuses it
            code = exc.code
        assert code == 2
        assert named in capsys.readouterr().err

    def test_tol_is_gone(self):
        with pytest.raises(SystemExit) as exc:
            main(["monodromy", data_path("loop_c1"), "--tol", "1e-12"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["inflect", data_path("fermat"), "--seed", "5"],
        ["classify", data_path("fermat"), "--seed", "5"],
        ["monodromy", data_path("loop_c1"), "--seed", "5"],
        ["cusps", *[data_path("fermat")] * 3, "--seed", "5"],
        ["cusps", *[data_path("fermat")] * 3, "--starts", "400"],
        ["cusps", *[data_path("fermat")] * 3, "--config", "cfg.json"],
    ], ids=["inflect", "classify", "monodromy", "cusps-seed", "cusps-starts",
            "cusps-config"])
    def test_seed_only_on_paper_verify(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_import_loads_neither_scipy_nor_sympy():
    # every command starts with this import; scipy.linalg alone takes
    # about 0.7 s to load on a 2-core machine
    src = str(Path(cubicflex.__file__).parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import cubicflex; "
            "print(sorted({m.split('.')[0] for m in sys.modules} "
            "& {'scipy', 'sympy'}))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
