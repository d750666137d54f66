import csv
import gc
import io
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import liebutcher
from liebutcher import sphere
from liebutcher.cli import _rigid_body, main
from liebutcher.trees import MAX_DEPTH, DegreeCapError, check_degree

from helpers import csv_module_trajectory, deep_tree


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_fresh(*argv):
    """The JSON terms of `python -m liebutcher.cli argv --format json`, run
    in a fresh process with this checkout's package, after checking that it
    exits 0 with no traceback."""
    src = os.path.dirname(os.path.dirname(liebutcher.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "liebutcher.cli", *argv, "--format", "json"],
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
                          timeout=60)
    assert proc.returncode == 0 and "Traceback" not in proc.stderr, proc.stderr
    return json.loads(proc.stdout)["terms"]


class TestGraft:
    def test_text_output(self, capsys):
        code, out, err = run(capsys, "graft", "[[]]", "[[][]]")
        assert code == 0 and err == ""
        lines = out.strip().splitlines()
        assert lines == [
            "1\t[[[[]]] []]",
            "1\t[[[]] [] []]",
            "1\t[[] [[[]]]]",
        ]

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "graft", "[]", "[[]]", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["terms"] == [
            {"forest": "[[[]]]", "coeff": "1"},
            {"forest": "[[] []]", "coeff": "1"},
        ]

    def test_parse_error_exit_code(self, capsys):
        code, out, err = run(capsys, "graft", "[[oops]]", "[]")
        assert code == 1
        assert "offset" in err

    def test_forest_action(self, capsys):
        code, out, _ = run(capsys, "graft", "[] []", "[]")
        assert code == 0
        assert out.strip() == "1\t[[] []]"

    @pytest.mark.parametrize("argv, extra", [(["graft"], 0), (["product", "--kind", "gl"], 1)],
                             ids=["graft", "gl"])
    @pytest.mark.parametrize("shape", ["chain", "branching"])
    def test_deepest_allowed_nesting(self, capsys, argv, extra, shape):
        # [] lands on each node of the tree (and, in gl, stands in front)
        deep = deep_tree(shape)
        nodes = deep.count("[")
        code, out, err = run(capsys, *argv, "[]", deep, "--format", "json")
        assert code == 0 and err == ""
        terms = json.loads(out)["terms"]
        assert len(terms) == nodes + extra
        assert all(t["forest"].count("[") == nodes + 1 and t["coeff"] == "1" for t in terms)

    @pytest.mark.parametrize("depth", [MAX_DEPTH + 1, 3000])
    def test_too_deep_nesting_is_rejected(self, capsys, depth):
        deep = "[" * depth + "]" * depth
        code, out, err = run(capsys, "graft", deep, "[]")
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "nested deeper" in err


class TestProduct:
    def test_gl(self, capsys):
        code, out, _ = run(capsys, "product", "--kind", "gl", "[]", "[]")
        assert code == 0
        assert out.strip().splitlines() == ["1\t[[]]", "1\t[] []"]

    def test_shuffle(self, capsys):
        code, out, _ = run(capsys, "product", "--kind", "shuffle", "[] []", "[]")
        assert code == 0
        assert out.strip() == "3\t[] [] []"

    def test_concat_with_degree_truncation(self, capsys):
        code, out, _ = run(
            capsys, "product", "--kind", "concat", "[]", "[]", "--degree", "1"
        )
        assert code == 0
        assert out.strip() == "0"

    def test_series_file_operand(self, capsys, tmp_path):
        path = tmp_path / "series.json"
        path.write_text(
            json.dumps(
                {
                    "trunc": 3,
                    "terms": [
                        {"forest": "[]", "coeff": "1"},
                        {"forest": "[[]]", "coeff": "-1/2"},
                    ],
                }
            )
        )
        code, out, _ = run(
            capsys, "product", "--kind", "concat", str(path), "[]", "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["trunc"] == 3
        assert {"forest": "[[]] []", "coeff": "-1/2"} in data["terms"]

    @pytest.mark.parametrize(
        "body, message",
        [
            ("[1]", "a series is"),
            ('"terms"', "a series is"),
            ('{"terms": {"forest": "[]", "coeff": "1"}}', "a series is"),
            ('{"terms": [[]]}', "a series is"),
            ('{"terms": [{"coeff": "1"}]}', "a series is"),
            ('{"terms": [{"forest": "[]"}]}', "a series is"),
            ('{"terms": [{"forest": 1, "coeff": "1"}]}', "a series is"),
            ('{"terms": [{"forest": "[]", "coeff": 1}]}', "a series is"),
            ('{"terms": [{"forest": "[]", "coeff": "1/0"}]}', "not a rational"),
            ('{"terms": [{"forest": "[]", "coeff": "x"}]}', "not a rational"),
            ('{"terms": [{"forest": "[]", "coeff": "nan"}]}', "not a rational"),
            ('{"terms": [{"forest": "[]", "coeff": "1e10000000"}]}', "not a rational"),
            ('{"terms": [{"forest": "[]", "coeff": "0.5"}]}', "not a rational"),
            ('{"terms": [{"forest": "[]", "coeff": "+1"}]}', "not a rational"),
            ('{"trunc": "x", "terms": []}', '"trunc"'),
            ('{"trunc": -1, "terms": []}', '"trunc"'),
            ('{"trunc": 2.0, "terms": []}', '"trunc"'),
            ('{"trunc": true, "terms": []}', '"trunc"'),
        ],
    )
    def test_malformed_series_file(self, capsys, tmp_path, body, message):
        path = tmp_path / "series.json"
        path.write_text(body)
        code, out, err = run(capsys, "graft", str(path), "[]")
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and message in err

    @pytest.mark.parametrize(
        "body",
        ["[" * 100_000 + "]" * 100_000, '{"terms": ' + "[" * 100_000 + "]" * 100_000 + "}"],
        ids=["array", "terms"],
    )
    def test_deeply_nested_series_file(self, capsys, tmp_path, body):
        path = tmp_path / "deep.json"
        path.write_text(body)
        code, out, err = run(capsys, "graft", str(path), "[]")
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "nested too deeply" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, terms, coeff", [
        (["graft", "[]", "W"], 600, "1"),
        (["product", "--kind", "shuffle", "[]", "W"], 1, "601"),
        (["product", "--kind", "shuffle", "W", "[]"], 1, "601"),
        (["product", "--kind", "gl", "[]", "W"], 601, "1"),
    ], ids=["graft", "shuffle-right", "shuffle-left", "gl"])
    def test_a_600_tree_operand_in_a_fresh_process(self, argv, terms, coeff):
        # W is []^600; one level of recursion per tree would overflow the stack
        word = " ".join(["[]"] * 600)
        got = run_fresh(*[word if a == "W" else a for a in argv])
        assert len(got) == terms and {t["coeff"] for t in got} == {coeff}

    @pytest.mark.parametrize("argv, terms, total", [
        (["graft"], 6435, 8**8),
        (["product", "--kind", "gl"], 12870, 9**8),
    ], ids=["graft", "gl"])
    def test_eight_one_node_trees_on_the_left_in_a_fresh_process(self, argv, terms, total):
        # each [] lands on one of the 8 nodes (or, in gl, the head) on its own
        got = run_fresh(*argv, " ".join(["[]"] * 8), "[[[[]]]] [[]] [] []")
        assert len(got) == terms and sum(int(t["coeff"]) for t in got) == total


class TestExpAndMagnus:
    def test_exp_concat_default_input(self, capsys):
        code, out, _ = run(capsys, "exp", "--kind", "concat", "--degree", "2")
        assert code == 0
        assert out.strip().splitlines() == ["1\t1", "1\t[]", "1/2\t[] []"]

    def test_exp_gl(self, capsys):
        code, out, _ = run(capsys, "exp", "--kind", "gl", "--degree", "2")
        assert code == 0
        assert out.strip().splitlines() == [
            "1\t1",
            "1\t[]",
            "1/2\t[[]]",
            "1/2\t[] []",
        ]

    def test_exp_refuses_a_non_field_argument(self, capsys):
        code, out, err = run(capsys, "exp", "--kind", "gl", "--degree", "4", "[] []")
        assert (code, out, err) == (1, "", "error: series does not vanish on shuffles\n")

    def test_exp_refuses_a_constant_term_with_the_field_message(self, capsys):
        code, out, err = run(capsys, "exp", "--kind", "gl", "--degree", "4", "1")
        assert (code, out, err) == (1, "", "error: a field series must have zero constant term\n")

    def test_magnus_json_contains_paper_coefficient(self, capsys):
        code, out, _ = run(capsys, "magnus", "--degree", "3", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert {"forest": "[[]]", "coeff": "-1/2"} in data["terms"]

    def test_magnus_deterministic(self, capsys):
        _, first, _ = run(capsys, "magnus", "--degree", "4", "--format", "json")
        _, second, _ = run(capsys, "magnus", "--degree", "4", "--format", "json")
        assert first == second


@pytest.mark.parametrize(
    "argv",
    [
        ("exp", "--kind", "concat"),
        ("exp", "--kind", "gl"),
        ("magnus",),
        ("order", "--method", "lie-euler"),
        ("graft", "[]", "[]"),
        ("product", "--kind", "gl", "[]", "[]"),
    ],
)
def test_negative_degree_is_rejected(capsys, argv):
    code, out, err = run(capsys, *argv, "--degree", "-1")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "degree must be >= 0" in err


class TestOrder:
    def test_midpoint_json(self, capsys):
        code, out, _ = run(
            capsys, "order", "--method", "lie-midpoint", "--degree", "4",
            "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["order"] == 2
        assert data["first_defect"]["forest"] == "[[[]]]"

    def test_euler_text(self, capsys):
        code, out, _ = run(capsys, "order", "--method", "lie-euler", "--degree", "3")
        assert code == 0
        assert out.startswith("order 1")


class TestEnumerate:
    def test_count_only(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--what", "trees", "--degree", "4", "--count-only"
        )
        assert code == 0
        assert out.strip() == "5"

    def test_listing(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--what", "forests", "--degree", "2")
        assert code == 0
        assert out.strip().splitlines() == ["[[]]", "[] []"]

    def test_json(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--what", "trees", "--degree", "3",
            "--format", "json",
        )
        data = json.loads(out)
        assert data == {
            "what": "trees",
            "degree": 3,
            "count": 2,
            "items": ["[[[]]]", "[[] []]"],
        }

    def test_degree_cap_env(self, capsys, monkeypatch):
        monkeypatch.setenv("LIEBUTCHER_DEGREE_CAP", "3")
        code, _, err = run(capsys, "enumerate", "--what", "trees", "--degree", "4")
        assert code == 1
        assert "cap" in err

    def test_default_cap_names_the_variable(self, capsys, monkeypatch):
        monkeypatch.delenv("LIEBUTCHER_DEGREE_CAP", raising=False)
        code, out, err = run(capsys, "enumerate", "--what", "forests", "--degree", "10")
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "set LIEBUTCHER_DEGREE_CAP to raise it" in err

    def test_cap_message_is_the_library_message(self, capsys):
        code, out, err = run(capsys, "enumerate", "--what", "trees", "--degree", "9")
        with pytest.raises(DegreeCapError) as info:
            check_degree(9)
        assert code == 1 and out == ""
        assert err == f"error: {info.value}\n"

    def test_non_integer_cap_env(self, capsys, monkeypatch):
        monkeypatch.setenv("LIEBUTCHER_DEGREE_CAP", "abc")
        code, out, err = run(capsys, "magnus", "--degree", "3")
        assert code == 1
        assert out == ""
        assert err.startswith("error: LIEBUTCHER_DEGREE_CAP must be an integer")

    def test_no_degree_reads_no_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("LIEBUTCHER_DEGREE_CAP", "abc")
        code, out, _ = run(capsys, "graft", "[]", "[]")
        assert code == 0 and out == "1\t[[]]\n"

    def test_cap_env_raises_limit(self, capsys, monkeypatch):
        monkeypatch.setenv("LIEBUTCHER_DEGREE_CAP", "9")
        code, out, _ = run(
            capsys, "enumerate", "--what", "trees", "--degree", "9", "--count-only"
        )
        assert code == 0
        assert out.strip() == "1430"


class TestAxioms:
    def test_free_target(self, capsys):
        code, out, _ = run(
            capsys, "axioms", "--target", "free", "--degree", "4", "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["pass"] is True

    def test_matrix_target(self, capsys):
        code, out, _ = run(
            capsys, "axioms", "--target", "matrix", "--kind", "qr", "--n", "3",
            "--samples", "20", "--seed", "9", "--format", "json",
        )
        assert code == 0
        reports = json.loads(out)
        assert [r["check"] for r in reports] == ["projection-identity", "postlie-axioms"]
        assert all(r["pass"] for r in reports)

    @pytest.mark.parametrize("message, shown", [
        ("Unable to allocate 238. GiB for an array", "error: Unable to allocate 238. GiB for an array"),
        ("", "error: out of memory"),
    ])
    def test_matrix_memory_error_is_an_error_line(self, capsys, monkeypatch, message, shown):
        from liebutcher import matrixpostlie

        def exhausted(*args):
            raise MemoryError(message)

        monkeypatch.setattr(matrixpostlie, "check_projection_identity", exhausted)
        code, out, err = run(capsys, "axioms", "--target", "matrix", "--kind", "lu", "--n", "3")
        assert code == 1
        assert out == ""
        assert err == shown + "\n"

    @pytest.mark.parametrize("flag, value", [("--samples", "0"), ("--samples", "-2")])
    def test_matrix_rejects_no_samples(self, capsys, flag, value):
        code, out, err = run(
            capsys, "axioms", "--target", "matrix", "--kind", "lu", flag, value,
            "--format", "json",
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "samples" in err

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1e-10"])
    def test_matrix_rejects_bad_tolerance(self, capsys, value):
        code, out, err = run(
            capsys, "axioms", "--target", "matrix", "--kind", "qr", f"--tol={value}"
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "tol" in err

    @pytest.mark.parametrize("n", ["0", "-1", "1"])
    def test_matrix_rejects_n_below_2(self, capsys, n):
        code, out, err = run(capsys, "axioms", "--target", "matrix", "--kind", "lu", "--n", n)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and f"n must be >= 2, got {n}" in err

    def test_matrix_rejects_negative_seed(self, capsys):
        code, out, err = run(
            capsys, "axioms", "--target", "matrix", "--kind", "qr", "--seed", "-1"
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "seed must be >= 0, got -1" in err

    def test_matrix_rejects_negative_degree(self, capsys):
        code, out, err = run(
            capsys, "axioms", "--target", "matrix", "--kind", "lu", "--degree", "-1"
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: degree must be >= 0")

    def test_matrix_requires_kind(self, capsys):
        code, _, err = run(capsys, "axioms", "--target", "matrix")
        assert code == 2
        assert "--kind" in err

    @pytest.mark.parametrize("cap", ["3", "0", "abc"])
    def test_matrix_ignores_the_cap_without_degree(self, capsys, monkeypatch, cap):
        monkeypatch.setenv("LIEBUTCHER_DEGREE_CAP", cap)
        code, out, err = run(
            capsys, "axioms", "--target", "matrix", "--kind", "lu", "--n", "4", "--samples", "3"
        )
        assert code == 0 and err == ""
        assert out.count("pass") == 2
        code, _, err = run(capsys, "axioms", "--target", "matrix")
        assert code == 2 and "--kind" in err

    def test_matrix_negative_degree_under_a_low_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("LIEBUTCHER_DEGREE_CAP", "3")
        code, out, err = run(
            capsys, "axioms", "--target", "matrix", "--kind", "lu", "--degree", "-1"
        )
        assert code == 1 and out == ""
        assert err.startswith("error: degree must be >= 0")

    def test_free_default_degree_obeys_the_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("LIEBUTCHER_DEGREE_CAP", "3")
        code, out, err = run(capsys, "axioms", "--target", "free")
        with pytest.raises(DegreeCapError) as info:
            check_degree(4)
        assert code == 1 and out == ""
        assert err == f"error: {info.value}\n"

    def test_free_default_degree_is_4(self, capsys):
        code, out, _ = run(capsys, "axioms", "--target", "free", "--format", "json")
        assert code == 0
        assert json.loads(out)["degree"] == 4


class TestIntegrateAndConverge:
    def test_float_field_is_the_library_field(self):
        field, _ = _rigid_body()
        array_field = sphere.rigid_body_field((1, 2, 3))
        rng = random.Random(6)
        for _ in range(1000):
            v = [rng.gauss(0.0, 1.0) for _ in range(3)]
            y = tuple(c / math.hypot(*v) for c in v)
            assert field(y) == tuple(array_field(y).tolist())

    def test_csv_file(self, capsys, tmp_path):
        path = tmp_path / "run.csv"
        code, out, _ = run(
            capsys, "integrate", "--method", "lie-euler", "--h", "0.1",
            "--steps", "10", "--csv", str(path),
        )
        assert code == 0
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "y1", "y2", "y3", "norm_defect"]
        assert len(rows) == 12
        assert all(float(r[4]) <= 1e-12 for r in rows[1:])

    def test_stdout_csv(self, capsys):
        code, out, _ = run(
            capsys, "integrate", "--method", "lie-midpoint", "--h", "0.1", "--steps", "3"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,y1,y2,y3,norm_defect"
        assert len(lines) == 5

    def test_integrate_json(self, capsys):
        code, out, _ = run(
            capsys, "integrate", "--method", "lie-euler", "--h", "0.05",
            "--steps", "4", "--format", "json",
        )
        data = json.loads(out)
        assert data["steps"] == 4
        assert data["max_norm_defect"] <= 1e-12
        assert len(data["final"]) == 3

    def test_converge_json(self, capsys):
        code, out, _ = run(
            capsys, "converge", "--method", "lie-euler",
            "--hs", "0.1,0.05,0.025", "--T", "0.5", "--refine", "8",
            "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert 0.7 <= data["slope"] <= 1.3
        assert len(data["errors"]) == 3

    def test_trajectory_fields_are_plain_floats(self, capsys, tmp_path):
        path = tmp_path / "run.csv"
        argv = ("integrate", "--method", "lie-midpoint", "--h", "0.1", "--steps", "3")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        code, _, _ = run(capsys, *argv, "--csv", str(path))
        assert code == 0
        with open(path) as fh:
            csv_rows = list(csv.reader(fh))[1:]
        text_rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        for rows in (text_rows, csv_rows):
            assert len(rows) == 4
            for row in rows:
                assert len(row) == 5
                for field in row:
                    float(field)

    @pytest.mark.parametrize("method", ["lie-euler", "lie-midpoint"])
    def test_output_forms_agree(self, capsys, tmp_path, method):
        path = tmp_path / "run.csv"
        argv = ("integrate", "--method", method, "--h", "0.05", "--steps", "40")
        code, text, _ = run(capsys, *argv)
        assert code == 0
        code, out, _ = run(capsys, *argv, "--csv", str(path), "--format", "json")
        assert code == 0
        summary = json.loads(out)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert text.splitlines() == [",".join(row) for row in rows]
        assert summary["final"] == [float(v) for v in rows[-1][1:4]]
        assert summary["max_norm_defect"] == max(float(row[4]) for row in rows[1:])

    @pytest.mark.parametrize("method", ["lie-euler", "lie-midpoint"])
    @pytest.mark.parametrize("steps", [0, 1, 2000])
    def test_rows_are_the_csv_module_rows(self, capsysbinary, tmp_path, method, steps):
        field, y0 = _rigid_body()
        points = sphere.trajectory(field, y0, 0.01, steps, method)
        csv_module_trajectory(points)
        csv_module_trajectory(points, tmp_path / "want.csv")
        want = capsysbinary.readouterr().out
        argv = ["integrate", "--method", method, "--h", "0.01", "--steps", str(steps)]
        assert main(argv) == 0
        assert capsysbinary.readouterr().out == want
        for fmt in ("text", "json"):
            path = tmp_path / f"{fmt}.csv"
            assert main([*argv, "--csv", str(path), "--format", fmt]) == 0
            assert path.read_bytes() == (tmp_path / "want.csv").read_bytes()
        out = capsysbinary.readouterr().out.decode().splitlines()
        assert out[0] == f"wrote {steps + 1} rows to {tmp_path / 'text.csv'}"
        assert json.loads(out[1])["steps"] == steps

    @pytest.mark.parametrize("form", ["text", "json", "csv"])
    def test_failing_run_writes_nothing(self, capsys, tmp_path, form):
        path = tmp_path / "run.csv"
        extra = {"text": (), "json": ("--format", "json"), "csv": ("--csv", str(path))}[form]
        code, out, err = run(
            capsys, "integrate", "--method", "lie-midpoint", "--h", "50", "--steps", "3", *extra
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "midpoint stage did not reach" in err
        assert not path.exists()

    def test_integrate_nan_step_is_rejected(self, capsys):
        code, out, err = run(
            capsys, "integrate", "--method", "lie-euler", "--h", "nan",
            "--steps", "10", "--format", "json",
        )
        assert code == 1
        assert out == ""
        assert "step size" in err

    @pytest.mark.parametrize("method", ["lie-euler", "lie-midpoint"])
    @pytest.mark.parametrize("h", ["1e308", "1e160"])
    def test_integrate_overflowing_step_names_h(self, capsys, method, h):
        code, out, err = run(
            capsys, "integrate", "--method", method, "--h", h, "--steps", "2", "--format", "json"
        )
        assert code == 1 and out == ""
        assert err == f"error: step size h={float(h)!r} overflows the rotation angle at step 1; reduce h\n"

    def test_integrate_largest_finite_angle_still_steps(self, capsys):
        code, out, err = run(
            capsys, "integrate", "--method", "lie-euler", "--h", "1e150", "--steps", "2",
            "--format", "json",
        )
        assert code == 0 and err == ""
        assert abs(sum(v * v for v in json.loads(out)["final"]) - 1.0) < 1e-12

    @pytest.mark.parametrize("hs, T, refine", [
        ("1,0.5,5e-324", "1", "64"),
        ("1e308,1,5e-324", "5e-324", "2"),
    ])
    def test_converge_vanishing_reference_step(self, capsys, hs, T, refine):
        code, out, err = run(
            capsys, "converge", "--method", "lie-euler", "--hs", hs, "--T", T, "--refine", refine
        )
        assert code == 1 and out == ""
        assert err.startswith("error: reference step") and "too small for the horizon" in err

    def test_integrate_negative_steps_are_rejected(self, capsys):
        code, out, err = run(
            capsys, "integrate", "--method", "lie-euler", "--h", "0.1", "--steps", "-1"
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "steps" in err

    def test_integrate_zero_steps_prints_the_initial_point(self, capsys):
        code, out, err = run(
            capsys, "integrate", "--method", "lie-euler", "--h", "0.1", "--steps", "0"
        )
        assert code == 0 and err == ""
        lines = out.strip().splitlines()
        assert len(lines) == 2
        assert [float(v) for v in lines[1].split(",")[1:4]] == [1.0 / 3.0 ** 0.5] * 3

    @pytest.mark.parametrize("T", ["0", "-1", "nan", "inf"])
    def test_converge_bad_horizon_is_rejected(self, capsys, T):
        code, out, err = run(
            capsys, "converge", "--method", "lie-euler", "--hs", "0.1,0.05,0.025",
            "--T", T,
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "horizon" in err

    @pytest.mark.parametrize("T", ["1e-300", "1e-10"])
    def test_converge_horizon_shorter_than_a_step_is_rejected(self, capsys, T):
        code, out, err = run(
            capsys, "converge", "--method", "lie-euler", "--hs", "0.1,0.05,0.025", "--T", T
        )
        assert code == 1 and out == ""
        assert err == f"error: step 0.1 is longer than the horizon {float(T)!r}: no whole step fits\n"

    def test_converge_zero_step_is_rejected(self, capsys):
        code, out, err = run(
            capsys, "converge", "--method", "lie-euler", "--hs", "0.1,0.05,0"
        )
        assert code == 1
        assert out == ""
        assert "step size" in err

    def test_json_output_refuses_nan(self, capsys, monkeypatch):
        monkeypatch.setattr(
            sphere, "convergence_study", lambda *args: {"slope": float("nan")}
        )
        code, out, err = run(
            capsys, "converge", "--method", "lie-euler", "--hs", "0.1,0.05,0.025",
            "--format", "json",
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    def test_converge_zero_refine_is_rejected(self, capsys):
        code, out, err = run(
            capsys, "converge", "--method", "lie-euler", "--hs", "0.1,0.05,0.025",
            "--refine", "0",
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "refine" in err

    def test_converge_bad_steps(self, capsys):
        code, _, err = run(
            capsys, "converge", "--method", "lie-euler", "--hs", "0.1,0.2,0.4"
        )
        assert code == 1
        assert "decreasing" in err


class TestUsageErrors:
    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["product", "[]", "[]"])
        assert exc.value.code == 2


# A fresh interpreter that reports, from an atexit hook, how many objects
# the permanent generation holds once the command has returned.
ENTRIES = {
    "module": "sys.argv[1:] = {argv!r}\n"
              "runpy.run_module('liebutcher.cli', run_name='__main__', alter_sys=True)",
    "script": "sys.argv[1:] = {argv!r}\nfrom liebutcher.cli import run\nsys.exit(run())",
}
FREEZE_PROBE = """
import atexit, gc, runpy, sys
atexit.register(lambda: sys.stderr.write(f"frozen {{gc.get_freeze_count()}}\\n"))
{entry}
"""


class TestProcessEntry:
    """`python -m liebutcher.cli` and the installed `liebutcher` script enter
    through cli.run, which freezes the heap once the response is written, so
    the shutdown collections skip it; main() leaves the collector alone."""

    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    @pytest.mark.parametrize("argv, code", [
        (["enumerate", "--what", "trees", "--degree", "3", "--count-only"], 0),
        (["magnus", "--degree", "9"], 1),
        (["product", "--kind", "foo", "[]", "[]"], 2),
        (["--help"], 0),
    ])
    def test_a_fresh_process_ends_frozen(self, entry, argv, code):
        src = os.path.dirname(os.path.dirname(liebutcher.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        probe = FREEZE_PROBE.format(entry=ENTRIES[entry].format(argv=argv))
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              env=env, timeout=60)
        assert proc.returncode == code, proc.stderr
        assert int(proc.stderr.splitlines()[-1].removeprefix("frozen ")) > 0

    def test_main_leaves_the_freeze_count_alone(self, capsys):
        before = gc.get_freeze_count()
        assert main(["magnus", "--degree", "3"]) == 0
        with pytest.raises(SystemExit):
            main(["product", "--kind", "foo", "[]", "[]"])
        assert gc.get_freeze_count() == before

    def test_the_installed_script_enters_through_run(self):
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        assert 'liebutcher = "liebutcher.cli:run"' in pyproject.read_text(encoding="utf-8")


class _CountingStdout(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


@pytest.mark.parametrize(
    "argv",
    [
        ("integrate", "--method", "lie-euler", "--h", "0.01", "--steps", "200"),
        ("magnus", "--degree", "5"),
        ("exp", "--kind", "gl", "--degree", "4", "--format", "json"),
        ("enumerate", "--what", "forests", "--degree", "4"),
        ("converge", "--method", "lie-euler", "--hs", "0.1,0.05,0.025", "--refine", "4"),
    ],
    ids=["integrate", "series-text", "series-json", "enumerate", "converge"],
)
def test_a_response_is_one_stdout_write(monkeypatch, argv):
    # with PYTHONUNBUFFERED set each write is a system call: one per line before
    out = _CountingStdout()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(list(argv)) == 0
    assert out.getvalue().count("\n") >= 2 or argv[-1] == "json"
    assert out.writes <= 2
