import csv
import json

import pytest

from liebutcher import sphere
from liebutcher.cli import main
from liebutcher.trees import MAX_DEPTH


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_deepest_allowed_nesting(self, capsys):
        deep = "[" * MAX_DEPTH + "]" * MAX_DEPTH
        code, out, err = run(capsys, "graft", "[]", deep, "--format", "json")
        assert code == 0 and err == ""
        terms = json.loads(out)["terms"]
        assert len(terms) == MAX_DEPTH
        assert all(t["forest"].count("[") == MAX_DEPTH + 1 for t in terms)

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

    def test_matrix_requires_kind(self, capsys):
        code, _, err = run(capsys, "axioms", "--target", "matrix")
        assert code == 2
        assert "--kind" in err


class TestIntegrateAndConverge:
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
