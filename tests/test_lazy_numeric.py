"""The symbolic path never loads numpy; numeric names load it on first use.

The import checks run in fresh interpreters, because this test process has
long since imported numpy and both numeric layers.
"""

import json
import os
import subprocess
import sys

import pytest

import liebutcher
from liebutcher import cli, matrixpostlie, sphere
from liebutcher.sphere import ConvergenceError

NUMERIC_MODULES = ("numpy", "liebutcher.sphere", "liebutcher.matrixpostlie", "dataclasses")
SRC = os.path.dirname(os.path.dirname(liebutcher.__file__))

PROBE = """
import json, sys
{setup}
print(json.dumps([m for m in {modules!r} if m in sys.modules]))
"""


def loaded_after(setup: str) -> list[str]:
    """Which of NUMERIC_MODULES a fresh interpreter holds after `setup`."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = PROBE.format(setup=setup, modules=NUMERIC_MODULES)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("setup", ["import liebutcher", "import liebutcher.cli"])
def test_imports_stay_symbolic(setup):
    assert loaded_after(setup) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["graft", "[]", "[[]]"],
        ["magnus", "--degree", "3"],
        ["order", "--method", "lie-midpoint", "--degree", "3"],
        ["enumerate", "--what", "forests", "--degree", "3"],
        ["axioms", "--target", "free", "--degree", "3"],
        ["graft", "[[oops]]", "[]"],
    ],
)
def test_symbolic_subcommands_stay_symbolic(argv):
    setup = f"from liebutcher import cli\ncli.main({argv!r})"
    assert loaded_after(setup) == []


INTEGRATE = ["integrate", "--method", "lie-midpoint", "--h", "0.1", "--steps", "2"]


@pytest.mark.parametrize(
    "argv",
    [
        INTEGRATE,
        [*INTEGRATE, "--format", "json"],
        [*INTEGRATE, "--csv", "{csv}"],
        ["converge", "--method", "lie-euler", "--hs", "0.1,0.05,0.025", "--refine", "2"],
    ],
)
def test_sphere_subcommands_step_without_numpy(argv, tmp_path):
    argv = [arg.format(csv=tmp_path / "run.csv") for arg in argv]
    setup = f"from liebutcher import cli\nassert cli.main({argv!r}) == 0"
    assert loaded_after(setup) == ["liebutcher.sphere"]


def test_the_matrix_subcommand_loads_numpy():
    argv = ["axioms", "--target", "matrix", "--kind", "lu", "--n", "3", "--samples", "2"]
    setup = f"from liebutcher import cli\nassert cli.main({argv!r}) == 0"
    assert set(loaded_after(setup)) >= {"numpy", "liebutcher.matrixpostlie"}


def test_numeric_names_resolve_from_their_submodule():
    for name, module in liebutcher._NUMERIC.items():
        owner = {"sphere": sphere, "matrixpostlie": matrixpostlie}[module]
        assert name in owner.__all__
        assert getattr(liebutcher, name) is getattr(owner, name)
    assert liebutcher.rot_exp is sphere.rot_exp
    assert liebutcher.sphere is sphere and liebutcher.matrixpostlie is matrixpostlie
    from liebutcher import eval_F

    assert eval_F is matrixpostlie.eval_F


def test_numeric_names_are_read_on_every_access(monkeypatch):
    sentinel = object()
    monkeypatch.setattr(matrixpostlie, "eval_F", sentinel)
    assert liebutcher.eval_F is sentinel


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        liebutcher.no_such_name
    with pytest.raises(ImportError):
        from liebutcher import no_such_name  # noqa: F401


def test_cli_methods_are_the_steppers():
    assert cli.METHODS == tuple(sorted(sphere.STEPPERS))


def test_cli_seed_default_is_the_library_default():
    args = cli.build_parser().parse_args(["axioms", "--target", "matrix"])
    assert args.seed == matrixpostlie.DEFAULT_SEED


@pytest.mark.parametrize(
    "argv",
    [["order"], ["integrate", "--h", "0.1", "--steps", "1"], ["converge", "--hs", "0.1,0.05,0.025"]],
)
def test_unknown_method_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--method", "rk4"])
    assert exc.value.code == 2
    assert "rk4" in capsys.readouterr().err


def test_convergence_error_is_a_value_error():
    err = ConvergenceError("did not contract", 0.5)
    assert isinstance(err, ValueError) and err.residual == 0.5
