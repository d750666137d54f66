"""Every layer loads on first use: the symbolic path never loads numpy,
numeric names load it on first use, and each subcommand loads only the
layers it runs.

The import checks run in fresh interpreters, because this test process has
long since imported numpy and both numeric layers.
"""

import importlib
import json
import os
import subprocess
import sys

import pytest

import liebutcher
from liebutcher import cli, lbseries, matrixpostlie, sphere
from liebutcher.series import Series
from liebutcher.sphere import ConvergenceError

NUMERIC_MODULES = ("numpy", "liebutcher.sphere", "liebutcher.matrixpostlie", "dataclasses")
LAYERS = ("cli", "trees", "series", "identities", "postlie", "lbseries", "matrixpostlie",
          "sphere")
FOOTPRINT_MODULES = ("fractions", "csv", "json", *(f"liebutcher.{m}" for m in LAYERS))
SRC = os.path.dirname(os.path.dirname(liebutcher.__file__))

# sys.modules is read before the probe's own `import json`.
PROBE = """
import sys
{setup}
loaded = [m for m in {modules!r} if m in sys.modules]
import json
print(json.dumps(loaded))
"""


def run_fresh(code: str):
    """The JSON value a fresh interpreter running `code` prints last."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def loaded_after(setup: str, modules=NUMERIC_MODULES) -> list[str]:
    """Which of `modules` a fresh interpreter holds after `setup`."""
    return run_fresh(PROBE.format(setup=setup, modules=modules))


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


SYMBOLIC = {"cli", "trees", "series", "identities", "postlie", "fractions"}
MATRIX = ["axioms", "--target", "matrix", "--kind", "qr", "--n", "3", "--samples", "2"]


@pytest.mark.parametrize(
    "argv, layers",
    [
        (INTEGRATE, {"cli", "sphere"}),
        ([*INTEGRATE, "--format", "json"], {"cli", "sphere", "json"}),
        ([*INTEGRATE, "--csv", "{csv}"], {"cli", "sphere"}),
        ([*INTEGRATE, "--csv", "{csv}", "--format", "json"], {"cli", "sphere", "json"}),
        (["converge", "--method", "lie-euler", "--hs", "0.1,0.05,0.025", "--refine", "2"],
         {"cli", "sphere"}),
        (["enumerate", "--what", "forests", "--degree", "3"], {"cli", "trees"}),
        (["enumerate", "--what", "trees", "--degree", "3", "--format", "json"],
         {"cli", "trees", "json"}),
        (["graft", "[]", "[[]]"], SYMBOLIC),
        (["graft", "[[oops]]", "[]"], SYMBOLIC),
        (["product", "--kind", "gl", "[]", "[[]]", "--degree", "3"], SYMBOLIC),
        (["axioms", "--target", "free", "--degree", "3"], SYMBOLIC),
        (["magnus", "--degree", "3"], SYMBOLIC | {"lbseries"}),
        (["order", "--method", "lie-euler", "--degree", "3"], SYMBOLIC | {"lbseries"}),
        (["exp", "--kind", "gl", "--degree", "3"], SYMBOLIC | {"lbseries"}),
        (MATRIX, {"cli", "identities", "matrixpostlie"}),
        ([*MATRIX, "--format", "json"], {"cli", "identities", "matrixpostlie", "json"}),
    ],
)
def test_each_subcommand_loads_only_its_layers(argv, layers, tmp_path):
    argv = [arg.format(csv=tmp_path / "run.csv") for arg in argv]
    setup = f"from liebutcher import cli\ncli.main({argv!r})"
    loaded = loaded_after(setup, FOOTPRINT_MODULES)
    assert {m.removeprefix("liebutcher.") for m in loaded} == layers


SYMBOLIC_MODULES = ["fractions", "liebutcher.trees", "liebutcher.series", "liebutcher.postlie",
                    "liebutcher.lbseries"]
EVAL_F_CHI4 = """
import json, sys
import liebutcher.matrixpostlie as mp
mp.check_projection_identity("qr", 3, 5)
mp.check_matrix_postlie_axioms("lu", 3, 5)
symbolic = {modules!r}
checks = [m for m in symbolic if m in sys.modules]
from liebutcher.series import Series
chi = Series.from_json(json.loads({chi!r}))
before = [m for m in symbolic if m in sys.modules]
got = mp.eval_F("qr", {m0!r}, chi)
after = [m for m in symbolic if m in sys.modules]
print(json.dumps([checks, before, after, got.tolist()]))
"""


def test_matrix_checks_load_no_symbolic_layer_and_eval_F_loads_them():
    import numpy as np

    text = json.dumps(lbseries.magnus_chi(lbseries.field_generator(4), 4).series.to_json())
    m0 = np.random.default_rng(8).uniform(-1, 1, (4, 4))
    code = EVAL_F_CHI4.format(modules=SYMBOLIC_MODULES, chi=text, m0=m0.tolist())
    checks, before, after, got = run_fresh(code)
    assert checks == []
    assert "liebutcher.postlie" not in before and "liebutcher.lbseries" not in before
    assert after == SYMBOLIC_MODULES
    # the same series, its terms in the same order, so the same sums
    chi = Series.from_json(json.loads(text))
    assert np.array_equal(np.array(got), matrixpostlie.eval_F("qr", m0, chi))


def test_import_liebutcher_loads_no_layer():
    assert loaded_after("import liebutcher", FOOTPRINT_MODULES) == []


def test_star_import_binds_the_symbolic_names_without_numpy():
    setup = (
        "from liebutcher import *\nimport liebutcher\n"
        "missing = [n for n in liebutcher.__all__ if n not in globals()]\n"
        "assert liebutcher.__all__ and not missing, missing"
    )
    assert loaded_after(setup) == []


def test_clear_caches_loads_no_numeric_layer():
    setup = "import liebutcher\nliebutcher.clear_caches()"
    assert loaded_after(setup) == []


def test_clear_caches_loads_no_layer():
    # the memo table lives in the package, so emptying it imports nothing
    setup = "import liebutcher\nliebutcher.clear_caches()"
    assert loaded_after(setup, FOOTPRINT_MODULES) == []


def test_the_matrix_subcommand_loads_numpy():
    argv = ["axioms", "--target", "matrix", "--kind", "lu", "--n", "3", "--samples", "2"]
    setup = f"from liebutcher import cli\nassert cli.main({argv!r}) == 0"
    assert set(loaded_after(setup)) >= {"numpy", "liebutcher.matrixpostlie"}


def test_numeric_names_resolve_from_their_submodule():
    for name, module in liebutcher._EXPORTS.items():
        owner = importlib.import_module(f"liebutcher.{module}")
        assert name in owner.__all__
        assert getattr(liebutcher, name) is getattr(owner, name)
        assert name in dir(liebutcher)
        assert (name in liebutcher.__all__) == (module not in ("sphere", "matrixpostlie"))
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
    assert cli.METHODS == tuple(lbseries.METHOD_CHARACTERS) == tuple(sphere.STEPPERS)


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
