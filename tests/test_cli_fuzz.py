"""Fuzzed argument vectors over the symbolic and the numeric subcommands.

Whatever the input, a request ends with exit 0, 1 or 2: no exception
escapes main, stderr carries no traceback and no warning, and JSON output
parses strictly.  The numeric draws keep the work small (at most 50 steps,
n <= 4, 5 samples, refine <= 4, horizon <= 1) and mix in junk floats; a
horizon of 1e308 is left out because nothing yet bounds the steps it asks for.
"""

import contextlib
import io
import json

from hypothesis import HealthCheck, given, settings, strategies as st

from liebutcher.cli import main
from liebutcher.trees import LEAF, Forest, Tree

trees = st.recursive(
    st.just(LEAF),
    lambda kids: st.builds(lambda cs: Tree(tuple(cs)), st.lists(kids, max_size=3)),
    max_leaves=4,
)
valid_forests = st.builds(lambda ts: Forest(tuple(ts)).text, st.lists(trees, max_size=2))
malformed = st.text(alphabet="[] 1x{}\"-", max_size=12)
forests = st.one_of(valid_forests, malformed)
degrees = st.integers(min_value=-2, max_value=5).map(str)
junk = st.lists(
    st.sampled_from(["--bogus", "--degree", "--format", "xml", "--kind", "-", "--", "x"]),
    max_size=2,
)


def option(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


def command(name, *parts):
    return st.tuples(st.just([name]), *parts).map(lambda ps: [a for p in ps for a in p])


argvs = st.one_of(
    command("graft", forests.map(lambda f: [f]), forests.map(lambda f: [f]),
            option("--degree", degrees)),
    command("product", st.sampled_from(["concat", "shuffle", "gl"]).map(lambda k: ["--kind", k]),
            forests.map(lambda f: [f]), forests.map(lambda f: [f]), option("--degree", degrees)),
    command("exp", st.sampled_from(["concat", "gl"]).map(lambda k: ["--kind", k]),
            option("--degree", degrees), st.one_of(st.just([]), forests.map(lambda f: [f]))),
    command("magnus", option("--degree", degrees)),
    command("order", st.sampled_from(["lie-euler", "lie-midpoint"]).map(lambda m: ["--method", m]),
            option("--degree", degrees)),
    command("enumerate", st.sampled_from(["trees", "forests"]).map(lambda w: ["--what", w]),
            degrees.map(lambda d: ["--degree", d]), st.sampled_from([[], ["--count-only"]])),
    command("axioms", st.just(["--target", "free"]), option("--degree", degrees)),
)


junk_floats = st.sampled_from(["nan", "inf", "-inf", "1e308", "5e-324"])
step_sizes = st.sampled_from(["0.05", "0.1", "0.2", "0.25", "0.5", "1", "2.5", "0", "-0.1"])
methods = st.sampled_from(["lie-euler", "lie-midpoint"]).map(lambda m: ["--method", m])

numeric_argvs = st.one_of(
    command("integrate", methods, st.one_of(step_sizes, junk_floats).map(lambda h: ["--h", h]),
            st.integers(-2, 50).map(lambda n: ["--steps", str(n)])),
    command("converge", methods,
            st.lists(st.one_of(step_sizes, junk_floats), min_size=1, max_size=4)
            .map(lambda hs: ["--hs", ",".join(hs)]),
            option("--T", st.sampled_from(["1", "0.5", "0", "-1", "nan", "inf", "5e-324"])),
            option("--refine", st.integers(-1, 4).map(str))),
    command("axioms", st.just(["--target", "matrix"]),
            option("--kind", st.sampled_from(["lu", "qr", "LU"])),
            option("--n", st.integers(-1, 4).map(str)),
            option("--samples", st.integers(-1, 5).map(str)),
            option("--tol", st.one_of(st.sampled_from(["1e-10", "0", "-1"]), junk_floats)),
            option("--seed", st.integers(-1, 3).map(str)),
            option("--degree", degrees)),
)


def strict_json(text):
    def refuse(name):
        raise ValueError(f"non-finite constant {name} in JSON output")

    return json.loads(text, parse_constant=refuse)


def assert_ends_cleanly(argv, fmt, extra):
    argv = [*argv, "--format", fmt, *extra]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()
    assert "Warning" not in err.getvalue(), (argv, err.getvalue())
    if code != 0:  # a diagnostic, or a matrix check that ran and reports its failure
        report = out.getvalue()
        matrix_failed = argv[:3] == ["axioms", "--target", "matrix"] and (
            "FAIL" in report or '"pass": false' in report
        )
        assert err.getvalue() or matrix_failed, argv
    elif fmt == "json" and "--format" not in extra:
        strict_json(out.getvalue())


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argvs, st.sampled_from(["text", "json"]), junk)
def test_symbolic_requests_end_cleanly(argv, fmt, extra):
    assert_ends_cleanly(argv, fmt, extra)


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(numeric_argvs, st.sampled_from(["text", "json"]), junk)
def test_numeric_requests_end_cleanly(argv, fmt, extra):
    assert_ends_cleanly(argv, fmt, extra)
