"""Fuzzed argument vectors over the symbolic subcommands.

Whatever the input, a request ends with exit 0, 1 or 2: no exception
escapes main, stderr carries no traceback, and JSON output parses strictly.
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


def strict_json(text):
    def refuse(name):
        raise ValueError(f"non-finite constant {name} in JSON output")

    return json.loads(text, parse_constant=refuse)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argvs, st.sampled_from(["text", "json"]), junk)
def test_symbolic_requests_end_cleanly(argv, fmt, extra):
    argv = [*argv, "--format", fmt, *extra]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()
    if code != 0:
        assert err.getvalue(), argv
    elif fmt == "json" and "--format" not in extra:
        strict_json(out.getvalue())
