"""The lib-warm workload: one long-lived process issuing library calls.

After import and a warm-up pass, the session sends a seeded stream of
requests, one at a time.  A request is one library call (or one round trip
of calls whose agreement is the answer); its latency is the time inside
the library.  Results are kept and checked after the timing window, against
exact identities, the benchmark's own product oracles, and matrices
recorded from the seed commit.

Run as a script it is a fresh session, used for the set-up samples and the
traced replays:

    python3 bench/libwarm.py setup
    python3 bench/libwarm.py replay SEED OUT.json --seconds S | --count N [--trace]
"""

from __future__ import annotations

import importlib
import itertools
import json
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import catalogue  # noqa: E402

MATRICES = 8  # seeded 4x4 matrices eval_F draws from
EVAL_DEGREES = (3, 4, 5, 6)


class Lib:
    """The liebutcher modules, imported on demand so the import can be timed."""

    def __init__(self):
        for name in ("trees", "series", "postlie", "lbseries", "matrixpostlie"):
            setattr(self, name, importlib.import_module(f"liebutcher.{name}"))
        self.np = importlib.import_module("numpy")
        self._chi = {}

    def chi(self, n):
        if n not in self._chi:
            lb = self.lbseries
            self._chi[n] = lb.magnus_chi(lb.field_generator(n), n).series
        return self._chi[n]

    def matrix(self, idx):
        return self.np.random.default_rng(1000 + idx).uniform(-1.0, 1.0, size=(4, 4))


def setup() -> tuple[Lib, float]:
    """Import the library and run the warm-up pass; returns the elapsed time."""
    start = time.perf_counter()
    lib = Lib()
    lib.trees.enumerate_forests(8)
    for d in EVAL_DEGREES:
        lib.chi(d)
    rng = random.Random("warm-up")
    warm = [Req("", _order, lib, method, n) for method in ("euler", "mid") for n in (5, 6)]
    for n in (5, 6):
        warm.append(Req("", _magnus_round_trip, lib, lie_series(lib, rng, n), n))
        warm.append(Req("", _log_round_trip, lib, lie_series(lib, rng, n), n))
    for op in PRODUCTS:
        fn = getattr(lib.series, op, None) or getattr(lib.postlie, op)
        warm += [Req("", fn, random_series(lib, rng), random_series(lib, rng)) for _ in range(2)]
    for req in warm:
        req.run()
    return lib, time.perf_counter() - start


# ---------------------------------------------------------------------------
# seeded inputs


def _forest(lib, rng, n):
    return lib.trees.parse_forest(catalogue._forest(rng, n))


def _coeff(rng):
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 6))


def random_series(lib, rng, trunc=8):
    """Up to six terms on random forests of degree <= 5, random rationals."""
    terms = {}
    for _ in range(rng.randint(2, 6)):
        f = _forest(lib, rng, rng.randint(1, 5))
        terms[f] = terms.get(f, 0) + _coeff(rng)
    return lib.series.Series(terms, trunc)


def lie_series(lib, rng, n):
    """A random Lie element: trees plus commutators of trees, truncated at n.

    The one-node tree is always present, so powers fill every degree and the
    cost of exponentials hardly depends on the draw.
    """
    S, concat = lib.series.Series, lib.series.concat
    out = S.of(lib.trees.LEAF, _coeff(rng), n)
    for _ in range(rng.randint(1, 3)):
        out = out + S.of(_forest(lib, rng, rng.randint(2, n)).trees[0], _coeff(rng), n)
    for _ in range(rng.randint(1, 2)):
        d = rng.randint(1, n - 1)
        s = S.of(_forest(lib, rng, d).trees[0], 1, n)
        t = S.of(_forest(lib, rng, rng.randint(1, n - d)).trees[0], 1, n)
        out = out + (concat(s, t) - concat(t, s)) * _coeff(rng)
    return out


def _perturb(lib, rng, s, n):
    """Break the shuffle identity on a two-letter word of degree <= n."""
    a = rng.randint(1, n - 1)
    u = _forest(lib, rng, a).trees[0]
    v = _forest(lib, rng, rng.randint(1, n - a)).trees[0]
    word = lib.trees.Forest((u, v))
    return s + lib.series.Series({word: Fraction(rng.randint(1, 5), 7)}, s.trunc)


# ---------------------------------------------------------------------------
# requests


class Req:
    __slots__ = ("kind", "fn", "args", "result", "latency", "error")

    def __init__(self, kind, fn, *args):
        self.kind, self.fn, self.args = kind, fn, args
        self.result = self.latency = self.error = None

    def run(self):
        start = time.perf_counter()
        try:
            self.result = self.fn(*self.args)
        except Exception as exc:  # a failed request is counted, not fatal
            self.error = f"{type(exc).__name__}: {exc}"
        self.latency = time.perf_counter() - start


def _order(lib, method, n):
    lb = lib.lbseries
    char = {"euler": lb.lie_euler_character, "mid": lb.lie_midpoint_character}[method]
    return lb.order_of_agreement(char(n), lb.exact_flow_character(n))


def _magnus_round_trip(lib, a, n):
    lb = lib.lbseries
    return lb.exp_gl(lb.magnus_chi(a, n), n).series == lb.exp_concat(a, n).series


def _log_round_trip(lib, x, n):
    lb = lib.lbseries
    return lb.log_gl(lb.exp_gl(x, n)).series == x.truncated(n)


def _validated(lib, cls, s):
    try:
        getattr(lib.lbseries, cls)(s)
    except ValueError:
        return False
    return True


# Requests per round.  Products cost what their random operands make them
# cost; eval_F of chi at one degree costs the same for every seeded matrix,
# so its 24 requests form the band that holds the median.
PRODUCTS = {"concat": 8, "shuffle": 8, "triangleright": 8, "gl_product": 10, "dbracket": 8}
EVAL_MIX = (5,) * 24 + (4, 6)


def _round(lib, rng, r):
    """One round of the stream: fixed request classes, seeded inputs.

    The five slowest requests (a degree-8 order, the degree-7 orders and
    round trips) sit at evenly spaced positions; ten degree-6 round trips of
    nearly equal cost hold the 90th percentile.
    """
    lb, pl, se, mp = lib.lbseries, lib.postlie, lib.series, lib.matrixpostlie
    slow = [Req(f"order-{('mid', 'euler')[r % 2]}-8", _order, lib, ("mid", "euler")[r % 2], 8)]
    slow += [Req(f"order-{m}-7", _order, lib, m, 7) for m in ("euler", "mid")]
    slow.append(Req("magnus-rt-7", _magnus_round_trip, lib, lie_series(lib, rng, 7), 7))
    slow.append(Req("log-rt-7", _log_round_trip, lib, lie_series(lib, rng, 7), 7))
    reqs = [Req(f"order-{m}-{n}", _order, lib, m, n) for m in ("euler", "mid") for n in (5, 6)]
    for n, count in ((6, 5), (5, 1)):
        for _ in range(count):
            reqs.append(Req(f"magnus-rt-{n}", _magnus_round_trip, lib, lie_series(lib, rng, n), n))
            reqs.append(Req(f"log-rt-{n}", _log_round_trip, lib, lie_series(lib, rng, n), n))
    for op, count in PRODUCTS.items():
        fn = getattr(se, op, None) or getattr(pl, op)
        for _ in range(count):
            reqs.append(Req(op, fn, random_series(lib, rng), random_series(lib, rng)))
    for cls in ("FieldSeries", "MethodCharacter") * 2:
        n = rng.choice((6, 7))
        x = lie_series(lib, rng, n)
        s = x if cls == "FieldSeries" else lb.exp_concat(x, n, validate=False).series
        reqs.append(Req(f"{cls}-valid", _validated, lib, cls, s))
        reqs.append(Req(f"{cls}-invalid", _validated, lib, cls, _perturb(lib, rng, s, n)))
    for d in EVAL_MIX:
        kind, idx = rng.choice(("lu", "qr")), rng.randrange(MATRICES)
        reqs.append(Req(f"eval_F-{kind}-{idx}-{d}", mp.eval_F, kind, lib.matrix(idx), lib.chi(d)))
    rng.shuffle(reqs)
    return catalogue.spread(reqs, slow)


def stream(lib, seed):
    rng = random.Random(seed)
    for r in itertools.count():
        yield from _round(lib, rng, r)


# ---------------------------------------------------------------------------
# checks


def _oracle_bilinear(a, b, trunc, basis):
    """Bilinear extension of basis(fa, fb) -> [(forest, coeff)], truncated."""
    out = {}
    for (fa, ca), (fb, cb) in itertools.product(a.terms.items(), b.terms.items()):
        if trunc is None or fa.degree + fb.degree <= trunc:
            for f, c in basis(fa, fb):
                out[f] = out.get(f, 0) + ca * cb * c
    return out


def _shuffles(forest_type):
    """Word shuffle of two forests, one term per interleaving of positions."""

    def basis(fa, fb):
        n, m = len(fa.trees), len(fb.trees)
        for pos in itertools.combinations(range(n + m), n):
            left, right, chosen = iter(fa.trees), iter(fb.trees), set(pos)
            yield forest_type(tuple(next(left) if i in chosen else next(right)
                                    for i in range(n + m))), 1

    return basis


class Checker:
    def __init__(self, lib, expected):
        self.lib = lib
        self.expected = expected
        ext = lib.postlie.GraftExtension()  # fresh caches, separate from the session's
        forest = lib.trees.Forest
        self.bases = {
            "concat": lambda fa, fb: ((forest(fa.trees + fb.trees), 1),),
            "shuffle": _shuffles(forest),
            "triangleright": ext.basis,
            "gl_product": ext.gl_basis,
        }

    def product(self, op, a, b):
        trunc = self.lib.series.min_trunc(a.trunc, b.trunc)
        if op != "dbracket":
            return _oracle_bilinear(a, b, trunc, self.bases[op]), trunc
        out = {}
        for sign, (x, y, base) in zip((1, -1, 1, -1), ((a, b, "triangleright"), (b, a, "triangleright"),
                                                       (a, b, "concat"), (b, a, "concat"))):
            for f, c in _oracle_bilinear(x, y, trunc, self.bases[base]).items():
                out[f] = out.get(f, 0) + sign * c
        return out, trunc

    def __call__(self, req) -> str | None:
        if req.error is not None:
            return req.error
        kind, got = req.kind, req.result
        if kind.startswith("order-"):
            want = 1 if "euler" in kind else 2
            return None if got == want else f"order {got}, expected {want}"
        if kind.startswith(("magnus-rt", "log-rt")):
            return None if got is True else "round trip does not reproduce its input"
        if kind.endswith(("-valid", "-invalid")):
            want = kind.endswith("-valid")
            return None if got is want else f"validation returned {got}, expected {want}"
        if kind.startswith("eval_F"):
            want = self.lib.np.array([float(v) for v in self.expected[kind]]).reshape(4, 4)
            err = float(self.lib.np.abs(got - want).max())
            scale = 1.0 + float(self.lib.np.abs(want).max())
            return None if err <= 1e-9 * scale else f"eval_F off by {err:.3e}"
        want, trunc = self.product(kind, *req.args)
        want = {f: c for f, c in want.items() if c != 0}
        if got.terms != want or got.trunc != trunc:
            return f"{kind} disagrees with the oracle"
        return None


def eval_f_expectations(lib) -> dict:
    """Recorded eval_F matrices for every (kind, matrix, degree) the stream can ask."""
    out = {}
    for kind, idx, d in itertools.product(("lu", "qr"), range(MATRICES), EVAL_DEGREES):
        m = lib.matrixpostlie.eval_F(kind, lib.matrix(idx), lib.chi(d))
        out[f"eval_F-{kind}-{idx}-{d}"] = [repr(float(v)) for v in m.ravel()]
    return out


def replay(lib, seed, seconds=None, count=None, tracer=None):
    """Send stream requests until `seconds` of library time, or `count` requests."""
    reqs, busy = [], 0.0
    for i, req in enumerate(stream(lib, seed)):
        if busy >= seconds if count is None else i >= count:
            break
        if tracer is not None:
            tracer.rid = i
        req.run()
        busy += req.latency
        reqs.append(req)
    return reqs, busy


def _main(argv):
    import tracer as tracing

    if argv[0] == "setup":
        _, elapsed = setup()
        print(json.dumps({"setup_s": elapsed}))
        return 0
    seed, out, opts = int(argv[1]), argv[2], argv[3:]
    lib, _ = setup()
    tracer = None
    if "--trace" in opts:
        tracer = tracing.Tracer()
        tracer.install()
    before = tracing.cache_counters()
    if "--seconds" in opts:
        reqs, busy = replay(lib, seed, seconds=float(opts[opts.index("--seconds") + 1]), tracer=tracer)
    else:
        reqs, busy = replay(lib, seed, count=int(opts[opts.index("--count") + 1]), tracer=tracer)
    after = tracing.cache_counters()
    expected = json.loads((Path(__file__).parent / "expected.json").read_text())["lib-warm"]
    check = Checker(lib, expected)
    body = {
        "count": len(reqs),
        "wall_s": busy,
        "failures": [f"{r.kind}: {e}" for r in reqs if (e := check(r))],
        "cache_delta": {
            k: [after[k][0] - before[k][0], after[k][1] - before[k][1], after[k][2]]
            for k in after if k in before
        },
    }
    if tracer is not None:
        body.update(spans=tracer.spans, terms_out=tracer.terms_out)
    Path(out).write_text(json.dumps(body), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
