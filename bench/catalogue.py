"""Request catalogues and seeded request streams for the CLI workloads.

Every CLI request the benchmark can send comes from a finite catalogue built
from a fixed generator seed, so its expected output can be recorded once
(``run.py --record``) and checked on every run.  A run's ``--seed`` only picks
instances from each class and shuffles them; the class pattern of a round is
fixed, so every seed offers the program the same mix of work.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass

CATALOGUE_SEED = 1712_09415
POOL = 12  # instances per class


@dataclass(frozen=True)
class Request:
    """One CLI invocation: argv after the program name, plus input files."""

    cls: str
    argv: tuple[str, ...]
    files: tuple[tuple[str, str], ...] = ()
    check: str = "digest"  # digest | integrate | converge | matrix

    @property
    def key(self) -> str:
        blob = json.dumps([self.argv, self.files], separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def label(self) -> str:
        return " ".join(a if a and " " not in a else repr(a) for a in self.argv)


# ---------------------------------------------------------------------------
# random planar trees in the bracket grammar (canonical single spacing)


def _tree(rng: random.Random, n: int) -> str:
    return "[" + _forest_body(rng, n - 1) + "]"


def _forest_body(rng: random.Random, n: int) -> str:
    parts = []
    while n > 0:
        k = rng.randint(1, n)
        parts.append(_tree(rng, k))
        n -= k
    return " ".join(parts)


def _forest(rng: random.Random, n: int, max_trees: int = 3) -> str:
    """A forest of total degree n with at most max_trees trees."""
    k = rng.randint(1, min(max_trees, n))
    cuts = sorted(rng.sample(range(1, n), k - 1)) if k > 1 else []
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [n])]
    return " ".join(_tree(rng, s) for s in sizes)


def _coeff(rng: random.Random) -> str:
    num = rng.choice([-1, 1]) * rng.randint(1, 9)
    den = rng.randint(1, 6)
    return str(num) if den == 1 else f"{num}/{den}"


def _series_file(rng: random.Random, trunc: int | None, terms: int, max_deg: int) -> str:
    body = {
        "trunc": trunc,
        "terms": [
            {"forest": _forest(rng, rng.randint(1, max_deg)), "coeff": _coeff(rng)}
            for _ in range(terms)
        ],
    }
    return json.dumps(body)


def _fmt(rng: random.Random) -> list[str]:
    return ["--format", rng.choice(["text", "json"])]


# ---------------------------------------------------------------------------
# cli-cold classes


def _graft(rng, i):
    a, b = rng.randint(1, 3), rng.randint(1, 4)
    return Request("graft", ("graft", _tree(rng, a), _tree(rng, b), *_fmt(rng)))


def _graft78(rng, i):
    a = rng.randint(2, 4)
    b = rng.randint(7, 8) - a
    return Request("graft78", ("graft", _tree(rng, a), _forest(rng, b, 2), *_fmt(rng)))


def _graft_file(rng, i):
    files = (
        ("l.json", _series_file(rng, 8, rng.randint(2, 4), 3)),
        ("r.json", _series_file(rng, 8, rng.randint(2, 4), 4)),
    )
    deg = ["--degree", str(rng.randint(6, 8))] if i % 2 else []
    return Request("graft-file", ("graft", "l.json", "r.json", *deg, *_fmt(rng)), files)


def _product(kind, lo, hi):
    def make(rng, i):
        total = rng.randint(lo, hi)
        a = rng.randint(1, total - 1)
        argv = ("product", "--kind", kind, _forest(rng, a), _forest(rng, total - a), *_fmt(rng))
        return Request(f"product-{kind}" + ("78" if lo >= 7 else ""), argv)

    return make


def _product_file(rng, i):
    kind = ("concat", "shuffle", "gl")[i % 3]
    files = (
        ("a.json", _series_file(rng, 8, rng.randint(3, 6), 4)),
        ("b.json", _series_file(rng, 8, rng.randint(3, 6), 4)),
    )
    right = "b.json" if i % 2 == 0 else _forest(rng, rng.randint(1, 3))
    argv = ("product", "--kind", kind, "a.json", right, *_fmt(rng))
    return Request("product-file", argv, files)


def _exp(rng, i):
    kind = ("concat", "gl")[i % 2]
    n = rng.randint(3, 6)
    extra = (_tree(rng, rng.randint(1, 2)),) if i % 3 == 0 else ()
    return Request("exp", ("exp", "--kind", kind, "--degree", str(n), *extra, *_fmt(rng)))


def _magnus(rng, i):
    return Request("magnus", ("magnus", "--degree", str(rng.randint(3, 6)), *_fmt(rng)))


def _order(rng, i):
    method = ("lie-euler", "lie-midpoint")[i % 2]
    argv = ("order", "--method", method, "--degree", str(rng.randint(3, 6)), *_fmt(rng))
    return Request("order", argv)


def _axioms_free(rng, i):
    argv = ("axioms", "--target", "free", "--degree", str(rng.randint(3, 6)), *_fmt(rng))
    return Request("axioms-free", argv)


def _enumerate(rng, i):
    what = ("trees", "forests")[i % 2]
    count = ("--count-only",) if i % 3 == 0 else ()
    argv = ("enumerate", "--what", what, "--degree", str(rng.randint(3, 7)), *count, *_fmt(rng))
    return Request("enumerate", argv)


def _enumerate8(rng, i):
    what = ("forests", "trees")[i % 2]
    return Request("enumerate8", ("enumerate", "--what", what, "--degree", "8", *_fmt(rng)))


# degree-7 requests of nearly equal cost; six per round put p90 inside them
DEG7 = (
    ("magnus", "--degree", "7"),
    ("order", "--method", "lie-euler", "--degree", "7"),
)
# other degree-7 requests, one per round
DEG7_MORE = (
    ("exp", "--kind", "gl", "--degree", "7"),
    ("axioms", "--target", "free", "--degree", "7"),
    ("exp", "--kind", "concat", "--degree", "7"),
)

HEAVY8 = (
    ("order", "--method", "lie-midpoint", "--degree", "8"),
    ("magnus", "--degree", "8"),
    ("exp", "--kind", "gl", "--degree", "8"),
    ("order", "--method", "lie-euler", "--degree", "8"),
    ("axioms", "--target", "free", "--degree", "8"),
    ("exp", "--kind", "concat", "--degree", "8"),
)


def _cold_error(rng, i):
    """Malformed requests the program rejects with exit 1 or 2 and a message."""
    cases = [
        ("graft", _tree(rng, 2)[:-1], "[]"),  # unclosed bracket
        ("graft", "[x]", _tree(rng, 2)),  # stray character
        ("product", "--kind", "concat", "[] 1", "[]"),  # empty forest mid-forest
        ("magnus", "--degree", "9"),  # above the degree cap
        ("enumerate", "--what", "forests", "--degree", "10"),
        ("graft", "[]", "[]", "--degree", "9"),
        ("product", "--kind", "gl", "bad.json", "[]"),  # JSON syntax error
        ("product", "--kind", "shuffle", "badforest.json", "[]"),
        ("graft", "badcoeff.json", "[]"),
        ("product", "--kind", "foo", "[]", "[]"),  # usage error
        ("enumerate", "--what", "forests", "--degree", "x"),
        ("exp", "--kind", "gl", "--degree", "4", "[] []"),  # not a character
    ]
    files = {
        "bad.json": '{"trunc": 4, "terms": [',
        "badforest.json": '{"trunc": 4, "terms": [{"forest": "[[", "coeff": "1"}]}',
        "badcoeff.json": '{"trunc": 4, "terms": [{"forest": "[[]]", "coeff": "abc"}]}',
    }
    argv = cases[i % len(cases)]
    used = tuple((n, t) for n, t in files.items() if n in argv)
    return Request("error", argv, used)


def _fixed(cls, table):
    def make(rng, i):
        return Request(cls, (*table[i % len(table)], "--format", ("text", "json")[i // len(table) % 2]))

    return make


# ---------------------------------------------------------------------------
# sphere-numeric classes

SPHERE_H = ("0.004", "0.005", "0.006", "0.008")


def _integrate(method, steps, fmt):
    def make(rng, i):
        h = SPHERE_H[i % len(SPHERE_H)]
        argv = ["integrate", "--method", method, "--h", h, "--steps", str(steps)]
        if fmt == "csv":
            argv += ["--csv", "traj.csv"] + (["--format", "json"] if i % 2 else [])
        else:
            argv += ["--format", fmt]
        return Request(f"integrate-{method}-{steps}-{fmt}", tuple(argv), check="integrate")

    return make


CONVERGE = (
    ("0.05,0.025,0.0125", "1", "16"),
    ("0.2,0.1,0.05", "1", "8"),
    ("0.1,0.05,0.025", "1", "16"),
    ("0.1,0.05,0.025,0.0125", "1", "8"),
)


def _converge(method):
    def make(rng, i):
        hs, T, refine = CONVERGE[i % len(CONVERGE)]
        argv = ("converge", "--method", method, "--hs", hs, "--T", T, "--refine", refine,
                *_fmt(rng))
        return Request(f"converge-{method}", argv, check="converge")

    return make


MATRIX = tuple((kind, n) for n in (3, 4, 8) for kind in ("lu", "qr"))


def _matrix(rng, i):
    kind, n = MATRIX[i % len(MATRIX)]
    argv = ("axioms", "--target", "matrix", "--kind", kind, "--n", str(n),
            "--seed", str(rng.randint(0, 10_000)), *_fmt(rng))
    return Request("matrix", argv, check="matrix")


def _sphere_error(rng, i):
    cases = [
        ("converge", "--method", "lie-euler", "--hs", "0.1,0.2,0.05"),  # not decreasing
        ("converge", "--method", "lie-midpoint", "--hs", "0.1,0.05"),  # too few
        ("converge", "--method", "lie-euler", "--hs", "0.3,0.2,0.1"),  # does not divide T
        ("integrate", "--method", "lie-midpoint", "--h", "50", "--steps", "3"),  # no contraction
        ("axioms", "--target", "matrix", "--n", "3"),  # missing --kind
        ("axioms", "--target", "matrix", "--kind", "lu", "--n", "1"),
        ("integrate", "--method", "rk4", "--h", "0.1", "--steps", "3"),
        ("integrate", "--method", "lie-euler", "--h", "abc", "--steps", "3"),
    ]
    return Request("error", cases[i % len(cases)])


# ---------------------------------------------------------------------------
# workload patterns: the class of every slot in one round

COLD_CLASSES = {
    "graft": _graft,
    "graft78": _graft78,
    "graft-file": _graft_file,
    "product-concat": _product("concat", 2, 6),
    "product-shuffle": _product("shuffle", 2, 6),
    "product-gl": _product("gl", 3, 6),
    "product-gl78": _product("gl", 7, 8),
    "product-file": _product_file,
    "exp": _exp,
    "magnus": _magnus,
    "order": _order,
    "axioms-free": _axioms_free,
    "enumerate": _enumerate,
    "enumerate8": _enumerate8,
    "deg7": _fixed("deg7", DEG7),
    "deg7-more": _fixed("deg7-more", DEG7_MORE),
    "heavy8": _fixed("heavy8", HEAVY8),
    "error": _cold_error,
}

# 40 slots: 1 heavy degree-8, 7 degree-7, 3 cheap degree-7/8, 2 malformed
COLD_PATTERN = (
    ["heavy8"] + ["deg7"] * 6 + ["deg7-more"] + ["enumerate8", "graft78", "product-gl78"]
    + ["error"] * 2
    + ["graft"] * 3 + ["graft-file"] * 2 + ["product-concat"] * 2 + ["product-shuffle"] * 2
    + ["product-gl"] * 2 + ["product-file"] * 3 + ["exp"] * 3 + ["magnus"] * 2
    + ["order"] * 3 + ["axioms-free"] * 2 + ["enumerate"] * 3
)

SPHERE_CLASSES = {
    "euler-2k-json": _integrate("lie-euler", 2000, "json"),
    "euler-5k-json": _integrate("lie-euler", 5000, "json"),
    "euler-10k-json": _integrate("lie-euler", 10000, "json"),
    "euler-20k-json": _integrate("lie-euler", 20000, "json"),
    "euler-2k-text": _integrate("lie-euler", 2000, "text"),
    "euler-10k-text": _integrate("lie-euler", 10000, "text"),
    "euler-2k-csv": _integrate("lie-euler", 2000, "csv"),
    "euler-20k-csv": _integrate("lie-euler", 20000, "csv"),
    "mid-2k-json": _integrate("lie-midpoint", 2000, "json"),
    "mid-5k-json": _integrate("lie-midpoint", 5000, "json"),
    "mid-10k-json": _integrate("lie-midpoint", 10000, "json"),
    "mid-2k-text": _integrate("lie-midpoint", 2000, "text"),
    "mid-2k-csv": _integrate("lie-midpoint", 2000, "csv"),
    "converge-euler": _converge("lie-euler"),
    "converge-mid": _converge("lie-midpoint"),
    "matrix": _matrix,
    "error": _sphere_error,
}

# 20 slots, 1 malformed; the midpoint 10k run alone sits above p90, and a
# band of three requests of nearly equal cost below it holds p90
SPHERE_PATTERN = (
    list(SPHERE_CLASSES)[:13] + ["mid-5k-json", "converge-euler", "converge-mid"]
    + ["matrix"] * 3 + ["error"]
)

# Known defects (robustness item of the roadmap): replayed in the traced run
# and counted, never part of a timed stream, since each one fails today.
# check "error": must exit 1 or 2 with a message; "floats": must print
# plain floats in its trajectory rows.
DEFECT_PROBES = (
    Request("defect", ("integrate", "--method", "lie-euler", "--h", "0.01", "--steps", "3"),
            check="floats"),
    Request("defect", ("graft", "noforest.json", "[]"),
            (("noforest.json", '{"terms": [{"coeff": "1"}]}'),)),
    Request("defect", ("graft", "badtrunc.json", "[]"),
            (("badtrunc.json", '{"trunc": "x", "terms": [{"forest": "[]", "coeff": "1"}]}'),)),
    Request("defect", ("graft", "list.json", "[]"), (("list.json", "[]"),)),
    Request("defect", ("graft", "zerocoeff.json", "[]"),
            (("zerocoeff.json", '{"trunc": 4, "terms": [{"forest": "[]", "coeff": "1/0"}]}'),)),
    Request("defect", ("converge", "--method", "lie-euler", "--hs", "0.1,0.05,0")),
    Request("defect", ("integrate", "--method", "lie-euler", "--h", "nan", "--steps", "10",
                       "--format", "json")),
    Request("defect", ("graft", "[" * 3000 + "]" * 3000, "[]")),
)
DEFECT_PROBES = tuple(
    r if r.check == "floats" else Request(r.cls, r.argv, r.files, "error") for r in DEFECT_PROBES
)

# classes placed at evenly spaced slots of each round, in this order
COLD_SPREAD = ["heavy8"] + ["deg7", "deg7", "deg7-more", "deg7", "deg7", "deg7", "deg7"]
SPHERE_SPREAD = ["mid-10k-json", "euler-20k-csv", "mid-5k-json", "euler-10k-text", "mid-5k-json",
                 "euler-20k-json"]

WORKLOADS = {
    "cli-cold": (COLD_CLASSES, COLD_PATTERN, COLD_SPREAD),
    "sphere-numeric": (SPHERE_CLASSES, SPHERE_PATTERN, SPHERE_SPREAD),
}


# classes walked in order, not drawn at random: instances i and i + len(table)
# use table entry i, so every seed sends the same sequence of costs
ROTATING = {"deg7": DEG7, "deg7-more": DEG7_MORE, "heavy8": HEAVY8,
            "converge-euler": CONVERGE, "converge-mid": CONVERGE, "matrix": MATRIX}


def pools(workload: str) -> dict[str, list[Request]]:
    classes = WORKLOADS[workload][0]
    out = {}
    for cls, make in classes.items():
        rng = random.Random(f"{CATALOGUE_SEED}:{workload}:{cls}")
        size = 2 * len(ROTATING[cls]) if cls in ROTATING else POOL
        out[cls] = [make(rng, i) for i in range(size)]
    return out


def spread(shuffled: list, fixed: list) -> list:
    """Insert `fixed` items at evenly spaced positions among `shuffled`."""
    out = list(shuffled)
    total = len(out) + len(fixed)
    for k, item in enumerate(fixed):
        out.insert(k * total // len(fixed) + total // (2 * len(fixed)), item)
    return out


def stream(workload: str, seed: int):
    """Endless seeded request stream, one fixed-pattern round after another.

    Each round draws one instance per slot and shuffles the slots, except
    the slowest classes, which keep evenly spaced positions so that a run
    cut by time ends on the same mix whatever the seed.  The degree-7 and
    degree-8 slots of cli-cold walk through their tables in order (the seed
    picks only the output format), so every seed pays for the same heavy work.
    """
    pool = pools(workload)
    _, pattern, fixed = WORKLOADS[workload]
    rng = random.Random(seed)
    turns = dict.fromkeys(ROTATING, 0)

    def draw(cls):
        if cls not in ROTATING:
            return rng.choice(pool[cls])
        n = len(ROTATING[cls])
        turns[cls] += 1
        return pool[cls][(turns[cls] - 1) % n + n * rng.randint(0, 1)]

    rest = list(pattern)
    for cls in fixed:
        rest.remove(cls)
    while True:
        rng.shuffle(rest)
        yield from spread([draw(c) for c in rest], [draw(c) for c in fixed])


# ---------------------------------------------------------------------------
# output checks


def strict_json(text: str):
    def reject(name):
        raise ValueError(f"non-strict JSON constant {name}")

    return json.loads(text, parse_constant=reject)


def expected_record(req: Request, rc: int, out: bytes, workdir) -> dict:
    """What --record stores for a request, from one run of the seed program."""
    rec = {"rc": rc}
    if req.check == "digest" or rc != 0:
        rec["sha256"] = hashlib.sha256(out).hexdigest()
    elif req.check == "integrate":
        if _format(req) == "json":
            final = strict_json(out.decode())["final"]
        else:
            final = _integrate_rows(req, out, workdir)[-1][1:4]
        rec["final"] = [repr(v) for v in final]
    return rec


def _integrate_rows(req: Request, out: bytes, workdir):
    """Rows (t, y1, y2, y3, defect) from text stdout or the CSV file."""
    if "--csv" in req.argv:
        text = (workdir / "traj.csv").read_text(encoding="utf-8")
        lines = text.splitlines()
    else:
        lines = out.decode().splitlines()
    if not lines or lines[0] != "t,y1,y2,y3,norm_defect":
        raise ValueError("missing trajectory header")
    return [tuple(_number(v) for v in line.split(",")) for line in lines[1:]]


def _number(text: str) -> float:
    """A float field; numpy 2 scalars print as np.float64(x), a known defect
    counted by DEFECT_PROBES, so the value gate reads through the wrapper."""
    if text.startswith("np.float64(") and text.endswith(")"):
        text = text[len("np.float64("):-1]
    return float(text)


def _format(req: Request) -> str:
    argv = req.argv
    return argv[argv.index("--format") + 1] if "--format" in argv else "text"


def check(req: Request, rc: int, out: bytes, err: bytes, expected: dict, workdir) -> str | None:
    """None when the response is correct, else a one-line reason."""
    if b"Traceback" in err:
        return "traceback on stderr"
    if rc != expected["rc"]:
        return f"exit code {rc}, expected {expected['rc']}"
    if rc != 0:
        if not err.strip():
            return "error exit without a message"
        return "error exit with output on stdout" if out else None
    body = None
    if _format(req) == "json":
        try:
            body = strict_json(out.decode())
        except ValueError as exc:
            return f"invalid JSON on stdout: {exc}"
    if "sha256" in expected:
        if hashlib.sha256(out).hexdigest() != expected["sha256"]:
            return "stdout differs from the recorded digest"
        return None
    try:
        return _numeric_check(req, out, body, expected, workdir)
    except (ValueError, KeyError, TypeError, IndexError, OSError) as exc:
        return f"unreadable output: {exc}"


def _numeric_check(req, out, body, expected, workdir):
    if req.check == "integrate":
        return _check_integrate(req, out, body, expected, workdir)
    if req.check == "converge":
        order = 1.0 if "lie-euler" in req.argv else 2.0
        if body is not None:
            slope = body["slope"]
        else:
            last = out.decode().splitlines()[-1]
            if not last.startswith("slope "):
                return "no slope line"
            slope = float(last.split()[1])
        if slope is None or not abs(slope - order) <= 0.15:
            return f"slope {slope!r} not within 0.15 of {order}"
        return None
    if req.check == "matrix":
        if body is not None:
            residuals = [r["max_residual"] for r in body if r["pass"]]
        else:
            lines = out.decode().splitlines()
            residuals = [
                float(line.rsplit(" ", 1)[1].rstrip(")"))
                for line in lines
                if ": pass (max residual " in line
            ]
        if len(residuals) != 2 or not all(r <= 1e-10 for r in residuals):
            return "matrix identities not within 1e-10"
        return None
    raise ValueError(f"unknown check {req.check}")


def _check_integrate(req, out, body, expected, workdir):
    steps = int(req.argv[req.argv.index("--steps") + 1])
    csv = "--csv" in req.argv
    if body is not None:
        final, defect = body["final"], body["max_norm_defect"]
    if csv or body is None:
        if csv and body is None and out.decode() != f"wrote {steps + 1} rows to traj.csv\n":
            return "unexpected csv summary line"
        rows = _integrate_rows(req, out, workdir)
        if len(rows) != steps + 1:
            return f"{len(rows)} trajectory rows, expected {steps + 1}"
        row_final, row_defect = list(rows[-1][1:4]), max(r[4] for r in rows)
        if body is not None and (row_final != final or row_defect != defect):
            return "json summary disagrees with the csv trajectory"
        final, defect = row_final, row_defect
    want = [float(v) for v in expected["final"]]
    if not max(abs(a - b) for a, b in zip(final, want)) <= 1e-12:
        return "final point further than 1e-12 from the recorded one"
    if not defect <= 1e-12:
        return f"max norm defect {defect!r} above 1e-12"
    return None


def percentile(values, q):
    """Linear-interpolated percentile, q in [0, 100]."""
    s = sorted(values)
    pos = (len(s) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def defect_shows(req: Request, rc: int, out: bytes, err: bytes) -> bool:
    """True while a DEFECT_PROBES request still shows its defect."""
    if b"Traceback" in err:
        return True
    if req.check == "floats":
        rows = out.decode().splitlines()[1:]
        try:
            [float(v) for row in rows for v in row.split(",")]
        except ValueError:
            return True
        return rc != 0 or not rows
    if rc not in (1, 2) or not err.strip():
        return True
    if out:
        try:
            strict_json(out.decode())
        except ValueError:
            return True
    return False
