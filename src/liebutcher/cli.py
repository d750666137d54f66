"""Command-line surface over the symbolic and numeric operations.

Every subcommand has a human text mode and a machine JSON mode; output is
deterministic for fixed inputs and seeds because all series printing uses
the canonical forest order.  Exit codes: 0 success, 1 domain error
(diagnostic on stderr), 2 usage error.  The numeric layers, and with them
numpy, are imported only by the subcommands that run them.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

from . import lbseries, postlie
from .series import Series, concat, shuffle
from .trees import (
    DEFAULT_DEGREE_CAP,
    DegreeCapError,
    ForestParseError,
    enumerate_forests,
    enumerate_trees,
    parse_forest,
)

CAP_ENV_VAR = "LIEBUTCHER_DEGREE_CAP"
DEFAULT_DEGREE = 4
METHODS = ("lie-euler", "lie-midpoint")  # the keys of sphere.STEPPERS


def _degree_cap() -> int:
    raw = os.environ.get(CAP_ENV_VAR)
    if raw is None:
        return DEFAULT_DEGREE_CAP
    try:
        return int(raw)
    except ValueError:
        raise DegreeCapError(f"{CAP_ENV_VAR} must be an integer, got {raw!r}") from None


def _check_degree(n: int) -> int:
    if n < 0:
        raise ValueError(f"degree must be >= 0, got {n}")
    cap = _degree_cap()
    if n > cap:
        raise DegreeCapError(
            f"degree {n} exceeds the cap {cap}; set {CAP_ENV_VAR} to raise it"
        )
    return n


def _print_json(body) -> None:
    """Strict JSON on stdout: a NaN or infinity raises ValueError (exit 1)."""
    print(json.dumps(body, allow_nan=False))


def _emit_series(s: Series, fmt: str) -> None:
    if fmt == "json":
        _print_json(s.to_json())
        return
    if not s.terms:
        print("0")
        return
    for f in s.support():
        print(f"{s.terms[f]}\t{f.text}")


def _load_operand(text: str, degree: int | None) -> Series:
    """Inline bracket-grammar forest, or a path to a series JSON file."""
    try:
        forest = parse_forest(text)
    except ForestParseError as err:
        if os.path.exists(text):
            with open(text, encoding="utf-8") as fh:
                s = Series.from_json(json.load(fh))
            return s.truncated(degree) if degree is not None else s
        raise ForestParseError(f"{err} and no such file: {text!r}", err.offset) from None
    return Series.of(forest, 1, degree)


def _cmd_product(args) -> int:
    if args.degree is not None:
        _check_degree(args.degree)
    a = _load_operand(args.left, args.degree)
    b = _load_operand(args.right, args.degree)
    op = {
        "graft": postlie.triangleright,
        "concat": concat,
        "shuffle": shuffle,
        "gl": postlie.gl_product,
    }[args.kind]
    _emit_series(op(a, b), args.format)
    return 0


def _cmd_exp(args) -> int:
    n = _check_degree(args.degree)
    if args.series is None:
        a = lbseries.field_generator(n)
    else:
        a = _load_operand(args.series, n)
    fn = lbseries.exp_concat if args.kind == "concat" else lbseries.exp_gl
    _emit_series(fn(a, n).series, args.format)
    return 0


def _cmd_magnus(args) -> int:
    n = _check_degree(args.degree)
    chi = lbseries.magnus_chi(lbseries.field_generator(n), n)
    _emit_series(chi.series, args.format)
    return 0


def _cmd_order(args) -> int:
    n = _check_degree(args.degree)
    character = {
        "lie-euler": lbseries.lie_euler_character,
        "lie-midpoint": lbseries.lie_midpoint_character,
    }[args.method](n)
    exact = lbseries.exact_flow_character(n)
    defect = lbseries.first_defect(character, exact)
    order = n if defect is None else defect.degree - 1
    report = {
        "method": args.method,
        "order": order,
        "first_defect": None
        if defect is None
        else {
            "forest": defect.forest.text,
            "lhs": str(defect.lhs),
            "rhs": str(defect.rhs),
        },
    }
    if args.format == "json":
        _print_json(report)
    elif defect is None:
        print(f"order >= {order} (no defect through degree {n})")
    else:
        print(
            f"order {order}: first defect at degree {defect.degree} on "
            f"{defect.forest.text} ({defect.lhs} vs {defect.rhs})"
        )
    return 0


def _cmd_enumerate(args) -> int:
    _check_degree(args.degree)
    cap = _degree_cap()
    if args.what == "trees":
        items = [t.text for t in enumerate_trees(args.degree, cap)]
    else:
        items = [f.text for f in enumerate_forests(args.degree, cap)]
    if args.format == "json":
        body = {"what": args.what, "degree": args.degree, "count": len(items)}
        if not args.count_only:
            body["items"] = items
        _print_json(body)
    elif args.count_only:
        print(len(items))
    else:
        for line in items:
            print(line)
    return 0


def _cmd_axioms(args) -> int:
    if args.target == "free":
        n = _check_degree(args.degree)
        report = postlie.check_postlie_axioms(n)
        body = {
            "check": "postlie-axioms-free",
            "degree": n,
            "triples": report.triples,
            "pass": report.passed,
            "witness": report.witness,
        }
        if args.format == "json":
            _print_json(body)
        elif report.passed:
            print(f"pass: both identities hold on {report.triples} tree triples")
        else:
            print(f"FAIL after {report.triples} triples: {report.witness}")
        return 0 if report.passed else 1
    kind = args.kind
    if kind is None:
        print("error: --kind lu|qr is required with --target matrix", file=sys.stderr)
        return 2
    from . import matrixpostlie
    checks = (matrixpostlie.check_projection_identity, matrixpostlie.check_matrix_postlie_axioms)
    reports = [check(kind, args.n, args.samples, args.tol, args.seed) for check in checks]
    if args.format == "json":
        _print_json(reports)
    else:
        for r in reports:
            verdict = "pass" if r["pass"] else "FAIL"
            print(
                f"{r['check']} [{r['kind']}, n={r['n']}, samples={r['samples']}]: "
                f"{verdict} (max residual {r['max_residual']:.3e})"
            )
    return 0 if all(r["pass"] for r in reports) else 1


def _rigid_body():
    """The sphere problem: (field, y0) of the free rigid body with inertia
    (1, 2, 3), started at (1, 1, 1)/sqrt(3)."""
    from . import sphere
    return sphere.rigid_body_field((1.0, 2.0, 3.0)), [1.0 / math.sqrt(3.0)] * 3


def _cmd_integrate(args) -> int:
    from . import sphere
    field, y0 = _rigid_body()
    points = sphere.trajectory(field, y0, args.h, args.steps, args.method)
    rows = ([repr(v) for v in (t, *y.tolist(), sphere.norm_defect(y))] for t, y in points)
    if args.csv:
        with open(args.csv, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "y1", "y2", "y3", "norm_defect"])
            writer.writerows(rows)
    if args.format == "json":
        _print_json(
            {
                "method": args.method,
                "h": args.h,
                "steps": args.steps,
                "final": points[-1][1].tolist(),
                "max_norm_defect": max(sphere.norm_defect(y) for _, y in points),
            }
        )
    elif not args.csv:
        print("t,y1,y2,y3,norm_defect")
        for row in rows:
            print(",".join(row))
    else:
        print(f"wrote {len(points)} rows to {args.csv}")
    return 0


def _cmd_converge(args) -> int:
    from . import sphere
    field, y0 = _rigid_body()
    hs = [float(part) for part in args.hs.split(",") if part.strip()]
    report = sphere.convergence_study(field, y0, args.T, args.method, hs, args.refine)
    if args.format == "json":
        _print_json(report)
    else:
        for h, e in zip(report["h"], report["errors"]):
            print(f"h={h:g}  error={e:.6e}")
        if report["slope"] is None:
            print("slope: exact (zero error against reference)")
        else:
            print(f"slope {report['slope']:.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liebutcher",
        description="Planar-forest series calculus and sphere integrators",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("graft", help="grafting action of one forest on another")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--degree", type=int, default=None)
    add_format(p)
    p.set_defaults(fn=_cmd_product, kind="graft")

    p = sub.add_parser("product", help="concat, shuffle or Grossman-Larson product")
    p.add_argument("--kind", choices=("concat", "shuffle", "gl"), required=True)
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--degree", type=int, default=None)
    add_format(p)
    p.set_defaults(fn=_cmd_product)

    p = sub.add_parser("exp", help="exponential of a field series (default h*[])")
    p.add_argument("--kind", choices=("concat", "gl"), required=True)
    p.add_argument("--degree", type=int, default=DEFAULT_DEGREE)
    p.add_argument("series", nargs="?", default=None)
    add_format(p)
    p.set_defaults(fn=_cmd_exp)

    p = sub.add_parser("magnus", help="the map chi with exp_concat = exp_gl o chi")
    p.add_argument("--degree", type=int, default=DEFAULT_DEGREE)
    add_format(p)
    p.set_defaults(fn=_cmd_magnus)

    p = sub.add_parser("order", help="order of agreement with the exact flow")
    p.add_argument("--method", choices=METHODS, required=True)
    p.add_argument("--degree", type=int, default=DEFAULT_DEGREE)
    add_format(p)
    p.set_defaults(fn=_cmd_order)

    p = sub.add_parser("enumerate", help="list trees or forests of a degree")
    p.add_argument("--what", choices=("trees", "forests"), required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--count-only", action="store_true")
    add_format(p)
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("axioms", help="verify defining identities, free or matrix")
    p.add_argument("--target", choices=("free", "matrix"), required=True)
    p.add_argument("--degree", type=int, default=DEFAULT_DEGREE)
    p.add_argument("--kind", choices=("lu", "qr"), default=None)
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--seed", type=int, default=1914)  # matrixpostlie.DEFAULT_SEED
    add_format(p)
    p.set_defaults(fn=_cmd_axioms)

    p = sub.add_parser("integrate", help="run an integrator on the rigid body")
    p.add_argument("--method", choices=METHODS, required=True)
    p.add_argument("--h", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--csv", default=None)
    add_format(p)
    p.set_defaults(fn=_cmd_integrate)

    p = sub.add_parser("converge", help="measured convergence order on the rigid body")
    p.add_argument("--method", choices=METHODS, required=True)
    p.add_argument("--hs", required=True, help="comma-separated decreasing steps")
    p.add_argument("--T", type=float, default=1.0)
    p.add_argument("--refine", type=int, default=64)
    add_format(p)
    p.set_defaults(fn=_cmd_converge)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as err:  # every liebutcher error is a ValueError
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
