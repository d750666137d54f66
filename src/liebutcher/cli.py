"""Command-line surface over the symbolic and numeric operations.

Every subcommand has a human text mode and a machine JSON mode; output is
deterministic for fixed inputs and seeds because all series printing uses
the canonical forest order.  Exit codes: 0 success, 1 domain error
(diagnostic on stderr; a MemoryError too), 2 usage error.  Every layer
loads on first use: each subcommand imports only the layers it runs, so
`enumerate` loads `trees` alone, `integrate` and `converge` load `sphere`
alone, and only `axioms --target matrix` imports numpy, with the post-Lie
identities and no symbolic layer.  `json` loads only where it is read or
written: JSON output and series files.

The command (`liebutcher`, `python -m liebutcher.cli`) enters through run(),
which freezes the heap once the response is written: the process ends next,
and the interpreter's shutdown collections would only walk objects that the
operating system reclaims anyway, about a tenth of a cold request's CPU.
atexit handlers, stdio flushing and reference-count finalization still run.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

DEFAULT_DEGREE = 4
# The keys of lbseries.METHOD_CHARACTERS and sphere.STEPPERS, written out so
# that parsing the arguments loads neither layer.
METHODS = ("lie-euler", "lie-midpoint")


def _print(*lines: str) -> None:
    """The lines, each ended by a newline, in one stdout write: with
    PYTHONUNBUFFERED set, stdout writes through, and each print costs two
    write calls."""
    sys.stdout.write("".join(line + "\n" for line in lines))


def _print_json(body) -> None:
    """Strict JSON on stdout: a NaN or infinity raises ValueError (exit 1)."""
    import json
    _print(json.dumps(body, allow_nan=False))


def _emit_series(s, fmt: str) -> None:
    if fmt == "json":
        _print_json(s.to_json())
    elif not s.terms:
        _print("0")
    else:
        _print(*(f"{s.terms[f]}\t{f.text}" for f in s.support()))


def _load_operand(text: str, degree: int | None):
    """Inline bracket-grammar forest, or a path to a series JSON file."""
    from .series import Series
    from .trees import ForestParseError, parse_forest
    try:
        forest = parse_forest(text)
    except ForestParseError as err:
        if os.path.exists(text):
            import json
            with open(text, encoding="utf-8") as fh:
                try:
                    data = json.load(fh)
                except RecursionError:
                    raise ValueError(f"{text}: JSON nested too deeply") from None
            s = Series.from_json(data)
            return s.truncated(degree) if degree is not None else s
        raise ForestParseError(f"{err} and no such file: {text!r}", err.offset) from None
    return Series.of(forest, 1, degree)


def _cmd_product(args) -> int:
    from .postlie import gl_product, triangleright
    from .series import concat, shuffle
    a = _load_operand(args.left, args.degree)
    b = _load_operand(args.right, args.degree)
    op = {"graft": triangleright, "concat": concat, "shuffle": shuffle, "gl": gl_product}[args.kind]
    _emit_series(op(a, b), args.format)
    return 0


def _cmd_exp(args) -> int:
    from . import lbseries
    n = args.degree
    if args.series is None:
        a = lbseries.field_generator(n)
    else:
        a = _load_operand(args.series, n)
    fn = lbseries.exp_concat if args.kind == "concat" else lbseries.exp_gl
    _emit_series(fn(a, n), args.format)
    return 0


def _cmd_magnus(args) -> int:
    from . import lbseries
    n = args.degree
    chi = lbseries.magnus_chi(lbseries.field_generator(n), n)
    _emit_series(chi, args.format)
    return 0


def _cmd_order(args) -> int:
    from . import lbseries
    n = args.degree
    character = lbseries.METHOD_CHARACTERS[args.method](n)
    order, defect = lbseries.agreement(character, lbseries.exact_flow_character(n))
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
        _print(f"order >= {order} (no defect through degree {n})")
    else:
        _print(
            f"order {order}: first defect at degree {defect.degree} on "
            f"{defect.forest.text} ({defect.lhs} vs {defect.rhs})"
        )
    return 0


def _cmd_enumerate(args) -> int:
    from .trees import enumerate_forests, enumerate_trees
    if args.what == "trees":
        items = [t.text for t in enumerate_trees(args.degree)]
    else:
        items = [f.text for f in enumerate_forests(args.degree)]
    if args.format == "json":
        body = {"what": args.what, "degree": args.degree, "count": len(items)}
        if not args.count_only:
            body["items"] = items
        _print_json(body)
    elif args.count_only:
        _print(str(len(items)))
    else:
        _print(*items)
    return 0


def _cmd_axioms(args) -> int:
    if args.target == "free":
        from .postlie import check_postlie_axioms
        from .trees import check_degree
        n = DEFAULT_DEGREE if args.degree is None else args.degree
        check_degree(n)
        report = check_postlie_axioms(n)
        if args.format == "json":
            _print_json(report)
        elif report["pass"]:
            _print(f"pass: both identities hold on {report['triples']} tree triples")
        else:
            _print(f"FAIL after {report['triples']} triples: {report['witness']}")
        return 0 if report["pass"] else 1
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
        _print(*(
            f"{r['check']} [{r['kind']}, n={r['n']}, samples={r['samples']}]: "
            f"{'pass' if r['pass'] else 'FAIL'} (max residual {r['max_residual']:.3e})"
            for r in reports
        ))
    return 0 if all(r["pass"] for r in reports) else 1


def _rigid_body():
    """The sphere problem: (field, y0) of the free rigid body with inertia
    (1, 2, 3), started at (1, 1, 1)/sqrt(3).  The field is
    sphere.rigid_body_field((1, 2, 3)) in plain floats, the same products."""
    i1, i2, i3 = (1.0 / moment for moment in (1.0, 2.0, 3.0))

    def omega(y):
        return (i1 * y[0], i2 * y[1], i3 * y[2])

    return omega, [1.0 / math.sqrt(3.0)] * 3


def _write_rows(out, points, norm_defect, end: str) -> None:
    """The trajectory as CSV rows, each formatted once, in one write.

    A float's repr never needs CSV quoting, so this is what the csv module's
    excel dialect writes when `end` is "\r\n".
    """
    row = "%r,%r,%r,%r,%r" + end
    rows = (row % (t, *y, norm_defect(y)) for t, y in points)
    out.write("t,y1,y2,y3,norm_defect" + end + "".join(rows))


def _cmd_integrate(args) -> int:
    from . import sphere
    field, y0 = _rigid_body()
    points = sphere.trajectory(field, y0, args.h, args.steps, args.method)
    if args.csv:
        with open(args.csv, "w", newline="", encoding="utf-8") as fh:
            _write_rows(fh, points, sphere.norm_defect, "\r\n")
    if args.format == "json":
        _print_json(
            {
                "method": args.method,
                "h": args.h,
                "steps": args.steps,
                "final": points[-1][1],
                "max_norm_defect": max(sphere.norm_defect(y) for _, y in points),
            }
        )
    elif not args.csv:
        _write_rows(sys.stdout, points, sphere.norm_defect, "\n")
    else:
        _print(f"wrote {len(points)} rows to {args.csv}")
    return 0


def _cmd_converge(args) -> int:
    from . import sphere
    field, y0 = _rigid_body()
    hs = [float(part) for part in args.hs.split(",") if part.strip()]
    report = sphere.convergence_study(field, y0, args.T, args.method, hs, args.refine)
    if args.format == "json":
        _print_json(report)
    else:
        lines = [f"h={h:g}  error={e:.6e}" for h, e in zip(report["h"], report["errors"])]
        if report["slope"] is None:
            lines.append("slope: exact (zero error against reference)")
        else:
            lines.append(f"slope {report['slope']:.4f}")
        _print(*lines)
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
    p.add_argument("--degree", type=int, default=None)  # free: DEFAULT_DEGREE; matrix: unused
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
        if getattr(args, "degree", None) is not None:
            from .trees import check_degree
            check_degree(args.degree)
        return args.fn(args)
    except (ValueError, OSError) as err:  # every liebutcher error is a ValueError
        print(f"error: {err}", file=sys.stderr)
        return 1
    except MemoryError as err:  # numpy's message names the allocation that failed
        print(f"error: {str(err) or 'out of memory'}", file=sys.stderr)
        return 1


def run(argv=None) -> int:
    """main(argv) as the process entry, then gc.freeze(), on a usage error's
    SystemExit too; in-process callers use main(), which leaves gc alone."""
    try:
        return main(argv)
    finally:
        import gc
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
