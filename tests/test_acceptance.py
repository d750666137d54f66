"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; every tolerance and degree bound is fixed here, not configurable.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np

from helpers import S, T, brute_force_forests, brute_force_trees, random_lie_series
from liebutcher import matrixpostlie
from liebutcher.lbseries import (
    exact_flow_character,
    exp_concat,
    exp_gl,
    field_generator,
    first_defect,
    is_character,
    is_inf_character,
    lie_euler_character,
    lie_midpoint_character,
    magnus_chi,
    order_of_agreement,
)
from liebutcher.matrixpostlie import (
    check_matrix_postlie_axioms,
    check_projection_identity,
    commutator,
    eval_F,
    mat_triangleright,
)
from liebutcher.postlie import (
    bracket,
    check_postlie_axioms,
    dbracket,
    gl_product,
    graft,
    triangleright,
)
from liebutcher.series import Series, concat
from liebutcher.sphere import (
    convergence_study,
    norm_defect,
    rigid_body_field,
    trajectory,
)
from liebutcher.trees import enumerate_forests, enumerate_trees, render_forest

UNIT = Series.unit()


def _report(num: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {num:2d}: {verdict} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def trees_up_to(n):
    return [t for d in range(1, n + 1) for t in enumerate_trees(d)]


def forests_up_to(n):
    return [f for d in range(0, n + 1) for f in enumerate_forests(d)]


def test_criterion_01_grafting_reproduction():
    t1, t2 = T("[[]]"), T("[[][]]")
    start = time.perf_counter()
    got = graft(t1, t2)
    elapsed = time.perf_counter() - start
    expected = {
        "[[[]] [] []]": Fraction(1),
        "[[[[]]] []]": Fraction(1),
        "[[] [[[]]]]": Fraction(1),
    }
    rendered = {render_forest(f): c for f, c in got.terms.items()}
    _report(
        1,
        rendered == expected and elapsed < 1e-3,
        f"graft display reproduced in {elapsed * 1e6:.0f} us",
    )


def test_criterion_02_postlie_axioms_and_jacobi():
    start = time.perf_counter()
    report = check_postlie_axioms(5)
    jacobi_ok = True
    triples = 0
    trees = trees_up_to(3)
    for x in trees:
        for y in trees:
            for z in trees:
                if x.degree + y.degree + z.degree > 5:
                    continue
                sx, sy, sz = Series.of(x), Series.of(y), Series.of(z)
                total = (
                    dbracket(sx, dbracket(sy, sz))
                    + dbracket(sy, dbracket(sz, sx))
                    + dbracket(sz, dbracket(sx, sy))
                )
                jacobi_ok = jacobi_ok and total == Series.zero()
                triples += 1
    elapsed = time.perf_counter() - start
    _report(
        2,
        report["pass"] and jacobi_ok and elapsed < 30.0,
        f"axioms on {report['triples']} triples, Jacobi on {triples}, {elapsed:.2f}s",
    )


def test_criterion_03_gl_product():
    start = time.perf_counter()
    forests = forests_up_to(5)
    ok = True
    count = 0
    for a in forests:
        sa = Series.of(a)
        ok = ok and gl_product(UNIT, sa) == sa and gl_product(sa, UNIT) == sa
        for b in forests:
            if a.degree + b.degree > 5:
                continue
            sab = gl_product(sa, Series.of(b))
            for c in forests:
                if a.degree + b.degree + c.degree > 5:
                    continue
                sc = Series.of(c)
                if gl_product(sab, sc) != gl_product(sa, gl_product(Series.of(b), sc)):
                    ok = False
                count += 1
    pair_formula = True
    for a in trees_up_to(4):
        for b in trees_up_to(4):
            sa, sb = Series.of(a), Series.of(b)
            if gl_product(sa, sb) != concat(sa, sb) + graft(a, b):
                pair_formula = False
    elapsed = time.perf_counter() - start
    _report(
        3,
        ok and pair_formula and elapsed < 60.0,
        f"associativity on {count} forest triples, unit, tree-pair formula, {elapsed:.2f}s",
    )


def test_criterion_04_action_identity():
    ok = True
    count = 0
    for a in forests_up_to(4):
        sa = Series.of(a)
        for b in forests_up_to(4 - a.degree):
            sb = Series.of(b)
            sab = gl_product(sa, sb)
            for z in trees_up_to(5 - a.degree - b.degree):
                sz = Series.of(z)
                if triangleright(sab, sz) != triangleright(sa, triangleright(sb, sz)):
                    ok = False
                count += 1
    _report(4, ok, f"(x*y)|>z = x|>(y|>z) on {count} forest-pair/tree cases")


def test_criterion_05_magnus_regression():
    chi = magnus_chi(field_generator(5), 5).series
    checks = [
        chi.coeff("[]") == 1,
        chi.coeff("[[]]") == Fraction(-1, 2),
        chi.component(3)
        == (
            S("[[]] []", Fraction(1, 12))
            - S("[] [[]]", Fraction(1, 12))
            + S("[[[]]]", Fraction(1, 3))
            + S("[[] []]", Fraction(1, 12))
        ).truncated(5),
        chi.coeff("[[[]] []]") == Fraction(-1, 12),
        exp_gl(magnus_chi(field_generator(5), 5), 5).series
        == exp_concat(field_generator(5), 5).series,
    ]
    _report(5, all(checks), f"chi coefficients and defining relation, {sum(checks)}/5 checks")


def test_criterion_06_character_closure():
    ok = True
    gen = field_generator(5)
    ok = ok and is_character(exp_concat(gen, 5).series)
    ok = ok and is_character(exp_gl(gen, 5).series)
    rng = random.Random(101)
    for _ in range(10):
        a = random_lie_series(rng, 5)
        ok = ok and is_character(exp_concat(a, 5, validate=False).series)
        ok = ok and is_character(exp_gl(a, 5, validate=False).series)
    ok = ok and is_inf_character(magnus_chi(gen, 5).series)
    _report(6, ok, "exp closure on h[] plus 10 random Lie fields; chi infinitesimal")


def test_criterion_07_symbolic_orders():
    exact = exact_flow_character(5)
    euler_order = order_of_agreement(lie_euler_character(5), exact)
    mid = lie_midpoint_character(5)
    mid_order = order_of_agreement(mid, exact)
    defect = first_defect(mid, exact)
    ok = (
        euler_order == 1
        and mid_order == 2
        and defect is not None
        and defect.degree == 3
        and defect.lhs != defect.rhs
    )
    _report(
        7,
        ok,
        f"orders euler={euler_order} midpoint={mid_order}, defect at degree "
        f"{defect.degree} on {render_forest(defect.forest)} ({defect.lhs} vs {defect.rhs})",
    )


def test_criterion_08_matrix_realization(monkeypatch):
    start = time.perf_counter()
    ok = True
    for kind in ("lu", "qr"):
        for n in range(2, 7):
            ok = ok and check_projection_identity(kind, n, samples=100, tol=1e-10)["pass"]
            ok = ok and check_matrix_postlie_axioms(kind, n, samples=100, tol=1e-10)["pass"]
    # negative controls: a corrupted pi_minus, then a wrong-sign product
    monkeypatch.setattr(matrixpostlie, "_pi_minus", lambda kind, n: lambda m: 0.9 * np.tril(m, -1))
    neg_proj = check_projection_identity("lu", 4, samples=20)
    monkeypatch.undo()
    act = matrixpostlie._act
    monkeypatch.setattr(matrixpostlie, "_act", lambda minus, a, b: -act(minus, a, b))
    neg_prod = check_matrix_postlie_axioms("lu", 4, samples=20)
    monkeypatch.undo()
    ok = ok and not neg_proj["pass"] and not neg_prod["pass"]
    elapsed = time.perf_counter() - start
    _report(
        8,
        ok and elapsed < 5.0,
        f"LU/QR identities for n=2..6 at 1e-10, negative controls fail, {elapsed:.2f}s",
    )


def test_criterion_09_morphism_oracle():
    rng = np.random.default_rng(424242)
    m0 = rng.uniform(-1.0, 1.0, (4, 4))
    kind = "lu"
    worst = 0.0
    count = 0
    for da in range(1, 4):
        for db in range(1, 5 - da):
            for a in enumerate_trees(da):
                for b in enumerate_trees(db):
                    sa, sb = Series.of(a), Series.of(b)
                    fa = eval_F(kind, m0, sa)
                    fb = eval_F(kind, m0, sb)
                    lhs = eval_F(kind, m0, triangleright(sa, sb))
                    rhs = mat_triangleright(kind, fa, fb)
                    scale = 1.0 + float(np.abs(rhs).max())
                    worst = max(worst, float(np.abs(lhs - rhs).max()) / scale)
                    lhs2 = eval_F(kind, m0, bracket(sa, sb))
                    rhs2 = commutator(fa, fb)
                    scale2 = 1.0 + float(np.abs(rhs2).max())
                    worst = max(worst, float(np.abs(lhs2 - rhs2).max()) / scale2)
                    count += 1
    _report(
        9,
        worst <= 1e-9,
        f"morphism residual {worst:.2e} over {count} tree pairs (rel 1e-9)",
    )


def test_criterion_10_numeric_orders():
    start = time.perf_counter()
    field = rigid_body_field((1.0, 2.0, 3.0))
    y0 = np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0)
    hs = [1 / 50, 1 / 100, 1 / 200, 1 / 400]
    euler = convergence_study(field, y0, 1.0, "lie-euler", hs, 64)
    mid = convergence_study(field, y0, 1.0, "lie-midpoint", hs, 64)
    worst_defect = 0.0
    for method in ("lie-euler", "lie-midpoint"):
        for h in hs:
            for _, y in trajectory(field, y0, h, round(1.0 / h), method):
                worst_defect = max(worst_defect, norm_defect(y))
    elapsed = time.perf_counter() - start
    ok = (
        abs(euler["slope"] - 1.0) <= 0.15
        and abs(mid["slope"] - 2.0) <= 0.15
        and worst_defect <= 1e-12
        and elapsed < 10.0
    )
    _report(
        10,
        ok,
        f"slopes euler={euler['slope']:.3f} midpoint={mid['slope']:.3f}, "
        f"max defect {worst_defect:.1e}, {elapsed:.2f}s",
    )


def test_criterion_11_enumeration():
    tree_counts = [len(enumerate_trees(n)) for n in range(1, 7)]
    forest_counts = [len(enumerate_forests(n)) for n in range(0, 5)]
    oracle_trees = [len(brute_force_trees(n)) for n in range(1, 7)]
    oracle_forests = [len(brute_force_forests(n)) for n in range(0, 5)]
    sets_match = all(
        set(enumerate_trees(n)) == brute_force_trees(n) for n in range(1, 7)
    )
    ok = (
        tree_counts == [1, 1, 2, 5, 14, 42] == oracle_trees
        and forest_counts == [1, 1, 2, 5, 14] == oracle_forests
        and sets_match
    )
    _report(11, ok, f"tree counts {tree_counts}, forest counts {forest_counts}")
