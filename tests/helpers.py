"""Shared test utilities: short builders, independent oracles, generators."""

from __future__ import annotations

import csv
import itertools
import random
from fractions import Fraction
from functools import partial

import numpy as np

from liebutcher.lbseries import Defect, FieldSeries, field_generator, is_inf_character
from liebutcher.matrixpostlie import commutator, mat_triangleright, project_minus
from liebutcher.postlie import (
    GraftExtension,
    bracket,
    dbracket,
    graft_attachments,
    postlie_identities,
)
from liebutcher.series import Series, concat, deshuffle, min_trunc, shuffle
from liebutcher.sphere import ConvergenceError, norm_defect, rot_exp
from liebutcher.trees import (
    EMPTY_FOREST,
    LEAF,
    Forest,
    Tree,
    enumerate_forests,
    enumerate_trees,
    parse_forest,
    render_forest,
)


def F(text: str) -> Forest:
    return parse_forest(text)


def T(text: str) -> Tree:
    forest = parse_forest(text)
    assert len(forest.trees) == 1, f"{text!r} is not a single tree"
    return forest.trees[0]


def S(text: str, coeff=1, trunc=None) -> Series:
    return Series.of(text, coeff, trunc)


def brute_force_trees(n: int) -> set[Tree]:
    """Independent enumeration oracle: filter all balanced bracket strings.

    A tree of degree n is a balanced string of n '[' and n ']' that starts
    with '[' and first returns to depth zero only at the end.
    """
    found = set()
    for bits in itertools.product("[]", repeat=2 * n):
        depth = 0
        ok = True
        for i, ch in enumerate(bits):
            depth += 1 if ch == "[" else -1
            if depth < 0 or (depth == 0 and i != 2 * n - 1):
                ok = False
                break
        if ok and depth == 0:
            found.add(T("".join(bits)))
    return found


def brute_force_forests(n: int) -> set[Forest]:
    """All ordered forests of total degree n, by composing oracle trees."""
    if n == 0:
        return {Forest()}
    out = set()
    for k in range(1, n + 1):
        for t in brute_force_trees(k):
            for rest in brute_force_forests(n - k):
                out.add(Forest((t,) + rest.trees))
    return out


def shuffle_oracle(u: Forest, v: Forest) -> dict[Forest, int]:
    """Shuffle by explicit position choice, independent of the recursion."""
    k, l = len(u.trees), len(v.trees)
    out: dict[Forest, int] = {}
    for positions in itertools.combinations(range(k + l), k):
        chosen = set(positions)
        it_u = iter(u.trees)
        it_v = iter(v.trees)
        word = tuple(next(it_u) if i in chosen else next(it_v) for i in range(k + l))
        f = Forest(word)
        out[f] = out.get(f, 0) + 1
    return out


def subset_deshuffle_forest(f: Forest) -> tuple[tuple[tuple[Forest, Forest], int], ...]:
    """Coproduct oracle: every subset of letter positions goes left, the rest
    right, in order; 2^k subsets for k letters."""
    k = len(f.trees)
    acc: dict[tuple[Forest, Forest], int] = {}
    for r in range(k + 1):
        for idx in itertools.combinations(range(k), r):
            chosen = set(idx)
            left = Forest(tuple(f.trees[i] for i in idx))
            right = Forest(tuple(f.trees[i] for i in range(k) if i not in chosen))
            key = (left, right)
            acc[key] = acc.get(key, 0) + 1
    return tuple(acc.items())


def letter_deshuffle_forest(f: Forest) -> tuple[tuple[tuple[Forest, Forest], int], ...]:
    """Coproduct oracle in split order: from the empty split, each tree in
    turn joins the left or the right block of every split of the trees
    before it, equal splits merged, with no memo."""
    splits = {(EMPTY_FOREST, EMPTY_FOREST): 1}
    for t in f.trees:
        grown: dict[tuple[Forest, Forest], int] = {}
        for (left, right), m in splits.items():
            for key in ((Forest(left.trees + (t,)), right), (left, Forest(right.trees + (t,)))):
                grown[key] = grown.get(key, 0) + m
        splits = grown
    return tuple(splits.items())


def random_lie_monomial(rng: random.Random, degree: int) -> Series:
    """A tree or a nested concatenation-commutator of exact total degree."""
    if degree <= 1 or rng.random() < 0.4:
        return Series.of(rng.choice(enumerate_trees(degree)))
    split = rng.randint(1, degree - 1)
    out = bracket(
        random_lie_monomial(rng, split), random_lie_monomial(rng, degree - split)
    )
    if not out:  # bracket of equal factors vanishes; fall back to a tree
        return Series.of(rng.choice(enumerate_trees(degree)))
    return out


def random_lie_series(rng: random.Random, trunc: int) -> Series:
    """A random combination of Lie monomials, at least the degree-1 term."""
    acc = Series.of("[]", Fraction(rng.randint(1, 3)), trunc)
    for d in range(2, trunc + 1):
        num = rng.randint(-4, 4)
        if num:
            acc = acc + random_lie_monomial(rng, d) * Fraction(num, rng.randint(1, 4))
    return acc.truncated(trunc)


def _bound(a: Series) -> int:
    return a.trunc if a.trunc is not None else a.max_degree()


def _eval_on(a: Series, s: Series) -> Fraction:
    return sum((c * a.coeff(f) for f, c in s.terms.items()), Fraction(0))


def brute_force_is_inf_character(a: Series) -> bool:
    """Predicate oracle: evaluate a on every shuffle of non-empty forests.

    Checked for all pairs with total degree up to the truncation (or the
    support degree when the series is exact).
    """
    if a.coeff(EMPTY_FOREST) != 0:
        return False
    n = _bound(a)
    for p in range(1, n):
        for u in enumerate_forests(p):
            su = Series.of(u)
            for q in range(1, n - p + 1):
                for v in enumerate_forests(q):
                    if _eval_on(a, shuffle(su, Series.of(v))) != 0:
                        return False
    return True


def brute_force_is_character(a: Series) -> bool:
    """Predicate oracle: multiplicativity on the shuffle of every forest pair."""
    n = _bound(a)
    for p in range(0, n + 1):
        for u in enumerate_forests(p):
            au = a.coeff(u)
            su = Series.of(u)
            for q in range(0, n - p + 1):
                for v in enumerate_forests(q):
                    if _eval_on(a, shuffle(su, Series.of(v))) != au * a.coeff(v):
                        return False
    return True


_CHAR_RANK = {"[": 0, "]": 1, " ": 2}


def char_rank_sort_key(f: Forest) -> tuple[int, tuple[int, ...]]:
    """Sort-key oracle: degree, then a rank tuple walked over the rendered text."""
    if not f.trees:
        return (0, ())
    return (f.degree, tuple(_CHAR_RANK[c] for c in render_forest(f)))


def enumeration_first_defect(a: Series, b: Series) -> Defect | None:
    """First-defect oracle: compare every forest up to the truncation, in order."""
    for d in range(0, a.trunc + 1):
        for f in sorted(enumerate_forests(d), key=char_rank_sort_key):
            ca, cb = a.coeff(f), b.coeff(f)
            if ca != cb:
                return Defect(d, f, ca, cb)
    return None


def fraction_bilinear(a: Series, b: Series, basis) -> Series:
    """Product-kernel oracle: every term pair, truncation tested per pair,
    all sums in Fraction."""
    trunc = min_trunc(a.trunc, b.trunc)
    out: dict[Forest, Fraction] = {}
    for fa, ca in a.terms.items():
        for fb, cb in b.terms.items():
            if trunc is not None and fa.degree + fb.degree > trunc:
                continue
            scale = ca * cb
            for f, c in basis(fa, fb):
                out[f] = out.get(f, Fraction(0)) + scale * c
    return Series(out, trunc)


def per_product_power_series(x: Series, n: int, product, weight) -> Series:
    """Power-series oracle: sum over k = 1..n of weight(k) * x^k, each power
    taken by the public product, which grades both operands every time, and
    summed in Fraction with a cancelled term dropped at once, as a series sum
    drops it, so the term order is that of a sum per power."""
    out: dict[Forest, Fraction] = {}
    power = Series.unit(n)
    for k in range(1, n + 1):
        power = product(power, x)
        if not power:
            break
        for f, c in power.terms.items():
            total = out.get(f, Fraction(0)) + c * weight(k)
            if total:
                out[f] = total
            else:
                del out[f]
    return Series(out, n)


def fraction_is_inf_character(a: Series) -> bool:
    """Predicate oracle on the Fraction coproduct: every split of nonzero
    weight has exactly one empty side."""
    return all(bool(u.trees) != bool(v.trees) for u, v in deshuffle(a))


def fraction_is_character(a: Series) -> bool:
    """Predicate oracle on the Fraction coproduct: deshuffle(a) equals the
    square a (x) a up to the truncation (or the support degree when exact)."""
    n = _bound(a)
    square = {
        (u, v): cu * cv
        for u, cu in a.terms.items()
        for v, cv in a.terms.items()
        if u.degree + v.degree <= n
    }
    return deshuffle(a) == square


def ree_is_character(a: Series) -> bool:
    """Predicate oracle by Ree's theorem: a series with constant term 1 is
    a character iff its concatenation logarithm is a field.  The degree-m
    part of the logarithm reads a only through degree m, so the lower half
    of the degrees is checked first, and a defect there never pays for
    the full logarithm."""
    if a.coeff(EMPTY_FOREST) != 1:
        return not a.terms  # only the zero series
    n = _bound(a)
    if n >= 2 and not ree_is_character(a.truncated(n // 2)):
        return False
    x = (a - Series.unit(a.trunc)).truncated(n)
    log, power = Series.zero(n), Series.unit(n)
    for k in range(1, n + 1):
        power = concat(power, x)
        if not power:
            break
        log = log + power * Fraction((-1) ** (k + 1), k)
    return is_inf_character(log)


def iterated_lie_midpoint_field(n: int) -> Series:
    """Midpoint-stage oracle: n rounds of K = exp_concat(K/2) |> h[], each
    at the full truncation n, with products taken by fraction_bilinear."""

    def concat_basis(u, v):
        return ((Forest(u.trees + v.trees), 1),)

    graft = GraftExtension().basis
    hgen = field_generator(n)
    k = Series.zero(n)
    for _ in range(n):
        half = k * Fraction(1, 2)
        flow = power = Series.unit(n)
        for j in range(1, n + 1):
            power = fraction_bilinear(power, half, concat_basis) * Fraction(1, j)
            flow = flow + power
        k = fraction_bilinear(flow, hgen, graft)
    return k


def matrix_step_lie_euler(field, y0, h):
    """Lie-Euler oracle with the rotation formed as a matrix:
    y1 = rot_exp(h omega(y0)) @ y0, all in numpy."""
    y0 = np.asarray(y0, dtype=float)
    return rot_exp(h * np.asarray(field(y0), dtype=float)) @ y0


def matrix_step_lie_midpoint(field, y0, h, tol=1e-13, maxit=50):
    """Lie-midpoint oracle with matrix rotations: K = h omega(rot_exp(K/2) @ y0)
    by fixed-point iteration from K = h omega(y0), then y1 = rot_exp(K) @ y0."""
    y0 = np.asarray(y0, dtype=float)
    k = h * np.asarray(field(y0), dtype=float)
    residual = float("inf")
    for _ in range(maxit):
        knext = h * np.asarray(field(rot_exp(0.5 * k) @ y0), dtype=float)
        residual = float(np.linalg.norm(knext - k))
        k = knext
        if residual <= tol:
            return rot_exp(k) @ y0
    raise ConvergenceError(f"matrix midpoint stage did not reach {tol:g}", residual)


MATRIX_STEPPERS = {"lie-euler": matrix_step_lie_euler, "lie-midpoint": matrix_step_lie_midpoint}


def matrix_integrate(field, y0, h, steps, method):
    """The last of `steps` oracle steps of `method` from y0, as an array."""
    step = MATRIX_STEPPERS[method]
    y = np.asarray(y0, dtype=float)
    for _ in range(steps):
        y = step(field, y, h)
    return y


def per_sample_matrix_check(check: str, kind: str, n: int, samples: int = 100,
                            tol: float = 1e-10, seed: int = 1914, hook=None) -> dict:
    """Oracle for the matrix identity checks: their report built one sample
    at a time, each n x n matrix drawn on its own and put through the public
    per-matrix functions.  `check` is "projection-identity" (hook: the
    projector) or "postlie-axioms" (hook: the product)."""

    def projection_residuals(m, w):
        minus = hook or partial(project_minus, kind)
        for proj in (minus, lambda x: x - minus(x)):
            lhs = commutator(proj(m), proj(w)) + proj(commutator(m, w))
            rhs = proj(commutator(proj(m), w) + commutator(m, proj(w)))
            yield lhs - rhs

    def postlie_residuals(x, y, z):
        tr = hook or partial(mat_triangleright, kind)
        for _, lhs, rhs in postlie_identities(x, y, z, tr, commutator):
            yield lhs - rhs
        db = partial(dbracket, tr=tr, br=commutator)
        yield db(x, db(y, z)) + db(y, db(z, x)) + db(z, db(x, y))

    residuals, draws = {
        "projection-identity": (projection_residuals, 2),
        "postlie-axioms": (postlie_residuals, 3),
    }[check]
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        mats = [rng.uniform(-1.0, 1.0, size=(n, n)) for _ in range(draws)]
        scale = 1.0 + max(np.abs(m).max() for m in mats)
        for r in residuals(*mats):
            worst = max(worst, float(np.abs(r).max() / scale))
    return {
        "check": check,
        "kind": kind.upper(),
        "n": n,
        "samples": samples,
        "max_residual": worst,
        "pass": worst <= tol,
        "seed": seed,
    }


def recursive_eval_F(kind: str, m0, a) -> np.ndarray:
    """eval_F oracle: one tree at a time, by the grafting relation
    F(t) = F(head) |> F(rest) - F(other attachments) recursed through a
    memo, each word folded by left-nested commutators and the terms summed
    one by one in term order.  The input is checked as a field series."""
    series = a.series if isinstance(a, FieldSeries) else FieldSeries(a).series
    m0 = np.asarray(m0, dtype=float)
    memo = {LEAF: m0}

    def value(t: Tree) -> np.ndarray:
        if t not in memo:
            head, rest = t.children[0], Tree(t.children[1:])
            out = mat_triangleright(kind, value(head), value(rest))
            for attached in graft_attachments(head, rest):
                if attached != t:
                    out = out - value(attached)
            memo[t] = out
        return memo[t]

    total = np.zeros_like(m0)
    for forest, coeff in series.terms.items():
        folded = value(forest.trees[0])
        for t in forest.trees[1:]:
            folded = commutator(folded, value(t))
        total = total + (float(coeff) / len(forest.trees)) * folded
    return total


def csv_module_trajectory(points, csv_path=None) -> None:
    """The integrate rows as the csv module and print write them: the oracle
    for the CLI's one-pass row stream.  With csv_path, the excel-dialect
    file; without, one print per row on stdout."""
    header = ["t", "y1", "y2", "y3", "norm_defect"]
    rows = ([repr(v) for v in (t, *y, norm_defect(y))] for t, y in points)
    if csv_path is not None:
        with open(csv_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        return
    print(",".join(header))
    for row in rows:
        print(",".join(row))
