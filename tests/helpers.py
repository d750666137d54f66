"""Shared test utilities: short builders, independent oracles, generators."""

from __future__ import annotations

import csv
import itertools
import math
import random
from fractions import Fraction
from functools import lru_cache, partial

import numpy as np

from liebutcher.lbseries import Defect, FieldSeries, field_generator, is_inf_character
from liebutcher.matrixpostlie import commutator, mat_triangleright, project_minus
from liebutcher.postlie import GraftExtension, bracket, dbracket, postlie_identities
from liebutcher.series import Series, concat, deshuffle, deshuffle_forest, min_trunc, shuffle
from liebutcher.sphere import ConvergenceError, norm_defect
from liebutcher.trees import (
    EMPTY_FOREST,
    LEAF,
    MAX_DEPTH,
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


def deep_tree(shape: str) -> str:
    """A tree MAX_DEPTH levels deep: the chain [[..[]..]], or, for
    "branching", [[..[[] []] ..] []], which branches at every level."""
    if shape == "chain":
        return "[" * MAX_DEPTH + "]" * MAX_DEPTH
    tree = "[]"
    for _ in range(MAX_DEPTH - 1):
        tree = f"[{tree} []]"
    return tree


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


@lru_cache(maxsize=None)
def recursive_shuffle_basis(u: Forest, v: Forest) -> tuple[tuple[Forest, int], ...]:
    """Shuffle oracle in term order: the memoized recursion
    ab sh cd = a(b sh cd) + c(ab sh d), one level per letter."""
    if not u.trees:
        return ((v, 1),)
    if not v.trees:
        return ((u, 1),)
    acc: dict[Forest, int] = {}
    for w, m in recursive_shuffle_basis(Forest(u.trees[1:]), v):
        key = Forest(u.trees[:1] + w.trees)
        acc[key] = acc.get(key, 0) + m
    for w, m in recursive_shuffle_basis(u, Forest(v.trees[1:])):
        key = Forest(v.trees[:1] + w.trees)
        acc[key] = acc.get(key, 0) + m
    return tuple(acc.items())


@lru_cache(maxsize=None)
def graft_attachments(t1: Tree, t2: Tree) -> tuple[Tree, ...]:
    """Tree-grafting oracle, one recursion per level of t2: t1 attached at
    the root of t2 (as its new leftmost branch), then at each node of each
    child in turn, so one tree per node of t2, in preorder, repeats kept."""
    out = [Tree((t1,) + t2.children)]
    for i, child in enumerate(t2.children):
        for sub in graft_attachments(t1, child):
            out.append(Tree(t2.children[:i] + (sub,) + t2.children[i + 1 :]))
    return tuple(out)


class PeelGraftExtension(GraftExtension):
    """Grafting oracle that places no blocks: a single tree x acts on a
    forest by one loop over its letters on graft_attachments,
    x |> t1..tk = sum over i of t1..(x |> ti)..tk, and a longer left operand
    peels its first letter, (x . A) |> B = x |> (A |> B) - (x |> A) |> B,
    whose second sum cancels the terms where x lands on a letter of A."""

    def _basis(self, w, v):
        acc: dict[Forest, int] = {}
        if not w.trees:
            acc[v] = 1
        elif len(w.trees) > 1:
            x, rest = Forest(w.trees[:1]), Forest(w.trees[1:])
            for f, c in self.basis(rest, v):
                for g, d in self.basis(x, f):
                    acc[g] = acc.get(g, 0) + c * d
            for f, c in self.basis(x, rest):
                for g, d in self.basis(f, v):
                    acc[g] = acc.get(g, 0) - c * d
        else:
            x, trees = w.trees[0], v.trees
            for i, t in enumerate(trees):
                for s in graft_attachments(x, t):
                    f = Forest(trees[:i] + (s,) + trees[i + 1 :])
                    acc[f] = acc.get(f, 0) + 1
        return tuple((f, c) for f, c in acc.items() if c != 0)

    def _gl_basis(self, w, v):
        acc: dict[Forest, int] = {}
        for (left, right), mult in deshuffle_forest(w):
            for f, c in self.basis(right, v):
                g = Forest(left.trees + f.trees)
                acc[g] = acc.get(g, 0) + mult * c
        return tuple((f, c) for f, c in acc.items() if c != 0)


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


def gl_free_exact_flow(n: int) -> Series:
    """exp_gl(h[]) through degree n without the GL basis.  The exact flow
    solves d/dh alpha = alpha * h[], and A * [] is the sum over the splits of
    A of A1 [A2], since A2 |> [] = [A2]; so on w = t1..tk,
    |w| alpha(w) = sum of alpha(A) over the shuffles A (with multiplicity) of
    t1..t(k-1) with the children of tk."""
    alpha = {EMPTY_FOREST: Fraction(1)}
    for degree in range(1, n + 1):
        for w in enumerate_forests(degree):
            front, last = Forest(w.trees[:-1]), w.trees[-1]
            total = sum(alpha[a] * m for a, m in shuffle_oracle(front, Forest(last.children)).items())
            alpha[w] = Fraction(total, degree)
    return Series(alpha, n)


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


def hat(w) -> np.ndarray:
    """Skew matrix with hat(w) v = w x v."""
    x, y, z = np.asarray(w, dtype=float)
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def rot_exp(w) -> np.ndarray:
    """Rotation oracle in closed form: I + a K + b K^2 with K = hat(w) and,
    at the angle t = |w|, a = sin(t)/t and b = (1 - cos(t))/t^2, each
    replaced by its Taylor series below t = 1e-6, where it would cancel."""
    x, y, z = np.asarray(w, dtype=float).tolist()
    t = math.sqrt(x * x + y * y + z * z)
    t2 = t * t
    if t < 1e-6:
        a, b = 1.0 - t2 / 6.0 + t2 * t2 / 120.0, 0.5 - t2 / 24.0 + t2 * t2 / 720.0
    else:
        a, b = math.sin(t) / t, (1.0 - math.cos(t)) / t2
    k = hat(w)
    return np.eye(3) + a * k + b * (k @ k)


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


def expm(m) -> np.ndarray:
    """Matrix exponential by scaling and squaring a Taylor polynomial: the
    scaled matrix has 1-norm at most 1/2, where 20 terms leave a remainder
    far below rounding."""
    m = np.asarray(m, dtype=float)
    norm = np.abs(m).sum(axis=0).max()
    squarings = max(0, math.ceil(math.log2(norm)) + 1) if norm > 0 else 0
    scaled = m / 2.0 ** squarings
    out = term = np.eye(m.shape[0])
    for k in range(1, 20):
        term = term @ scaled / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def recursive_eval_F(kind: str, m0, a) -> np.ndarray:
    """eval_F oracle: one tree at a time, by the grafting relation
    F(t) = F(head) |> F(rest) - F(other attachments) recursed through a
    memo, each word folded by left-nested commutators and the terms summed
    one by one in term order.  The input is checked as a field series."""
    series = FieldSeries(a).series
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
