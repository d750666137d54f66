"""Left grafting on planar trees and its lift to ordered forests.

Tree-level grafting attaches the left operand's root by a new edge at every
node of the right operand, always as the new leftmost branch.  The lift to
forests follows the two defining rules, for a single tree x,

    x |> (B . c) = (x |> B) . c + B . (x |> c)      (peel right letters)
    (x . A) |> B = x |> (A |> B) - (x |> A) |> B    (peel left letters)

closed off by I |> B = B and A |> I = <A, I> I.  The Grossman-Larson
product is assembled from the deshuffle coproduct,

    A * B = sum over splits A -> (A1, A2) of A1 . (A2 |> B),

which restricts to a.b + a |> b on single trees and is associative with
unit I.  Everything here is exact and degree-additive.  The post-Lie
identities live in `identities`, generic over the realization; the
`associator`, `dbracket` and `postlie_identities` exported here are those
functions, and the first two default to grafting and the concatenation
commutator.

Every memo here is a functools.lru_cache keyed on interned forests, and
clear_caches empties them with those of the other layers.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache, partial

from .identities import associator, dbracket, postlie_identities
from .series import Series, _shared, _shuffle_basis, bilinear, concat, deshuffle_forest
from .trees import Forest, Tree, _forests_raw, enumerate_trees, forest_sort_key

__all__ = [
    "AxiomReport",
    "GraftExtension",
    "associator",
    "bracket",
    "check_postlie_axioms",
    "clear_caches",
    "dbracket",
    "forget_planarity",
    "gl_product",
    "graft",
    "graft_attachments",
    "postlie_identities",
    "symmetrized_associator_defect",
    "triangleright",
]


@lru_cache(maxsize=None)
def graft_attachments(t1: Tree, t2: Tree) -> tuple[Tree, ...]:
    """Trees obtained by attaching t1 at each node of t2 (root first).

    One entry per node of t2, repeats kept, so the list length equals
    degree(t2).
    """
    out = [Tree((t1,) + t2.children)]
    for i, child in enumerate(t2.children):
        for sub in graft_attachments(t1, child):
            out.append(Tree(t2.children[:i] + (sub,) + t2.children[i + 1 :]))
    return tuple(out)


def graft(t1: Tree, t2: Tree) -> Series:
    """Left grafting of trees: the sum over all attachment nodes of t2."""
    return triangleright(Series.of(t1), Series.of(t2))


class GraftExtension:
    """Lift of a tree-level grafting rule to ordered forests.

    The attachments argument exists so tests can substitute a corrupted
    tree product; the module default drives triangleright and gl_product.
    basis and gl_basis are per-instance lru_caches over _basis and _gl_basis,
    whose coefficients are ints.
    """

    def __init__(self, attachments=graft_attachments):
        self._attach = attachments
        self.basis = lru_cache(maxsize=None)(self._basis)
        self.gl_basis = lru_cache(maxsize=None)(self._gl_basis)

    def _basis(self, w: Forest, v: Forest) -> tuple[tuple[Forest, int], ...]:
        """w |> v for basis forests, as (forest, coefficient) pairs."""
        acc: dict[Forest, int] = {}
        if not w.trees:
            acc[v] = 1
        elif not v.trees:
            pass  # <w, I> = 0 once w is non-empty
        elif len(w.trees) > 1:
            x = Forest(w.trees[:1])
            rest = Forest(w.trees[1:])
            for f, c in self.basis(rest, v):
                for g, d in self.basis(x, f):
                    acc[g] = acc.get(g, 0) + c * d
            for f, c in self.basis(x, rest):
                for g, d in self.basis(f, v):
                    acc[g] = acc.get(g, 0) - c * d
        elif len(v.trees) == 1:
            for t in self._attach(w.trees[0], v.trees[0]):
                f = Forest((t,))
                acc[f] = acc.get(f, 0) + 1
        else:
            head = Forest(v.trees[:-1])
            tail = v.trees[-1]
            for f, c in self.basis(w, head):
                g = Forest(f.trees + (tail,))
                acc[g] = acc.get(g, 0) + c
            for f, c in self.basis(w, Forest((tail,))):
                g = Forest(head.trees + f.trees)
                acc[g] = acc.get(g, 0) + c
        return tuple((f, c) for f, c in acc.items() if c != 0)

    def _gl_basis(self, w: Forest, v: Forest) -> tuple[tuple[Forest, int], ...]:
        """w * v for basis forests via the deshuffle coproduct."""
        acc: dict[Forest, int] = {}
        for (left, right), mult in deshuffle_forest(w):
            for f, c in self.basis(right, v):
                g = Forest(left.trees + f.trees)
                acc[g] = acc.get(g, 0) + mult * c
        return tuple((f, c) for f, c in acc.items() if c != 0)


_DEFAULT_EXTENSION = GraftExtension()


def clear_caches() -> None:
    """Empty every memo of the library: those of trees, series and postlie,
    the default extension's bases and, once matrixpostlie is loaded, eval_F's
    plans with the coefficients they keep.  A warm session can then time a
    cold run or give the memory back.  The Tree and Forest intern tables
    stay, since equal values must remain one object, and a GraftExtension
    made by the caller keeps its own caches."""
    for memo in (_forests_raw, _shared, _shuffle_basis, deshuffle_forest, graft_attachments,
                 _DEFAULT_EXTENSION.basis, _DEFAULT_EXTENSION.gl_basis):
        memo.cache_clear()
    matrix = sys.modules.get(f"{__package__}.matrixpostlie")
    if matrix is not None:
        matrix._plan.cache_clear()


def triangleright(a: Series, b: Series, extension: GraftExtension | None = None) -> Series:
    """The grafting action of a on b, lifted to series of forests."""
    ext = extension if extension is not None else _DEFAULT_EXTENSION
    return bilinear(a, b, ext.basis)


def bracket(a: Series, b: Series) -> Series:
    """Concatenation commutator a.b - b.a."""
    return concat(a, b) - concat(b, a)


def gl_product(a: Series, b: Series, extension: GraftExtension | None = None) -> Series:
    """Grossman-Larson product of series."""
    ext = extension if extension is not None else _DEFAULT_EXTENSION
    return bilinear(a, b, ext.gl_basis)


AxiomReport = namedtuple("AxiomReport", ["passed", "triples", "witness"], defaults=[None])


def _witness(name: str, x: Tree, y: Tree, z: Tree, lhs: Series, rhs: Series) -> dict:
    return {
        "axiom": name,
        "x": x.text,
        "y": y.text,
        "z": z.text,
        "lhs": lhs.to_json()["terms"],
        "rhs": rhs.to_json()["terms"],
    }


def check_postlie_axioms(max_degree: int, extension: GraftExtension | None = None) -> AxiomReport:
    """Verify postlie_identities for grafting on basis-tree triples.

    Covers all trees x, y, z with total degree <= max_degree; stops at the
    first violation and reports it.
    """
    tr = partial(triangleright, extension=extension)
    trees: list[Tree] = []
    for d in range(1, max_degree - 1):
        trees.extend(enumerate_trees(d))
    singles = {t: Series.of(t) for t in trees}
    count = 0
    for x in trees:
        for y in trees:
            if x.degree + y.degree + 1 > max_degree:
                continue
            for z in trees:
                if x.degree + y.degree + z.degree > max_degree:
                    continue
                triple = singles[x], singles[y], singles[z]
                for name, lhs, rhs in postlie_identities(*triple, tr, bracket):
                    if lhs != rhs:
                        return AxiomReport(False, count, _witness(name, x, y, z, lhs, rhs))
                count += 1
    return AxiomReport(True, count)


def _symmetrize_tree(t: Tree) -> Tree:
    kids = sorted((_symmetrize_tree(c) for c in t.children), key=forest_sort_key)
    return Tree(kids)


def forget_planarity(a: Series) -> Series:
    """Project onto non-planar normal form: children and forest letters sorted.

    Coefficients of trees that differ only by branch order merge, which is
    the quotient where left grafting degenerates to the symmetric-associator
    (pre-Lie) product.
    """
    acc: dict[Forest, Fraction] = {}
    for f, c in a.terms.items():
        ts = sorted((_symmetrize_tree(t) for t in f.trees), key=forest_sort_key)
        g = Forest(ts)
        acc[g] = acc.get(g, Fraction(0)) + c
    return Series(acc, a.trunc)


def symmetrized_associator_defect(
    x: Tree, y: Tree, z: Tree, extension: GraftExtension | None = None
) -> Series:
    """Planarity-forgetting image of a(x,y,z) - a(y,x,z); zero for grafting."""
    sx, sy, sz = Series.of(x), Series.of(y), Series.of(z)
    tr = partial(triangleright, extension=extension)
    return forget_planarity(associator(sx, sy, sz, tr) - associator(sy, sx, sz, tr))
