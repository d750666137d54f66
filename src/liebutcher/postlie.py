"""Left grafting on planar trees and its lift to ordered forests.

Tree-level grafting attaches the left operand's root by a new edge at every
node of the right operand, always as the new leftmost branch.  Forests act
through the deshuffle coproduct w -> sum of w(1) (x) w(2),

    w |> B+(c) = B+(w * c)                           (a tree, c its children)
    w |> t1..tk = sum of (w(1) |> t1)..(w(k) |> tk)  (the coproduct iterated)
    w * v = sum of w(1) . (w(2) |> v)                (Grossman-Larson)

closed off by I |> v = v and w |> I = <w, I> I.  Unfolded, w |> v sums, over
the splits of w into one block per node of v (letters kept in order), v with
each block put in front of its node's children.  One loop builds those splits,
placing the letters of w last first, so no term cancels, terms come ordered by
the node of the last letter, then of the one before, and no operand length
costs recursion; graft_attachments reads tree-level grafting off it.  The
Grossman-Larson product restricts to a.b + a |> b on single trees and is
associative with unit I.  Everything here is exact and degree-additive.  The
post-Lie identities live in `identities`, generic over the realization; the
`associator` and `postlie_identities` exported here are those functions, and
dbracket(a, b) is `identities.dbracket` with grafting and the concatenation
commutator.

Every memo here is a functools.lru_cache keyed on interned forests.
graft_attachments and the default extension's two bases are in the
package's memo table, so `clear_caches` (defined in the package and
re-exported here) empties them with those of the other layers.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from . import _MEMOS, _memo, clear_caches, identities
from .identities import associator, postlie_identities
from .series import Series, bilinear, concat, deshuffle_forest
from .trees import Forest, Tree, enumerate_trees, forest_sort_key

__all__ = [
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


def graft(t1: Tree, t2: Tree) -> Series:
    """Left grafting of trees: the sum over all attachment nodes of t2."""
    return triangleright(Series.of(t1), Series.of(t2))


class GraftExtension:
    """Grafting and the Grossman-Larson product on basis forests.

    basis and gl_basis are per-instance lru_caches over _basis and _gl_basis,
    whose coefficients are ints; only the default extension's two are in the
    package's memo table.  gl_basis reads w(2) |> v off basis, so a subclass
    that overrides _basis changes the Grossman-Larson product with it.
    """

    def __init__(self):
        self.basis = lru_cache(maxsize=None)(self._basis)
        self.gl_basis = lru_cache(maxsize=None)(self._gl_basis)

    def _basis(self, w: Forest, v: Forest) -> tuple[tuple[Forest, int], ...]:
        """w |> v for basis forests: each letter of w, last first, goes to the
        front of the block of one node of v (preorder); equal states merge."""
        states = {((),) * v.degree: 1}
        for x in reversed(w.trees):
            grown: dict[tuple, int] = {}
            for blocks, c in states.items():
                for i, block in enumerate(blocks):
                    key = blocks[:i] + ((x,) + block,) + blocks[i + 1 :]
                    grown[key] = grown.get(key, 0) + c
            states = grown
        return tuple((Forest(_attach(v.trees, b, 0, [i for i, x in enumerate(b) if x][::-1])), c)
                     for b, c in states.items())

    def _gl_basis(self, w: Forest, v: Forest) -> tuple[tuple[Forest, int], ...]:
        """w * v for basis forests, as (forest, coefficient) pairs."""
        acc: dict[Forest, int] = {}
        for (left, right), mult in deshuffle_forest(w):
            for f, c in self.basis(right, v):
                g = Forest(left.trees + f.trees)
                acc[g] = acc.get(g, 0) + mult * c
        return tuple(acc.items())


def _attach(trees: tuple, blocks: tuple, i: int, todo: list) -> tuple:
    # trees, nodes blocks[i:] in preorder, each block put in front of its node's
    # children; todo holds the non-empty blocks' indices >= i, largest first
    out = []
    for t in trees:
        end = i + t.degree
        if todo and todo[-1] < end:
            if todo[-1] == i:
                todo.pop()
            t = Tree(blocks[i] + _attach(t.children, blocks, i + 1, todo))
        out.append(t)
        i = end
    return tuple(out)


_DEFAULT_EXTENSION = GraftExtension()
_MEMOS.extend((_DEFAULT_EXTENSION.basis, _DEFAULT_EXTENSION.gl_basis))


@_memo()
def graft_attachments(t1: Tree, t2: Tree) -> tuple[Tree, ...]:
    """t1 attached at each node of t2, in preorder: the default basis on single trees."""
    return tuple(f.trees[0] for f, _ in _DEFAULT_EXTENSION.basis(Forest((t1,)), Forest((t2,))))


def triangleright(a: Series, b: Series) -> Series:
    """The grafting action of a on b, lifted to series of forests."""
    return bilinear(a, b, _DEFAULT_EXTENSION.basis)


def bracket(a: Series, b: Series) -> Series:
    """Concatenation commutator a.b - b.a."""
    return concat(a, b) - concat(b, a)


def dbracket(a: Series, b: Series) -> Series:
    """The second Lie bracket a |> b - b |> a + [a, b] of grafting."""
    return identities.dbracket(a, b, triangleright, bracket)


def gl_product(a: Series, b: Series, extension: GraftExtension | None = None) -> Series:
    """Grossman-Larson product of series."""
    ext = extension if extension is not None else _DEFAULT_EXTENSION
    return bilinear(a, b, ext.gl_basis)


def check_postlie_axioms(max_degree: int) -> dict:
    """Verify postlie_identities for grafting on basis-tree triples.

    Covers all trees x, y, z with total degree <= max_degree; stops at the
    first violation.  The report is a dict, as the matrix checks' are: the
    check, the degree, the triples passed, pass, and the failing identity
    and triple as witness (None on a pass).
    """
    trees: list[Tree] = []
    for d in range(1, max_degree - 1):
        trees.extend(enumerate_trees(d))
    singles = {t: Series.of(t) for t in trees}
    report = {"check": "postlie-axioms-free", "degree": max_degree, "triples": 0,
              "pass": True, "witness": None}
    for x in trees:
        for y in trees:
            if x.degree + y.degree + 1 > max_degree:
                continue
            for z in trees:
                if x.degree + y.degree + z.degree > max_degree:
                    continue
                triple = singles[x], singles[y], singles[z]
                for name, lhs, rhs in postlie_identities(*triple, triangleright, bracket):
                    if lhs != rhs:
                        report["pass"] = False
                        report["witness"] = {
                            "axiom": name, "x": x.text, "y": y.text, "z": z.text,
                            "lhs": lhs.to_json()["terms"], "rhs": rhs.to_json()["terms"],
                        }
                        return report
                report["triples"] += 1
    return report


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


def symmetrized_associator_defect(x: Tree, y: Tree, z: Tree) -> Series:
    """Planarity-forgetting image of a(x,y,z) - a(y,x,z); zero for grafting."""
    sx, sy, sz = Series.of(x), Series.of(y), Series.of(z)
    return forget_planarity(associator(sx, sy, sz, triangleright)
                            - associator(sy, sx, sz, triangleright))
