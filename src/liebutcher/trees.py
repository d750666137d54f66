"""Planar rooted trees and ordered forests.

Trees are written in a bracket grammar: "[]" is a single node and
"[t1 t2 ... tk]" is a root whose ordered children are t1..tk.  A forest is
a space-separated sequence of trees; the empty forest is written "1".
Planarity means child order matters: "[[[]] []]" and "[[] [[]]]" are
different trees.

The canonical order used for enumeration and printing is graded by degree
(number of nodes), ties broken lexicographically on the rendered string
with '[' < ']' < ' '.  Trees and forests are interned (hash-consed): == and
hash are identity, and the enumeration memo is a functools.lru_cache.

Counts grow like the Catalan numbers, so check_degree bounds every
enumeration, and the CLI's --degree, by one cap: the environment variable
LIEBUTCHER_DEGREE_CAP, read on each call, or DEFAULT_DEGREE_CAP when unset.
"""

from __future__ import annotations

import os
from functools import lru_cache

__all__ = [
    "DEFAULT_DEGREE_CAP",
    "DegreeCapError",
    "EMPTY_FOREST",
    "Forest",
    "ForestParseError",
    "LEAF",
    "MAX_DEPTH",
    "Tree",
    "check_degree",
    "enumerate_forests",
    "enumerate_trees",
    "forest_sort_key",
    "parse_forest",
    "render_forest",
]

# the degree cap when LIEBUTCHER_DEGREE_CAP is unset
DEFAULT_DEGREE_CAP = 8

# parse_forest recurses per level and a depth-d chain stores O(d^2) text
MAX_DEPTH = 256


class ForestParseError(ValueError):
    """Malformed forest string; `offset` is the byte position of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class DegreeCapError(ValueError):
    """A degree exceeded the cap, or the cap variable is not an integer."""


class _Interned:
    """One instance per component tuple (first slot), kept with its degree and
    text in a per-class table; __reduce__ routes pickle through it, and copy and
    deepcopy return the value itself, which also spares deep trees copy's recursion."""

    __slots__ = ()

    def __new__(cls, parts=()):
        parts = tuple(parts)
        node = cls._table.get(parts)
        if node is None:
            node = object.__new__(cls)
            for name, value in zip(cls.__slots__, (parts, *cls._derive(parts))):
                object.__setattr__(node, name, value)
            node = cls._table.setdefault(parts, node)
        return node

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} values are interned and immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), (getattr(self, self.__slots__[0]),)

    def __deepcopy__(self, memo=None):
        return self

    __copy__ = __deepcopy__

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.text!r})"


class Tree(_Interned):
    """A planar rooted tree; the empty child tuple is a single node."""

    __slots__ = ("children", "degree", "text")
    _table: dict[tuple, Tree] = {}

    @staticmethod
    def _derive(children):
        return 1 + sum(c.degree for c in children), f"[{' '.join(c.text for c in children)}]"


class Forest(_Interned):
    """An ordered (possibly empty) sequence of planar rooted trees; "1" when empty."""

    __slots__ = ("trees", "degree", "text")
    _table: dict[tuple, Forest] = {}

    @staticmethod
    def _derive(trees):
        return sum(t.degree for t in trees), " ".join(t.text for t in trees) or "1"

    def __len__(self) -> int:
        return len(self.trees)

    def __iter__(self):
        return iter(self.trees)


LEAF = Tree()
EMPTY_FOREST = Forest()


def render_forest(f: Forest) -> str:
    """Canonical text form: single spaces between siblings, "1" when empty."""
    return f.text


def _skip_ws(text: str, i: int) -> int:
    while i < len(text) and text[i].isspace():
        i += 1
    return i


def _parse_tree(text: str, i: int, depth: int) -> tuple[Tree, int]:
    # caller guarantees text[i] == "["
    if depth > MAX_DEPTH:
        raise ForestParseError(f"trees nested deeper than {MAX_DEPTH} levels", i)
    start = i
    i += 1
    children = []
    while True:
        i = _skip_ws(text, i)
        if i >= len(text):
            raise ForestParseError("unbalanced brackets: unclosed '['", start)
        ch = text[i]
        if ch == "]":
            return Tree(children), i + 1
        if ch == "[":
            child, i = _parse_tree(text, i, depth + 1)
            children.append(child)
        else:
            raise ForestParseError(f"stray character {ch!r}", i)


def parse_forest(text: str) -> Forest:
    """Parse the bracket grammar: Forest := "1" | Tree+, Tree := "[" Tree* "]".

    Whitespace between siblings is optional; render_forest(parse_forest(s))
    is the canonical form of s.
    """
    i = _skip_ws(text, 0)
    if i >= len(text):
        raise ForestParseError("empty input", i)
    if text[i] == "1":
        j = _skip_ws(text, i + 1)
        if j < len(text):
            raise ForestParseError(f"stray character {text[j]!r} after empty forest", j)
        return EMPTY_FOREST
    trees = []
    while i < len(text):
        if text[i] != "[":
            raise ForestParseError(f"stray character {text[i]!r}", i)
        t, i = _parse_tree(text, i, 1)
        trees.append(t)
        i = _skip_ws(text, i)
    return Forest(trees)


_RANK = str.maketrans("[] ", "012")


def forest_sort_key(f: Forest | Tree) -> tuple[int, str]:
    """Canonical order: by degree, then by text with '[' < ']' < ' '."""
    return (f.degree, f.text.translate(_RANK))


def check_degree(n: int) -> None:
    """Refuse a negative degree or one above the cap, LIEBUTCHER_DEGREE_CAP
    (read at each call) or DEFAULT_DEGREE_CAP when unset."""
    if n < 0:
        raise ValueError(f"degree must be >= 0, got {n}")
    var = "LIEBUTCHER_DEGREE_CAP"
    raw = os.environ.get(var)
    try:
        cap = DEFAULT_DEGREE_CAP if raw is None else int(raw)
    except ValueError:
        raise DegreeCapError(f"{var} must be an integer, got {raw!r}") from None
    if n > cap:
        raise DegreeCapError(f"degree {n} exceeds the cap {cap}; set {var} to raise it")


@lru_cache(maxsize=None)
def _forests_raw(n: int) -> tuple[Forest, ...]:
    # a degree-k tree is a root over a forest of total degree k-1
    if n == 0:
        return (EMPTY_FOREST,)
    return tuple(
        Forest((Tree(f.trees),) + rest.trees)
        for k in range(1, n + 1)
        for f in _forests_raw(k - 1)
        for rest in _forests_raw(n - k)
    )


def enumerate_trees(n: int) -> list[Tree]:
    """All planar rooted trees of degree n, in canonical order."""
    if n < 1:
        raise ValueError("there is no tree of degree < 1")
    check_degree(n)
    return sorted((Tree(f.trees) for f in _forests_raw(n - 1)), key=forest_sort_key)


def enumerate_forests(n: int) -> list[Forest]:
    """All ordered forests of total degree n, in canonical order."""
    check_degree(n)
    return sorted(_forests_raw(n), key=forest_sort_key)
