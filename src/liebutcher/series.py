"""Sparse linear combinations of ordered forests over exact rationals.

A Series carries a truncation degree: trunc=None marks an exact finite
element, trunc=n means coefficients of degree > n have been dropped and
must not be asked for.  Every binary operation takes the min of the
operand truncations, so mixing a truncated operand in can never silently
produce coefficients that were not actually computed.

All coefficients are Fractions; floats are rejected to keep identity
checks exact.  Only the public constructors (Series(...), of, unit,
from_json) check terms: each coefficient is converted, zeros and forests
past the truncation are dropped, and equal values share one Fraction.
Everything else starts from checked terms and trusts them.  Arithmetic
(+, -, unary -, scalar * and /, truncated, component) copies the entries
it leaves untouched, drops a zero that an edit of terms stored, and sends
only the entries it changes through the shared table, in the term order
of its operands.  The product kernel `bilinear` works on integer
numerators over one common denominator per operand and visits only the
degree blocks that survive truncation; it reduces each output sum with one
gcd and stores the shared Fraction directly.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from . import _memo
from .trees import (
    EMPTY_FOREST,
    Forest,
    Tree,
    forest_sort_key,
    parse_forest,
)

__all__ = [
    "Series",
    "TruncationError",
    "bilinear",
    "concat",
    "deshuffle",
    "deshuffle_forest",
    "min_trunc",
    "pairing",
    "shuffle",
    "truncate",
]


# The coefficient forms to_json writes.  Fraction also reads exponents and
# decimals, and expands "1e100000" digit by digit, so from_json reads only these.
_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


class TruncationError(ValueError):
    """A coefficient beyond the truncation degree was requested."""


def min_trunc(a: int | None, b: int | None) -> int | None:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _as_forest(f) -> Forest:
    if isinstance(f, Forest):
        return f
    if isinstance(f, Tree):
        return Forest((f,))
    if isinstance(f, str):
        return parse_forest(f)
    raise TypeError(f"cannot interpret {f!r} as a forest")


def _as_coeff(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, float):
        raise TypeError("coefficients must be exact rationals, not floats")
    return Fraction(c)


# Equal coefficients share one Fraction: series kept alive together repeat a
# few thousand values, so sharing them roughly halves the memory per term.
_shared = _memo(maxsize=1 << 12)(Fraction)


class Series:
    """Finite linear combination of ordered forests with Fraction coefficients.

    The constructor checks every term; _unchecked and the arithmetic built
    on it take terms that are already checked, as the module docstring
    says."""

    __slots__ = ("terms", "trunc")

    def __init__(self, terms: dict[Forest, Fraction] | None = None, trunc: int | None = None):
        if trunc is not None and trunc < 0:
            raise ValueError(f"truncation degree must be >= 0, got {trunc}")
        clean: dict[Forest, Fraction] = {}
        if terms:
            for forest, coeff in terms.items():
                c = _as_coeff(coeff)
                if c and (trunc is None or forest.degree <= trunc):
                    clean[forest] = _shared(c.numerator, c.denominator)
        self.terms = clean
        self.trunc = trunc

    @classmethod
    def _unchecked(cls, terms: dict[Forest, Fraction], trunc: int | None) -> "Series":
        """A Series that takes terms as they are, checked and copied by
        nothing: the caller guarantees what __init__ would make of them,
        non-zero _shared coefficients on forests of degree <= trunc."""
        out = object.__new__(cls)
        out.terms = terms
        out.trunc = trunc
        return out

    @classmethod
    def zero(cls, trunc: int | None = None) -> "Series":
        return cls({}, trunc)

    @classmethod
    def unit(cls, trunc: int | None = None) -> "Series":
        """The empty forest with coefficient 1."""
        return cls({EMPTY_FOREST: Fraction(1)}, trunc)

    @classmethod
    def of(cls, forest, coeff=1, trunc: int | None = None) -> "Series":
        """Single-term series; forest may be a Forest, a Tree or a string."""
        return cls({_as_forest(forest): _as_coeff(coeff)}, trunc)

    def coeff(self, forest) -> Fraction:
        """Stored coefficient (0 when absent); no truncation guard."""
        return self.terms.get(_as_forest(forest), Fraction(0))

    def _kept(self, trunc: int | None) -> dict[Forest, Fraction]:
        """A copy of the non-zero terms of degree <= trunc, in term order.
        Only an edit of terms can store a zero, and it is dropped here."""
        if trunc is None or trunc == self.trunc:
            return {f: c for f, c in self.terms.items() if c}
        return {f: c for f, c in self.terms.items() if c and f.degree <= trunc}

    def truncated(self, n: int) -> "Series":
        trunc = min_trunc(self.trunc, n)
        if trunc is not None and trunc < 0:
            raise ValueError(f"truncation degree must be >= 0, got {trunc}")
        return Series._unchecked(self._kept(trunc), trunc)

    def component(self, k: int) -> "Series":
        """The degree-k homogeneous part."""
        terms = {f: c for f, c in self.terms.items() if c and f.degree == k}
        return Series._unchecked(terms, self.trunc)

    def max_degree(self) -> int:
        return max((f.degree for f in self.terms), default=0)

    def support(self) -> list[Forest]:
        return sorted(self.terms, key=forest_sort_key)

    def _combine(self, other: "Series", sign: int) -> "Series":
        """self + sign * other: self's terms in order, then other's new ones.
        Only an entry that changes is reduced and shared anew."""
        trunc = min_trunc(self.trunc, other.trunc)
        out = self._kept(trunc)
        for f, c in other.terms.items():
            if not c or trunc is not None and f.degree > trunc:
                continue
            e = out.get(f)
            if e is None:
                out[f] = c if sign > 0 else _shared(-c.numerator, c.denominator)
                continue
            t = e + c if sign > 0 else e - c
            if t:
                out[f] = _shared(t.numerator, t.denominator)
            else:
                del out[f]
        return Series._unchecked(out, trunc)

    def __add__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return self._combine(other, 1)

    def __sub__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return self._combine(other, -1)

    def __neg__(self):
        return self * -1

    def __mul__(self, scalar):
        if isinstance(scalar, Series):
            raise TypeError("use concat/shuffle/gl_product for series products")
        c = _as_coeff(scalar)
        out = {}
        for f, v in self.terms.items():
            t = v * c
            if t:
                out[f] = _shared(t.numerator, t.denominator)
        return Series._unchecked(out, self.trunc)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return self * (Fraction(1) / _as_coeff(scalar))

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return self.terms == other.terms and self.trunc == other.trunc

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        if not self.terms:
            body = "0"
        else:
            body = " + ".join(f"{self.terms[f]}*{f.text}" for f in self.support())
        suffix = "" if self.trunc is None else f" (trunc {self.trunc})"
        return f"<Series {body}{suffix}>"

    def to_json(self) -> dict:
        """JSON form: terms in canonical forest order, reduced coefficients."""
        return {
            "trunc": self.trunc,
            "terms": [
                {"forest": f.text, "coeff": str(self.terms[f])}
                for f in self.support()
            ],
        }

    @classmethod
    def from_json(cls, data) -> "Series":
        """Inverse of to_json; ValueError on anything outside that schema."""
        items = data.get("terms", []) if isinstance(data, dict) else None
        if not isinstance(items, list) or not all(
            isinstance(t, dict) and all(isinstance(t.get(k), str) for k in ("forest", "coeff"))
            for t in items
        ):
            raise ValueError('a series is {"trunc": ..., "terms": [{"forest": str, "coeff": str}]}')
        trunc = data.get("trunc")
        if trunc is not None and (type(trunc) is not int or trunc < 0):
            raise ValueError(f'"trunc" must be null or an integer >= 0, got {trunc!r}')
        terms: dict[Forest, Fraction] = {}
        for item in items:
            f = parse_forest(item["forest"])
            try:
                if not _RATIONAL.fullmatch(item["coeff"]):
                    raise ValueError
                terms[f] = terms.get(f, Fraction(0)) + Fraction(item["coeff"])
            except (ValueError, ZeroDivisionError):
                raise ValueError(f"coeff {item['coeff']!r} is not a rational") from None
        return cls(terms, trunc)


def pairing(a: Series, forest) -> Fraction:
    """Coefficient of the given forest; errors beyond the truncation."""
    f = _as_forest(forest)
    if a.trunc is not None and f.degree > a.trunc:
        raise TruncationError(
            f"coefficient of degree {f.degree} is not represented (trunc={a.trunc})"
        )
    return a.terms.get(f, Fraction(0))


def truncate(a: Series, n: int) -> Series:
    return a.truncated(n)


def _graded(a: Series) -> tuple[int | None, int, dict[int, list[tuple[Forest, int]]]]:
    """a as the product kernel reads it: its truncation, the lcm of its
    denominators, and its terms times that lcm grouped by degree."""
    den = math.lcm(*(c.denominator for c in a.terms.values()))
    blocks: dict[int, list[tuple[Forest, int]]] = {}
    for f, c in a.terms.items():
        blocks.setdefault(f.degree, []).append((f, c.numerator * (den // c.denominator)))
    return a.trunc, den, blocks


def bilinear(a: Series, b: Series, basis) -> Series:
    """Bilinear extension of a product given on basis forests.

    basis(fa, fb) yields (forest, coefficient) pairs.  Terms are grouped by
    degree, and a block pair whose degrees sum past the common truncation is
    skipped whole, which is exact because every product here is
    degree-additive.  Each operand is scaled to integer numerators over the
    lcm of its denominators (_graded), so the sums run in int (or exactly in
    Fraction for a basis with Fraction coefficients).  Each non-zero sum n
    over the product den of the two denominators is reduced by gcd(n, den)
    once and stored as the _shared Fraction, and the result is built
    unchecked: the block skip already keeps every forest within the
    truncation.  A caller that multiplies by one operand many times grades
    it once and calls _graded_product itself.
    """
    return _graded_product(_graded(a), _graded(b), basis)


def _graded_product(ga, gb, basis) -> Series:
    """bilinear on operands already graded by _graded."""
    ta, da, blocks_a = ga
    tb, db, blocks_b = gb
    trunc = min_trunc(ta, tb)
    out: dict = {}
    for p, left in blocks_a.items():
        for q, right in blocks_b.items():
            if trunc is not None and p + q > trunc:
                continue
            for fa, ca in left:
                for fb, cb in right:
                    scale = ca * cb
                    for f, c in basis(fa, fb):
                        out[f] = out.get(f, 0) + scale * c
    den = da * db
    terms = {}
    for f, n in out.items():
        if n:
            d = den
            if type(n) is not int:  # a basis with Fraction coefficients
                n, d = n.numerator, den * n.denominator
            g = math.gcd(n, d)
            terms[f] = _shared(n // g, d // g)
    return Series._unchecked(terms, trunc)


def _concat_basis(fa: Forest, fb: Forest):
    return ((Forest(fa.trees + fb.trees), 1),)


def concat(a: Series, b: Series) -> Series:
    """Bilinear extension of forest juxtaposition."""
    return bilinear(a, b, _concat_basis)


@_memo()
def _shuffle_basis(u: Forest, v: Forest) -> tuple[tuple[Forest, int], ...]:
    # ab sh cd = a(b sh cd) + c(ab sh d), unit the empty word.  The table of
    # suffix pairs (u[i:], v[j:]) fills from the shortest suffixes up, one row
    # of i at a time, so nothing recurses once per letter and only (u, v) is kept.
    a, b = u.trees, v.trees
    row = [((Forest(b[j:]), 1),) for j in range(len(b) + 1)]  # u[i:] empty
    for i in range(len(a) - 1, -1, -1):
        head = a[i : i + 1]
        up = row  # the row of u[i+1:]
        row = [()] * len(b) + [((Forest(a[i:]), 1),)]
        for j in range(len(b) - 1, -1, -1):
            acc: dict[Forest, int] = {}
            for w, m in up[j]:
                key = Forest(head + w.trees)
                acc[key] = acc.get(key, 0) + m
            for w, m in row[j + 1]:
                key = Forest(b[j : j + 1] + w.trees)
                acc[key] = acc.get(key, 0) + m
            row[j] = tuple(acc.items())
    return row[0]


def shuffle(a: Series, b: Series) -> Series:
    """Word shuffle of forests, each tree treated as one letter."""
    return bilinear(a, b, _shuffle_basis)


@_memo()
def deshuffle_forest(f: Forest) -> tuple[tuple[tuple[Forest, Forest], int], ...]:
    """All order-preserving two-block splits of the letters of f, with multiplicity.

    This is the coproduct dual to the shuffle product.  The splits of
    t1..tk grow from the memo entry of the prefix t1..t(k-1): the last tree
    goes to the left or to the right block of each, and equal splits merge
    at once, so a word of k equal letters has k + 1 splits, not 2^k subsets.
    The prefixes are read shortest first in a loop, so a prefix missing
    from the memo finds its own prefix there, and nothing recurses once per
    letter.
    """
    trees = f.trees
    if not trees:
        return (((EMPTY_FOREST, EMPTY_FOREST), 1),)
    for k in range(len(trees)):
        splits = deshuffle_forest(Forest(trees[:k]))
    last = trees[-1]
    grown: dict[tuple[Forest, Forest], int] = {}
    for (left, right), m in splits:
        for key in ((Forest(left.trees + (last,)), right), (left, Forest(right.trees + (last,)))):
            grown[key] = grown.get(key, 0) + m
    return tuple(grown.items())


def deshuffle(a: Series) -> dict[tuple[Forest, Forest], Fraction]:
    """Linear extension of deshuffle_forest; weights collected per split pair."""
    out: dict[tuple[Forest, Forest], Fraction] = {}
    for f, c in a.terms.items():
        for pair, m in deshuffle_forest(f):
            out[pair] = out.get(pair, Fraction(0)) + m * c
    return {pair: w for pair, w in out.items() if w != 0}
