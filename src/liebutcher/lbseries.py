"""Truncated Lie-Butcher series: characters, exponentials, Magnus map.

With a single generating field the node grading doubles as the grading in
the time step, so a series truncated at degree n encodes an integrator's
expansion through order n in the step size.  Characters (multiplicative on
shuffles) represent flows; infinitesimal characters (vanishing on shuffles)
represent vector fields.  The concatenation exponential produces the
frozen-field Euler flow, the Grossman-Larson exponential the exact flow,
and the Magnus-type map chi links the two: exp_concat(a) = exp_gl(chi(a)).

Both predicates read the deshuffle coproduct instead of evaluating on
shuffles: <a, u sh v> is the weight of (u, v) in deshuffle(a), so a is
infinitesimal iff its coproduct is a (x) 1 + 1 (x) a (Friedrichs'
criterion) and a character iff it is a (x) a (group-like).  Past the
constant term only the proper splits (both sides non-empty) can break
either criterion, so one reader sums integer weights on those splits of
forests of two or more trees, from the per-forest memo
series.deshuffle_forest, which is built letter by letter.  A field needs
every sum to be 0, a character needs a_u a_v; no logarithm is taken.  Both
exponentials and the logarithm share one power-series loop, which grades
its operand for the kernel once, not once per power.
The midpoint stage is a graded fixed point: round r solves at truncation r
only, so the rounds cost the sum of their own truncations' costs; every
product runs through the graded integer kernel series.bilinear.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from fractions import Fraction

from .postlie import _DEFAULT_EXTENSION, triangleright
from .series import Series, _concat_basis, _graded, _graded_product, _immutable, deshuffle_forest
from .trees import EMPTY_FOREST, LEAF, forest_sort_key

__all__ = [
    "Defect",
    "FieldSeries",
    "METHOD_CHARACTERS",
    "MethodCharacter",
    "agreement",
    "exact_flow_character",
    "exp_concat",
    "exp_gl",
    "field_generator",
    "first_defect",
    "is_character",
    "is_inf_character",
    "lie_euler_character",
    "lie_midpoint_character",
    "lie_midpoint_field",
    "log_gl",
    "magnus_chi",
    "order_of_agreement",
]

Defect = namedtuple("Defect", ["degree", "forest", "lhs", "rhs"])


def field_generator(trunc: int | None = None) -> Series:
    """The one-node-tree series h*[]; degree k doubles as the power h^k."""
    return Series.of(LEAF, 1, trunc)


def _bound(a: Series) -> int:
    return a.trunc if a.trunc is not None else a.max_degree()


def _proper_split_sums(a: Series) -> tuple[int, dict]:
    """The lcm den of a's denominators, and per proper split (u, v) the sum
    of den * <a, f> times the multiplicity of (u, v) in deshuffle(f).

    The integers den * <a, f> are the kernel's (_graded).  The trivial
    splits (1, f) and (f, 1) and a single tree's only splits are skipped, so
    only forests of two or more trees are read.
    """
    _, den, blocks = _graded(a)
    sums: dict = {}
    for block in blocks.values():
        for f, w in block:
            if len(f.trees) < 2:
                continue
            for (u, v), m in deshuffle_forest(f):
                if u.trees and v.trees:
                    sums[u, v] = sums.get((u, v), 0) + w * m
    return den, sums


def is_inf_character(a: Series) -> bool:
    """True iff a kills 1 and u sh v for u, v != 1: deshuffle(a) = a (x) 1 + 1 (x) a.

    The trivial splits always meet the criterion, so every proper-split
    sum must be 0.
    """
    if a.terms.get(EMPTY_FOREST):
        return False
    return not any(_proper_split_sums(a)[1].values())


def is_character(a: Series) -> bool:
    """True iff a is multiplicative on shuffles: deshuffle(a) = a (x) a.

    Pairs range over total degree up to the truncation, or the support
    degree when the series is exact.  With constant term 1 the trivial
    splits always hold, so every non-zero proper-split sum must be
    den * a_u * a_v, checked in integers.  A pair with a_u a_v != 0 that no
    split reaches is caught by counting: the non-zero sums must be as many
    as the ordered pairs of non-empty support forests with deg u + deg v
    <= the bound, counted from the support's per-degree histogram.
    """
    if a.coeff(EMPTY_FOREST) != 1:
        return not a.terms  # only the zero series
    n = _bound(a)
    per_degree = Counter(f.degree for f in a.terms)
    pairs = sum(per_degree[p] * per_degree[q] for p in range(1, n) for q in range(1, n - p + 1))
    den, sums = _proper_split_sums(a)
    zero, found = Fraction(0), 0
    for (u, v), s in sums.items():
        if s:
            cu, cv = a.terms.get(u, zero), a.terms.get(v, zero)
            # s / den == cu * cv, cross-multiplied
            if s * cu.denominator * cv.denominator != den * cu.numerator * cv.numerator:
                return False
            found += 1
    return found == pairs


class _Checked:
    """A series wrapped with its class's constructor check (validate=False
    skips it, for a series known to pass).  Like a Series it is an
    immutable value, so a series that passed the check stays checked."""

    __setattr__ = __delattr__ = _immutable

    @property
    def trunc(self) -> int | None:
        return self.series.trunc

    def __eq__(self, other):
        return type(other) is type(self) and self.series == other.series

    def __repr__(self):
        return f"{type(self).__name__}({self.series!r})"


class FieldSeries(_Checked):
    """A vector-field series: zero constant term, vanishing on shuffles.

    Given a checked series (a MethodCharacter or FieldSeries), it checks
    the series inside; anything else but a Series is a TypeError.
    _validated says whether the shuffle check ran, for eval_F to record."""

    def __init__(self, series: Series, validate: bool = True):
        series = _as_series(series)
        if series.coeff(EMPTY_FOREST) != 0:
            raise ValueError("a field series must have zero constant term")
        if validate and not is_inf_character(series):
            raise ValueError("series does not vanish on shuffles")
        object.__setattr__(self, "series", series)
        object.__setattr__(self, "_validated", validate)


class MethodCharacter(_Checked):
    """A flow series: constant term 1, multiplicative on shuffles; takes
    its series as FieldSeries does."""

    def __init__(self, series: Series, validate: bool = True):
        series = _as_series(series)
        if series.coeff(EMPTY_FOREST) != 1:
            raise ValueError("a character must have constant term 1")
        if validate and not is_character(series):
            raise ValueError("series is not multiplicative on shuffles")
        object.__setattr__(self, "series", series)


def _as_series(a) -> Series:
    """The Series a checked series wraps, or a itself if it is a Series."""
    if isinstance(a, _Checked):
        return a.series
    if not isinstance(a, Series):
        raise TypeError(
            f"expected a Series, FieldSeries or MethodCharacter, got {type(a).__name__}"
        )
    return a


def _power_series(x: Series, n: int, basis, weight) -> Series:
    """Sum over k = 1..n of weight(k) * x^k, powers taken under the product
    on that basis.  x is the right operand of every product, so it is graded
    once, and only each new power is graded again."""
    gx = _graded(x)
    out = Series.zero(n)
    power = Series.unit(n)
    for k in range(1, n + 1):
        power = _graded_product(_graded(power), gx, basis)
        if not power:
            break
        out = out + power * weight(k)
    return out


def _series_exp(a: Series, n: int, basis) -> Series:
    if a.coeff(EMPTY_FOREST) != 0:
        raise ValueError("exponential requires a zero constant term")
    return Series.unit(n) + _power_series(
        a.truncated(n), n, basis, lambda k: Fraction(1, math.factorial(k))
    )


def exp_concat(a, n: int, validate: bool = True) -> MethodCharacter:
    """Concatenation exponential, truncated at degree n (frozen-field flow)."""
    return MethodCharacter(_series_exp(_as_series(a), n, _concat_basis), validate=validate)


def exp_gl(a, n: int, validate: bool = True) -> MethodCharacter:
    """Grossman-Larson exponential, truncated at degree n (exact flow)."""
    series = _series_exp(_as_series(a), n, _DEFAULT_EXTENSION.gl_basis)
    return MethodCharacter(series, validate=validate)


def log_gl(c, validate: bool = True) -> FieldSeries:
    """Grossman-Larson logarithm; inverse of exp_gl up to the truncation."""
    s = _as_series(c)
    if s.coeff(EMPTY_FOREST) != 1:
        raise ValueError("logarithm requires constant term 1")
    n = _bound(s)
    x = (s - Series.unit(s.trunc)).truncated(n)
    log = _power_series(
        x, n, _DEFAULT_EXTENSION.gl_basis, lambda k: Fraction((-1) ** (k + 1), k)
    )
    return FieldSeries(log, validate=validate)


def magnus_chi(a, n: int, validate: bool = True) -> FieldSeries:
    """The map chi with exp_concat(a) = exp_gl(chi(a)), computed as log o exp.

    Truncating chi at degree m and re-exponentiating recovers exp_concat(a)
    through degree m, which is the backward-error reading of the frozen
    Euler flow.
    """
    return log_gl(exp_concat(a, n, validate=False), validate=validate)


def lie_euler_character(n: int) -> MethodCharacter:
    """Series of the method stepping along the frozen exponential flow."""
    return exp_concat(field_generator(n), n)


def lie_midpoint_field(n: int) -> FieldSeries:
    """Stage series K solving K = exp_concat(K/2) |> h[].

    Graded fixed point: the degree-r part of K depends only on its parts
    of degree < r, so round r = 1..n lifts the previous K (exact below r)
    to truncation r and solves there, and each round costs what its own
    truncation costs instead of what the final one does.
    """
    hgen = field_generator(n)
    k = Series.zero(0)
    half = Fraction(1, 2)
    for r in range(1, n + 1):
        lifted = Series(k.terms, r) * half
        k = triangleright(exp_concat(lifted, r, validate=False).series, hgen)
    return FieldSeries(k)


def lie_midpoint_character(n: int) -> MethodCharacter:
    """Series of the midpoint method, exp_concat of the solved stage."""
    return exp_concat(lie_midpoint_field(n), n)


# Method name -> its series; the CLI's method names are these keys.
METHOD_CHARACTERS = {
    "lie-euler": lie_euler_character,
    "lie-midpoint": lie_midpoint_character,
}


def exact_flow_character(n: int) -> MethodCharacter:
    """exp_gl of the generating field: the benchmark exact-flow series."""
    return exp_gl(field_generator(n), n)


def first_defect(a, b) -> Defect | None:
    """First coefficient disagreement in canonical order, or None."""
    sa, sb = _as_series(a), _as_series(b)
    if sa.trunc is None or sa.trunc != sb.trunc:
        raise ValueError("series must share a finite truncation degree")
    f = min((sa - sb).terms, key=forest_sort_key, default=None)
    return None if f is None else Defect(f.degree, f, sa.coeff(f), sb.coeff(f))


def agreement(a, b) -> tuple[int, Defect | None]:
    """(order_of_agreement(a, b), first_defect(a, b)), the defect found once."""
    defect = first_defect(a, b)
    return (_as_series(a).trunc if defect is None else defect.degree - 1), defect


def order_of_agreement(a, b) -> int:
    """Largest p with all coefficients of degree <= p equal (p <= trunc)."""
    return agreement(a, b)[0]
