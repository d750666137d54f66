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
Each series is checked once, where it enters, by the entry check of its
kind (_Checked._enter): a field (FieldSeries) or a character
(MethodCharacter).  The constructors run it, the exponentials run the field
check on their argument truncated at n, the logarithm runs the character
check on its argument, and eval_F runs the field check; none checks its
result, since at every truncation exp and log are inverse bijections
between fields and characters.  Both kinds are Series, and the type is the
proof: a constructor built the series, or the algebra built it from a
checked series, so the check takes a series of its own kind as checked.
The generator h[] (field_generator) is a field from the start, and chi is
log_gl o exp_concat through both entries, so the logarithm takes the
character that exp_concat built as checked.  validate=False, on the
exponentials, chi and the logarithm only, skips the argument's check and
returns a plain Series.
The midpoint stage is a graded fixed point: round r solves at truncation r
only, so the rounds cost the sum of their own truncations' costs; every
product runs through the graded integer kernel series.bilinear.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from fractions import Fraction

from .postlie import _DEFAULT_EXTENSION, triangleright
from .series import Series, _concat_basis, _graded, _graded_product, deshuffle_forest
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


class _Checked(Series):
    """A Series of one kind, field or character, that passed the kind's
    entry check, or that _built made: the algebra's result on a checked
    argument, or the field h[].  It shares the terms and truncation of the
    series it was made from, and arithmetic on it returns a plain Series.
    Only the constructor and _built make one, so of, zero, unit and
    from_json raise TypeError.

    _enter is the one entry check, run by the constructor, the exponentials,
    the logarithm and eval_F; chi enters through exp_concat and log_gl.  It
    refuses a non-Series, tests the constant term against the class's
    _constant, truncates at n, and runs the class's predicate _holds unless
    validate is False or the argument is already of the class."""

    __slots__ = ()

    def __init__(self, series: Series):
        self._hold(self._enter(series))

    @classmethod
    def _enter(cls, a, n: int | None = None, validate: bool = True) -> Series:
        """a, truncated at n if n is given, once it passed the check."""
        if not isinstance(a, Series):
            raise TypeError(
                f"expected a Series, FieldSeries or MethodCharacter, got {type(a).__name__}"
            )
        if a.coeff(EMPTY_FOREST) != cls._constant:
            raise ValueError(cls._messages[0])
        s = a if n is None else a.truncated(n)
        if validate and not isinstance(a, cls) and not cls._holds(s):
            raise ValueError(cls._messages[1])
        return s

    def _hold(self, series: Series) -> None:
        object.__setattr__(self, "terms", series.terms)
        object.__setattr__(self, "trunc", series.trunc)

    @classmethod
    def _built(cls, series: Series):
        """series as one of the class, built by the algebra, which runs no
        check: at every truncation exp and log are inverse bijections
        between fields and characters (the deshuffle coproduct makes both
        products Hopf algebras), so checking the argument checks the
        result."""
        out = object.__new__(cls)
        out._hold(series)
        return out

    def __reduce__(self):
        return type(self)._built, (Series(dict(self.terms), self.trunc),)


class FieldSeries(_Checked):
    """A vector-field series: zero constant term, vanishing on shuffles.

    Built from a Series; anything else is a TypeError.  field_generator
    returns h[] as one, since a single tree vanishes on every shuffle;
    log_gl (and so magnus_chi) and lie_midpoint_field return one that runs
    no check, since they checked their argument or built it from h[]."""

    __slots__ = ()
    _constant = 0
    _holds = staticmethod(lambda s: is_inf_character(s))  # looked up per call
    _messages = ("a field series must have zero constant term",
                 "series does not vanish on shuffles")


class MethodCharacter(_Checked):
    """A flow series: constant term 1, multiplicative on shuffles; built as
    FieldSeries is.  The exponentials, and so the method characters, return
    one that runs no check, since they checked their argument as a field."""

    __slots__ = ()
    _constant = 1
    _holds = staticmethod(lambda s: is_character(s))  # looked up per call
    _messages = ("a character must have constant term 1",
                 "series is not multiplicative on shuffles")


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


def _series_exp(a, n: int, basis, validate: bool) -> Series:
    """The exponential of a under the product on basis, truncated at n.

    a enters as a field truncated at n (FieldSeries._enter), which holds iff
    its exponential is a character (see _Checked._built)."""
    s = FieldSeries._enter(a, n, validate)
    e = Series.unit(n) + _power_series(s, n, basis, lambda k: Fraction(1, math.factorial(k)))
    return MethodCharacter._built(e) if validate else e


def exp_concat(a, n: int, validate: bool = True) -> MethodCharacter | Series:
    """Concatenation exponential, truncated at degree n (frozen-field flow)."""
    return _series_exp(a, n, _concat_basis, validate)


def exp_gl(a, n: int, validate: bool = True) -> MethodCharacter | Series:
    """Grossman-Larson exponential, truncated at degree n (exact flow)."""
    return _series_exp(a, n, _DEFAULT_EXTENSION.gl_basis, validate)


def log_gl(c, validate: bool = True) -> FieldSeries | Series:
    """Grossman-Larson logarithm; inverse of exp_gl up to the truncation.

    c enters as a character (MethodCharacter._enter), which holds iff its
    logarithm vanishes on shuffles."""
    s = MethodCharacter._enter(c, validate=validate)
    n = _bound(s)
    x = (s - Series.unit(s.trunc)).truncated(n)
    log = _power_series(x, n, _DEFAULT_EXTENSION.gl_basis, lambda k: Fraction((-1) ** (k + 1), k))
    return FieldSeries._built(log) if validate else log


def magnus_chi(a, n: int, validate: bool = True) -> FieldSeries | Series:
    """The map chi with exp_concat(a) = exp_gl(chi(a)), computed as log o exp.

    Truncating chi at degree m and re-exponentiating recovers exp_concat(a)
    through degree m, which is the backward-error reading of the frozen
    Euler flow.
    """
    return log_gl(exp_concat(a, n, validate), validate)


def field_generator(trunc: int) -> FieldSeries:
    """The one-node-tree series h*[] as a field (a single tree vanishes on
    every shuffle); degree k doubles as the power h^k."""
    return FieldSeries._built(Series.of(LEAF, 1, trunc))


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
        k = triangleright(exp_concat(lifted, r, validate=False), hgen)
    return FieldSeries._built(k)


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


def first_defect(a: Series, b: Series) -> Defect | None:
    """First coefficient disagreement in canonical order, or None."""
    if a.trunc is None or a.trunc != b.trunc:
        raise ValueError("series must share a finite truncation degree")
    f = min((a - b).terms, key=forest_sort_key, default=None)
    return None if f is None else Defect(f.degree, f, a.coeff(f), b.coeff(f))


def agreement(a: Series, b: Series) -> tuple[int, Defect | None]:
    """(order_of_agreement(a, b), first_defect(a, b)), the defect found once."""
    defect = first_defect(a, b)
    return (a.trunc if defect is None else defect.degree - 1), defect


def order_of_agreement(a: Series, b: Series) -> int:
    """Largest p with all coefficients of degree <= p equal (p <= trunc)."""
    return agreement(a, b)[0]
