"""The graded integer kernel and the trusted series arithmetic against
their Fraction oracles.

`bilinear` groups terms by degree and sums integer numerators over one
denominator per operand; `fraction_bilinear` visits every term pair and sums
in Fraction.  Series arithmetic builds its result from checked terms without
the checking constructor; its oracles are the plain Fraction sums put
through that constructor.  The power series grade their operand once; the
oracle takes each power by the public product.  The midpoint stage is
solved degree by degree; the oracle runs n full-truncation rounds.
Equality is exact throughout.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    F,
    S,
    fraction_bilinear,
    fraction_is_character,
    fraction_is_inf_character,
    iterated_lie_midpoint_field,
    per_product_power_series,
    random_lie_series,
    ree_is_character,
)
from liebutcher.lbseries import (
    FieldSeries,
    exact_flow_character,
    exp_concat,
    exp_gl,
    field_generator,
    is_character,
    is_inf_character,
    lie_euler_character,
    lie_midpoint_character,
    lie_midpoint_field,
    log_gl,
    magnus_chi,
)
from liebutcher.postlie import GraftExtension, bracket, gl_product
from liebutcher.series import (
    Series,
    _concat_basis,
    _shared,
    _shuffle_basis,
    bilinear,
    concat,
    min_trunc,
)
from liebutcher.trees import EMPTY_FOREST, LEAF, Forest, enumerate_forests, enumerate_trees

_EXT = GraftExtension()


def _fake_basis(u, v):
    """A non-integer product: two words with Fraction weights."""
    return (
        (Forest(u.trees + v.trees), Fraction(2, 3)),
        (Forest(v.trees + u.trees), Fraction(-5, 7)),
    )


BASES = {
    "concat": _concat_basis,
    "shuffle": _shuffle_basis,
    "graft": _EXT.basis,
    "gl": _EXT.gl_basis,
    "fake": _fake_basis,
}

FORESTS = [f for d in range(5) for f in enumerate_forests(d)]

# each operand draws its denominators from its own pool; the pools are coprime
LEFT_DENOMINATORS = (1, 2, 3, 4, 6, 9, 12)
RIGHT_DENOMINATORS = (1, 5, 7, 25, 35)


def operands(denominators):
    coeff = st.builds(
        Fraction,
        st.integers(-9, 9).filter(bool),
        st.sampled_from(denominators),
    )
    return st.builds(
        Series,
        st.dictionaries(st.sampled_from(FORESTS), coeff, max_size=6),
        st.one_of(st.none(), st.integers(0, 7)),
    )


def assert_stored(s, shared=True):
    """s holds what the checking constructor would store: non-zero, reduced
    coefficients on forests within the truncation, each the _shared object
    unless `shared` is false.  A long computation can push a value out of
    the bounded _shared cache while a series still holds it, and an entry
    that arithmetic leaves untouched is kept as it is."""
    for f, c in s.terms.items():
        assert type(c) is Fraction and c != 0
        assert math.gcd(c.numerator, c.denominator) == 1 and c.denominator > 0
        assert not shared or c is _shared(c.numerator, c.denominator)
        assert s.trunc is None or f.degree <= s.trunc


def assert_kernel_output(got, a, b, basis):
    """got equals the oracle, and its coefficients are what the checking
    constructor would store."""
    assert got == fraction_bilinear(a, b, basis)
    assert_stored(got)


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(sorted(BASES)),
    operands(LEFT_DENOMINATORS),
    operands(RIGHT_DENOMINATORS),
    st.booleans(),
)
def test_bilinear_matches_the_fraction_oracle(name, a, b, swap):
    if swap:
        a, b = b, a
    basis = BASES[name]
    assert_kernel_output(bilinear(a, b, basis), a, b, basis)


@pytest.mark.parametrize("name", sorted(BASES))
def test_bilinear_coprime_denominators_and_truncation(name):
    # lcm 12 against lcm 35, negative coefficients, a block pair past trunc 4
    a = Series({F("1"): Fraction(-1, 4), F("[[]]"): Fraction(5, 6), F("[[]] [] []"): Fraction(7, 3)}, 4)
    b = Series({F("[]"): Fraction(-3, 5), F("[] [[]]"): Fraction(2, 7)})
    basis = BASES[name]
    for x, y in ((a, b), (b, a), (a, a), (b, b), (Series(a.terms), b)):
        assert_kernel_output(bilinear(x, y, basis), x, y, basis)


def test_fake_basis_keeps_fractional_weights():
    a, b = S("[]", Fraction(1, 2)), S("[[]]", 3)
    got = bilinear(a, b, _fake_basis)
    assert got.coeff("[] [[]]") == Fraction(1)
    assert got.coeff("[[]] []") == Fraction(-15, 14)
    assert_kernel_output(got, a, b, _fake_basis)


@pytest.mark.parametrize("name, a, b, want", [
    # [] sh [[]] and [[]] sh [] cancel
    ("shuffle", S("[]") - S("[[]]"), S("[]") + S("[[]]"), S("[] []", 2) - S("[[]] [[]]", 2)),
    # [] [[]] gets 2/3 * 15 from one pair and -5/7 * 14 from the other
    ("fake", S("[]") + S("[[]]", 14), S("[]") + S("[[]]", 15),
     S("[] []", Fraction(-1, 21)) + S("[[]] []", Fraction(-29, 21)) + S("[[]] [[]]", -10)),
])
def test_cancelled_sums_leave_no_term(name, a, b, want):
    got = bilinear(a, b, BASES[name])
    assert got == want and F("[] [[]]") not in got.terms
    assert_kernel_output(got, a, b, BASES[name])


# ---------------------------------------------------------------------------
# trusted arithmetic: each result against the plain Fraction result put
# through the checking constructor, term order included


def assert_trusted(got, want, shared=True):
    assert got == want and got.trunc == want.trunc
    assert list(got.terms) == list(want.terms)
    assert_stored(got, shared)


def checked_sum(a, b, sign):
    out = dict(a.terms)
    for f, c in b.terms.items():
        out[f] = out.get(f, Fraction(0)) + sign * c
    return Series(out, min_trunc(a.trunc, b.trunc))


def checked_scaled(a, c):
    return Series({f: v * c for f, v in a.terms.items()}, a.trunc)


scalars = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12))


@settings(max_examples=120, deadline=None)
@given(
    operands(LEFT_DENOMINATORS),
    operands(RIGHT_DENOMINATORS),
    st.integers(0, 3),
    scalars,
    st.integers(0, 8),
)
def test_trusted_arithmetic_matches_the_checked_oracle(a, b, cancel, c, k):
    # with cancel > 0, b also holds the negative of every cancel-th term of
    # a (of every term for 1), and those terms cancel in a + b
    if cancel:
        b = Series({**b.terms, **{f: -v for f, v in list(a.terms.items())[::cancel]}}, b.trunc)
    for x, y in ((a, b), (b, a), (a, a)):
        assert_trusted(x + y, checked_sum(x, y, 1))
        assert_trusted(x - y, checked_sum(x, y, -1))
    assert_trusted(a - a, Series.zero(a.trunc))
    assert_trusted(-a, checked_scaled(a, Fraction(-1)))
    assert_trusted(c * a, checked_scaled(a, c))
    assert_trusted(a * c, checked_scaled(a, c))
    if c:
        assert_trusted(b / c, Series({f: v / c for f, v in b.terms.items()}, b.trunc))
    assert_trusted(a.truncated(k), Series(a.terms, min_trunc(a.trunc, k)))
    part = Series({f: v for f, v in a.terms.items() if f.degree == k}, a.trunc)
    assert_trusted(a.component(k), part)


@pytest.mark.parametrize("trunc", [None, 5, 2])
def test_mixed_truncations_drop_the_terms_above(trunc):
    # a is exact and holds a degree-6 word; [[[]]] cancels in a + b
    a = S("[]", Fraction(1, 2)) + S("[[[]]] [] [] []", 3) + S("[[[]]]", Fraction(-2, 3))
    b = Series({F("[] []"): Fraction(5, 7), F("[[[]]]"): Fraction(2, 3)}, trunc)
    for x, y in ((a, b), (b, a)):
        for sign, got in ((1, x + y), (-1, x - y)):
            assert got.trunc == trunc
            assert_trusted(got, checked_sum(x, y, sign))
    assert (F("[[[]]] [] [] []") in (a + b).terms) is (trunc is None)
    assert F("[[[]]]") not in (a + b).terms


@pytest.mark.parametrize(
    "op", ["add", "radd", "sub", "rsub", "mul", "rmul", "neg", "truncated", "component", "concat"]
)
def test_every_operation_returns_a_read_only_series(op):
    s = S("[]", 2) + S("[[]]", Fraction(1, 3))
    t = S("[[]]", Fraction(1, 3)) + S("[[] []]", 5)
    got = {
        "add": lambda: s + t,
        "radd": lambda: t + s,
        "sub": lambda: s - t,
        "rsub": lambda: t - s,
        "mul": lambda: s * Fraction(3, 4),
        "rmul": lambda: 3 * s,
        "neg": lambda: -s,
        "truncated": lambda: s.truncated(1),
        "component": lambda: t.component(2),
        "concat": lambda: concat(s, t),
    }[op]()
    with pytest.raises(TypeError):
        got.terms[F("[] []")] = Fraction(0)
    with pytest.raises(AttributeError):
        got.trunc = 1
    assert F("[] []") not in got.terms
    assert_stored(got)


def test_a_truncation_below_zero_is_refused():
    with pytest.raises(ValueError, match="truncation degree must be >= 0"):
        S("[]").truncated(-1)


# ---------------------------------------------------------------------------
# power series: x graded once against one public product per power


def _oracle_exp(a, n, product):
    x = Series(a.terms, min_trunc(a.trunc, n))
    powers = per_product_power_series(x, n, product, lambda k: Fraction(1, math.factorial(k)))
    return Series({EMPTY_FOREST: Fraction(1), **powers.terms}, n)


def _oracle_log(c):
    n = c.trunc
    x = Series({f: v for f, v in c.terms.items() if f.trees}, n)
    return per_product_power_series(x, n, gl_product, lambda k: Fraction((-1) ** (k + 1), k))


def _exp_inputs(n):
    return [field_generator(n), random_lie_series(random.Random(31 + n), n)]


@pytest.mark.parametrize("n", range(1, 8))
def test_power_series_match_one_product_per_power(n):
    for a in _exp_inputs(n):
        char = exp_concat(a, n, validate=False).series
        flow = exp_gl(a, n, validate=False).series
        for got, want in (
            (char, _oracle_exp(a, n, concat)),
            (flow, _oracle_exp(a, n, gl_product)),
            (log_gl(flow, validate=False).series, _oracle_log(flow)),
            (log_gl(char, validate=False).series, _oracle_log(char)),
        ):
            assert_trusted(got, want, shared=False)


def test_graft_basis_coefficients_are_ints():
    for w in enumerate_forests(3):
        for v in enumerate_forests(2):
            assert all(type(c) is int for _, c in _EXT.basis(w, v))
            assert all(type(c) is int for _, c in _EXT.gl_basis(w, v))


def test_equal_coefficients_share_one_object():
    a = S("[]", Fraction(3, 7)) + S("[[]]", Fraction(6, 14))
    x, y = a.terms.values()
    assert x is y


@pytest.mark.parametrize("n", range(9))
def test_graded_midpoint_stage_equals_n_full_rounds(n):
    got = lie_midpoint_field(n).series
    want = iterated_lie_midpoint_field(n)
    assert got == want
    assert got.trunc == n


def _predicate_cases():
    rng = random.Random(23)
    fields = [random_lie_series(rng, 6) for _ in range(2)]
    fields += [magnus_chi(field_generator(n), n, validate=False).series for n in (4, 7)]
    fields.append(lie_midpoint_field(6).series)
    flows = [exp_concat(x, x.trunc, validate=False).series for x in fields]
    return fields, flows


def _perturb(s, forest, delta):
    return s + Series.of(forest, delta, s.trunc)


class TestPredicatesAgainstFractionCoproduct:
    def test_valid_series(self):
        fields, flows = _predicate_cases()
        for s in fields:
            assert is_inf_character(s) and fraction_is_inf_character(s)
            assert not is_character(s) and not fraction_is_character(s)
        for s in flows:
            assert is_character(s) and fraction_is_character(s)
            assert not is_inf_character(s) and not fraction_is_inf_character(s)

    def test_constant_term_breaks_both(self):
        fields, flows = _predicate_cases()
        for s in fields:
            p = _perturb(s, EMPTY_FOREST, Fraction(1, 3))
            assert not is_inf_character(p) and not fraction_is_inf_character(p)
        for s in flows:
            p = _perturb(s, EMPTY_FOREST, Fraction(-2, 5))
            assert not is_character(p) and not fraction_is_character(p)

    def test_perturbed_words(self):
        rng = random.Random(29)
        fields, flows = _predicate_cases()
        for s in fields + flows:
            words = [f for d in range(2, s.trunc + 1) for f in enumerate_forests(d) if len(f) > 1]
            for _ in range(3):
                p = _perturb(s, rng.choice(words), Fraction(rng.choice((-3, 1, 2)), rng.randint(1, 7)))
                assert not is_inf_character(p) and not fraction_is_inf_character(p)
                assert not is_character(p) and not fraction_is_character(p)

    @pytest.mark.parametrize("build", [lie_midpoint_character, exact_flow_character])
    def test_degree_7_flows_and_a_perturbed_word(self, build):
        s = build(7).series
        assert is_character(s) and fraction_is_character(s)
        p = _perturb(s, F("[[]] [[[]]]"), Fraction(-2, 3))
        assert not is_character(p) and not fraction_is_character(p)


CHARACTERS = {
    "exact-flow": exact_flow_character,
    "lie-euler": lie_euler_character,
    "lie-midpoint": lie_midpoint_character,
}


def _character_verdict(s):
    """is_character's verdict, asserted equal to both oracles'."""
    verdict = is_character(s)
    assert ree_is_character(s) is verdict, s
    assert fraction_is_character(s) is verdict, s
    return verdict


def _character_perturbations(n):
    """(label, forest) inside degree n: a tree below the top degree (or the
    one-node tree at n = 1), a two-letter word, the word of n one-node
    trees, and the empty forest."""
    tree = enumerate_trees(max(n - 1, 1))[0]
    out = [("tree", Forest((tree,)))]
    if n >= 2:
        out.append(("two-letter word", Forest((LEAF, tree))))
    out += [("deep word", Forest((LEAF,) * n)), ("constant term", EMPTY_FOREST)]
    return out


class TestCharacterOffTheCoproduct:
    """is_character reads deshuffle(a) = a (x) a straight off the coproduct;
    it agrees with Ree's theorem on the concatenation logarithm and with the
    Fraction coproduct."""

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("name", sorted(CHARACTERS))
    def test_method_characters_and_their_perturbations(self, name, n):
        s = CHARACTERS[name](n).series
        assert _character_verdict(s) is True
        for label, f in _character_perturbations(n):
            # a single tree of the top degree is read by no pair
            unread = len(f.trees) == 1 and f.degree == n
            assert _character_verdict(_perturb(s, f, Fraction(-2, 3))) is unread, label
        _character_verdict(Series(s.terms))
        assert _character_verdict(Series(s.terms, 0)) is True

    @pytest.mark.parametrize(
        "s",
        [Series.unit(0), Series.zero(0), 2 * Series.unit(0), Series.unit(), Series.zero()],
        ids=["unit-trunc0", "zero-trunc0", "twice-unit-trunc0", "unit-exact", "zero-exact"],
    )
    def test_trunc_0_and_exact_edges(self, s):
        _character_verdict(s)

    def test_pair_count_refuses_what_no_split_reads(self):
        # [] has no proper split, so only the count sees <a, [] sh []> != a([])^2
        assert _character_verdict(Series.unit(2) + S("[]")) is False


class TestFieldCheckInIntegers:
    """is_inf_character sums integer weights over proper splits only."""

    @staticmethod
    def _agree(s, expected):
        assert is_inf_character(s) is expected
        assert fraction_is_inf_character(s) is expected

    def test_chi_8_and_a_perturbed_word(self):
        chi = magnus_chi(field_generator(8), 8, validate=False).series
        self._agree(chi, True)
        self._agree(_perturb(chi, F("[[]] [] [[]]"), Fraction(1, 7)), False)

    def test_zero_and_constant_term(self):
        self._agree(Series.zero(), True)
        self._agree(Series.zero(3), True)
        self._agree(S("[]") + S("1", Fraction(1, 2)), False)

    def test_exact_commutator(self):
        comm = bracket(S("[]"), bracket(S("[[]]"), S("[[] []]")))
        assert comm.trunc is None and len(comm.terms) == 4
        self._agree(comm, True)

    def test_single_trees_only(self):
        self._agree(S("[]", 3) + S("[[] []]", Fraction(-5, 2)) + S("[[[]]]", 7), True)

    def test_cancellation_across_denominators(self):
        half, third = Fraction(1, 2), Fraction(1, 3)
        self._agree(S("[] [[]]", half) - S("[[]] []", half), True)
        self._agree(S("[] [[]]", half) - S("[[]] []", third), False)

    def test_field_series_refusals_keep_their_messages(self):
        with pytest.raises(ValueError, match="a field series must have zero constant term"):
            FieldSeries(S("1") + S("[]"))
        with pytest.raises(ValueError, match="series does not vanish on shuffles"):
            FieldSeries(S("[] [[]]", Fraction(1, 2)) - S("[[]] []", Fraction(1, 3)))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 5),
    st.integers(0, 2**16),
    st.booleans(),
    st.lists(st.tuples(st.integers(0, 40), st.integers(-3, 3), st.integers(1, 6)), max_size=2),
    st.booleans(),
)
def test_predicates_match_the_fraction_coproduct(trunc, seed, flow, edits, exact):
    s = random_lie_series(random.Random(seed), trunc)
    if flow:
        s = exp_concat(s, trunc, validate=False).series
    forests = [f for d in range(trunc + 1) for f in enumerate_forests(d)]
    for index, num, den in edits:
        s = _perturb(s, forests[index % len(forests)], Fraction(num, den))
    if exact:
        s = Series(s.terms)
    assert is_inf_character(s) == fraction_is_inf_character(s)
    assert is_character(s) == fraction_is_character(s) == ree_is_character(s)
