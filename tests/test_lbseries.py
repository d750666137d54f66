import copy
import math
import pickle
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    F,
    S,
    brute_force_is_character,
    brute_force_is_inf_character,
    enumeration_first_defect,
    gl_free_exact_flow,
    random_lie_monomial,
    random_lie_series,
    shuffle_oracle,
    subset_deshuffle_forest,
)
from liebutcher import lbseries, matrixpostlie, series
from liebutcher.lbseries import (
    METHOD_CHARACTERS,
    FieldSeries,
    MethodCharacter,
    agreement,
    exact_flow_character,
    exp_concat,
    exp_gl,
    field_generator,
    first_defect,
    is_character,
    is_inf_character,
    lie_euler_character,
    lie_midpoint_character,
    lie_midpoint_field,
    log_gl,
    magnus_chi,
    order_of_agreement,
)
from liebutcher.matrixpostlie import eval_F
from liebutcher.postlie import bracket, gl_product
from liebutcher.series import Series
from liebutcher.trees import EMPTY_FOREST, enumerate_forests, enumerate_trees

UNIT = Series.unit()
HALF = Fraction(1, 2)


def lie_elements_up_to(n):
    """Trees plus all two- and three-factor bracket monomials of degree <= n."""
    trees = [Series.of(t) for d in range(1, n + 1) for t in enumerate_trees(d)]
    out = list(trees)
    singles = [(s, s.max_degree()) for s in trees]
    for a, da in singles:
        for b, db in singles:
            if da + db > n:
                continue
            ab = bracket(a, b)
            out.append(ab)
            for c, dc in singles:
                if da + db + dc <= n:
                    out.append(bracket(ab, c))
                    out.append(bracket(a, bracket(b, c)))
    return [s for s in out if s]


class TestPredicates:
    def test_generator_is_infinitesimal(self):
        assert is_inf_character(field_generator(4))

    def test_two_letter_word_is_not(self):
        assert not is_inf_character(Series.of("[] []"))

    def test_lie_elements_are_infinitesimal(self):
        for s in lie_elements_up_to(4):
            assert is_inf_character(s)

    def test_unit_is_character(self):
        assert is_character(UNIT)

    def test_exp_is_character(self):
        assert is_character(exp_concat(field_generator(4), 4).series)

    def test_unit_plus_tree_is_not_character(self):
        assert not is_character(Series.unit(4) + Series.of("[[]]", 1, 4))


@pytest.mark.parametrize(
    "build",
    [
        lambda n: exp_concat(field_generator(3), n),
        lambda n: exp_gl(field_generator(3), n),
        lambda n: magnus_chi(field_generator(3), n),
        lie_euler_character,
        lie_midpoint_field,
        Series.zero,
    ],
    ids=[
        "exp_concat", "exp_gl", "magnus_chi", "lie_euler_character", "lie_midpoint_field",
        "Series.zero",
    ],
)
def test_negative_truncation_is_refused(build):
    with pytest.raises(ValueError, match="truncation degree must be >= 0, got -1"):
        build(-1)


class TestWrappers:
    def test_field_series_rejects_constant_term(self):
        with pytest.raises(ValueError):
            FieldSeries(UNIT)

    def test_field_series_rejects_shuffle_products(self):
        with pytest.raises(ValueError):
            FieldSeries(Series.of("[] []"))

    def test_character_rejects_wrong_constant(self):
        with pytest.raises(ValueError):
            MethodCharacter(Series.of("[]"))
        with pytest.raises(ValueError):
            MethodCharacter(Series.unit(4) + Series.of("[[]]", 1, 4))

    def test_wrappers_check_the_series_a_checked_one_holds(self):
        char, field = exp_concat(field_generator(3), 3), magnus_chi(field_generator(3), 3)
        with pytest.raises(ValueError, match="a field series must have zero constant term"):
            FieldSeries(char)
        with pytest.raises(ValueError, match="a character must have constant term 1"):
            MethodCharacter(field)
        assert FieldSeries(field) == field and MethodCharacter(char) == char

    @pytest.mark.parametrize("cls", [FieldSeries, MethodCharacter])
    @pytest.mark.parametrize("bad, name", [("x", "str"), (None, "NoneType"), (1, "int")])
    def test_wrappers_refuse_a_non_series(self, cls, bad, name):
        with pytest.raises(TypeError, match=f"expected a Series.*got {name}$"):
            cls(bad)

    @pytest.mark.parametrize("build", [lambda: magnus_chi(field_generator(3), 3),
                                       lambda: exp_concat(field_generator(3), 3)],
                             ids=["FieldSeries", "MethodCharacter"])
    @pytest.mark.parametrize("name", ["series", "trunc", "other"])
    def test_a_checked_series_stays_checked(self, build, name):
        checked = build()
        cls = type(checked).__name__
        with pytest.raises(AttributeError, match=f"{cls} values are immutable"):
            setattr(checked, name, Series.of("[] []"))
        with pytest.raises(AttributeError, match=f"{cls} values are immutable"):
            delattr(checked, name)
        assert checked == build()

    @pytest.mark.parametrize("how", ["pickle", "copy", "deepcopy"])
    @pytest.mark.parametrize("cls", [FieldSeries, MethodCharacter])
    def test_round_trips_keep_the_value(self, how, cls):
        round_trip = {"pickle": lambda x: pickle.loads(pickle.dumps(x)),
                      "copy": copy.copy, "deepcopy": copy.deepcopy}[how]
        checked = (magnus_chi if cls is FieldSeries else exp_concat)(field_generator(4), 4)
        got = round_trip(checked)
        assert type(got) is cls and got == checked
        assert list(got.series.terms) == list(checked.series.terms)


class TestCheckedSeries:
    """A field or a character is a Series that passed its check, and only
    the constructor and the algebra build one."""

    def test_a_checked_series_is_a_series(self):
        gen = field_generator(3)
        chi = magnus_chi(gen, 3)
        plain = Series(chi.terms, chi.trunc)
        assert isinstance(chi, Series) and type(plain) is Series
        assert FieldSeries(gen) == gen and chi == plain
        assert type(chi + gen) is Series and chi + gen == plain + gen
        assert type(chi.truncated(2)) is Series and type(-chi) is Series
        assert chi.to_json() == plain.to_json()
        assert chi.series is chi and plain.series is plain
        assert repr(chi) == repr(plain).replace("<Series", "<FieldSeries", 1)
        assert bool(FieldSeries(Series.zero(3))) is False

    @pytest.mark.parametrize("cls", [FieldSeries, MethodCharacter])
    @pytest.mark.parametrize("build", [
        lambda cls: cls.of("[]", 1, 3), lambda cls: cls.zero(3), lambda cls: cls.unit(3),
        lambda cls: cls.from_json(Series.unit(3).to_json()),
    ], ids=["of", "zero", "unit", "from_json"])
    def test_only_the_constructor_and_the_algebra_build_one(self, cls, build):
        with pytest.raises(TypeError):
            build(cls)

    @pytest.mark.parametrize("how", ["pickle", "copy", "deepcopy"])
    def test_round_trips_run_no_predicate(self, how, monkeypatch):
        def refuse(a):
            raise AssertionError("a round trip ran a predicate")

        round_trip = {"pickle": lambda x: pickle.loads(pickle.dumps(x)),
                      "copy": copy.copy, "deepcopy": copy.deepcopy}[how]
        built = [magnus_chi(field_generator(4), 4), exp_concat(field_generator(4), 4)]
        monkeypatch.setattr(lbseries, "is_character", refuse)
        monkeypatch.setattr(lbseries, "is_inf_character", refuse)
        for checked in built:
            got = round_trip(checked)
            assert type(got) is type(checked) and got == checked


def _assert_predicates_match_oracle(s):
    assert is_inf_character(s) == brute_force_is_inf_character(s), s
    assert is_character(s) == brute_force_is_character(s), s


def _oracle_positives():
    rng = random.Random(5)
    fields = [random_lie_series(rng, 5) for _ in range(3)]
    return (
        [exp_concat(a, 5, validate=False).series for a in fields]
        + [exp_gl(a, 5, validate=False).series for a in fields]
        + fields
        + [magnus_chi(field_generator(n), n, validate=False).series for n in (3, 5)]
        + [lie_midpoint_field(n).series for n in (3, 5)]
    )


def _perturbed(s, rng):
    """s with one coefficient moved by a nonzero rational, on the empty forest
    or a forest of two or more trees, which no predicate can absorb."""
    n = s.trunc
    candidates = [EMPTY_FOREST] + [
        f for d in range(2, n + 1) for f in enumerate_forests(d) if len(f) > 1
    ]
    f = rng.choice(candidates)
    delta = Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 5))
    return s + Series.of(f, delta, n)


class TestPredicatesAgainstOracle:
    """The coproduct predicates agree with evaluation on every shuffle."""

    def test_positives(self):
        for s in _oracle_positives():
            _assert_predicates_match_oracle(s)
            assert is_inf_character(s) or is_character(s)

    def test_perturbed_negatives(self):
        rng = random.Random(17)
        for s in _oracle_positives():
            for _ in range(3):
                p = _perturbed(s, rng)
                _assert_predicates_match_oracle(p)
                assert not is_inf_character(p) and not is_character(p)

    @pytest.mark.parametrize(
        "s",
        [
            Series.zero(),
            Series.zero(4),
            2 * Series.unit(3),
            Series(exp_concat(field_generator(4), 4, validate=False).series.terms),
            bracket(S("[]"), S("[[]] []")),
            S("[] []") + S("[[]]"),
            Series.unit(0),
            Series.zero(0),
            2 * Series.unit(0),
            Series.of("[]", 1, 3),  # constant term 0 but nonzero: no character
            # a top-degree single tree is read by no pair: still a character
            exp_concat(field_generator(4), 4).series + S("[[[[]]]]", Fraction(1, 3), 4),
            # exact at support degree 2: only <a, [] sh []> = a([])^2 is read
            UNIT + S("[]") + S("[] []", HALF),
            UNIT + S("[]") + S("[] []", Fraction(1, 3)),
        ],
        ids=[
            "zero-exact",
            "zero-trunc4",
            "twice-unit",
            "exact-exp",
            "exact-bracket",
            "exact-word",
            "unit-trunc0",
            "zero-trunc0",
            "twice-unit-trunc0",
            "tree-no-constant",
            "exp-plus-top-tree",
            "exact-half-word",
            "exact-third-word",
        ],
    )
    def test_edges(self, s):
        _assert_predicates_match_oracle(s)

    def test_sparse_non_character_is_refused_fast(self):
        # its full concatenation logarithm takes seconds; the pair count
        # refuses it at once, since no proper split reaches ([], [])
        s = Series.unit(14)
        for d in (1, 2, 3):
            for t in enumerate_trees(d):
                s = s + Series.of(t)
        start = time.perf_counter()
        assert not is_character(s)
        assert time.perf_counter() - start < 1.0

    def test_character_check_takes_no_logarithm(self, monkeypatch):
        s = exact_flow_character(6).series

        def refuse(*args):
            raise AssertionError("the character check took a product")

        # every product, the power series' included, runs through this kernel
        monkeypatch.setattr(series, "_graded_product", refuse)
        monkeypatch.setattr(lbseries, "_graded_product", refuse)
        assert is_character(s)


@st.composite
def small_series(draw):
    """A Lie series or its concatenation exponential, truncated at 1..4,
    possibly perturbed on random forests, possibly made exact."""
    trunc = draw(st.integers(1, 4))
    s = random_lie_series(random.Random(draw(st.integers(0, 2**16))), trunc)
    if draw(st.booleans()):
        s = exp_concat(s, trunc, validate=False).series
    forests = [f for d in range(trunc + 1) for f in enumerate_forests(d)]
    for _ in range(draw(st.integers(0, 2))):
        delta = Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 4)))
        s = s + Series.of(draw(st.sampled_from(forests)), delta, trunc)
    return Series(s.terms) if draw(st.booleans()) else s


@settings(max_examples=60, deadline=None)
@given(small_series())
def test_predicates_match_the_oracle_on_random_series(s):
    _assert_predicates_match_oracle(s)


# Dimensions l_n of the free Lie algebra on planar trees (Munthe-Kaas and
# Krogstad, 2003): prod_k (1 - x^k)^(-l_k) = sum_n C_n x^n, C_n the number of
# ordered forests of degree n.
LIE_DIMS = (1, 1, 3, 8, 25, 75)


def _shuffle_rows(n):
    """The degree-n forests, and the coordinates of every u sh v with u, v
    non-empty of total degree n, computed by the position-choice oracle."""
    forests = enumerate_forests(n)
    index = {f: i for i, f in enumerate(forests)}
    rows = []
    for p in range(1, n):
        for u in enumerate_forests(p):
            for v in enumerate_forests(n - p):
                row = [Fraction(0)] * len(forests)
                for f, c in shuffle_oracle(u, v).items():
                    row[index[f]] += c
                rows.append(row)
    return forests, rows


def _proper_split_rows(n):
    """The degree-n forests, and per proper split (u, v) of total degree n
    its row of the map a -> sum over f of a_f times the weight of (u, v) in
    deshuffle(f), each forest's coproduct taken by the subset oracle."""
    forests = enumerate_forests(n)
    rows = {}
    for j, f in enumerate(forests):
        for (u, v), m in subset_deshuffle_forest(f):
            if u.trees and v.trees:
                rows.setdefault((u, v), [Fraction(0)] * len(forests))[j] += m
    return forests, rows


def _nullspace(rows, ncols):
    """A basis of {x : row . x = 0 for every row}, by Fraction elimination."""
    rows = [list(r) for r in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i, other in enumerate(rows):
            if i != r and other[c]:
                rows[i] = [a - other[c] * b for a, b in zip(other, rows[r])]
        pivots.append(c)
    basis = []
    for free in sorted(set(range(ncols)) - set(pivots)):
        x = [Fraction(0)] * ncols
        x[free] = Fraction(1)
        for row, c in zip(rows, pivots):
            x[c] = -row[free]
        basis.append(x)
    return basis


class TestLieDimension:
    """Infinitesimal characters of degree n vanish on every shuffle, so they
    form the orthogonal complement of the shuffle products: dimension C_n
    minus their rank, which must be the Lie dimension l_n.  Dually they are
    the kernel of the map to the proper splits of the coproduct."""

    def test_lie_dims_generate_the_forest_counts(self):
        counts = [1] + [0] * len(LIE_DIMS)
        for k, dim in enumerate(LIE_DIMS, start=1):
            for _ in range(dim):  # multiply by 1 / (1 - x^k)
                for n in range(k, len(counts)):
                    counts[n] += counts[n - k]
        assert counts[1:] == [len(enumerate_forests(n)) for n in range(1, len(counts))]

    @pytest.mark.parametrize("n", range(1, len(LIE_DIMS) + 1))
    def test_nullspace_is_the_lie_part(self, n):
        forests, rows = _shuffle_rows(n)
        basis = _nullspace(rows, len(forests))
        assert len(basis) == LIE_DIMS[n - 1]
        for x in basis:
            a = Series(dict(zip(forests, x)))
            assert is_inf_character(a)
            for row in rows[:3]:
                assert not is_inf_character(a + Series(dict(zip(forests, row))))

    @pytest.mark.parametrize("n", range(1, len(LIE_DIMS) + 1))
    def test_proper_split_kernel_is_the_lie_part(self, n):
        # the field check's own criterion as a linear map: its kernel
        forests, rows = _proper_split_rows(n)
        basis = _nullspace(list(rows.values()), len(forests))
        assert len(basis) == LIE_DIMS[n - 1]
        outside = [Series.of(f) for f in forests if len(f.trees) > 1]
        assert len(outside) == len(forests) - len(enumerate_trees(n))
        assert not any(is_inf_character(e) for e in outside)
        for x in basis:
            a = Series(dict(zip(forests, x)))
            assert a and is_inf_character(a)
            for e in outside[:3]:
                assert not is_inf_character(a + e)


class TestExponentials:
    def test_exp_concat_degree_two(self):
        got = exp_concat(field_generator(2), 2)
        assert got.series == (UNIT + S("[]") + S("[] []", HALF)).truncated(2)

    def test_exp_gl_degree_two(self):
        got = exp_gl(field_generator(2), 2)
        expected = UNIT + S("[]") + S("[] []", HALF) + S("[[]]", HALF)
        assert got.series == expected.truncated(2)

    def test_exp_of_zero(self):
        assert exp_concat(Series.zero(3), 3).series == Series.unit(3)
        assert exp_gl(Series.zero(3), 3).series == Series.unit(3)

    def test_exp_rejects_constant_term(self):
        with pytest.raises(ValueError):
            exp_concat(UNIT, 3)

    def test_exp_of_two_term_field_is_character(self):
        a = (S("[]") + S("[[]]")).truncated(4)
        assert is_character(exp_concat(a, 4).series)
        assert is_character(exp_gl(a, 4).series)

    def test_exp_of_random_lie_series_is_character(self):
        rng = random.Random(11)
        for _ in range(5):
            a = random_lie_series(rng, 4)
            assert is_character(exp_concat(a, 4).series)
            assert is_character(exp_gl(a, 4).series)


class TestLogarithm:
    def test_log_of_unit(self):
        assert log_gl(MethodCharacter(Series.unit(3))).series == Series.zero(3)

    def test_log_inverts_exp(self):
        gen = field_generator(4)
        assert log_gl(exp_gl(gen, 4)).series == gen.truncated(4)

    def test_exp_inverts_log(self):
        rng = random.Random(5)
        for _ in range(3):
            a = random_lie_series(rng, 5)
            assert log_gl(exp_gl(a, 5)).series == a.truncated(5)

    def test_log_of_concat_exponential_degree_two(self):
        lg = log_gl(exp_concat(field_generator(4), 4))
        assert lg.series.component(2) == Series.of("[[]]", -HALF, 4)

    def test_log_rejects_wrong_constant(self):
        with pytest.raises(ValueError):
            log_gl(Series.of("[]", 1, 3))


class TestMagnus:
    def test_degree_two_coefficient(self):
        chi = magnus_chi(field_generator(2), 2)
        assert chi.series == S("[]", 1, 2) + S("[[]]", -HALF, 2)

    def test_degree_three_part(self):
        chi = magnus_chi(field_generator(3), 3)
        expected = (
            S("[[]] []", Fraction(1, 12))
            - S("[] [[]]", Fraction(1, 12))
            + S("[[[]]]", Fraction(1, 3))
            + S("[[] []]", Fraction(1, 12))
        ).truncated(3)
        assert chi.series.component(3) == expected

    def test_degree_four_displayed_coefficient(self):
        chi = magnus_chi(field_generator(4), 4)
        assert chi.series.coeff("[[[]] []]") == Fraction(-1, 12)

    def test_defining_relation(self):
        gen = field_generator(5)
        chi = magnus_chi(gen, 5)
        assert exp_gl(chi, 5).series == exp_concat(gen, 5).series

    def test_defining_relation_on_random_fields(self):
        rng = random.Random(23)
        for _ in range(3):
            a = random_lie_series(rng, 5)
            chi = magnus_chi(a, 5)
            assert exp_gl(chi, 5).series == exp_concat(a, 5).series

    def test_output_is_infinitesimal(self):
        assert is_inf_character(magnus_chi(field_generator(4), 4).series)

    def test_backward_error_reading(self):
        # chi truncated at n and re-exponentiated matches the concatenation
        # exponential through degree n
        chi = magnus_chi(field_generator(5), 5)
        euler = exp_concat(field_generator(5), 5)
        for n in (1, 2, 3, 4):
            head = Series(
                {f: c for f, c in chi.series.terms.items() if f.degree <= n}, trunc=5
            )
            regrown = exp_gl(head, 5, validate=False)
            for d in range(0, n + 1):
                assert regrown.series.component(d) == euler.series.component(d)


class TestIntegratorCharacters:
    def test_lie_euler_low_degrees(self):
        euler = lie_euler_character(3)
        assert euler.series.component(1) == Series.of("[]", 1, 3)
        diff = exact_flow_character(3).series - euler.series
        assert diff.component(2) == Series.of("[[]]", HALF, 3)

    def test_lie_euler_is_character_degree_five(self):
        assert is_character(lie_euler_character(5).series)

    def test_midpoint_stage_low_degrees(self):
        k = lie_midpoint_field(2)
        assert k.series == S("[]", 1, 2) + S("[[]]", HALF, 2)

    def test_midpoint_character_low_degrees(self):
        phi = lie_midpoint_character(2)
        expected = UNIT + S("[]") + S("[] []", HALF) + S("[[]]", HALF)
        assert phi.series == expected.truncated(2)

    def test_midpoint_stage_is_fixed_point(self):
        from liebutcher.postlie import triangleright

        n = 4
        k = lie_midpoint_field(n)
        again = triangleright(
            exp_concat(k.series * HALF, n, validate=False).series, field_generator(n)
        )
        assert again == k.series

    def test_gl_product_of_characters_is_character(self):
        a = lie_euler_character(4).series
        b = lie_midpoint_character(4).series
        assert is_character(gl_product(a, b))

    @pytest.mark.parametrize("n", range(9))
    def test_exact_flow_matches_the_gl_free_recursion(self, n):
        assert exact_flow_character(n).series == gl_free_exact_flow(n)


def _bernoulli(m):
    """B_0..B_m from sum_{j<=k} C(k+1, j) B_j = 0 for k >= 1, so B_1 = -1/2."""
    b = [Fraction(1)]
    for k in range(1, m + 1):
        b.append(-sum(math.comb(k + 1, j) * b[j] for j in range(k)) / (k + 1))
    return b


def _chain(k):
    return F("[" * k + "]" * k)


def _corolla(k):
    return F("[" + " ".join(["[]"] * (k - 1)) + "]")


@pytest.mark.parametrize("n", [8, 10])
class TestClosedForms:
    """Coefficients known without any product code (Magnus, CPAM 7, 1954;
    Iserles and Norsett, Phil. Trans. R. Soc. A 357, 1999): on corollas
    chi(h[]) is the Magnus series x/(e^x - 1), on chains the logarithm
    log(1 + x), and it vanishes on the words []^k, k >= 2; the exact flow
    is e^x on both chains and corollas."""

    def test_chi(self, n):
        chi = magnus_chi(field_generator(n), n).series
        bernoulli = _bernoulli(n)
        for k in range(1, n + 1):
            assert chi.coeff(_corolla(k)) == bernoulli[k - 1] / math.factorial(k - 1), k
            assert chi.coeff(_chain(k)) == Fraction((-1) ** (k + 1), k), k
            if k >= 2:
                assert chi.coeff(F(" ".join(["[]"] * k))) == 0, k

    def test_exact_flow(self, n):
        flow = exact_flow_character(n).series
        for k in range(1, n + 1):
            want = Fraction(1, math.factorial(k))
            assert flow.coeff(_chain(k)) == flow.coeff(_corolla(k)) == want, k


def _refuses(call, *args):
    """Whether call(*args) raises ValueError."""
    try:
        call(*args)
    except ValueError:
        return True
    return False


def _verdict_inputs():
    """Seeded fields, copies perturbed on one two-letter word, and a series
    that is a field up to n only, each with the degree n to exponentiate at."""
    rng = random.Random(29)
    n = 5
    words = [f for d in range(2, n + 1) for f in enumerate_forests(d) if len(f) == 2]
    fields = [random_lie_series(rng, n) for _ in range(4)] + [field_generator(n)]
    out = []
    for i, a in enumerate(fields):
        perturbed = a + Series.of(rng.choice(words), Fraction(rng.randint(1, 5), 7), n)
        out += [pytest.param(a, n, id=f"field{i}"), pytest.param(perturbed, n, id=f"perturbed{i}")]
    # its only word past the field's terms has degree n + 1
    beyond = Series(fields[0].terms) + S("[[]] [[[[]]]]", Fraction(2, 3))
    return out + [pytest.param(beyond, n, id="field-up-to-n"),
                  pytest.param(beyond, n + 1, id="non-field-at-n+1")]


class TestVerdicts:
    """Each call checks its argument, not its result, and raises exactly
    when the predicate refuses the result the unchecked call builds: at
    every truncation exp and log are inverse bijections between fields and
    characters."""

    @pytest.mark.parametrize("a, n", _verdict_inputs())
    def test_argument_check_matches_the_result_check(self, a, n):
        verdicts, word = [], F("[] [[]]")
        for exp in (exp_concat, exp_gl):
            char = exp(a, n, validate=False).series
            refused = not is_character(char)
            assert _refuses(exp, a, n) is refused
            verdicts.append(refused)
            if refused:
                with pytest.raises(ValueError, match="^series does not vanish on shuffles$"):
                    exp(a, n)
            for c in (char, char + Series.of(word, Fraction(1, 5), n)):
                log_refused = not is_inf_character(log_gl(c, validate=False).series)
                assert _refuses(log_gl, c) is log_refused
        chi = magnus_chi(a, n, validate=False).series
        assert _refuses(magnus_chi, a, n) is (not is_inf_character(chi)) is verdicts[0]
        assert verdicts == [verdicts[0]] * 2

    def test_inputs_hold_both_verdicts(self):
        verdicts = {_refuses(exp_gl, *p.values) for p in _verdict_inputs()}
        assert verdicts == {True, False}


class TestVouching:
    """The type is the proof: a FieldSeries or MethodCharacter passed its
    check or was built by the algebra from checked series; validate=False
    returns a plain Series."""

    BAD = field_generator(4) + S("[] [[]]", 1, 4)

    @pytest.mark.parametrize("call", [lambda a: exp_concat(a, 4), lambda a: exp_gl(a, 4),
                                      lambda a: magnus_chi(a, 4), FieldSeries],
                             ids=["exp_concat", "exp_gl", "magnus_chi", "FieldSeries"])
    def test_an_unvalidated_field_is_checked(self, call):
        with pytest.raises(ValueError, match="series does not vanish on shuffles"):
            call(magnus_chi(self.BAD, 4, validate=False))

    def test_an_unvalidated_character_is_checked(self):
        bad = exp_gl(self.BAD, 4, validate=False)
        with pytest.raises(ValueError, match="series is not multiplicative on shuffles"):
            log_gl(bad)
        with pytest.raises(ValueError, match="series is not multiplicative on shuffles"):
            MethodCharacter(bad)

    def test_validate_false_vouches_for_nothing(self):
        gen = field_generator(4)
        built = [exp_concat(gen, 4, validate=False), exp_gl(gen, 4, validate=False),
                 magnus_chi(gen, 4, validate=False), log_gl(exp_gl(gen, 4), validate=False)]
        assert [type(w) for w in built] == [Series] * 4

    @pytest.mark.parametrize("n", [0, 3, 6])
    def test_vouched_series_run_no_predicate(self, n, monkeypatch):
        def refuse(a):
            raise AssertionError("a vouched series was checked again")

        monkeypatch.setattr(lbseries, "is_character", refuse)
        monkeypatch.setattr(lbseries, "is_inf_character", refuse)
        field = lie_midpoint_field(n)
        chi = magnus_chi(field, n)
        built = [field, chi, exp_concat(chi, n), log_gl(exp_gl(chi, n)), FieldSeries(chi),
                 MethodCharacter(exp_gl(field, n)), lie_euler_character(n),
                 lie_midpoint_character(n), exact_flow_character(n)]
        kinds = [FieldSeries, FieldSeries, MethodCharacter, FieldSeries, FieldSeries]
        assert [type(w) for w in built] == kinds + [MethodCharacter] * 4

    @pytest.mark.parametrize("n", range(9))
    def test_built_series_pass_the_predicates(self, n):
        for char in (*(method(n) for method in METHOD_CHARACTERS.values()),
                     exact_flow_character(n)):
            assert type(char) is MethodCharacter and is_character(char)
        for field in (lie_midpoint_field(n), magnus_chi(field_generator(n), n)):
            assert type(field) is FieldSeries and is_inf_character(field)


FIELD_ENTRIES = {
    "FieldSeries": FieldSeries,
    "exp_concat": lambda a: exp_concat(a, 4),
    "exp_gl": lambda a: exp_gl(a, 4),
    "magnus_chi": lambda a: magnus_chi(a, 4),
    "eval_F": lambda a: eval_F("lu", np.eye(3), a),
}
CHARACTER_ENTRIES = {"MethodCharacter": MethodCharacter, "log_gl": log_gl}


def _message(call, a):
    with pytest.raises(ValueError) as err:
        call(a)
    return str(err.value)


class TestEntryCheck:
    """Fields and characters each have one entry check (_Checked._enter),
    which every entry point of the kind goes through, so a fault gets one
    message wherever it enters."""

    @pytest.mark.parametrize("entries, bad, message", [
        (FIELD_ENTRIES, Series.unit(4) + field_generator(4),
         "a field series must have zero constant term"),
        (FIELD_ENTRIES, TestVouching.BAD, "series does not vanish on shuffles"),
        (FIELD_ENTRIES, magnus_chi(TestVouching.BAD, 4, validate=False),
         "series does not vanish on shuffles"),
        (CHARACTER_ENTRIES, field_generator(4), "a character must have constant term 1"),
        (CHARACTER_ENTRIES, Series.unit(4) + S("[[]]", 1, 4),
         "series is not multiplicative on shuffles"),
        (CHARACTER_ENTRIES, exp_gl(TestVouching.BAD, 4, validate=False),
         "series is not multiplicative on shuffles"),
    ], ids=["field-constant", "field-shuffle", "field-shuffle-unvouched",
            "character-constant", "character-shuffle", "character-shuffle-unvouched"])
    def test_one_message_per_fault(self, entries, bad, message):
        got = {name: _message(call, bad) for name, call in entries.items()}
        assert got == dict.fromkeys(entries, message)

    @pytest.mark.parametrize("cls, series", [(FieldSeries, field_generator(4)),
                                             (MethodCharacter, Series.unit(4))],
                             ids=["FieldSeries", "MethodCharacter"])
    def test_a_constructor_always_vouches(self, cls, series):
        assert type(cls(series)) is cls
        with pytest.raises(TypeError):
            cls(series, validate=False)

    def test_the_predicates_are_looked_up_per_call(self, monkeypatch):
        seen = []
        monkeypatch.setattr(lbseries, "is_inf_character", lambda a: seen.append("field") or True)
        monkeypatch.setattr(lbseries, "is_character", lambda a: seen.append("character") or True)
        matrixpostlie._plan.cache_clear()
        gen, unit = field_generator(3), Series.unit(3)
        for call in FIELD_ENTRIES.values():
            call(gen)
        for call in CHARACTER_ENTRIES.values():
            call(unit)
        assert seen == ["field"] * len(FIELD_ENTRIES) + ["character"] * len(CHARACTER_ENTRIES)


def backward(a) -> Series:
    """alpha(-h) of a character alpha(h): the coefficient of w times (-1)^|w|."""
    s = a.series
    return Series({f: -c if f.degree % 2 else c for f, c in s.terms.items()}, s.trunc)


class TestSymmetry:
    """A method is symmetric iff alpha(h) * alpha(-h) = 1 under the GL
    product: an exact check that takes no logarithm."""

    @pytest.mark.parametrize("n", [6, 8])
    def test_midpoint_is_symmetric(self, n):
        phi = lie_midpoint_character(n)
        assert gl_product(phi.series, backward(phi)) == Series.unit(n)

    def test_lie_euler_is_not(self):
        euler = lie_euler_character(6)
        defect = gl_product(euler.series, backward(euler)) - Series.unit(6)
        assert min(f.degree for f in defect.terms) == 2
        assert list(defect.component(2).terms) == [F("[[]]")]


class TestOrders:
    def test_self_agreement_is_trunc(self):
        euler = lie_euler_character(4)
        assert order_of_agreement(euler, euler) == 4

    def test_euler_is_order_one(self):
        assert order_of_agreement(lie_euler_character(4), exact_flow_character(4)) == 1

    def test_midpoint_is_order_two_with_degree_three_defect(self):
        mid = lie_midpoint_character(4)
        exact = exact_flow_character(4)
        assert order_of_agreement(mid, exact) == 2
        defect = first_defect(mid, exact)
        assert defect.degree == 3
        assert defect.lhs != defect.rhs

    def test_first_defect_matches_enumeration(self):
        rng = random.Random(23)
        pairs = [
            (method(n).series, exact_flow_character(n).series)
            for n in (0, 1, 3, 5)
            for method in (lie_euler_character, lie_midpoint_character)
        ]
        pairs += [(s, _perturbed(s, rng)) for s in _oracle_positives()]
        pairs += [(_perturbed(s, rng), s) for s in _oracle_positives()]
        pairs += [(s, s) for s in _oracle_positives()]
        for a, b in pairs:
            assert first_defect(a, b) == enumeration_first_defect(a, b)

    def test_agreement_above_the_enumeration_cap(self):
        a = exp_concat(field_generator(9), 9, validate=False)
        assert order_of_agreement(a, a) == 9
        assert first_defect(a, a) is None

    @pytest.mark.parametrize("name, order", [("lie-euler", 1), ("lie-midpoint", 2)])
    def test_agreement_is_the_order_and_the_first_defect(self, name, order):
        for n in (0, 1, 3, 5):
            method, exact = METHOD_CHARACTERS[name](n), exact_flow_character(n)
            assert agreement(method, exact) == (min(order, n), first_defect(method, exact))
            assert agreement(method, method) == (n, None)

    def test_mismatched_trunc_rejected(self):
        with pytest.raises(ValueError):
            agreement(lie_euler_character(3), exact_flow_character(4))
        with pytest.raises(ValueError):
            order_of_agreement(lie_euler_character(3), exact_flow_character(4))
        with pytest.raises(ValueError):
            first_defect(MethodCharacter(UNIT), MethodCharacter(UNIT))


class TestRandomLieMachinery:
    def test_monomials_are_homogeneous(self):
        rng = random.Random(2)
        for d in range(1, 5):
            for _ in range(5):
                m = random_lie_monomial(rng, d)
                assert {f.degree for f in m.terms} == {d}
                assert is_inf_character(m)
