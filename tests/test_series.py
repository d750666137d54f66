import copy
import json
import math
import pickle
import signal
import sys
from fractions import Fraction

import pytest

from hypothesis import given, settings, strategies as st

from helpers import (
    F,
    S,
    letter_deshuffle_forest,
    recursive_shuffle_basis,
    shuffle_oracle,
    subset_deshuffle_forest,
)
from liebutcher.lbseries import field_generator, magnus_chi
from liebutcher.series import (
    Series,
    TruncationError,
    _shuffle_basis,
    concat,
    deshuffle,
    deshuffle_forest,
    pairing,
    shuffle,
    truncate,
)
from liebutcher.trees import EMPTY_FOREST, Forest, enumerate_forests

UNIT = Series.unit()


def leaves(k):
    """The forest of k one-node trees."""
    return F(" ".join(["[]"] * k) or "1")


# three letters for random words: [], [[]] and [[[]]]
LETTERS = [f.trees[0] for f in (F("[]"), F("[[]]"), F("[[[]]]"))]


def forests_up_to(n):
    return [f for d in range(0, n + 1) for f in enumerate_forests(d)]


class TestConstruction:
    def test_zero_coefficients_dropped(self):
        s = Series({F("[]"): Fraction(0), F("[[]]"): Fraction(2)})
        assert list(s.terms) == [F("[[]]")]

    def test_trunc_filters_terms(self):
        s = Series({F("[]"): 1, F("[] [] []"): 1}, trunc=2)
        assert s.coeff("[]") == 1
        assert s.coeff("[] [] []") == 0

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            Series.of("[]", 0.5)
        with pytest.raises(TypeError):
            S("[]") * 0.5
        with pytest.raises(TypeError, match="^cannot interpret 1.5 as a forest$"):
            Series.of(1.5)


ROUND_TRIPS = {
    "pickle": lambda x: pickle.loads(pickle.dumps(x)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


class TestImmutableValue:
    def series(self):
        return Series({F("[[]] []"): Fraction(1, 2), F("[]"): 3, F("[[[]]]"): -1}, 4)

    @pytest.mark.parametrize("edit", ["set", "add", "delete", "iadd"])
    def test_terms_refuse_edits(self, edit):
        s = self.series()
        before = dict(s.terms)
        with pytest.raises(TypeError):
            if edit == "set":
                s.terms[F("[]")] = Fraction(0)
            elif edit == "add":
                s.terms[F("[] []")] = Fraction(1, 5)
            elif edit == "delete":
                del s.terms[F("[]")]
            else:
                s.terms[F("[]")] += 1
        assert s.terms == before and list(s.terms) == list(before)

    @pytest.mark.parametrize("name", ["terms", "trunc", "other"])
    def test_attributes_cannot_be_set_or_deleted(self, name):
        s = self.series()
        with pytest.raises(AttributeError, match="Series values are immutable"):
            setattr(s, name, {} if name == "terms" else 2)
        with pytest.raises(AttributeError, match="Series values are immutable"):
            delattr(s, name)
        assert s == self.series()

    @pytest.mark.parametrize("how", sorted(ROUND_TRIPS))
    @pytest.mark.parametrize("trunc", [None, 4, 0])
    def test_round_trips_keep_the_value(self, how, trunc):
        s = Series(self.series().terms, trunc)
        got = ROUND_TRIPS[how](s)
        assert type(got) is Series and got == s and got.trunc == s.trunc
        assert list(got.terms) == list(s.terms)
        with pytest.raises(TypeError):
            got.terms[F("[]")] = Fraction(1)

    @pytest.mark.parametrize("how", sorted(ROUND_TRIPS))
    def test_a_degree_8_series_is_read_only_and_round_trips(self, how):
        s = magnus_chi(field_generator(8), 8).series
        with pytest.raises(TypeError):
            s.terms[next(iter(s.terms))] = Fraction(0)
        got = ROUND_TRIPS[how](s)
        assert len(got.terms) == 1917 and got == s and list(got.terms) == list(s.terms)


class TestVectorSpace:
    def test_add_merges_and_cancels(self):
        assert S("[]") + S("[]", -1) == Series.zero()
        assert S("[]") + S("[[]]") == Series({F("[]"): 1, F("[[]]"): 1})

    def test_scalar_action(self):
        assert S("[]", 2) == 2 * S("[]") == S("[]") * 2
        assert S("[]") / 2 == S("[]", Fraction(1, 2))
        assert -S("[]") == S("[]", -1)

    def test_trunc_min_rule(self):
        a = Series.of("[]", 1, 3)
        b = Series.of("[] [] [] []", 1)
        assert (a + b).trunc == 3
        assert (a + b).coeff("[] [] [] []") == 0

    def test_component_and_max_degree(self):
        s = UNIT + S("[]") + S("[] []")
        assert s.component(2) == Series({F("[] []"): 1})
        assert s.max_degree() == 2
        assert Series.zero().max_degree() == 0

    @pytest.mark.parametrize("op", [lambda s: s + 1, lambda s: s - 1, lambda s: s * s],
                             ids=["add", "sub", "series-times-series"])
    def test_operands_that_are_not_series_are_refused(self, op):
        with pytest.raises(TypeError):
            op(S("[]"))

    def test_a_series_equals_no_other_type(self):
        assert (S("[]") == 1) is False and (Series.zero() == 0) is False

    def test_repr_of_zero(self):
        assert repr(Series.zero(3)) == "<Series 0 (trunc 3)>"
        assert repr(Series.zero()) == "<Series 0>"


class TestConcat:
    def test_unit(self):
        assert concat(UNIT, S("[]")) == S("[]")
        assert concat(S("[]"), UNIT) == S("[]")

    def test_juxtaposition(self):
        assert concat(S("[]"), S("[[]]")) == S("[] [[]]")

    def test_bilinearity(self):
        assert concat(S("[]") + S("[[]]"), S("[]")) == S("[] []") + S("[[]] []")

    def test_associativity_exhaustive(self):
        forests = forests_up_to(3)
        for a in forests:
            for b in forests:
                if a.degree + b.degree > 4:
                    continue
                for c in forests:
                    if a.degree + b.degree + c.degree > 5:
                        continue
                    sa, sb, sc = Series.of(a), Series.of(b), Series.of(c)
                    assert concat(concat(sa, sb), sc) == concat(sa, concat(sb, sc))

    def test_truncation_drops_terms(self):
        a = Series.of("[]", 1, 2)
        assert concat(a, Series.of("[] []")) == Series.zero(2)


class TestShuffle:
    def test_unit(self):
        assert shuffle(S("[]"), UNIT) == S("[]")
        assert shuffle(UNIT, S("[]")) == S("[]")

    def test_repeated_letter(self):
        assert shuffle(S("[] []"), S("[]")) == S("[] [] []", 3)

    def test_distinct_letters(self):
        assert shuffle(S("[]"), S("[[]]")) == S("[] [[]]") + S("[[]] []")

    def test_against_position_oracle(self):
        forests = forests_up_to(4)
        for u in forests:
            for v in forests:
                if u.degree + v.degree > 4:
                    continue
                expected = shuffle_oracle(u, v)
                got = shuffle(Series.of(u), Series.of(v))
                assert got.terms == {f: Fraction(m) for f, m in expected.items()}

    def test_suffix_table_keeps_the_recursive_term_order(self):
        # equal tuples: the same forests, multiplicities and order
        forests = forests_up_to(5)
        for u in forests:
            for v in forests:
                assert _shuffle_basis.__wrapped__(u, v) == recursive_shuffle_basis(u, v), (u, v)

    @pytest.mark.parametrize("long_side", ["left", "right"])
    def test_a_long_operand_on_either_side(self, long_side):
        # []^k sh [] = [] sh []^k = (k + 1) []^(k + 1), with no recursion per letter
        k = 600
        word = S(" ".join(["[]"] * k))
        pair = (word, S("[]")) if long_side == "left" else (S("[]"), word)
        assert shuffle(*pair) == S(" ".join(["[]"] * (k + 1)), k + 1)

    def test_commutative(self):
        forests = forests_up_to(4)
        for a in forests:
            for b in forests:
                assert shuffle(Series.of(a), Series.of(b)) == shuffle(
                    Series.of(b), Series.of(a)
                )

    def test_associative(self):
        forests = forests_up_to(3)
        for a in forests:
            for b in forests:
                if a.degree + b.degree > 5:
                    continue
                sab = shuffle(Series.of(a), Series.of(b))
                for c in forests:
                    if a.degree + b.degree + c.degree > 5:
                        continue
                    sc = Series.of(c)
                    assert shuffle(sab, sc) == shuffle(
                        Series.of(a), shuffle(Series.of(b), sc)
                    )


class TestDeshuffle:
    def test_empty(self):
        assert deshuffle(UNIT) == {(EMPTY_FOREST, EMPTY_FOREST): 1}

    def test_single_letter(self):
        assert deshuffle(S("[]")) == {
            (F("[]"), F("1")): 1,
            (F("1"), F("[]")): 1,
        }

    def test_two_distinct_letters(self):
        assert deshuffle(S("[] [[]]")) == {
            (F("1"), F("[] [[]]")): 1,
            (F("[]"), F("[[]]")): 1,
            (F("[[]]"), F("[]")): 1,
            (F("[] [[]]"), F("1")): 1,
        }

    def test_letter_loop_matches_subset_oracle(self):
        for f in forests_up_to(8):
            assert dict(deshuffle_forest(f)) == dict(subset_deshuffle_forest(f)), f

    def test_prefix_memo_keeps_the_letter_order(self):
        # equal tuples: the same splits, multiplicities and order
        for f in forests_up_to(7):
            assert deshuffle_forest(f) == letter_deshuffle_forest(f), f

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.sampled_from(LETTERS), max_size=11))
    def test_prefix_memo_on_words_with_repeated_letters(self, letters):
        f = Forest(tuple(letters))
        assert deshuffle_forest.__wrapped__(f) == letter_deshuffle_forest(f)
        assert deshuffle_forest(f) == letter_deshuffle_forest(f)

    def test_repeated_letter_multiplicities(self):
        assert dict(deshuffle_forest(leaves(3))) == {
            (leaves(0), leaves(3)): 1,
            (leaves(1), leaves(2)): 3,
            (leaves(2), leaves(1)): 3,
            (leaves(3), leaves(0)): 1,
        }

    def test_forty_equal_letters_without_recursion(self):
        # the subset oracle would take 2^40 steps here, so an alarm fails a
        # return to it instead of hanging; the lowered recursion limit fails
        # a version that recurses once per letter
        def too_slow(signum, frame):
            raise TimeoutError("deshuffle_forest of 40 letters took over 10 s")

        frame, depth = sys._getframe(), 0
        while frame is not None:
            frame, depth = frame.f_back, depth + 1
        limit = sys.getrecursionlimit()
        handler = signal.signal(signal.SIGALRM, too_slow)
        signal.alarm(10)
        sys.setrecursionlimit(depth + 20)
        try:
            splits = deshuffle_forest.__wrapped__(leaves(40))
        finally:
            sys.setrecursionlimit(limit)
            signal.alarm(0)
            signal.signal(signal.SIGALRM, handler)
        assert len(splits) == 41
        assert dict(splits) == {(leaves(i), leaves(40 - i)): math.comb(40, i) for i in range(41)}

    def test_duality_with_shuffle(self):
        for n in range(0, 5):
            for w in enumerate_forests(n):
                splits = dict(deshuffle_forest(w))
                for p in range(0, n + 1):
                    for u in enumerate_forests(p):
                        for v in enumerate_forests(n - p):
                            lhs = shuffle(Series.of(u), Series.of(v)).coeff(w)
                            assert lhs == splits.get((u, v), 0)

    def test_coassociative_and_cocommutative(self):
        for n in range(0, 6):
            for w in enumerate_forests(n):
                splits = dict(deshuffle_forest(w))
                # cocommutativity
                for (u, v), m in splits.items():
                    assert splits.get((v, u)) == m
                # coassociativity as multisets of ordered triples
                left = {}
                right = {}
                for (u, v), m in splits.items():
                    for (u1, u2), m2 in deshuffle_forest(u):
                        key = (u1, u2, v)
                        left[key] = left.get(key, 0) + m * m2
                    for (v1, v2), m2 in deshuffle_forest(v):
                        key = (u, v1, v2)
                        right[key] = right.get(key, 0) + m * m2
                assert left == right


class TestPairingAndTruncate:
    def test_coefficient_extraction(self):
        a = S("[]") + S("[[]]", 2)
        assert pairing(a, F("[[]]")) == 2
        assert pairing(a, F("[] []")) == 0

    def test_orthonormal_basis(self):
        forests = forests_up_to(3)
        for u in forests:
            for v in forests:
                assert pairing(Series.of(u), v) == (1 if u == v else 0)

    def test_truncation_guard(self):
        a = Series.of("[]", 1, 2)
        with pytest.raises(TruncationError):
            pairing(a, F("[] [] []"))
        assert a.coeff("[] [] []") == 0  # unguarded access stays silent

    def test_truncate_examples(self):
        a = UNIT + S("[]") + S("[] []")
        assert truncate(a, 1) == (UNIT + S("[]")).truncated(1)
        assert truncate(a, 0) == Series.unit(0)
        assert truncate(truncate(a, 3), 5).trunc == 3


class TestJson:
    def test_schema_and_order(self):
        s = Series({F("[[]]"): Fraction(-1, 2), F("[]"): 1}, trunc=3)
        data = s.to_json()
        assert data == {
            "trunc": 3,
            "terms": [
                {"forest": "[]", "coeff": "1"},
                {"forest": "[[]]", "coeff": "-1/2"},
            ],
        }
        assert json.loads(json.dumps(data)) == data

    def test_roundtrip(self):
        s = Series({F("[[]]"): Fraction(-1, 2), F("[] []"): Fraction(7, 3)}, trunc=4)
        assert Series.from_json(s.to_json()) == s

    def test_unbounded_trunc_is_null(self):
        s = Series.of("[]")
        assert s.to_json()["trunc"] is None
        assert Series.from_json(s.to_json()) == s
