import copy
import pickle

import pytest
from hypothesis import given, strategies as st

from helpers import F, T, brute_force_forests, brute_force_trees, char_rank_sort_key
from liebutcher.trees import (
    DegreeCapError,
    EMPTY_FOREST,
    Forest,
    ForestParseError,
    LEAF,
    MAX_DEPTH,
    Tree,
    check_degree,
    enumerate_forests,
    enumerate_trees,
    forest_sort_key,
    parse_forest,
    render_forest,
)

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429]


class TestParsing:
    def test_empty_forest(self):
        assert parse_forest("1") == EMPTY_FOREST
        assert parse_forest(" 1 ") == EMPTY_FOREST

    def test_cherry(self):
        cherry = parse_forest("[[][]]")
        assert len(cherry.trees) == 1
        root = cherry.trees[0]
        assert len(root.children) == 2
        assert all(c == LEAF for c in root.children)

    def test_two_tree_forest(self):
        f = parse_forest("[[]] []")
        assert len(f.trees) == 2
        assert f.trees[0] == Tree((LEAF,))
        assert f.trees[1] == LEAF

    def test_whitespace_is_optional(self):
        assert parse_forest("[[][]]") == parse_forest("[ [] [] ]")
        assert parse_forest("[][]") == parse_forest("[] []")

    def test_planarity_matters(self):
        assert F("[[[]] []]") != F("[[] [[]]]")

    @pytest.mark.parametrize(
        "text, offset",
        [
            ("", 0),
            ("[[]", 0),
            ("[", 0),
            ("]", 0),
            ("[]]", 2),
            ("[x]", 1),
            ("1 []", 2),
            ("[] 1", 3),
            ("[[] [6]]", 5),
        ],
    )
    def test_errors_carry_offsets(self, text, offset):
        with pytest.raises(ForestParseError) as err:
            parse_forest(text)
        assert err.value.offset == offset

    def test_depth_limit(self):
        deepest = parse_forest("[" * MAX_DEPTH + "]" * MAX_DEPTH)
        assert deepest.degree == MAX_DEPTH
        with pytest.raises(ForestParseError, match="nested deeper") as err:
            parse_forest("[] " + "[" * (MAX_DEPTH + 1) + "]" * (MAX_DEPTH + 1))
        assert err.value.offset == 3 + MAX_DEPTH


class TestRendering:
    def test_basic_forms(self):
        assert render_forest(EMPTY_FOREST) == "1"
        assert render_forest(Forest((LEAF,))) == "[]"
        assert render_forest(F("[[]][]")) == "[[]] []"
        assert render_forest(F("[[][]]")) == "[[] []]"

    def test_roundtrip_on_enumerations(self):
        for n in range(0, 7):
            for f in enumerate_forests(n):
                assert parse_forest(render_forest(f)) == f


class TestDegrees:
    def test_values(self):
        assert LEAF.degree == 1
        assert T("[[][]]").degree == 3
        assert F("[[]] []").degree == 3
        assert EMPTY_FOREST.degree == 0


class TestEnumeration:
    def test_tree_counts_match_catalan(self):
        for n in range(1, 8):
            assert len(enumerate_trees(n)) == CATALAN[n - 1]

    def test_trees_match_brute_force(self):
        for n in range(1, 8):
            assert set(enumerate_trees(n)) == brute_force_trees(n)

    def test_forests_match_brute_force(self):
        for n in range(0, 6):
            assert set(enumerate_forests(n)) == brute_force_forests(n)

    def test_root_addition_bijection(self):
        for n in range(0, 7):
            assert len(enumerate_forests(n)) == len(enumerate_trees(n + 1))

    def test_degree_three_order(self):
        assert [render_forest(Forest((t,))) for t in enumerate_trees(3)] == [
            "[[[]]]",
            "[[] []]",
        ]

    def test_first_forests(self):
        assert enumerate_forests(0) == [EMPTY_FOREST]
        assert [render_forest(f) for f in enumerate_forests(2)] == ["[[]]", "[] []"]

    def test_no_duplicates(self):
        for n in range(1, 7):
            trees = enumerate_trees(n)
            assert len(trees) == len(set(trees))

    def test_order_is_stable(self):
        once = enumerate_forests(5)
        again = enumerate_forests(5)
        assert once == again
        assert sorted(once, key=forest_sort_key) == once

    def test_degree_zero_tree_rejected(self):
        with pytest.raises(ValueError):
            enumerate_trees(0)
        with pytest.raises(ValueError):
            enumerate_forests(-1)

    def test_degree_cap(self, monkeypatch):
        with pytest.raises(DegreeCapError):
            enumerate_trees(9)
        with pytest.raises(DegreeCapError):
            enumerate_forests(9)
        monkeypatch.setenv("LIEBUTCHER_DEGREE_CAP", "9")
        assert len(enumerate_trees(9)) == 1430

    def test_cap_is_read_at_each_call(self, monkeypatch):
        monkeypatch.setenv("LIEBUTCHER_DEGREE_CAP", "3")
        with pytest.raises(DegreeCapError):
            enumerate_trees(4)
        assert len(enumerate_forests(3)) == 5
        monkeypatch.setenv("LIEBUTCHER_DEGREE_CAP", "0")
        assert enumerate_forests(0) == [EMPTY_FOREST]
        with pytest.raises(DegreeCapError):
            enumerate_forests(1)
        monkeypatch.delenv("LIEBUTCHER_DEGREE_CAP")
        assert len(enumerate_trees(4)) == 5

    def test_sort_key_grading(self):
        keys = [forest_sort_key(t) for n in range(1, 5) for t in enumerate_trees(n)]
        assert keys == sorted(keys)

    def test_char_rank_key_gives_the_same_order(self):
        for n in range(0, 8):
            forests = enumerate_forests(n)
            assert sorted(forests, key=char_rank_sort_key) == forests
            trees = [Forest((t,)) for t in enumerate_trees(n + 1)]
            assert sorted(trees, key=char_rank_sort_key) == trees


class TestInterning:
    def test_equal_values_are_one_object(self):
        assert Tree() is LEAF and Forest() is EMPTY_FOREST
        assert Tree([LEAF, LEAF]) is T("[[] []]")
        assert Forest((T("[[]]"), LEAF)) is F("[[]] []")
        assert Tree(F("[] [[]]").trees) is T("[[] [[]]]")

    def test_identity_equality_and_hash(self):
        for cls in (Tree, Forest):
            assert cls.__eq__ is object.__eq__
            assert cls.__hash__ is object.__hash__

    def test_derived_fields(self):
        t = T("[[] [[]]]")
        assert (t.degree, t.text) == (4, "[[] [[]]]")
        assert (EMPTY_FOREST.degree, EMPTY_FOREST.text) == (0, "1")
        assert repr(F("[[]] []")) == "Forest('[[]] []')"

    def test_assignment_and_deletion_raise(self):
        for value, name in ((LEAF, "children"), (LEAF, "degree"), (EMPTY_FOREST, "trees"),
                            (EMPTY_FOREST, "text"), (LEAF, "other")):
            with pytest.raises(AttributeError):
                setattr(value, name, (LEAF,))
        with pytest.raises(AttributeError):
            del LEAF.degree
        assert LEAF.children == () and LEAF.degree == 1 and LEAF.text == "[]"

    def test_deepcopy_leaves_leaf_intact(self):
        big = T("[[[] []] [] [[[]]]]")
        assert copy.deepcopy(big) is big
        assert copy.deepcopy(F("[[]] [] []")) is F("[[]] [] []")
        assert LEAF.children == () and LEAF.degree == 1 and LEAF.text == "[]"
        assert Tree() is LEAF

    def test_copies_of_the_deepest_forest_are_itself(self):
        deepest = parse_forest("[" * MAX_DEPTH + "]" * MAX_DEPTH)
        assert copy.deepcopy(deepest) is deepest
        assert copy.deepcopy([deepest, deepest.trees[0]]) == [deepest, deepest.trees[0]]
        assert copy.copy(deepest) is deepest
        assert pickle.loads(pickle.dumps(deepest)) is deepest


tree_strategy = st.recursive(
    st.just(LEAF),
    lambda kids: st.builds(lambda cs: Tree(tuple(cs)), st.lists(kids, max_size=3)),
    max_leaves=6,
)
forest_strategy = st.builds(lambda ts: Forest(tuple(ts)), st.lists(tree_strategy, max_size=4))


@given(forest_strategy)
def test_parse_render_roundtrip(f):
    assert parse_forest(render_forest(f)) == f


@given(forest_strategy)
def test_degree_is_node_count(f):
    assert f.degree == render_forest(f).count("[")


@given(forest_strategy, forest_strategy)
def test_sort_key_agrees_with_char_rank_key(f, g):
    assert (forest_sort_key(f) < forest_sort_key(g)) == (char_rank_sort_key(f) < char_rank_sort_key(g))


@given(forest_strategy)
def test_round_trips_return_the_interned_object(f):
    assert parse_forest(render_forest(f)) is f
    assert copy.copy(f) is f
    assert copy.deepcopy(f) is f
    assert pickle.loads(pickle.dumps(f)) is f
    for t in f.trees:
        assert copy.deepcopy(t) is t
        assert pickle.loads(pickle.dumps(t)) is t


class TestCheckDegree:
    def test_accepts_zero_through_the_default_cap(self):
        for n in range(0, 9):
            check_degree(n)

    def test_negative_degree(self):
        with pytest.raises(ValueError, match=r"^degree must be >= 0, got -1$") as info:
            check_degree(-1)
        assert not isinstance(info.value, DegreeCapError)
        with pytest.raises(ValueError, match="degree must be >= 0"):
            enumerate_forests(-1)

    def test_above_the_cap_names_the_variable(self, monkeypatch):
        with pytest.raises(DegreeCapError) as info:
            check_degree(9)
        assert str(info.value) == "degree 9 exceeds the cap 8; set LIEBUTCHER_DEGREE_CAP to raise it"
        monkeypatch.setenv("LIEBUTCHER_DEGREE_CAP", "5")
        with pytest.raises(DegreeCapError, match="exceeds the cap 5;"):
            check_degree(6)
        check_degree(5)

    @pytest.mark.parametrize("raw", ["abc", "", "8.0"])
    def test_non_integer_cap(self, monkeypatch, raw):
        monkeypatch.setenv("LIEBUTCHER_DEGREE_CAP", raw)
        with pytest.raises(DegreeCapError, match="^LIEBUTCHER_DEGREE_CAP must be an integer"):
            check_degree(1)
        with pytest.raises(DegreeCapError, match="LIEBUTCHER_DEGREE_CAP"):
            enumerate_trees(1)
