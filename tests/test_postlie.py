import functools
import importlib
import math
import random
import sys
from fractions import Fraction

import pytest

import helpers
from helpers import PeelGraftExtension, S, T, deep_tree
from liebutcher.postlie import (
    GraftExtension,
    bracket,
    check_postlie_axioms,
    dbracket,
    forget_planarity,
    gl_product,
    graft,
    graft_attachments,
    symmetrized_associator_defect,
    triangleright,
)
from liebutcher.series import Series, concat
from liebutcher.trees import (
    LEAF,
    MAX_DEPTH,
    DegreeCapError,
    Forest,
    Tree,
    enumerate_forests,
    enumerate_trees,
)

UNIT = Series.unit()


def trees_up_to(n):
    return [t for d in range(1, n + 1) for t in enumerate_trees(d)]


def forests_up_to(n):
    return [f for d in range(0, n + 1) for f in enumerate_forests(d)]


class TestGraft:
    def test_single_attachment_point(self):
        assert graft(T("[]"), T("[]")) == S("[[]]")

    def test_two_attachment_points(self):
        assert graft(T("[]"), T("[[]]")) == S("[[] []]") + S("[[[]]]")

    def test_leftmost_insertion_on_cherry(self):
        got = graft(T("[[]]"), T("[[][]]"))
        assert got == S("[[[]] [] []]") + S("[[[[]]] []]") + S("[[] [[[]]]]")

    def test_term_count_is_node_count(self):
        for t1 in trees_up_to(3):
            for t2 in trees_up_to(3):
                total = sum(graft(t1, t2).terms.values(), Fraction(0))
                assert total == t2.degree

    def test_degree_additivity(self):
        for t1 in trees_up_to(3):
            for t2 in trees_up_to(3):
                for f in graft(t1, t2).terms:
                    assert f.degree == t1.degree + t2.degree

    def test_attachments_match_the_recursion(self, monkeypatch):
        # equal tuples, order and repeats included, on every pair of trees
        # of total degree <= 10
        monkeypatch.setenv("LIEBUTCHER_DEGREE_CAP", "10")
        trees = trees_up_to(9)
        pairs = 0
        for t1 in trees:
            for t2 in trees:
                if t1.degree + t2.degree <= 10:
                    assert graft_attachments(t1, t2) == helpers.graft_attachments(t1, t2)
                    pairs += 1
        assert pairs == 6917

    @pytest.mark.parametrize("shape", ["chain", "branching"])
    def test_attachments_on_a_deep_tree(self, shape):
        # the recursion limit at the current depth plus one frame per level
        # and 30 for the call: attachments that recursed through every level
        # of t2 next to the placement loop would overflow here
        t = T(deep_tree(shape))
        frame, depth = sys._getframe(), 0
        while frame is not None:
            frame, depth = frame.f_back, depth + 1
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + MAX_DEPTH + 30)
        try:
            got = graft_attachments(LEAF, t)
        finally:
            sys.setrecursionlimit(limit)
        assert len(got) == t.degree and got[0] == Tree((LEAF,) + t.children)


class TestTriangleright:
    def test_unit_acts_as_identity(self):
        assert triangleright(UNIT, S("[[]]")) == S("[[]]")

    def test_counit_rule(self):
        assert triangleright(S("[]"), UNIT) == Series.zero()
        assert triangleright(UNIT + S("[]", 3), UNIT) == UNIT

    def test_left_peel_matches_graft_oracle(self):
        # (x.y) |> z = x |> (y |> z) - (x |> y) |> z built from graft alone
        x = y = z = S("[]")
        oracle = triangleright(x, graft(T("[]"), T("[]"))) - triangleright(
            graft(T("[]"), T("[]")), z
        )
        assert triangleright(S("[] []"), z) == oracle
        assert triangleright(S("[] []"), z) == S("[[] []]")

    def test_leibniz_rule(self):
        assert triangleright(S("[]"), S("[] []")) == S("[[]] []") + S("[] [[]]")

    def test_tree_derivation_over_letters(self):
        # a single tree acts as a derivation on each letter of the forest
        x = S("[[]]")
        got = triangleright(x, S("[] [] []"))
        hit = triangleright(x, S("[]"))
        expected = (
            concat(hit, S("[] []"))
            + concat(concat(S("[]"), hit), S("[]"))
            + concat(S("[] []"), hit)
        )
        assert got == expected

    def test_degree_additivity(self):
        for a in forests_up_to(3):
            for b in forests_up_to(3):
                out = triangleright(Series.of(a), Series.of(b))
                for f in out.terms:
                    assert f.degree == a.degree + b.degree

    def test_truncation_min_rule(self):
        a = Series.of("[]", 1, 4)
        b = Series.of("[[]]", 1, 2)
        assert triangleright(a, b) == Series.zero(2)

    def test_position_loop_keeps_the_peel_term_order(self, monkeypatch):
        # equal tuples: the same forests, coefficients and order, on every
        # pair of forests of degree <= 5 and on a seeded sample up to total
        # degree 10
        monkeypatch.setenv("LIEBUTCHER_DEGREE_CAP", "10")
        ext, oracle = GraftExtension(), PeelGraftExtension()
        forests = forests_up_to(5)
        pairs = [(w, v) for w in forests for v in forests]
        by_degree = [enumerate_forests(d) for d in range(11)]
        rng = random.Random(23)
        for _ in range(5000):
            n = rng.randint(0, 10)
            p = rng.randint(0, n)
            pairs.append((rng.choice(by_degree[p]), rng.choice(by_degree[n - p])))
        for w, v in pairs:
            assert ext.basis(w, v) == oracle.basis(w, v), (w, v)
            assert ext.gl_basis(w, v) == oracle.gl_basis(w, v), (w, v)

    @pytest.mark.parametrize("product, places", [(triangleright, 8), (gl_product, 9)],
                             ids=["graft", "gl"])
    def test_one_node_trees_on_the_left_in_closed_form(self, product, places):
        # each of k equal letters picks one of the 8 nodes of v, or in the GL
        # product also the head: C(places + k - 1, k) forests, whose
        # coefficients sum to places^k
        v = S("[[[[]]]] [[]] [] []")
        oracle = PeelGraftExtension()
        for k in range(9):
            w = S(" ".join(["[]"] * k) or "1")
            got = product(w, v)
            assert len(got.terms) == math.comb(places + k - 1, k)
            assert sum(got.terms.values()) == places**k
            if k <= 6:
                assert got == product(w, v, extension=oracle)

    @pytest.mark.parametrize("product, extra", [(triangleright, 0), (gl_product, 1)],
                             ids=["graft", "gl"])
    @pytest.mark.parametrize("shape", ["chain", "branching"])
    def test_one_frame_per_level_of_a_deep_tree(self, product, extra, shape):
        # [] on a MAX_DEPTH-deep tree, with the recursion limit at the current
        # depth plus one frame per level and 30 for the call: a product that
        # spent two frames per level would overflow here
        v = S(deep_tree(shape))
        frame, depth = sys._getframe(), 0
        while frame is not None:
            frame, depth = frame.f_back, depth + 1
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + MAX_DEPTH + 30)
        try:
            got = product(S("[]"), v, extension=GraftExtension())
        finally:
            sys.setrecursionlimit(limit)
        degree = next(iter(v.terms)).degree
        assert len(got.terms) == degree + extra and set(got.terms.values()) == {1}

    def test_a_long_right_operand_is_one_loop(self):
        # [] |> []^k puts the new edge on each letter in turn, with no
        # recursion per letter
        k = 600
        got = triangleright(S("[]"), S(" ".join(["[]"] * k)))
        assert list(got.terms) == [
            Forest((LEAF,) * i + (T("[[]]"),) + (LEAF,) * (k - 1 - i)) for i in range(k)
        ]
        assert set(got.terms.values()) == {1}


class TestBrackets:
    def test_antisymmetry(self):
        assert bracket(S("[]"), S("[]")) == Series.zero()
        assert dbracket(S("[]"), S("[]")) == Series.zero()

    def test_bracket_definition(self):
        assert bracket(S("[[]]"), S("[]")) == S("[[]] []") - S("[] [[]]")

    def test_concat_commutator_jacobi(self):
        trees = trees_up_to(3)
        for a in trees:
            for b in trees:
                for c in trees:
                    if a.degree + b.degree + c.degree > 5:
                        continue
                    sa, sb, sc = Series.of(a), Series.of(b), Series.of(c)
                    total = (
                        bracket(sa, bracket(sb, sc))
                        + bracket(sb, bracket(sc, sa))
                        + bracket(sc, bracket(sa, sb))
                    )
                    assert total == Series.zero()

    def test_dbracket_expansion(self):
        got = dbracket(S("[]"), S("[[]]"))
        assert got == S("[[] []]") + S("[] [[]]") - S("[[]] []")

    def test_dbracket_jacobi(self):
        trees = trees_up_to(2)
        for a in trees:
            for b in trees:
                for c in trees:
                    sa, sb, sc = Series.of(a), Series.of(b), Series.of(c)
                    total = (
                        dbracket(sa, dbracket(sb, sc))
                        + dbracket(sb, dbracket(sc, sa))
                        + dbracket(sc, dbracket(sa, sb))
                    )
                    assert total == Series.zero()


class TestGrossmanLarson:
    def test_tree_pair_formula(self):
        assert gl_product(S("[]"), S("[]")) == S("[] []") + S("[[]]")

    def test_unit(self):
        for f in forests_up_to(3):
            s = Series.of(f)
            assert gl_product(UNIT, s) == s
            assert gl_product(s, UNIT) == s

    def test_two_letter_word_times_tree(self):
        # Forced by associativity from the single-tree formula:
        #   ([].[]) * [] = [] * ([] * []) - [[]] * []
        # and both right-hand products only ever act with a single tree on
        # the left, where * is concat + graft.
        tau = S("[]")
        tau_star_tau = concat(tau, tau) + graft(T("[]"), T("[]"))
        oracle = (
            concat(tau, tau_star_tau)
            + triangleright(tau, tau_star_tau)
            - concat(S("[[]]"), tau)
            - graft(T("[[]]"), T("[]"))
        )
        got = gl_product(S("[] []"), tau)
        assert got == oracle
        assert got == S("[] [] []") + S("[] [[]]", 2) + S("[[] []]")

    def test_single_trees_reduce_to_concat_plus_graft(self):
        for a in trees_up_to(4):
            for b in trees_up_to(4):
                sa, sb = Series.of(a), Series.of(b)
                assert gl_product(sa, sb) == concat(sa, sb) + graft(a, b)

    def test_associativity(self):
        forests = forests_up_to(4)
        for a in forests:
            for b in forests:
                if a.degree + b.degree > 4:
                    continue
                sab = gl_product(Series.of(a), Series.of(b))
                for c in forests:
                    if a.degree + b.degree + c.degree > 4:
                        continue
                    sc = Series.of(c)
                    assert gl_product(sab, sc) == gl_product(
                        Series.of(a), gl_product(Series.of(b), sc)
                    )

    def test_a_long_right_operand(self):
        k = 600
        word = S(" ".join(["[]"] * k))
        got = gl_product(S("[]"), word)
        assert got == concat(S("[]"), word) + triangleright(S("[]"), word)
        assert len(got.terms) == k + 1

    def test_action_identity(self):
        # A |> (B |> z) = (A * B) |> z
        for a in forests_up_to(2):
            for b in forests_up_to(2):
                for z in trees_up_to(4 - a.degree - b.degree):
                    sa, sb, sz = Series.of(a), Series.of(b), Series.of(z)
                    lhs = triangleright(sa, triangleright(sb, sz))
                    rhs = triangleright(gl_product(sa, sb), sz)
                    assert lhs == rhs


class TestAxiomChecker:
    def test_passes_small_degrees(self):
        report = check_postlie_axioms(3)
        assert report == {"check": "postlie-axioms-free", "degree": 3, "triples": 1,
                          "pass": True, "witness": None}

    def test_passes_degree_five(self):
        report = check_postlie_axioms(5)
        assert report["pass"] is True
        assert report["triples"] == 13

    def test_obeys_the_degree_cap(self, monkeypatch):
        # degree 8 enumerates trees up to degree 6
        monkeypatch.setenv("LIEBUTCHER_DEGREE_CAP", "5")
        with pytest.raises(DegreeCapError, match="set LIEBUTCHER_DEGREE_CAP to raise it"):
            check_postlie_axioms(8)

    def test_broken_extension_fails_with_witness(self):
        report = check_postlie_axioms(4, extension=_BrokenLeibniz())
        assert report["pass"] is False and report["degree"] == 4
        witness = report["witness"]
        assert list(witness) == ["axiom", "x", "y", "z", "lhs", "rhs"]
        assert witness["axiom"] in ("bracket_rule", "associator_rule")
        assert witness["lhs"] != witness["rhs"]


class _BrokenLeibniz(GraftExtension):
    """Drops one Leibniz term when a single tree acts on a longer forest."""

    def _basis(self, w, v):
        if len(w.trees) == 1 and len(v.trees) > 1:
            head = Forest(v.trees[:-1])
            tail = v.trees[-1]
            acc = {}
            for f, c in self.basis(w, head):
                g = Forest(f.trees + (tail,))
                acc[g] = acc.get(g, Fraction(0)) + c
            return tuple((f, c) for f, c in acc.items() if c != 0)
        return super()._basis(w, v)


class _DoubledRoot(GraftExtension):
    """Counts the root attachment B+(x . c) twice when a single tree x acts
    on a single tree B+(c)."""

    def _basis(self, w, v):
        if len(w.trees) == 1 and len(v.trees) == 1:
            x, t = w.trees[0], v.trees[0]
            root = Forest((Tree((x,) + t.children),))
            return tuple((f, c + (f is root)) for f, c in graft(x, t).terms.items())
        return super()._basis(w, v)


class TestPreLieDegeneration:
    def test_symmetrized_associator_vanishes(self):
        trees = trees_up_to(2)
        for x in trees:
            for y in trees:
                for z in trees:
                    if x.degree + y.degree + z.degree > 4:
                        continue
                    assert symmetrized_associator_defect(x, y, z) == Series.zero()

    def test_forget_planarity_merges_mirror_trees(self):
        s = S("[[[]] []]") + S("[[] [[]]]")
        merged = forget_planarity(s)
        assert len(merged.terms) == 1
        assert next(iter(merged.terms.values())) == 2

    def test_corrupted_graft_breaks_degeneration(self):
        ext = _DoubledRoot()
        leaf = T("[]")
        chain = T("[[]]")
        defects = [
            symmetrized_associator_defect(x, y, z, extension=ext)
            for x, y, z in [
                (leaf, chain, leaf),
                (chain, leaf, leaf),
                (leaf, leaf, chain),
            ]
        ]
        assert any(d != Series.zero() for d in defects)


class TestWitnessShape:
    def test_report_fields(self):
        report = check_postlie_axioms(4)
        assert list(report) == ["check", "degree", "triples", "pass", "witness"]
        assert report["pass"] is True and isinstance(report["triples"], int)


class TestClearCaches:
    @staticmethod
    def _memos():
        from liebutcher import matrixpostlie, postlie, series, trees

        ext = postlie._DEFAULT_EXTENSION
        return {
            "trees._forests_raw": trees._forests_raw,
            "series._shared": series._shared,
            "series._shuffle_basis": series._shuffle_basis,
            "series.deshuffle_forest": series.deshuffle_forest,
            "postlie.graft_attachments": postlie.graft_attachments,
            "basis": ext.basis,
            "gl_basis": ext.gl_basis,
            "matrixpostlie._plan": matrixpostlie._plan,
        }

    def test_every_memo_empties_and_chi_8_is_unchanged(self):
        import numpy as np

        import liebutcher
        from liebutcher.lbseries import field_generator, magnus_chi
        from liebutcher.matrixpostlie import eval_F
        from liebutcher.series import shuffle

        before = magnus_chi(field_generator(8), 8)
        enumerate_forests(3)
        shuffle(S("[]"), S("[[]]"))
        eval_F("lu", np.eye(3), before.series.truncated(3))
        memos = self._memos()
        assert all(m.cache_info().currsize for m in memos.values())
        forests, trees = dict(Forest._table), dict(Tree._table)

        liebutcher.clear_caches()
        assert {k: m.cache_info().currsize for k, m in memos.items()} == dict.fromkeys(memos, 0)
        # the intern tables stay: every value is still the one object
        assert all(Forest._table[k] is f for k, f in forests.items())
        assert all(Tree._table[k] is t for k, t in trees.items())
        after = magnus_chi(field_generator(8), 8)
        assert after == before and after.series.to_json() == before.series.to_json()

    def test_the_table_holds_every_memo_of_the_layers_and_nothing_else(self):
        import liebutcher
        from liebutcher import postlie

        layers = ("trees", "series", "identities", "postlie", "lbseries", "matrixpostlie",
                  "sphere", "cli")
        lru = type(functools.lru_cache()(abs))
        found = {
            id(obj): obj
            for name in layers
            for obj in vars(importlib.import_module(f"liebutcher.{name}")).values()
            if isinstance(obj, lru)
        }
        ext = postlie._DEFAULT_EXTENSION
        found.update({id(ext.basis): ext.basis, id(ext.gl_basis): ext.gl_basis})
        table = liebutcher._MEMOS
        assert len({id(m) for m in table}) == len(table)
        assert {id(m) for m in table} == set(found)
        assert {id(m) for m in self._memos().values()} == set(found)
        assert postlie.clear_caches is liebutcher.clear_caches

    def test_a_caller_made_extension_keeps_its_caches(self):
        from liebutcher.postlie import clear_caches

        ext = GraftExtension()
        triangleright(S("[]"), S("[[]]"), extension=ext)
        filled = ext.basis.cache_info().currsize
        clear_caches()
        assert filled and ext.basis.cache_info().currsize == filled
