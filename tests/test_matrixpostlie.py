import gc
import sys
import tracemalloc
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

from helpers import F, S, expm, per_sample_matrix_check, recursive_eval_F
from liebutcher import lbseries, matrixpostlie
from liebutcher.lbseries import FieldSeries, exp_concat, field_generator, magnus_chi
from liebutcher.matrixpostlie import (
    check_matrix_postlie_axioms,
    check_projection_identity,
    commutator,
    eval_F,
    mat_triangleright,
    project_minus,
    project_plus,
)
from liebutcher.postlie import bracket, dbracket, triangleright
from liebutcher.series import Series
from liebutcher.trees import EMPTY_FOREST, enumerate_trees

KINDS = ["lu", "qr"]


def reference_triangleright(kind, m, n):
    """Elementwise second implementation of -[pi_minus(M), N]."""
    p = project_minus(kind, m)
    size = m.shape[0]
    out = np.zeros_like(m)
    for i in range(size):
        for j in range(size):
            acc = 0.0
            for k in range(size):
                acc += n[i, k] * p[k, j] - p[i, k] * n[k, j]
            out[i, j] = acc
    return out


class TestProjections:
    def test_lu_on_identity(self):
        assert np.array_equal(project_minus("lu", np.eye(3)), np.zeros((3, 3)))

    def test_lu_on_ones(self):
        got = project_minus("lu", np.ones((3, 3)))
        assert np.array_equal(got, np.tril(np.ones((3, 3)), -1))

    def test_qr_fixes_skew(self):
        rng = np.random.default_rng(0)
        a = rng.uniform(-1, 1, (4, 4))
        skew = a - a.T
        assert np.array_equal(project_minus("qr", skew), skew)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_idempotent_and_complementary(self, kind, n):
        rng = np.random.default_rng(42)
        for _ in range(10):
            m = rng.uniform(-1, 1, (n, n))
            pm = project_minus(kind, m)
            assert np.array_equal(project_minus(kind, pm), pm)
            assert np.array_equal(pm + project_plus(kind, m), m)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            project_minus("lu", np.ones((2, 3)))
        with pytest.raises(ValueError):
            project_minus("lu", np.ones((1, 1)))

    @pytest.mark.parametrize("shape", [(2, 3), (1, 1), (3,), (4, 2, 3), (4, 1, 1), ()])
    def test_every_function_rejects_non_square(self, shape):
        m = np.ones(shape)
        for fn in (project_minus, project_plus, partial(mat_triangleright, n=m)):
            with pytest.raises(ValueError, match="square|2x2"):
                fn("lu", m)
        with pytest.raises(ValueError, match="square|2x2"):
            eval_F("lu", m, S("[]"))

    def test_kind_coercion(self):
        m = np.ones((3, 3))
        assert np.array_equal(project_minus("QR", m), project_minus("qr", m))
        with pytest.raises(ValueError):
            project_minus("cholesky", m)

    def test_unknown_kind_names_both_choices(self):
        with pytest.raises(ValueError, match="'lu' or 'qr'"):
            project_minus("cholesky", np.ones((3, 3)))
        with pytest.raises(ValueError, match="'lu' or 'qr'"):
            check_projection_identity("lq", 3, samples=1)

    @pytest.mark.parametrize("kind, name", [("lu", "LU"), ("Qr", "QR"), ("QR", "QR")])
    def test_report_names_the_kind_in_capitals(self, kind, name):
        assert check_projection_identity(kind, 3, samples=2)["kind"] == name
        assert check_matrix_postlie_axioms(kind, 3, samples=2)["kind"] == name


class TestProduct:
    def test_upper_triangular_acts_trivially_lu(self):
        rng = np.random.default_rng(1)
        m = np.triu(rng.uniform(-1, 1, (4, 4)))
        n = rng.uniform(-1, 1, (4, 4))
        assert np.array_equal(mat_triangleright("lu", m, n), np.zeros((4, 4)))

    def test_self_action_formula(self):
        rng = np.random.default_rng(2)
        m = rng.uniform(-1, 1, (3, 3))
        got = mat_triangleright("lu", m, m)
        assert np.allclose(got, -commutator(project_minus("lu", m), m), atol=1e-15)

    @pytest.mark.parametrize("kind", KINDS)
    def test_against_elementwise_oracle(self, kind):
        rng = np.random.default_rng(3)
        for _ in range(5):
            m = rng.uniform(-1, 1, (4, 4))
            n = rng.uniform(-1, 1, (4, 4))
            assert np.allclose(
                mat_triangleright(kind, m, n),
                reference_triangleright(kind, m, n),
                atol=1e-13,
            )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mat_triangleright("lu", np.eye(3), np.eye(4))
        with pytest.raises(ValueError, match="dimension mismatch"):
            mat_triangleright("lu", np.ones((2, 3, 3)), np.ones((3, 3, 3)))


class TestStacks:
    """Every public function takes a (k, n, n) stack and equals its
    per-matrix results there exactly."""

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_stack_equals_each_matrix(self, kind, n):
        rng = np.random.default_rng(n)
        ms, ns = rng.uniform(-1, 1, (2, 6, n, n))
        stacked = {
            "minus": project_minus(kind, ms),
            "plus": project_plus(kind, ms),
            "tr": mat_triangleright(kind, ms, ns),
            "br": commutator(ms, ns),
        }
        for i, (m, w) in enumerate(zip(ms, ns)):
            single = {
                "minus": project_minus(kind, m),
                "plus": project_plus(kind, m),
                "tr": mat_triangleright(kind, m, w),
                "br": commutator(m, w),
            }
            for name, got in stacked.items():
                assert got.shape == (6, n, n)
                assert np.array_equal(got[i], single[name]), name

    @pytest.mark.parametrize("kind", KINDS)
    def test_eval_F_on_a_stack(self, kind):
        m0s = np.random.default_rng(6).uniform(-1, 1, (3, 4, 4))
        chi = magnus_chi(field_generator(4), 4)
        got = eval_F(kind, m0s, chi)
        for m0, g in zip(m0s, got):
            assert np.array_equal(g, eval_F(kind, m0, chi))


class TestChecks:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_projection_identity_passes(self, kind, n):
        report = check_projection_identity(kind, n, samples=50, tol=1e-10)
        assert report["pass"]
        assert report["kind"] in ("LU", "QR")
        assert set(report) == {
            "check", "kind", "n", "samples", "max_residual", "pass", "seed",
        }

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_postlie_axioms_pass(self, kind, n):
        report = check_matrix_postlie_axioms(kind, n, samples=50, tol=1e-10)
        assert report["pass"]

    def test_checks_run_the_identities_postlie_exports(self):
        from liebutcher import identities, postlie

        for name in ("postlie_identities", "dbracket"):
            assert getattr(matrixpostlie, name) is getattr(postlie, name)
            assert getattr(postlie, name) is getattr(identities, name)
        assert postlie.associator is identities.associator

    def test_corrupted_projection_fails(self):
        report = check_projection_identity(
            "lu", 4, samples=20, projector=lambda m: 0.9 * np.tril(m, -1)
        )
        assert not report["pass"]

    def test_wrong_sign_product_fails(self):
        report = check_matrix_postlie_axioms(
            "lu", 4, samples=20,
            product=lambda a, b: -mat_triangleright("lu", a, b),
        )
        assert not report["pass"]

    @pytest.mark.parametrize("check", [check_projection_identity, check_matrix_postlie_axioms])
    @pytest.mark.parametrize("samples, tol, match", [
        (0, 1e-10, "samples"), (-3, 1e-10, "samples"), (10, 0.0, "tol"), (10, -1e-10, "tol"),
        (10, float("nan"), "tol"), (10, float("inf"), "tol"),
    ])
    def test_rejects_bad_sampling(self, check, samples, tol, match):
        with pytest.raises(ValueError, match=match):
            check("lu", 3, samples=samples, tol=tol)

    @pytest.mark.parametrize("check", [check_projection_identity, check_matrix_postlie_axioms])
    @pytest.mark.parametrize("n", [1, 0, -1])
    def test_rejects_matrices_below_2x2(self, check, n):
        with pytest.raises(ValueError, match=f"n must be >= 2, got {n}"):
            check("qr", n, samples=5)

    @pytest.mark.parametrize("check", [check_projection_identity, check_matrix_postlie_axioms])
    def test_rejects_negative_seed(self, check):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            check("qr", 3, samples=5, seed=-1)

    def test_hooks_receive_stacks(self):
        shapes = set()

        def projector(m):
            shapes.add(m.shape)
            return np.tril(m, -1)

        def product(a, b):
            shapes.add(a.shape)
            return mat_triangleright("lu", a, b)

        assert check_projection_identity("lu", 3, samples=9, projector=projector)["pass"]
        assert check_matrix_postlie_axioms("lu", 3, samples=9, product=product)["pass"]
        assert shapes == {(9, 3, 3)}

    def test_nan_residual_fails(self):
        report = check_projection_identity(
            "lu", 3, samples=5, projector=lambda m: np.full_like(m, np.nan)
        )
        assert np.isnan(report["max_residual"])
        assert report["pass"] is False

    @pytest.mark.parametrize("check", [check_projection_identity, check_matrix_postlie_axioms])
    def test_max_residual_is_a_float(self, check):
        report = check("lu", 3, seed=1914)
        assert type(report["max_residual"]) is float
        assert type(report["pass"]) is bool

    def test_seed_reproducibility(self):
        a = check_projection_identity("qr", 3, samples=10, seed=77)
        b = check_projection_identity("qr", 3, samples=10, seed=77)
        assert a == b


CHECKS = {
    "projection-identity": check_projection_identity,
    "postlie-axioms": check_matrix_postlie_axioms,
}


def assert_same_report(got, want):
    assert got == want
    assert type(got["max_residual"]) is float
    assert got["max_residual"].hex() == want["max_residual"].hex()


class TestBatchedSampling:
    """The checks run their samples as stacks, block by block; the reports
    are bit-equal to drawing and checking one sample at a time."""

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n", [2, 3, 4, 8])
    def test_equals_the_per_sample_oracle(self, kind, n):
        for name, check in CHECKS.items():
            for samples in (1, 7, 100):
                for seed in (0, 1914, 90210):
                    assert_same_report(
                        check(kind, n, samples, seed=seed),
                        per_sample_matrix_check(name, kind, n, samples, seed=seed),
                    )

    @pytest.mark.parametrize("seed", [0, 1914, 90210])
    def test_corrupted_hooks_equal_the_oracle(self, seed):
        projector = lambda m: 0.9 * np.tril(m, -1)  # noqa: E731
        product = lambda a, b: -mat_triangleright("lu", a, b)  # noqa: E731
        for name, check, hook in (
            ("projection-identity", partial(check_projection_identity, projector=projector), projector),
            ("postlie-axioms", partial(check_matrix_postlie_axioms, product=product), product),
        ):
            want = per_sample_matrix_check(name, "lu", 4, 20, seed=seed, hook=hook)
            assert not want["pass"]
            assert_same_report(check("lu", 4, 20, seed=seed), want)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("block_doubles", [1, 13 * 3 * 16])
    def test_block_boundaries(self, monkeypatch, kind, block_doubles):
        # 13 * 3 * 16 doubles: blocks of 13 triples or 19 pairs of 4x4 matrices,
        # so 100 samples end in a partial block; 1 double: one sample per block.
        whole = {name: check(kind, 4, 100, seed=3) for name, check in CHECKS.items()}
        monkeypatch.setattr(matrixpostlie, "_BLOCK_DOUBLES", block_doubles)
        for name, check in CHECKS.items():
            assert_same_report(check(kind, 4, 100, seed=3), whole[name])

    def test_memory_does_not_grow_with_samples(self):
        def peak(samples):
            tracemalloc.start()
            try:
                assert check_matrix_postlie_axioms("lu", 8, samples=samples)["pass"]
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(20000) <= 2 * peak(1000)


@pytest.fixture
def field_checks(monkeypatch):
    """The series is_inf_character is asked about, in call order, with
    eval_F's plan cache (and the coefficients it keeps) emptied first."""
    matrixpostlie._plan.cache_clear()
    seen = []
    real = lbseries.is_inf_character
    monkeypatch.setattr(lbseries, "is_inf_character", lambda a: seen.append(a) or real(a))
    return seen


def fresh_chi(n):
    """chi(n) as a plain Series nobody has checked."""
    return magnus_chi(field_generator(n), n, validate=False).series


class TestEvalF:
    def setup_method(self):
        rng = np.random.default_rng(8)
        self.m0 = rng.uniform(-1, 1, (4, 4))

    def test_generator(self):
        assert np.array_equal(eval_F("lu", self.m0, S("[]")), self.m0)

    @pytest.mark.parametrize("kind", KINDS)
    def test_returns_one_float_matrix(self, kind):
        got = eval_F(kind, self.m0.tolist(), magnus_chi(field_generator(3), 3))
        assert type(got) is np.ndarray
        assert got.dtype == np.float64 and got.shape == (4, 4)

    def test_chain_is_self_action(self):
        got = eval_F("lu", self.m0, S("[[]]"))
        assert np.allclose(got, mat_triangleright("lu", self.m0, self.m0), atol=1e-14)

    def test_commutator_input(self):
        got = eval_F("lu", self.m0, bracket(S("[[]]"), S("[]")))
        expected = commutator(mat_triangleright("lu", self.m0, self.m0), self.m0)
        assert np.allclose(got, expected, atol=1e-13)

    def test_nested_bracket(self):
        a, b, c = S("[[]]"), S("[]"), S("[[[]]]")
        got = eval_F("qr", self.m0, bracket(bracket(a, b), c))
        fa = eval_F("qr", self.m0, a)
        fb = eval_F("qr", self.m0, b)
        fc = eval_F("qr", self.m0, c)
        assert np.allclose(got, commutator(commutator(fa, fb), fc), atol=1e-12)

    def test_linear_combination(self):
        from fractions import Fraction

        a = S("[]", Fraction(1, 3)) + S("[[]]", Fraction(-2, 5))
        got = eval_F("lu", self.m0, a)
        expected = self.m0 / 3 - 0.4 * mat_triangleright("lu", self.m0, self.m0)
        assert np.allclose(got, expected, atol=1e-14)

    @pytest.mark.parametrize("kind", KINDS)
    def test_morphism_on_tree_pairs(self, kind):
        for da in range(1, 3):
            for db in range(1, 4 - da):
                for a in enumerate_trees(da):
                    for b in enumerate_trees(db):
                        sa, sb = Series.of(a), Series.of(b)
                        fa = eval_F(kind, self.m0, sa)
                        fb = eval_F(kind, self.m0, sb)
                        lhs = eval_F(kind, self.m0, triangleright(sa, sb))
                        rhs = mat_triangleright(kind, fa, fb)
                        assert np.allclose(lhs, rhs, atol=1e-12)
                        lhs2 = eval_F(kind, self.m0, dbracket(sa, sb))
                        rhs2 = dbracket(fa, fb, partial(mat_triangleright, kind), commutator)
                        assert np.allclose(lhs2, rhs2, atol=1e-12)

    @pytest.mark.parametrize("kind", KINDS)
    def test_field_series_is_taken_as_checked(self, kind):
        chi = magnus_chi(field_generator(3), 3)
        assert np.array_equal(eval_F(kind, self.m0, chi), eval_F(kind, self.m0, chi.series))

    def test_rejects_bare_word(self):
        with pytest.raises(ValueError):
            eval_F("lu", self.m0, S("[] []"))

    def test_rejects_constant_term(self):
        with pytest.raises(ValueError):
            eval_F("lu", self.m0, Series.unit() + S("[]"))

    def test_repeat_call_runs_no_field_check(self, field_checks):
        chi = fresh_chi(5)
        first = eval_F("lu", self.m0, chi)
        assert len(field_checks) == 1
        same = Series(chi.terms, chi.trunc)  # another Series on the same Fractions
        stack = np.stack([self.m0, -self.m0])
        assert np.array_equal(eval_F("lu", self.m0, chi), first)
        assert np.array_equal(eval_F("lu", self.m0, same), first)
        eval_F("qr", stack, chi)
        assert len(field_checks) == 1

    def test_the_series_cannot_change_after_a_call(self):
        chi = fresh_chi(4)
        first = eval_F("lu", self.m0, chi)
        with pytest.raises(TypeError):
            chi.terms[F("[] [[]]")] += 1  # its mirror [[]] [] carries the opposite weight
        with pytest.raises(AttributeError):
            FieldSeries(chi).series = Series.of("[] []")
        assert np.array_equal(eval_F("lu", self.m0, chi), first)

    def test_a_changed_coefficient_on_a_checked_support_is_checked(self):
        chi = fresh_chi(4)
        eval_F("lu", self.m0, chi)
        word = F("[] [[]]")  # its mirror [[]] [] carries the opposite weight
        changed = Series({**chi.terms, word: chi.terms[word] + 1}, chi.trunc)
        with pytest.raises(ValueError, match="series does not vanish on shuffles"):
            eval_F("lu", self.m0, changed)

    @pytest.mark.parametrize("kind", KINDS)
    def test_an_unvalidated_field_series_vouches_for_no_series(self, kind, field_checks):
        chi = fresh_chi(4)
        word = F("[] [[]]")
        bad = Series({**chi.terms, word: chi.terms[word] + 1}, chi.trunc)
        eval_F(kind, self.m0, FieldSeries(bad, validate=False))  # taken as checked
        assert not field_checks
        for plain in (bad, Series(bad.terms, bad.trunc)):
            with pytest.raises(ValueError, match="series does not vanish on shuffles"):
                eval_F(kind, self.m0, plain)
        assert len(field_checks) == 2

    @pytest.mark.parametrize("kind", KINDS)
    def test_a_field_series_check_is_kept_for_the_plain_series(self, kind, field_checks):
        chi = fresh_chi(4)
        field = FieldSeries(chi)
        assert len(field_checks) == 1
        got = eval_F(kind, self.m0, field)
        assert np.array_equal(eval_F(kind, self.m0, chi), got)
        assert np.array_equal(eval_F(kind, self.m0, Series(chi.terms, chi.trunc)), got)
        assert len(field_checks) == 1

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("where", ["empty forest", "new word", "tree"])
    @pytest.mark.parametrize("wrap", [Series, FieldSeries])
    def test_a_zero_coefficient_is_no_term(self, kind, where, wrap):
        chi = fresh_chi(3)
        f = {"empty forest": EMPTY_FOREST, "new word": F("[] []"), "tree": F("[[[]]]")}[where]
        without = Series({g: c for g, c in chi.terms.items() if g is not f}, chi.trunc)
        want = eval_F(kind, self.m0, without)
        zero = Series({**chi.terms, f: Fraction(0)}, chi.trunc)
        assert f not in zero.terms
        arg = FieldSeries(zero) if wrap is FieldSeries else zero
        assert np.array_equal(eval_F(kind, self.m0, arg), want)
        assert np.array_equal(want, recursive_eval_F(kind, self.m0, without))

    def test_calls_leave_no_garbage_cycles(self):
        chi = magnus_chi(field_generator(5), 5).series
        eval_F("lu", self.m0, chi)
        gc.collect()
        gc.disable()
        try:
            for _ in range(10):
                eval_F("lu", self.m0, chi)
            assert gc.collect() == 0
        finally:
            gc.enable()


CHIS = {d: magnus_chi(field_generator(d), d) for d in range(1, 7)}


def assert_oracle(kind, m0, a):
    got = eval_F(kind, m0, a)
    want = recursive_eval_F(kind, m0, a)
    assert got.shape == want.shape and got.dtype == np.float64
    assert np.array_equal(got, want)
    return got


class TestEvalFPlan:
    """eval_F on its cached plan is bit-identical to the per-tree recursion
    (helpers.recursive_eval_F), whatever the support, its order or its
    coefficients."""

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_chi_equals_the_recursion(self, kind, n):
        rng = np.random.default_rng(100 + n)
        for chi in CHIS.values():
            for m0 in rng.uniform(-1, 1, (2, n, n)):
                got = assert_oracle(kind, m0, chi)
                assert np.array_equal(assert_oracle(kind, m0, chi.series), got)
            assert_oracle(kind, rng.uniform(-1, 1, (3, n, n)), chi)

    @pytest.mark.parametrize("kind", KINDS)
    def test_nested_brackets_up_to_six_letters(self, kind):
        m0 = np.random.default_rng(12).uniform(-1, 1, (3, 3))
        letters = [S(t) for t in ("[[]]", "[]", "[[[]]]", "[[] []]", "[]", "[[[] []]]")]
        left = right = letters[0]
        for k, x in enumerate(letters[1:], 2):
            left = bracket(left, x)  # [[[a, b], c], ..]
            right = bracket(x, right)  # [.., [c, [b, a]]]
            for word in (left, right, left + right * 3):
                assert max(len(f.trees) for f in word.terms) == k
                assert_oracle(kind, m0, word)

    @pytest.mark.parametrize("kind", KINDS)
    def test_empty_series_gives_zeros(self, kind):
        for m0 in (np.eye(3), np.ones((2, 4, 4))):
            got = eval_F(kind, m0, Series.zero(4))
            assert got.shape == m0.shape and not got.any()
            assert np.array_equal(got, recursive_eval_F(kind, m0, Series.zero(4)))

    @pytest.mark.parametrize("kind", KINDS)
    def test_term_order_is_the_summation_order(self, kind):
        m0 = np.random.default_rng(13).uniform(-1, 1, (4, 4))
        chi = CHIS[6].series
        flipped = Series(dict(reversed(chi.terms.items())), chi.trunc)
        assert flipped == chi and list(flipped.terms) != list(chi.terms)
        a, b = assert_oracle(kind, m0, chi), assert_oracle(kind, m0, flipped)
        assert np.allclose(a, b, rtol=0, atol=1e-12)

    def test_changed_coefficients_on_a_cached_support(self):
        m0 = np.random.default_rng(14).uniform(-1, 1, (4, 4))
        chi = CHIS[5].series
        first = assert_oracle("lu", m0, chi)
        # each degree's part of a field is a field: scale the parts apart
        scaled = Series({f: c * (f.degree + 1) for f, c in chi.terms.items()}, chi.trunc)
        hits = matrixpostlie._plan.cache_info().hits
        got = assert_oracle("lu", m0, scaled)
        assert matrixpostlie._plan.cache_info().hits == hits + 1
        assert not np.array_equal(got, first)

    def test_repeat_call_hits_the_plan_cache(self):
        m0 = np.eye(4) + np.tri(4, 4, -1)
        eval_F("qr", m0, CHIS[4])
        before = matrixpostlie._plan.cache_info()
        eval_F("qr", m0, CHIS[4])
        after = matrixpostlie._plan.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)
        assert after.maxsize is not None  # bounded

    @pytest.mark.parametrize("kind", KINDS)
    def test_checked_coefficients_kept_or_not_equal_the_recursion(self, kind, field_checks):
        rng = np.random.default_rng(16)
        chi = fresh_chi(5)
        scaled = Series({f: c * (f.degree + 1) for f, c in chi.terms.items()}, chi.trunc)
        checks = []
        for m0 in (rng.uniform(-1, 1, (4, 4)), rng.uniform(-1, 1, (3, 4, 4))):
            for a in (chi, chi, scaled, scaled, chi):
                before = len(field_checks)
                got = eval_F(kind, m0, a)
                checks.append(len(field_checks) - before)
                want = recursive_eval_F(kind, m0, FieldSeries(a, validate=False))
                assert got.shape == want.shape and np.array_equal(got, want)
        # the entry keeps the coefficients checked last, whatever m0 or kind
        assert checks == [1, 0, 1, 0, 1] + [0, 0, 1, 0, 1]

    def test_kept_results_hold_one_matrix_each(self):
        chi = CHIS[5]
        m0 = np.random.default_rng(15).uniform(-1, 1, (4, 4))
        result = eval_F("lu", m0, chi)
        assert result.base is None and result.flags.owndata
        gc.collect()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            kept = [eval_F("lu", m0, chi) for _ in range(2000)]
            per_result = (tracemalloc.get_traced_memory()[0] - start) / len(kept)
        finally:
            tracemalloc.stop()
        # one 4x4 array with its header, and the list slot; a view into the
        # (terms + 1, 4, 4) sum would keep 55 matrices alive
        assert per_result < 2 * (sys.getsizeof(result) + 8), per_result


class TestRejectedInputs:
    """Complex matrices are refused, not cut to their real part, and eval_F
    refuses what is not a field series with the error that names why."""

    M = np.eye(3) + 0j

    @pytest.mark.parametrize("call", [
        lambda m: project_minus("lu", m),
        lambda m: project_plus("qr", m),
        lambda m: commutator(m, np.eye(3)),
        lambda m: commutator(np.eye(3), m),
        lambda m: mat_triangleright("lu", m, np.eye(3)),
        lambda m: mat_triangleright("lu", np.eye(3), m),
        lambda m: eval_F("lu", m, S("[]")),
        lambda m: eval_F("qr", np.stack([m, m]), CHIS[3]),
        lambda m: eval_F("lu", m.tolist(), CHIS[3]),
    ])
    def test_complex_matrices(self, call):
        with pytest.raises(ValueError, match="real matrix.*complex"):
            call(self.M)

    def test_a_character_is_not_a_field(self):
        char = exp_concat(field_generator(3), 3)
        with pytest.raises(ValueError, match="zero constant term"):
            eval_F("lu", np.eye(3), char)

    @pytest.mark.parametrize("bad, name", [("x", "str"), (None, "NoneType"), ({}, "dict")])
    def test_a_non_series(self, bad, name):
        with pytest.raises(TypeError, match=name):
            eval_F("lu", np.eye(3), bad)


class TestFactorization:
    """The post-Lie Magnus expansion solves the matrix factorization problem:
    with C = eval_F(kind, X, chi_n), exp(X) = exp(pi_plus C) exp(pi_minus C)
    + O(|X|^(n+1)).  For LU the factors are upper and unit lower triangular;
    for QR, upper triangular with a positive diagonal, and orthogonal.  The
    whole chain (exp_concat, the GL logarithm, eval_F) meets an exponential
    computed apart from it."""

    TS = (0.2, 0.1, 0.05)
    M0 = np.random.default_rng(9).uniform(-1, 1, (4, 4))

    def factors(self, kind, n, t):
        c = eval_F(kind, t * self.M0, magnus_chi(field_generator(n), n))
        return expm(project_plus(kind, c)), expm(project_minus(kind, c)), expm(t * self.M0)

    def slope(self, residuals):
        return np.polyfit(np.log(self.TS), np.log(residuals), 1)[0]

    @pytest.mark.parametrize("n", [6, 8])
    @pytest.mark.parametrize("kind", KINDS)
    def test_residual_falls_with_order_n_plus_one(self, kind, n):
        residuals, reversed_residuals = [], []
        for t in self.TS:
            plus, minus, want = self.factors(kind, n, t)
            residuals.append(np.abs(plus @ minus - want).max())
            reversed_residuals.append(np.abs(minus @ plus - want).max())
        assert abs(self.slope(residuals) - (n + 1)) <= 0.15, residuals
        assert abs(self.slope(reversed_residuals) - (n + 1)) > 0.15, reversed_residuals

    @pytest.mark.parametrize("n", [6, 8])
    @pytest.mark.parametrize("t", TS)
    def test_factors_have_their_shape(self, n, t):
        upper, unit_lower, _ = self.factors("lu", n, t)
        assert np.abs(np.tril(upper, -1)).max() <= 1e-12
        assert np.abs(np.triu(unit_lower, 1)).max() <= 1e-12
        assert np.abs(np.diag(unit_lower) - 1.0).max() <= 1e-12
        r, q, _ = self.factors("qr", n, t)
        assert np.abs(np.tril(r, -1)).max() <= 1e-12
        assert np.diag(r).min() > 0.0
        assert np.abs(q.T @ q - np.eye(4)).max() <= 1e-12
