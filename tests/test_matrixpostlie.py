import gc
from functools import partial

import numpy as np
import pytest

from helpers import S
from liebutcher.lbseries import field_generator, magnus_chi
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
from liebutcher.trees import enumerate_trees

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

    def test_seed_reproducibility(self):
        a = check_projection_identity("qr", 3, samples=10, seed=77)
        b = check_projection_identity("qr", 3, samples=10, seed=77)
        assert a == b


class TestEvalF:
    def setup_method(self):
        rng = np.random.default_rng(8)
        self.m0 = rng.uniform(-1, 1, (4, 4))

    def test_generator(self):
        assert np.array_equal(eval_F("lu", self.m0, S("[]")), self.m0)

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
