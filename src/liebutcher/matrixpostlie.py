"""Post-Lie products on square matrices from splitting projections.

Splitting gl(n) into complementary subalgebras (strictly-lower plus
upper-triangular for the LU kind, skew-symmetric plus upper-triangular for
QR) induces the product M |> N = -[pi_minus(M), N].  The evaluation map
eval_F sends symbolic tree series to concrete matrices, fixing an image for
the one-node tree, and is the bridge used to cross-check the symbolic
grafting against an independent realization.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING

import numpy as np

from .postlie import dbracket, graft_attachments, postlie_identities
from .series import Series
from .trees import LEAF, Tree

if TYPE_CHECKING:
    from .lbseries import FieldSeries

__all__ = [
    "DEFAULT_SEED",
    "check_matrix_postlie_axioms",
    "check_projection_identity",
    "commutator",
    "eval_F",
    "mat_triangleright",
    "project_minus",
    "project_plus",
]

DEFAULT_SEED = 1914


_KINDS = ("lu", "qr")


def _kind(kind) -> str:
    """The kind as "lu" or "qr", given in any case; those two strings pass as they are."""
    if kind in _KINDS:
        return kind
    lowered = str(kind).lower()
    if lowered not in _KINDS:
        raise ValueError(f"unknown projection kind {kind!r}; expected 'lu' or 'qr'")
    return lowered


def _check_square(m: np.ndarray) -> None:
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] < 2:
        raise ValueError("matrices must be at least 2x2")


def project_minus(kind, m) -> np.ndarray:
    """LU: strictly lower triangle.  QR: L - L^T with L the strict lower part
    (projection onto skew-symmetric along upper-triangular)."""
    m = np.asarray(m, dtype=float)
    _check_square(m)
    low = np.tril(m, -1)
    if _kind(kind) == "lu":
        return low
    return low - low.T


def project_plus(kind, m) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    return m - project_minus(kind, m)


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def mat_triangleright(kind, m, n) -> np.ndarray:
    """M |> N = -[pi_minus(M), N]."""
    m = np.asarray(m, dtype=float)
    n = np.asarray(n, dtype=float)
    if m.shape != n.shape:
        raise ValueError(f"dimension mismatch: {m.shape} vs {n.shape}")
    p = project_minus(kind, m)
    return n @ p - p @ n


def _sampled_check(check: str, kind, n: int, samples: int, tol: float, seed: int,
                   draws: int, residuals) -> dict:
    """The sampling harness behind the identity checks.

    Each of `samples` rounds draws `draws` uniform [-1, 1] n x n matrices
    from default_rng(seed) and scales the largest entry of every array
    residuals(kind, *matrices) yields by 1 + the largest input magnitude;
    the report carries the worst scaled residual.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n!r}")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples!r}")
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed!r}")
    kindv = _kind(kind)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        mats = [rng.uniform(-1.0, 1.0, size=(n, n)) for _ in range(draws)]
        scale = 1.0 + max(np.abs(m).max() for m in mats)
        for r in residuals(kindv, *mats):
            worst = max(worst, float(np.abs(r).max()) / scale)
    return {
        "check": check,
        "kind": kindv.upper(),
        "n": n,
        "samples": samples,
        "max_residual": worst,
        "pass": bool(worst <= tol),
        "seed": seed,
    }


def check_projection_identity(
    kind, n: int, samples: int = 100, tol: float = 1e-10,
    seed: int = DEFAULT_SEED, projector=None,
) -> dict:
    """Residuals of [pM,pN] + p[M,N] = p([pM,N] + [M,pN]) for p in {pi-, pi+}.

    Residuals are scaled by 1 + max input magnitude; `projector` overrides
    pi_minus so tests can check that a corrupted projection fails.
    """

    def residuals(kindv, m, w):
        minus = projector if projector is not None else (lambda x: project_minus(kindv, x))
        for proj in (minus, lambda x: x - minus(x)):
            lhs = commutator(proj(m), proj(w)) + proj(commutator(m, w))
            rhs = proj(commutator(proj(m), w) + commutator(m, proj(w)))
            yield lhs - rhs

    return _sampled_check("projection-identity", kind, n, samples, tol, seed, 2, residuals)


def check_matrix_postlie_axioms(
    kind, n: int, samples: int = 100, tol: float = 1e-10,
    seed: int = DEFAULT_SEED, product=None,
) -> dict:
    """Residuals lhs - rhs of postlie.postlie_identities plus the Jacobi
    identity of the derived bracket, on random triples.  `product`
    overrides |> so a wrong-sign product is seen to fail."""

    def residuals(kindv, x, y, z):
        tr = product if product is not None else partial(mat_triangleright, kindv)
        for _, lhs, rhs in postlie_identities(x, y, z, tr, commutator):
            yield lhs - rhs
        db = partial(dbracket, tr=tr, br=commutator)
        yield db(x, db(y, z)) + db(y, db(z, x)) + db(z, db(x, y))

    return _sampled_check("postlie-axioms", kind, n, samples, tol, seed, 3, residuals)


def eval_F(kind, m0, a: Series | FieldSeries) -> np.ndarray:
    """Evaluate the tree-to-matrix morphism that sends the one-node tree to m0.

    Trees are resolved by inverting the grafting relation: for a tree whose
    root carries children c1 c2 .. ck, the attachment of c1 at the root of
    [c2 .. ck] is the tree itself, so

        F(tree) = F(c1) |> F([c2..ck]) - sum F(other attachments),

    which terminates because the other attachments have smaller root arity.
    Words of length k >= 2 must assemble into expanded commutators; the
    whole input is required to vanish on shuffles (the exact criterion for
    being such a combination) and each word is then folded with left-nested
    commutators and weight 1/k, which reproduces the element.  A
    FieldSeries is taken as already checked.
    """
    from .lbseries import FieldSeries  # the matrix checks never load lbseries

    kindv = _kind(kind)
    m0 = np.asarray(m0, dtype=float)
    _check_square(m0)
    memo = {LEAF: m0}
    total = np.zeros_like(m0)
    field = a if isinstance(a, FieldSeries) else FieldSeries(a)
    for forest, coeff in field.series.terms.items():
        folded = _tree_value(kindv, forest.trees[0], memo)
        for t in forest.trees[1:]:
            folded = commutator(folded, _tree_value(kindv, t, memo))
        total = total + (float(coeff) / len(forest.trees)) * folded
    return total


def _tree_value(kind: str, t: Tree, memo: dict) -> np.ndarray:
    """F(t) for eval_F; memo maps the trees done so far to F, F(leaf) = m0."""
    out = memo.get(t)
    if out is not None:
        return out
    head = t.children[0]
    rest = Tree(t.children[1:])
    out = mat_triangleright(kind, _tree_value(kind, head, memo), _tree_value(kind, rest, memo))
    for attached in graft_attachments(head, rest):
        if attached != t:
            out = out - _tree_value(kind, attached, memo)
    memo[t] = out
    return out
