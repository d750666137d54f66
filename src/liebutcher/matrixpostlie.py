"""Post-Lie products on square matrices from splitting projections.

Splitting gl(n) into complementary subalgebras (strictly-lower plus
upper-triangular for the LU kind, skew-symmetric plus upper-triangular for
QR) induces the product M |> N = -[pi_minus(M), N].  The evaluation map
eval_F sends symbolic tree series to concrete matrices, fixing an image for
the one-node tree, and is the bridge used to cross-check the symbolic
grafting against an independent realization.

The module imports numpy and `identities` only: the identity checks run the
post-Lie identities of `identities` with the matrix product, and load no
symbolic layer.  eval_F is the one bridge to the symbolic layers; it loads
`trees`, `postlie` and `lbseries` inside the call, once per call.

Every public function takes one n x n matrix or a stack of them on the last
two axes, and on a stack equals its per-matrix results exactly.  The
identity checks run their samples as such stacks, in blocks of a fixed
number of doubles, so memory does not grow with `samples`; their
`projector=`/`product=` hooks receive (block, n, n) stacks.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING

import numpy as np

from .identities import dbracket, postlie_identities

if TYPE_CHECKING:
    from .lbseries import FieldSeries
    from .series import Series
    from .trees import Tree

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
    """m is a square matrix, or a stack of them on its last two axes."""
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[-1] < 2:
        raise ValueError("matrices must be at least 2x2")


def _square(m) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    _check_square(m)
    return m


def _pi_minus(kind: str, n: int):
    """pi_minus on n x n matrices or stacks of them, unchecked, with its
    strictly-lower mask built once."""
    below = np.tri(n, n, -1, dtype=bool)

    def minus(m):
        low = np.where(below, m, 0.0)
        return low if kind == "lu" else low - low.swapaxes(-1, -2)

    return minus


def _act(minus, m, n):
    """M |> N = -[minus(M), N], unchecked."""
    p = minus(m)
    return n @ p - p @ n


def project_minus(kind, m) -> np.ndarray:
    """LU: strictly lower triangle.  QR: L - L^T with L the strict lower part
    (projection onto skew-symmetric along upper-triangular)."""
    m = _square(m)
    return _pi_minus(_kind(kind), m.shape[-1])(m)


def project_plus(kind, m) -> np.ndarray:
    m = _square(m)
    return m - _pi_minus(_kind(kind), m.shape[-1])(m)


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def mat_triangleright(kind, m, n) -> np.ndarray:
    """M |> N = -[pi_minus(M), N]."""
    m = np.asarray(m, dtype=float)
    n = np.asarray(n, dtype=float)
    if m.shape != n.shape:
        raise ValueError(f"dimension mismatch: {m.shape} vs {n.shape}")
    _check_square(m)
    return _act(_pi_minus(_kind(kind), m.shape[-1]), m, n)


# Doubles drawn per block of samples: the checks' memory does not grow with
# `samples`, and one block holds every sample of a default-sized check.
_BLOCK_DOUBLES = 1 << 17


def _sampled_check(check: str, kind, n: int, samples: int, tol: float, seed: int,
                   draws: int, residuals) -> dict:
    """The sampling harness behind the identity checks.

    Each of `samples` rounds draws `draws` uniform [-1, 1] n x n matrices
    from default_rng(seed) and scales the largest entry of every array
    residuals(pi_minus, *matrices) yields by 1 + the largest input
    magnitude; the report carries the worst scaled residual.  The rounds
    run in blocks: each argument is a (block, n, n) stack, drawn in the
    order one round at a time would draw it, so the report does not depend
    on the block size.
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
    minus = _pi_minus(kindv, n)
    rng = np.random.default_rng(seed)
    block = max(1, _BLOCK_DOUBLES // (draws * n * n))
    worst = 0.0
    for done in range(0, samples, block):
        mats = rng.uniform(-1.0, 1.0, size=(min(block, samples - done), draws, n, n))
        scale = 1.0 + np.abs(mats).max(axis=(1, 2, 3))
        for r in residuals(minus, *mats.swapaxes(0, 1)):
            worst = np.maximum(worst, (np.abs(r).max(axis=(-2, -1)) / scale).max())
    worst = float(worst)
    return {
        "check": check,
        "kind": kindv.upper(),
        "n": n,
        "samples": samples,
        "max_residual": worst,
        "pass": worst <= tol,
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

    def residuals(pi_minus, m, w):
        minus = projector if projector is not None else pi_minus
        for proj in (minus, lambda x: x - minus(x)):
            lhs = commutator(proj(m), proj(w)) + proj(commutator(m, w))
            rhs = proj(commutator(proj(m), w) + commutator(m, proj(w)))
            yield lhs - rhs

    return _sampled_check("projection-identity", kind, n, samples, tol, seed, 2, residuals)


def check_matrix_postlie_axioms(
    kind, n: int, samples: int = 100, tol: float = 1e-10,
    seed: int = DEFAULT_SEED, product=None,
) -> dict:
    """Residuals lhs - rhs of identities.postlie_identities plus the Jacobi
    identity of the derived bracket, on random triples.  `product`
    overrides |> so a wrong-sign product is seen to fail."""

    def residuals(pi_minus, x, y, z):
        tr = product if product is not None else partial(_act, pi_minus)
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
    # The symbolic layers load here, once per call and never per tree: the
    # identity checks load none of them.
    from .lbseries import FieldSeries
    from .postlie import graft_attachments
    from .trees import LEAF

    kindv = _kind(kind)
    m0 = _square(m0)
    tr = partial(_act, _pi_minus(kindv, m0.shape[-1]))
    memo = {LEAF: m0}
    total = np.zeros_like(m0)
    field = a if isinstance(a, FieldSeries) else FieldSeries(a)
    for forest, coeff in field.series.terms.items():
        folded = _tree_value(tr, graft_attachments, forest.trees[0], memo)
        for t in forest.trees[1:]:
            folded = commutator(folded, _tree_value(tr, graft_attachments, t, memo))
        total = total + (float(coeff) / len(forest.trees)) * folded
    return total


def _tree_value(tr, attach, t: Tree, memo: dict) -> np.ndarray:
    """F(t) for eval_F, with tr the unchecked |> and attach
    postlie.graft_attachments; memo maps the trees done so far to F,
    F(leaf) = m0."""
    out = memo.get(t)
    if out is not None:
        return out
    head = t.children[0]
    rest = type(t)(t.children[1:])  # a trees.Tree, built without importing trees here
    out = tr(_tree_value(tr, attach, head, memo), _tree_value(tr, attach, rest, memo))
    for attached in attach(head, rest):
        if attached != t:
            out = out - _tree_value(tr, attach, attached, memo)
    memo[t] = out
    return out
