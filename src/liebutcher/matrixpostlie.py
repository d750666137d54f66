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
`trees`, `postlie` and `lbseries` inside the call, once per call.  It runs
on stacks, by an evaluation plan cached per series support: one batched |>
per level (the trees of one degree), one batched commutator per letter
position, and a sum in term order, bit-identical to a per-tree recursion.
The plan's cache entry also keeps the coefficients last checked as a field
on that support, so a repeat call on them is not checked again.

Every public function takes one real n x n matrix or a stack of them on the
last two axes (a complex one is refused, not cut to its real part), and on
a stack equals its per-matrix results exactly.  The identity checks run
their samples as such stacks, in blocks of a fixed number of doubles, so
memory does not grow with `samples`; their `projector=`/`product=` hooks
receive (block, n, n) stacks.
"""

from __future__ import annotations

from functools import partial
from itertools import groupby
from typing import TYPE_CHECKING

import numpy as np

from . import _memo
from .identities import dbracket, postlie_identities

if TYPE_CHECKING:
    from .lbseries import FieldSeries
    from .series import Series

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


def _real(m) -> np.ndarray:
    """m as a float array; a complex m is refused, not cut to its real part."""
    m = np.asarray(m)
    if np.iscomplexobj(m):
        raise ValueError(f"expected a real matrix, got dtype {m.dtype}")
    return m.astype(float, copy=False)


def _square(m) -> np.ndarray:
    m = _real(m)
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


def commutator(a, b) -> np.ndarray:
    a, b = _real(a), _real(b)
    return a @ b - b @ a


def mat_triangleright(kind, m, n) -> np.ndarray:
    """M |> N = -[pi_minus(M), N]."""
    m, n = _real(m), _real(n)
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


# Evaluation plans kept, one per series support.
_PLANS = 64


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
    commutators and weight 1/k, which reproduces the element.  The input
    enters through FieldSeries (a wrapper that vouches for its series runs
    no check) before a plan is laid out for it, unless its coefficients
    equal the ones that last passed on the same support: the support's
    cache entry keeps those Fraction objects (a repeat call on them compares
    by identity) with their float weights, since neither a Series nor a
    FieldSeries can change.

    The numpy work runs on stacks, laid out by the evaluation plan of the
    series support (_plan, cached per support): one batched |> per level
    (the trees of one degree), the other attachments subtracted one rank at
    a time in graft_attachments order, one batched commutator per letter
    position, and the weighted words summed one after another in term
    order.  Each entry goes through the same floating-point operations, in
    the same order, as in a per-tree recursion, so the result is
    bit-identical to it, on a stack of m0 too.  The result is a fresh
    array that owns its data.
    """
    # The symbolic layers load here, once per call and never per tree: the
    # identity checks load none of them.
    from .lbseries import FieldSeries, _as_series

    kindv = _kind(kind)
    m0 = _square(m0)
    terms = _as_series(a).terms
    support, coeffs = tuple(terms), tuple(terms.values())
    plan = _plan(support)
    checked = plan.checked
    if checked is not None and checked[0] == coeffs:
        weights = checked[1]
    else:
        FieldSeries(a)
        if plan.layout is None:
            plan.layout = _layout(support)
        weights = np.array([float(c) for c in coeffs]) / plan.layout[-1]
        plan.checked = coeffs, weights
    size, levels, first, letters, order, _ = plan.layout
    minus = _pi_minus(kindv, m0.shape[-1])
    values = np.empty((size,) + m0.shape)
    values[0] = m0
    for start, stop, heads, rests, steps in levels:
        values[start:stop] = _act(minus, values[heads], values[rests])
        for lo, hi, others in steps:
            values[lo:hi] -= values[others]
    folded = values[first]
    for count, rows in letters:
        folded[:count] = commutator(folded[:count], values[rows])
    acc = np.zeros((len(terms) + 1,) + m0.shape)
    np.multiply(weights.reshape((-1,) + (1,) * m0.ndim), folded[order], out=acc[1:])
    return np.cumsum(acc, axis=0, out=acc)[-1].copy()


class _Plan:
    """The _plan cache entry of one series support: its layout (_layout),
    built once a call on the support gets past the field check, and the
    coefficients last checked on it, with their weights."""

    __slots__ = ("layout", "checked")

    def __init__(self):
        self.layout = self.checked = None


@_memo(maxsize=_PLANS)
def _plan(support: tuple) -> _Plan:
    """The cache entry of a series support (its forests in term order)."""
    return _Plan()


def _layout(support: tuple) -> tuple:
    """eval_F's evaluation layout for the forests of a series, in term order:
    (size, levels, first, letters, order, lengths).

    Each tree a letter needs, and each tree it is solved from (its head, its
    rest and its other attachments), gets one of `size` rows of the value
    stack; row 0 is the one-node tree.  Rows are sorted by (degree, root
    arity, number of other attachments, most first).  The trees of one
    degree form a level (start, stop, head rows, rest rows, steps): their
    heads and rests have lower degree, so the level's |> reads earlier
    levels only.  Its steps (lo, hi, rows) then run by root arity, since
    another attachment has the same degree and one child fewer at the root,
    and within an arity by rank: step r subtracts the rank-r other
    attachments from the trees that have more than r of them, a prefix of
    the arity's rows.  Words are ordered longest first: `first` holds each
    word's first letter, and `letters` a (count, rows) pair per later
    position, whose words are a prefix too.  `order` gives each term's
    word in that order, and `lengths` its number of letters.
    """
    from .postlie import graft_attachments
    from .trees import LEAF, Tree

    solved = {}  # tree -> (head, rest, other attachments in graft order)
    pending = [t for forest in support for t in forest.trees]
    while pending:
        t = pending.pop()
        if t is LEAF or t in solved:
            continue
        head, rest = t.children[0], Tree(t.children[1:])
        others = tuple(x for x in graft_attachments(head, rest) if x is not t)
        solved[t] = (head, rest, others)
        pending += (head, rest, *others)
    trees = sorted(solved, key=lambda t: (t.degree, len(t.children), -len(solved[t][2])))
    row = {LEAF: 0, **{t: i for i, t in enumerate(trees, 1)}}

    def rows(ts):
        return np.array([row[t] for t in ts], dtype=np.intp)

    levels = []
    for _, block in groupby(trees, key=lambda t: t.degree):
        block = list(block)
        start = row[block[0]]
        heads, rests, _ = zip(*(solved[t] for t in block))
        steps = []
        for _, sub in groupby(block, key=lambda t: len(t.children)):
            sub = list(sub)
            others = [solved[t][2] for t in sub]
            for r in range(len(others[0])):
                ranked = [o[r] for o in others if len(o) > r]
                steps.append((row[sub[0]], row[sub[0]] + len(ranked), rows(ranked)))
        levels.append((start, start + len(block), rows(heads), rows(rests), tuple(steps)))
    lengths = [len(forest.trees) for forest in support]
    words = sorted(range(len(support)), key=lambda i: -lengths[i])
    letters = []
    for k in range(1, max(lengths, default=0)):
        long = [support[i].trees[k] for i in words if lengths[i] > k]
        letters.append((len(long), rows(long)))
    order = np.empty(len(support), dtype=np.intp)
    order[words] = np.arange(len(support))
    first = rows(support[i].trees[0] for i in words)
    return len(row), tuple(levels), first, tuple(letters), order, np.array(lengths, dtype=float)
