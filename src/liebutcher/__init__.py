"""Computer algebra for Lie-Butcher series on planar rooted forests.

Planar rooted trees carry a grafting product whose lift to ordered forests
yields two associative products, concatenation and Grossman-Larson; their
exponentials are the frozen-field Euler flow and the exact flow, and the
Magnus-type map chi translates between them.  Concrete realizations on
matrix splittings and on the unit sphere turn the symbolic calculus into
checkable numerics.

Every layer loads on first use: `import liebutcher` loads no submodule,
and each name below resolves through a module __getattr__ that imports
only the submodule defining it.  So a sphere integration never compiles
the symbolic layers, and nothing symbolic imports numpy.  Of the numeric
layers, the matrix realization imports numpy and the post-Lie identities
(`identities`) only, so its identity checks load no symbolic layer;
`eval_F` is the one bridge that loads the symbolic layers, inside the
call.  The sphere steps run in plain floats, and only its matrix forms
`hat`/`rot_exp` and `rigid_body_field` import numpy.

Every memo of the library is declared here once: a layer decorates it with
`_memo`, which returns the plain functools.lru_cache wrapper and records it
in `_MEMOS`, so `clear_caches` is one loop over that table and loads no
layer.
"""

import functools
import importlib

__version__ = "0.1.0"

# Public name -> submodule.  Each access reads the submodule's attribute (no
# copy is bound here), so a patched attribute is seen.
_EXPORTS = {
    **dict.fromkeys(
        ("DegreeCapError", "Forest", "ForestParseError", "Tree", "enumerate_forests",
         "enumerate_trees", "parse_forest", "render_forest"),
        "trees",
    ),
    **dict.fromkeys(
        ("Series", "TruncationError", "concat", "deshuffle", "pairing", "shuffle", "truncate"),
        "series",
    ),
    **dict.fromkeys(
        ("bracket", "check_postlie_axioms", "clear_caches", "dbracket", "gl_product", "graft",
         "triangleright"),
        "postlie",
    ),
    **dict.fromkeys(
        ("FieldSeries", "MethodCharacter", "exact_flow_character", "exp_concat", "exp_gl",
         "field_generator", "first_defect", "is_character", "is_inf_character",
         "lie_euler_character", "lie_midpoint_character", "lie_midpoint_field", "log_gl",
         "magnus_chi", "order_of_agreement"),
        "lbseries",
    ),
    **dict.fromkeys(
        ("check_matrix_postlie_axioms", "check_projection_identity", "eval_F",
         "mat_triangleright", "project_minus", "project_plus"),
        "matrixpostlie",
    ),
    **dict.fromkeys(
        ("convergence_study", "hat", "rigid_body_field", "rot_exp", "step_lie_euler",
         "step_lie_midpoint"),
        "sphere",
    ),
}

# `from liebutcher import *` binds the symbolic names only, so it loads no numpy.
__all__ = [name for name, module in _EXPORTS.items() if module not in ("matrixpostlie", "sphere")]


# the memo table: every wrapper _memo made, and the default extension's two bases
_MEMOS = []


def _memo(maxsize=None):
    """functools.lru_cache(maxsize), with the wrapper recorded in _MEMOS."""

    def declare(fn):
        wrapper = functools.lru_cache(maxsize=maxsize)(fn)
        _MEMOS.append(wrapper)
        return wrapper

    return declare


def clear_caches() -> None:
    """Empty every memo in _MEMOS, eval_F's plans (with the coefficients
    they keep) and the default extension's bases among them.  A warm session
    can then time a cold run or give the memory back.  The Tree and Forest
    intern tables stay, since equal values must remain one object, and a
    GraftExtension made by the caller keeps its own caches."""
    for memo in _MEMOS:
        memo.cache_clear()


def __getattr__(name):
    if name in _EXPORTS.values():
        return importlib.import_module(f".{name}", __name__)
    if name in _EXPORTS:
        return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_EXPORTS})
