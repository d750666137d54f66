"""Computer algebra for Lie-Butcher series on planar rooted forests.

Planar rooted trees carry a grafting product whose lift to ordered forests
yields two associative products, concatenation and Grossman-Larson; their
exponentials are the frozen-field Euler flow and the exact flow, and the
Magnus-type map chi translates between them.  Concrete realizations on
matrix splittings and on the unit sphere turn the symbolic calculus into
checkable numerics.

Only the numeric realizations need numpy.  They load on first use: the
names below resolve through a module __getattr__, so `import liebutcher`
and the symbolic layers never import numpy.
"""

import importlib

from .lbseries import (
    FieldSeries,
    MethodCharacter,
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
from .postlie import (
    bracket,
    check_postlie_axioms,
    dbracket,
    gl_product,
    graft,
    triangleright,
)
from .series import Series, TruncationError, concat, deshuffle, pairing, shuffle, truncate
from .trees import (
    DegreeCapError,
    Forest,
    ForestParseError,
    Tree,
    enumerate_forests,
    enumerate_trees,
    parse_forest,
    render_forest,
)

__version__ = "0.1.0"

# Numeric re-exports, name -> submodule.  Each access reads the submodule's
# attribute (no copy is bound here), so a patched attribute is seen.
_NUMERIC = {
    **dict.fromkeys(
        ("ProjectionKind", "check_matrix_postlie_axioms", "check_projection_identity", "eval_F",
         "mat_triangleright", "project_minus", "project_plus"),
        "matrixpostlie",
    ),
    **dict.fromkeys(
        ("convergence_study", "hat", "rigid_body_field", "rot_exp", "step_lie_euler",
         "step_lie_midpoint"),
        "sphere",
    ),
}


def __getattr__(name):
    if name in ("matrixpostlie", "sphere"):
        return importlib.import_module(f".{name}", __name__)
    if name in _NUMERIC:
        return getattr(importlib.import_module(f".{_NUMERIC[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
