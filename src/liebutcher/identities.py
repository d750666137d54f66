"""The post-Lie identities, generic over the realization.

One statement serves the free realization (grafting on planar forests,
`postlie`) and the matrix splittings (`matrixpostlie`): tr is the
realization's product |> and br its Lie bracket, passed by the caller.
This module imports nothing, so a realization loads no other layer
through it.
"""

from __future__ import annotations

__all__ = ["associator", "dbracket", "postlie_identities"]


def associator(a, b, c, tr):
    """a |> (b |> c) - (a |> b) |> c."""
    return tr(a, tr(b, c)) - tr(tr(a, b), c)


def dbracket(a, b, tr, br):
    """The second Lie bracket: a |> b - b |> a + [a, b]."""
    return tr(a, b) - tr(b, a) + br(a, b)


def postlie_identities(x, y, z, tr, br):
    """The two defining identities at (x, y, z) as (name, lhs, rhs), lazily:

      bracket_rule:     x |> [y,z] = [x |> y, z] + [y, x |> z]
      associator_rule:  [x,y] |> z = a(x,y,z) - a(y,x,z)
    """
    yield "bracket_rule", tr(x, br(y, z)), br(tr(x, y), z) + br(y, tr(x, z))
    yield "associator_rule", tr(br(x, y), z), associator(x, y, z, tr) - associator(y, x, z, tr)
