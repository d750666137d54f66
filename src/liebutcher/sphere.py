"""Integrators on the unit sphere driven by rotations.

The equation y' = omega(y) x y is advanced with exponentials of skew
matrices, so every update is an exact rotation up to roundoff and step
sequences stay on the sphere without renormalization.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

__all__ = [
    "AngularField",
    "ConvergenceError",
    "convergence_study",
    "hat",
    "integrate",
    "norm_defect",
    "rigid_body_field",
    "rot_exp",
    "step_lie_euler",
    "step_lie_midpoint",
    "trajectory",
    "unit_vector",
    "STEPPERS",
]

# A field assigns an angular-velocity vector in R^3 to each sphere point.
AngularField = Callable[[np.ndarray], np.ndarray]


class ConvergenceError(ValueError):
    """Midpoint stage iteration failed; carries the last residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


def hat(w) -> np.ndarray:
    """Skew matrix with hat(w) v = w x v."""
    w = np.asarray(w, dtype=float)
    return np.array(
        [
            [0.0, -w[2], w[1]],
            [w[2], 0.0, -w[0]],
            [-w[1], w[0], 0.0],
        ]
    )


def rot_exp(w) -> np.ndarray:
    """Rotation exp(hat(w)) in closed form.

    The sin(t)/t and (1-cos t)/t^2 factors switch to their series below
    t = 1e-6 to avoid cancellation.
    """
    w = np.asarray(w, dtype=float)
    theta = math.sqrt(w[0] * w[0] + w[1] * w[1] + w[2] * w[2])
    if theta < 1e-6:
        t2 = theta * theta
        a = 1.0 - t2 / 6.0 + t2 * t2 / 120.0
        b = 0.5 - t2 / 24.0 + t2 * t2 / 720.0
    else:
        a = math.sin(theta) / theta
        b = (1.0 - math.cos(theta)) / (theta * theta)
    k = hat(w)
    return np.eye(3) + a * k + b * (k @ k)


def unit_vector(v) -> np.ndarray:
    """Validate a sphere point: shape (3,), norm within 1e-12 of 1."""
    y = np.asarray(v, dtype=float)
    if y.shape != (3,):
        raise ValueError("sphere points live in R^3")
    if abs(float(np.linalg.norm(y)) - 1.0) > 1e-12:
        raise ValueError(f"not a unit vector (norm {np.linalg.norm(y)!r})")
    return y


def norm_defect(y) -> float:
    return abs(float(np.linalg.norm(y)) - 1.0)


def step_lie_euler(field: AngularField, y0: np.ndarray, h: float) -> np.ndarray:
    """One step y1 = exp(h hat(omega(y0))) y0."""
    return rot_exp(h * np.asarray(field(y0), dtype=float)) @ y0


def step_lie_midpoint(
    field: AngularField,
    y0: np.ndarray,
    h: float,
    tol: float = 1e-13,
    maxit: int = 50,
) -> np.ndarray:
    """One step of K = h omega(exp(K/2) y0), y1 = exp(K) y0.

    The stage K is solved by fixed-point iteration from K = h omega(y0);
    failure to contract within maxit raises, signalling the step is too
    large for the field.
    """
    k = h * np.asarray(field(y0), dtype=float)
    residual = math.inf
    for _ in range(maxit):
        knext = h * np.asarray(field(rot_exp(0.5 * k) @ y0), dtype=float)
        residual = float(np.linalg.norm(knext - k))
        k = knext
        if residual <= tol:
            return rot_exp(k) @ y0
    raise ConvergenceError(
        f"midpoint stage did not reach {tol:g} within {maxit} iterations "
        f"(last residual {residual:g}); reduce the step size",
        residual,
    )


def rigid_body_field(inertia=(1.0, 2.0, 3.0)) -> AngularField:
    """omega(y) = y / inertia componentwise: the free rigid body on the
    momentum sphere."""
    inv = 1.0 / np.asarray(inertia, dtype=float)

    def omega(y: np.ndarray) -> np.ndarray:
        return inv * y

    return omega


STEPPERS = {
    "lie-euler": step_lie_euler,
    "lie-midpoint": step_lie_midpoint,
}


def _stepper(method):
    try:
        return STEPPERS[method]
    except KeyError:
        raise ValueError(f"unknown method {method!r}; choose from {sorted(STEPPERS)}") from None


def _check_step(h: float, steps: int = 0) -> None:
    if not (math.isfinite(h) and h > 0):
        raise ValueError(f"step size must be finite and positive, got {h!r}")
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps!r}")


def _points(field: AngularField, y0, h: float, steps: int, method):
    """Yield (i*h, y_i) for i = 0..steps, checking the arguments first."""
    step = _stepper(method)
    _check_step(h, steps)
    y = np.asarray(y0, dtype=float)
    yield 0.0, y
    for i in range(1, steps + 1):
        y = step(field, y, h)
        yield i * h, y


def trajectory(
    field: AngularField, y0, h: float, steps: int, method="lie-euler"
) -> list[tuple[float, np.ndarray]]:
    """The points (i*h, y_i) for i = 0..steps."""
    return list(_points(field, y0, h, steps, method))


def integrate(field: AngularField, y0, h: float, steps: int, method="lie-euler") -> np.ndarray:
    """The last point of trajectory(...), stepped to without keeping the path."""
    for _, y in _points(field, y0, h, steps, method):
        pass
    return y


def convergence_study(
    field: AngularField, y0, T: float, method, h_list, refine: int = 64
) -> dict:
    """Least-squares slope of log global error at T against log h.

    The reference is the same method run at h_min/refine.  A zero error
    (reference compared against itself, refine=1) is reported as exact with
    no slope.
    """
    hs = [float(h) for h in h_list]
    if not (math.isfinite(T) and T > 0):
        raise ValueError(f"horizon T must be finite and positive, got {T!r}")
    if len(hs) < 3:
        raise ValueError("need at least 3 step sizes")
    for h in hs:
        _check_step(h)
    if any(b >= a for a, b in zip(hs, hs[1:])):
        raise ValueError("step sizes must be strictly decreasing")
    if refine < 1:
        raise ValueError(f"refine must be >= 1, got {refine!r}")
    for h in hs:
        if abs(T / h - round(T / h)) > 1e-9:
            raise ValueError(f"step {h!r} does not divide the horizon {T!r}")
    href = hs[-1] / refine
    ref = integrate(field, y0, href, round(T / href), method)
    errors = [
        float(np.linalg.norm(integrate(field, y0, h, round(T / h), method) - ref))
        for h in hs
    ]
    report: dict = {"method": method, "h": hs, "errors": errors}
    if any(e == 0.0 for e in errors):
        report["slope"] = None
        report["exact"] = True
    else:
        report["slope"] = float(np.polyfit(np.log(hs), np.log(errors), 1)[0])
    return report
