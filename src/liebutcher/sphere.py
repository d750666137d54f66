"""Integrators on the unit sphere driven by rotations.

The equation y' = omega(y) x y is advanced by rotating the point with
Rodrigues' formula for exp(hat(w)), so every update is an exact rotation
up to roundoff and step sequences stay on the sphere without
renormalization.  The exponential acts on the point and is never formed
as a matrix: points are 3-tuples of floats and the stepping path runs in
plain Python floats.  Only the matrix forms `hat` and `rot_exp` and the
array-valued `rigid_body_field` import numpy.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Sequence

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "AngularField",
    "ConvergenceError",
    "Point",
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

Point = tuple[float, float, float]
# A field assigns an angular-velocity vector in R^3 to each sphere point.
AngularField = Callable[[Point], Sequence[float]]


class ConvergenceError(ValueError):
    """Midpoint stage iteration failed; carries the last residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


def _rodrigues(t2: float) -> tuple[float, float]:
    """(sin t / t, (1 - cos t) / t^2) at the angle t = sqrt(t2).

    Both factors switch to their series below t = 1e-6 to avoid
    cancellation.  An angle whose square is not a finite float raises
    OverflowError.
    """
    if not math.isfinite(t2):
        raise OverflowError(f"rotation angle is not finite (squared norm {t2!r})")
    theta = math.sqrt(t2)
    if theta < 1e-6:
        t2 = theta * theta
        return 1.0 - t2 / 6.0 + t2 * t2 / 120.0, 0.5 - t2 / 24.0 + t2 * t2 / 720.0
    return math.sin(theta) / theta, (1.0 - math.cos(theta)) / (theta * theta)


def _rotate(w: Point, v: Point) -> Point:
    """exp(hat(w)) v as v + a (w x v) + b (w x (w x v))."""
    x, y, z = w
    v0, v1, v2 = v
    a, b = _rodrigues(x * x + y * y + z * z)
    c0 = y * v2 - z * v1
    c1 = z * v0 - x * v2
    c2 = x * v1 - y * v0
    return (
        v0 + a * c0 + b * (y * c2 - z * c1),
        v1 + a * c1 + b * (z * c0 - x * c2),
        v2 + a * c2 + b * (x * c1 - y * c0),
    )


def hat(w) -> np.ndarray:
    """Skew matrix with hat(w) v = w x v."""
    import numpy as np

    w = np.asarray(w, dtype=float)
    return np.array(
        [
            [0.0, -w[2], w[1]],
            [w[2], 0.0, -w[0]],
            [-w[1], w[0], 0.0],
        ]
    )


def rot_exp(w) -> np.ndarray:
    """Rotation exp(hat(w)) as a matrix, in closed form.

    The steps never build it; it is the matrix form of their rotation.  An
    angle whose square is not a finite float raises OverflowError.
    """
    import numpy as np

    w = np.asarray(w, dtype=float)
    x, y, z = w.tolist()
    a, b = _rodrigues(x * x + y * y + z * z)
    k = hat(w)
    return np.eye(3) + a * k + b * (k @ k)


def _shape(v) -> tuple[int, ...]:
    """The shape of v as nested sequences, read down the first entries; a
    number or a string has shape ()."""
    shape = []
    while not isinstance(v, (str, bytes)):
        try:
            n = len(v)
            first = v[0] if n else None
        except (TypeError, KeyError, IndexError):
            break
        shape.append(n)
        if not n:
            break
        v = first
    return tuple(shape)


def unit_vector(v) -> Point:
    """Validate a sphere point: three real components, norm within 1e-12 of 1."""
    shape = _shape(v)
    if shape != (3,):
        raise ValueError(f"sphere points live in R^3, got shape {shape}")
    try:
        y = tuple(map(float, v))
    except TypeError as err:
        raise ValueError(f"sphere point components must be real numbers ({err})") from None
    if not (norm_defect(y) <= 1e-12):
        raise ValueError(f"not a unit vector (norm {math.hypot(*y)!r})")
    return y


def norm_defect(y) -> float:
    return abs(math.hypot(*y) - 1.0)


def _angle(field: AngularField, y: Point, h: float) -> Point:
    """h omega(y) in floats; the field may return any three real numbers."""
    wx, wy, wz = field(y)
    return (h * float(wx), h * float(wy), h * float(wz))


def step_lie_euler(field: AngularField, y0: Point, h: float) -> Point:
    """One step y1 = exp(h hat(omega(y0))) y0."""
    return _rotate(_angle(field, y0, h), y0)


def step_lie_midpoint(
    field: AngularField,
    y0: Point,
    h: float,
    tol: float = 1e-13,
    maxit: int = 50,
) -> Point:
    """One step of K = h omega(exp(K/2) y0), y1 = exp(K) y0.

    The stage K is solved by fixed-point iteration from K = h omega(y0);
    failure to contract within maxit raises, signalling the step is too
    large for the field.
    """
    k = _angle(field, y0, h)
    residual = math.inf
    for _ in range(maxit):
        kx, ky, kz = k
        knext = _angle(field, _rotate((0.5 * kx, 0.5 * ky, 0.5 * kz), y0), h)
        residual = math.dist(knext, k)
        k = knext
        if residual <= tol:
            return _rotate(k, y0)
    raise ConvergenceError(
        f"midpoint stage did not reach {tol:g} within {maxit} iterations "
        f"(last residual {residual:g}); reduce the step size",
        residual,
    )


def rigid_body_field(inertia=(1.0, 2.0, 3.0)) -> Callable[[Point], np.ndarray]:
    """omega(y) = y / inertia componentwise: the free rigid body on the
    momentum sphere, as an array-valued field."""
    import numpy as np

    inv = 1.0 / np.asarray(inertia, dtype=float)

    def omega(y) -> np.ndarray:
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
    y = unit_vector(y0)
    yield 0.0, y
    for i in range(1, steps + 1):
        try:
            y = step(field, y, h)
        except OverflowError:
            raise ValueError(
                f"step size h={h!r} overflows the rotation angle at step {i}; reduce h"
            ) from None
        yield i * h, y


def trajectory(
    field: AngularField, y0, h: float, steps: int, method="lie-euler"
) -> list[tuple[float, Point]]:
    """The points (i*h, y_i) for i = 0..steps."""
    return list(_points(field, y0, h, steps, method))


def integrate(field: AngularField, y0, h: float, steps: int, method="lie-euler") -> Point:
    """The last point of trajectory(...), stepped to without keeping the path."""
    for _, y in _points(field, y0, h, steps, method):
        pass
    return y


def _slope(xs: list[float], ys: list[float]) -> float:
    """Least-squares slope of the line through the points (xs, ys)."""
    mx = math.fsum(xs) / len(xs)
    my = math.fsum(ys) / len(ys)
    dx = [x - mx for x in xs]
    return math.fsum(d * (y - my) for d, y in zip(dx, ys)) / math.fsum(d * d for d in dx)


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
    href = hs[-1] / refine
    if not (href > 0 and math.isfinite(T / href)):  # bounds T / h for every h too
        raise ValueError(f"reference step {hs[-1]!r}/{refine} is too small for the horizon {T!r}")
    for h in hs:
        steps = round(T / h)
        if steps < 1:
            raise ValueError(f"step {h!r} is longer than the horizon {T!r}: no whole step fits")
        if abs(T / h - steps) > 1e-9:
            raise ValueError(f"step {h!r} does not divide the horizon {T!r}")
    ref = integrate(field, y0, href, round(T / href), method)
    errors = [math.dist(integrate(field, y0, h, round(T / h), method), ref) for h in hs]
    report: dict = {"method": method, "h": hs, "errors": errors}
    if any(e == 0.0 for e in errors):
        report["slope"] = None
        report["exact"] = True
    else:
        report["slope"] = _slope([math.log(h) for h in hs], [math.log(e) for e in errors])
    return report
