"""Layer probes for the traced run, in a fresh interpreter.

Times single layers through their public functions (cold and warm
enumeration, forest hashing, Grossman-Larson products with a fresh and a
warm extension, matrix identity samples, sphere steps), then sends one
small call through every traced function under the tracer, so every layer
reports a busy time whatever the workload.

    python3 bench/probes.py OUT.json
"""

from __future__ import annotations

import json
import math
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))


def _best_of(fn, reps):
    """Median wall time of fn() over reps calls."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def timings() -> dict:
    """Layer timings as {name: (value, unit)}."""
    from liebutcher import lbseries as lb
    from liebutcher import matrixpostlie as mp
    from liebutcher import postlie as pl
    from liebutcher import sphere
    from liebutcher import trees

    out = {}
    start = time.perf_counter()
    forests = trees.enumerate_forests(8)
    out["trees.enumerate_forests.cold_s"] = (time.perf_counter() - start, "s")
    out["trees.enumerate_forests.warm_s"] = (_best_of(lambda: trees.enumerate_forests(8), 5), "s")

    def hash_all():
        for f in forests:
            hash(f)

    out["trees.hash_ns_per_forest"] = (_best_of(hash_all, 9) / len(forests) * 1e9, "ns")

    a = lb.exp_concat(lb.field_generator(6), 6, validate=False).series
    b = lb.magnus_chi(lb.field_generator(6), 6, validate=False).series
    ext = pl.GraftExtension()
    start = time.perf_counter()
    pl.gl_product(a, b, ext)
    out["postlie.gl_product.cold_s"] = (time.perf_counter() - start, "s")
    out["postlie.gl_product.warm_s"] = (_best_of(lambda: pl.gl_product(a, b, ext), 5), "s")

    samples = 200
    for name in ("check_matrix_postlie_axioms", "check_projection_identity"):
        fn = getattr(mp, name)
        t = _best_of(lambda: fn("qr", 4, samples, 1e-10, 7), 3)
        out[f"matrixpostlie.{name}.us_per_sample"] = (t / samples * 1e6, "us")

    field = sphere.rigid_body_field((1.0, 2.0, 3.0))
    y0 = sphere.unit_vector([1 / math.sqrt(3.0)] * 3)
    w = [0.01 * field(y0) * (1 + k / 100) for k in range(100)]

    def rot_batch():
        for v in w:
            sphere.rot_exp(v)

    out["sphere.rot_exp.us_per_call"] = (_best_of(rot_batch, 50) / len(w) * 1e6, "us")
    for name, steps in (("step_lie_euler", 4000), ("step_lie_midpoint", 1000)):
        step = getattr(sphere, name)

        def run():
            y = y0
            for _ in range(steps):
                y = step(field, y, 0.005)

        out[f"sphere.{name}.us_per_step"] = (_best_of(run, 3) / steps * 1e6, "us")

    evals = 0

    def counting(y):
        nonlocal evals
        evals += 1
        return field(y)

    y = y0
    for _ in range(500):
        y = sphere.step_lie_midpoint(counting, y, 0.005)
    out["sphere.midpoint.field_evals_per_step"] = (evals / 500, "count")
    return out


def sweep() -> None:
    """One small call through every traced function of every layer."""
    import numpy as np

    import liebutcher as L
    from liebutcher import sphere

    f = L.parse_forest("[[] [[]]] []")
    L.render_forest(f)
    L.enumerate_trees(5)
    L.enumerate_forests(5)
    a = L.Series.from_json({"trunc": 6, "terms": [{"forest": "[[]] []", "coeff": "1/2"},
                                                  {"forest": "[]", "coeff": "-3"}]})
    b = L.Series.of("[[[]]]", 2, 6)
    L.concat(a, b)
    L.shuffle(a, b)
    L.deshuffle(a)
    L.pairing(a, "[]")
    L.truncate(a, 4)
    a.to_json()
    L.triangleright(a, b)
    L.gl_product(a, b)
    L.dbracket(b, a)
    L.graft(L.Tree(), L.Tree((L.Tree(),)))
    L.check_postlie_axioms(4)
    n = 5
    h = L.field_generator(n)
    chi = L.magnus_chi(h, n)
    L.exp_gl(chi, n)
    L.log_gl(L.exp_gl(h, n))
    L.order_of_agreement(L.lie_midpoint_character(n), L.exact_flow_character(n))
    L.first_defect(L.lie_euler_character(n), L.exact_flow_character(n))
    L.lie_midpoint_field(4)
    m0 = np.random.default_rng(5).uniform(-1.0, 1.0, size=(3, 3))
    L.eval_F("lu", m0, chi.series.truncated(4))
    L.check_matrix_postlie_axioms("lu", 3, 10)
    L.check_projection_identity("qr", 3, 10)
    field = sphere.rigid_body_field((1.0, 2.0, 3.0))
    y0 = np.ones(3) / math.sqrt(3.0)
    sphere.integrate(field, y0, 0.01, 200, "lie-midpoint")
    sphere.convergence_study(field, y0, 1.0, "lie-euler", [0.2, 0.1, 0.05], 4)


def main(out_path: str) -> int:
    import tracer as tracing

    body = {"metrics": timings()}
    trace = tracing.Tracer()
    trace.install()
    trace.rid = "probe"
    sweep()
    body.update(spans=trace.spans, terms_out=trace.terms_out, caches=tracing.cache_counters())
    Path(out_path).write_text(json.dumps(body), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
