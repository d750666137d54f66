"""Spans around the public functions of liebutcher's modules.

The library carries no instrumentation of its own; this module wraps every
public function in a span that records (name, start, end, parent, request
id) and keeps the spans in memory until the caller dumps them.  Wrappers
replace the function under every name any liebutcher module binds it to,
so calls between modules are traced too.  Functions called once per step,
matrix sample or sort key are left alone; the probes time them directly.

Run as a script, it is one traced CLI request:

    python3 bench/tracer.py SPANS.json REQUEST_ID -- graft "[]" "[[]]"
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import types
from pathlib import Path

LAYERS = ("trees", "series", "postlie", "lbseries", "matrixpostlie", "sphere")
HOT = {
    "trees.forest_sort_key",
    "trees.tree_sort_key",
    "series.min_trunc",
    "matrixpostlie.commutator",
    "matrixpostlie.mat_dbracket",
    "matrixpostlie.mat_triangleright",
    "matrixpostlie.project_minus",
    "matrixpostlie.project_plus",
    "sphere.hat",
    "sphere.norm_defect",
    "sphere.rot_exp",
    "sphere.step_lie_euler",
    "sphere.step_lie_midpoint",
    "sphere.unit_vector",
}
METHODS = {"series.Series": ("to_json", "from_json")}
# memo caches read through cache_info(); one that is gone is reported absent
CACHES = ("postlie.graft_attachments",)
PREDICATES = ("lbseries.is_character", "lbseries.is_inf_character")


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start_ns, end_ns, parent index, request id)
        self._stack: list[int] = []
        self.rid = None
        self.terms_out = 0  # terms of the Series the series layer returned

    def span(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        count_terms = name.startswith("series.")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.rid)
            if count_terms:
                self.terms_out += len(getattr(result, "terms", ()))
            return result

        return traced

    def install(self) -> None:
        """Wrap the public functions of every layer, wherever they are bound."""
        pkg = importlib.import_module("liebutcher")
        mods = [importlib.import_module(f"liebutcher.{m}") for m in LAYERS + ("cli",)]
        replace = {}
        for mod in mods[: len(LAYERS)]:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr in getattr(mod, "__all__", ()):
                obj = getattr(mod, attr, None)
                name = f"{short}.{attr}"
                if isinstance(obj, types.FunctionType) and name not in HOT:
                    replace[id(obj)] = (obj, self.span(name, obj))
        for target in mods + [pkg]:
            for attr, obj in list(vars(target).items()):
                if id(obj) in replace and replace[id(obj)][0] is obj:
                    setattr(target, attr, replace[id(obj)][1])
        for qual, names in METHODS.items():
            short, cls_name = qual.split(".")
            cls = getattr(importlib.import_module(f"liebutcher.{short}"), cls_name, None)
            for meth in names:
                raw = cls.__dict__.get(meth) if cls is not None else None
                if isinstance(raw, classmethod):
                    setattr(cls, meth, classmethod(self.span(f"{short}.{meth}", raw.__func__)))
                elif isinstance(raw, types.FunctionType):
                    setattr(cls, meth, self.span(f"{short}.{meth}", raw))

    def dump(self, path) -> None:
        body = {"spans": self.spans, "terms_out": self.terms_out, "caches": cache_counters()}
        Path(path).write_text(json.dumps(body), encoding="utf-8")


def cache_counters() -> dict:
    """hits, misses and currsize of each memo cache that still exists."""
    out = {}
    for qual in CACHES:
        short, attr = qual.split(".")
        fn = getattr(importlib.import_module(f"liebutcher.{short}"), attr, None)
        info = getattr(fn, "cache_info", None)
        if info is not None:
            ci = info()
            out[qual] = [ci.hits, ci.misses, ci.currsize]
    return out


def busy_seconds(spans) -> dict[str, float]:
    """Time inside each span name, counting nested calls of one name once."""
    busy: dict[str, float] = {}
    for name, start, end, parent, _ in spans:
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            busy[name] = busy.get(name, 0.0) + (end - start) / 1e9
    return busy


def validate_parts(spans) -> tuple[float, float]:
    """(predicate seconds, library seconds) over outermost spans of each."""
    pred = lib = 0.0
    for name, start, end, parent, _ in spans:
        is_pred = name in PREDICATES
        is_lib = name.split(".", 1)[0] in LAYERS
        p = parent
        while p >= 0 and (is_pred or is_lib):
            pname = spans[p][0]
            if is_pred and pname in PREDICATES:
                is_pred = False
            if is_lib and pname.split(".", 1)[0] in LAYERS:
                is_lib = False
            p = spans[p][3]
        if is_pred:
            pred += (end - start) / 1e9
        if is_lib:
            lib += (end - start) / 1e9
    return pred, lib


def _main(argv: list[str]) -> int:
    out_path, rid, sep, *cli_argv = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS.json REQUEST_ID -- CLI-ARGS...")
    from liebutcher import cli

    tracer = Tracer()
    tracer.install()
    tracer.rid = rid
    try:
        return tracer.span("cli.main", cli.main)(cli_argv)
    except SystemExit as exc:  # argparse usage errors
        return exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout.flush()
        tracer.dump(out_path)


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
