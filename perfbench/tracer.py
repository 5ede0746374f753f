"""Run one ``hermlab`` command in this interpreter with every layer wrapped in spans.

Usage::

    python3 perfbench/tracer.py SPANS_FILE RUN_ID -- <hermlab arguments>

The public functions of each hermlab module are replaced by wrappers that
record a span ``(name, start, end, parent, run)`` in memory; the spans are
written to SPANS_FILE as JSON lines when the command returns.  Names re-bound
by ``from .x import f`` are replaced as well, so a call through
``hermlab.report.q_poly`` is recorded as ``hall_littlewood.q_poly``.  The
scalar operators are called far too often for spans, so they are only
counted; the counts, the ``q_poly`` cache misses and the accepted
Monte-Carlo draws go into a final ``{"counters": ...}`` line.  Each check
run by the report gets a span ``report.check.<check-id>``.  The exit
code is the command's own.  Nothing under ``src/`` is modified.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = (
    "scalars",
    "weyl",
    "torus",
    "hall_littlewood",
    "spherical",
    "plancherel",
    "padic",
    "report",
    "cli",
)
# public methods worth a span: (module, class, method, span name)
SPAN_METHODS = (
    ("torus", "TorusPoly", "eval_exact", "torus.eval_exact"),
    ("spherical", "SphericalValue", "eval_at_base_point", "spherical.eval_at_base_point"),
    ("plancherel", "QuadratureGrid", "poly_values", "plancherel.poly_values"),
)
# operators that are only counted: (class, method, counter name)
COUNTED_METHODS = (
    ("QLaurent", "__mul__", "scalars.qlaurent_mul"),
    ("QLaurent", "__rmul__", "scalars.qlaurent_mul"),
    ("QLaurent", "divexact", "scalars.qlaurent_divexact"),
    ("QFraction", "__mul__", "scalars.qfraction_mul"),
    ("QFraction", "__rmul__", "scalars.qfraction_mul"),
    ("QFraction", "__add__", "scalars.qfraction_add"),
    ("QFraction", "__radd__", "scalars.qfraction_add"),
)


class Tracer:
    """Spans and counters of one traced process, kept in memory."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counters: dict[str, int] = {}

    def span(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(record)
            stack.append(idx)
            record[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        return wrapper

    def count(self, name: str, fn):
        counters = self.counters
        counters.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def write(self, path: Path, run_id: str) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "run": run_id}
                    )
                    + "\n"
                )
            fh.write(json.dumps({"counters": self.counters, "run": run_id}) + "\n")


def instrument(tracer: Tracer) -> dict:
    """Wrap every layer; return the imported modules by short name."""
    mods = {m: __import__(f"hermlab.{m}", fromlist=["_"]) for m in MODULES}
    wrapped: dict[int, object] = {}  # id(original) -> wrapper
    for short, mod in mods.items():
        for name, obj in list(vars(mod).items()):
            if name.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != mod.__name__:
                continue
            wrapped[id(obj)] = tracer.span(f"{short}.{name}", obj)
    # re-point every binding of a wrapped original, including the check table
    for mod in mods.values():
        for name, obj in list(vars(mod).items()):
            if id(obj) in wrapped and inspect.isfunction(obj):
                setattr(mod, name, wrapped[id(obj)])
    checks = mods["report"].CHECKS
    for cid, fn in list(checks.items()):
        checks[cid] = tracer.span(f"report.check.{cid}", fn)
    for short, cls_name, meth, span_name in SPAN_METHODS:
        cls = getattr(mods[short], cls_name)
        setattr(cls, meth, tracer.span(span_name, getattr(cls, meth)))
    for cls_name, meth, counter in COUNTED_METHODS:
        cls = getattr(mods["scalars"], cls_name)
        setattr(cls, meth, tracer.count(counter, getattr(cls, meth)))
    return mods


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        sys.stderr.write(__doc__)
        return 2
    spans_path, run_id, args = Path(argv[0]), argv[1], argv[3:]
    sys.path.insert(0, str(ROOT / "src"))
    tracer = Tracer()
    mods = instrument(tracer)
    try:
        code = mods["cli"].run(args)
    finally:
        info = mods["hall_littlewood"]._q_poly_cached.cache_info()
        tracer.counters["hall_littlewood.q_poly.builds"] = info.misses
        histograms = mods["padic"]._MC_HISTOGRAMS.values()
        tracer.counters["padic.draws_accepted"] = sum(sum(h.values()) for h, _ in histograms)
        tracer.write(spans_path, run_id)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
