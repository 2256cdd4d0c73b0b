"""In-memory call spans around labelforge's public functions.

The tracer replaces module attributes with timing wrappers from outside
the program, so `src/` stays untouched. A span holds its layer name,
start, end, parent index and, for tokenize, the input size. A layer's self
time is its span's duration minus the part its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from pathlib import Path

# (module that names the function, attribute) for every call site the
# trace wraps. A function imported by name into several modules is wrapped
# in each of them, so every call path reaches the same wrapper. fontmetrics,
# affine and directives stay unwrapped: their calls are tiny and frequent,
# a wrapper would cost more than they do, and their time stays in the
# caller's self time.
SITES = (
    ("cli", "load_scene"), ("cli", "psfrag_export"), ("cli", "scan_tags"),
    ("cli", "parse_psfrag_document"), ("cli", "renumber"), ("cli", "rewrite_tags"),
    ("cli", "substitute_preview"), ("cli", "atomic_write_bytes"),
    ("cli", "atomic_write_text"), ("cli", "make_backup"),
    ("epsio", "tokenize"), ("epsio", "scan_tags"), ("epsio", "write_eps"),
    ("preview", "scan_tags"),
    ("labeling", "expand_decorations"), ("labeling", "auto_wrap"),
    ("labeling", "build_entry"), ("labeling", "print_source"), ("labeling", "guess_tex"),
    ("labeling", "emit_tex"), ("labeling", "atomic_write_bytes"),
    ("labeling", "atomic_write_text"),
    ("scenefile", "parse_expr"),
)
SIZED = {"epsio.tokenize"}  # layers whose first argument's length is recorded
ROOT = "cli.main"

NAME, START, END, PARENT, SIZE = range(5)


class Tracer:
    """Collects spans while installed; `uninstall` restores the originals."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span named `name`."""
        spans, stack = self.spans, self._stack
        record = [name, 0.0, 0.0, stack[-1] if stack else -1,
                  len(args[0]) if name in SIZED else 0]
        stack.append(len(spans))
        spans.append(record)
        record[START] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[END] = time.perf_counter()
            stack.pop()

    def _wrap(self, name: str, fn):
        span = self.span

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return span(name, fn, *args, **kwargs)
        return traced

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        for module_name, attr in SITES:
            module = importlib.import_module(f"labelforge.{module_name}")
            original = getattr(module, attr)
            if id(original) not in wrappers:
                layer = f"{original.__module__.rsplit('.', 1)[-1]}.{original.__name__}"
                wrappers[id(original)] = self._wrap(layer, original)
            self._saved.append((module, attr, original))
            setattr(module, attr, wrappers[id(original)])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def clear(self) -> None:
        self.spans.clear()


def write(spans: list[list], path: Path) -> None:
    """Write spans as [name, start_s, end_s, parent, size] rows, times
    relative to the first span's start."""
    t0 = spans[0][START] if spans else 0.0
    rows = [[s[NAME], round(s[START] - t0, 9), round(s[END] - t0, 9), s[PARENT], s[SIZE]]
            for s in spans]
    path.write_text(json.dumps(rows, separators=(",", ":")), encoding="utf-8")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s[PARENT] >= 0:
            children.setdefault(s[PARENT], []).append((s[START], s[END]))
    out = []
    for i, s in enumerate(spans):
        start, end = s[START], s[END]
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


def layer_totals(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per layer: summed self time, call count and recorded bytes."""
    totals: dict[str, dict[str, float]] = {}
    for s, own in zip(spans, self_times(spans)):
        t = totals.setdefault(s[NAME], {"self_s": 0.0, "calls": 0, "bytes": 0})
        t["self_s"] += own
        t["calls"] += 1
        t["bytes"] += s[SIZE]
    return totals
