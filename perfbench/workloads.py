"""Seeded input generators and the facts each workload's checks rely on.

Every generator is a pure function of its seed: the same seed gives
byte-identical files. The facts returned next to the files (label counts,
explicit tags) come from reading the scene JSON, never from labelforge
itself, so the output checks in `checks.py` do not trust the program under
test.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

FIXTURE_NAMES = ("ex_3d", "ex_auto", "ex_hold", "ex_manual", "ex_rot", "fig2", "mini")

# Label heads mixed into the scenes; "Zeta" has no LaTeX mapping, so it
# exercises the unknown-head fallback.
_VARS = ("x", "y", "t", "a", "b", "r", "theta", "omega")
_STRINGS = ("peak", "onset", "steady state", "noise floor", "cutoff", "ref")
_CODES = ("tc", "cl", "cr", "bc", "cc", "Bl", "tl", "br")
_ANCHORS = ((0.0, 1.0), (-1.0, 0.0), (1.0, 0.0), (0.0, -1.0), (0.0, 0.0), (-1.0, -1.0))
_DIRS = ((1.0, 0.0), (1.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, -0.5))


@dataclass
class SceneInput:
    """A scene file to export, plus what the benchmark knows about it."""

    name: str
    text: str
    labels: int  # text labels after decoration expansion, ticks included
    explicit_tags: list[str]  # psfrag override tags, in drawing order


@dataclass
class Workload:
    name: str
    scenes: list[SceneInput]
    golden: dict[str, tuple[bytes, str]] = field(default_factory=dict)  # scene -> (eps, tex)


def scene_facts(doc: dict) -> tuple[int, list[str]]:
    """Label count and explicit tags in the order export draws them.

    Export draws the scene's own text primitives first, then tick labels
    (bottom, left, top, right), then the axes labels and the plot label.
    """
    items: list[object] = [p for p in doc.get("primitives", []) if p["type"] == "text"]
    deco = doc.get("decorations") or {}
    ticks = deco.get("frame_ticks") or {}
    for edge in ("bottom", "left", "top", "right"):
        items.extend(ticks.get(edge, []))
    items.extend(a for a in deco.get("axes_labels") or [] if a is not None)
    if deco.get("plot_label"):
        items.append(deco["plot_label"])
    tags = [item["psfrag"]["tag"] for item in items
            if isinstance(item, dict) and "tag" in item.get("psfrag", {})]
    return len(items), tags


def _scene_input(name: str, doc: dict) -> SceneInput:
    labels, tags = scene_facts(doc)
    return SceneInput(name, json.dumps(doc, separators=(",", ":")), labels, tags)


def _expr(rng: random.Random, kind: int) -> str:
    v, w = rng.choice(_VARS), rng.choice(_VARS)
    k, m = rng.randint(2, 9), rng.randint(2, 9)
    return (
        f"Sin[{v}]",
        f"Sin[{k}*{v}]",
        f"{v}^{k}",
        f"({v} + {k})^{m}",
        f"{k}*{v}*{w}",
        f"{v} + {w}",
        f"{v} - {k}",
        f"Sqrt[{v}]",
        f"{v}/{w}",
        f"{k}/{m}",
        f'"{rng.choice(_STRINGS)} {k}"',
        f"{k}.{m}{rng.randint(0, 9)}",
        f"Cos[{v}]^{k}",
        f"Zeta[{v}]",
    )[kind]


def _labels(rng: random.Random, count: int, span: float) -> list[dict]:
    """Text primitives in fixed proportions, so every seed costs the same:
    equal shares of 13 expression forms, 1% unknown head, 30% explicit tags."""
    kinds = [13 if i % 100 == 99 else i % 13 for i in range(count)]
    rng.shuffle(kinds)
    explicit = sorted(rng.sample(range(count), round(0.3 * count)))
    override_kind = {index: n % 10 for n, index in enumerate(explicit)}
    prims = []
    for i, kind in enumerate(kinds):
        prim = {
            "type": "text",
            "expr": _expr(rng, kind),
            "pos": [round(rng.uniform(0, span), 4), round(rng.uniform(0, span), 4)],
            "anchor": list(rng.choice(_ANCHORS)),
            "dir": list(rng.choice(_DIRS)),
        }
        if i in override_kind:
            tag = f"Q{i}"
            override: dict[str, object] = {"tag": tag}
            if override_kind[i] < 3:
                override["position"] = rng.choice(_CODES)
            elif override_kind[i] < 5:
                override["tex"] = f"$\\mathrm{{{tag}}}_{{{rng.randint(1, 99)}}}$"
            elif override_kind[i] < 6:
                override["scaling"] = rng.choice((0.8, 1.2, 1.5))
            prim["psfrag"] = override
        prims.append(prim)
    return prims


def _ticks(count: int, span: float) -> dict:
    step = span / (count - 1)
    return {edge: [{"value": round(i * step, 4), "label": f"{i * step:.1f}"}
                   for i in range(count)]
            for edge in ("bottom", "left")}


def _curve(rng: random.Random, points: int, span: float) -> dict:
    y = rng.uniform(0, span)
    pts = []
    for i in range(points):
        y = min(span, max(0.0, y + rng.gauss(0, span / 50)))
        pts.append([round(i * span / (points - 1), 4), round(y, 4)])
    return {"type": "polyline", "points": pts,
            "style": {"width": round(rng.uniform(0.3, 1.2), 2),
                      "hue": round(rng.random(), 3)}}


def label_dense(seed: int, labels: int = 1000) -> Workload:
    """About 1,000 mixed-head labels, 30% with explicit tags, few strokes."""
    rng = random.Random(seed)
    span = 10.0
    prims = [{"type": "polyline", "points": [[0, 0], [span, 0], [span, span], [0, span], [0, 0]],
              "style": {"width": 0.7}}]
    prims += [_curve(rng, 40, span) for _ in range(3)]
    prims += _labels(rng, labels, span)
    doc = {"version": 1, "plot_range": [[0, span], [0, span]], "size": [720, 720],
           "primitives": prims,
           "decorations": {"frame_ticks": _ticks(11, span),
                           "axes_labels": ["t", "Sin[omega*t]"]}}
    return Workload("label_dense", [_scene_input("label_dense", doc)])


def path_dense(seed: int) -> Workload:
    """40 polylines of 250 points each, with 60 labels (36 of them text
    primitives, the rest ticks and axes labels)."""
    rng = random.Random(seed)
    span = 100.0
    prims = [_curve(rng, 250, span) for _ in range(40)]
    prims += _labels(rng, 36, span)
    doc = {"version": 1, "plot_range": [[0, span], [0, span]], "size": [504, 360],
           "primitives": prims,
           "decorations": {"frame_ticks": _ticks(11, span),
                           "axes_labels": ["t", "x^2"],
                           "gridlines": {"x": [25, 50, 75], "y": [50]}}}
    return Workload("path_dense", [_scene_input("path_dense", doc)])


def fixtures(root: Path) -> Workload:
    """The seven committed scenes."""
    scenes = []
    for name in FIXTURE_NAMES:
        text = (root / "tests" / "fixtures" / f"{name}.scene").read_text(encoding="utf-8")
        labels, tags = scene_facts(json.loads(text))
        scenes.append(SceneInput(name, text, labels, tags))
    golden = root / "tests" / "golden"
    return Workload("fixtures", scenes, golden={
        "ex_auto": ((golden / "ex_auto-psfrag.eps").read_bytes(),
                    (golden / "ex_auto-psfrag.tex").read_text(encoding="utf-8"))})


def build(name: str, seed: int, root: Path) -> Workload:
    if name == "fixtures":
        return fixtures(root)  # committed inputs: the seed does not change them
    return {"label_dense": label_dense, "path_dense": path_dense}[name](seed)


WORKLOADS = ("fixtures", "label_dense", "path_dense")
