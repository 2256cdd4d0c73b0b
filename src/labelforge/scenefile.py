"""Versioned JSON scene documents and hook definition files.

The on-disk schema maps one to one onto the scene model; expressions are
written in the bracketed source syntax. Validation is strict: unknown
keys and version mismatches are rejected so fixtures stay honest.
"""

from __future__ import annotations

import json
import math
from typing import Any

from .directives import LabelDirective, PosCode
from .exprkit import (BUILTIN_TRANSFORMS, Expr, ExprSyntaxError, HookSet,
                      LabelClass, parse_expr)
from .fileio import read_text
from .scene import (Arrow, CircleArc, DecorationSpec, FrameTicks, Gridlines, Polyline, Scene,
                    SceneFormatError, StrokeStyle, TextPrimitive, Tick)

SCENE_VERSION = 1


def _require_keys(obj: Any, allowed: set[str], required: set[str], what: str) -> None:
    if not isinstance(obj, dict):
        raise SceneFormatError(f"{what} must be an object")
    if not obj.keys() <= allowed:
        raise SceneFormatError(f"unknown {what} keys: {', '.join(sorted(obj.keys() - allowed))}")
    if not required <= obj.keys():
        raise SceneFormatError(f"missing {what} keys: {', '.join(sorted(required - obj.keys()))}")


def _loads(text: str) -> Any:
    """Parse standard JSON only: NaN and Infinity are rejected."""
    def reject(constant: str):
        raise SceneFormatError(f"not valid JSON: {constant} is not a number")
    try:
        return json.loads(text, parse_constant=reject)
    except json.JSONDecodeError as exc:
        raise SceneFormatError(f"not valid JSON: {exc}") from exc
    except RecursionError:
        raise SceneFormatError("not valid JSON: nested too deeply") from None


def _number(value: Any, what: str) -> float:
    """A finite JSON number as a float; 1e400 reads as inf and is rejected."""
    if type(value) is float and -math.inf < value < math.inf:  # the common case, first
        return value
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an integer too large for a float
            number = math.inf
        if math.isfinite(number):
            return number
    raise SceneFormatError(f"{what} must be a finite number")


def _numbers(value: Any, what: str) -> tuple[float, ...]:
    if not isinstance(value, list):
        raise SceneFormatError(f"{what} must be a list of numbers")
    return tuple(_number(v, what) for v in value)


def _pair(value: Any, what: str) -> tuple[float, float]:
    if not isinstance(value, list) or len(value) != 2:
        raise SceneFormatError(f"{what} must be a pair of numbers")
    return _number(value[0], what), _number(value[1], what)


def _expr(source: Any, what: str) -> Expr:
    if not isinstance(source, str):
        raise SceneFormatError(f"{what} must be an expression string")
    try:
        return parse_expr(source)
    except ExprSyntaxError as exc:
        raise SceneFormatError(f"bad expression in {what}: {exc}") from exc


def _style(obj: Any) -> StrokeStyle:
    if obj is None:
        return StrokeStyle()
    _require_keys(obj, {"width", "dash", "gray", "hue"}, set(), "style")
    return StrokeStyle(
        dash=None if obj.get("dash") is None else _pair(obj["dash"], "style dash"),
        width=_number(obj.get("width", 1.0), "style width"),
        gray=None if obj.get("gray") is None else _number(obj["gray"], "style gray"),
        hue=None if obj.get("hue") is None else _number(obj["hue"], "style hue"),
    )


def _directive(expr: Expr, obj: Any) -> LabelDirective:
    _require_keys(obj, {"position", "ps_position", "tex", "tag", "rotation", "scaling"},
                  set(), "psfrag override")
    for key in ("position", "ps_position", "tex", "tag"):
        if obj.get(key) is not None and not isinstance(obj[key], str):
            raise SceneFormatError(f"psfrag {key} must be a string")
    scaling = obj.get("scaling")
    if scaling in (None, "auto"):
        scaling_value = None
    elif isinstance(scaling, (int, float)) and not isinstance(scaling, bool):
        scaling_value = _number(scaling, "psfrag scaling")
    else:
        raise SceneFormatError(f"scaling must be a number or \"auto\": {scaling!r}")
    return LabelDirective(
        expr=expr,
        tex_command=obj.get("tex"),
        psfrag_tag=obj.get("tag"),
        position=PosCode.parse(obj["position"]) if obj.get("position") else None,
        ps_position=PosCode.parse(obj["ps_position"]) if obj.get("ps_position") else None,
        rotation=_number(obj.get("rotation", 0.0), "psfrag rotation"),
        scaling=scaling_value,
    )


def _content(obj: dict, key: str, what: str) -> Expr | LabelDirective:
    """The expression at obj[key], under obj's psfrag override if it has one."""
    expr = _expr(obj[key], what)
    return _directive(expr, obj["psfrag"]) if "psfrag" in obj else expr


def _label(obj: Any, what: str):
    """A label is an expression string or {"expr": ..., "psfrag": {...}}."""
    if isinstance(obj, str):
        return _expr(obj, what)
    if isinstance(obj, dict):
        _require_keys(obj, {"expr", "psfrag"}, {"expr"}, what)
        return _content(obj, "expr", what)
    raise SceneFormatError(f"{what} must be a string or an object")


def _text_primitive(obj: dict) -> TextPrimitive:
    _require_keys(obj, {"type", "expr", "pos", "anchor", "dir", "psfrag"},
                  {"type", "expr", "pos"}, "text primitive")
    content = _content(obj, "expr", "text primitive")
    direction = (1.0, 0.0)
    if "dir" in obj:
        dx, dy = _pair(obj["dir"], "text dir")
        norm = math.hypot(dx, dy)
        if norm == 0:
            raise SceneFormatError("text dir must be nonzero")
        direction = (dx / norm, dy / norm)
    return TextPrimitive(
        content=content,
        position=_pair(obj["pos"], "text pos"),
        anchor=_pair(obj["anchor"], "text anchor") if "anchor" in obj else (0.0, 0.0),
        direction=direction,
    )


def _primitive(obj: Any):
    if not isinstance(obj, dict) or "type" not in obj:
        raise SceneFormatError("each primitive must be an object with a type")
    kind = obj["type"]
    if kind == "polyline":
        _require_keys(obj, {"type", "points", "style"}, {"type", "points"}, "polyline")
        if not isinstance(obj["points"], list):
            raise SceneFormatError("polyline points must be a list")
        points = tuple(_pair(p, "polyline point") for p in obj["points"])
        return Polyline(points, style=_style(obj.get("style")))
    if kind == "circle":
        _require_keys(obj, {"type", "center", "radius", "arc", "style"},
                      {"type", "center", "radius"}, "circle")
        start, end = (0.0, 360.0)
        if "arc" in obj:
            start, end = _pair(obj["arc"], "circle arc")
        return CircleArc(_pair(obj["center"], "circle center"),
                         _number(obj["radius"], "circle radius"), start, end,
                         style=_style(obj.get("style")))
    if kind == "arrow":
        _require_keys(obj, {"type", "from", "to", "style"}, {"type", "from", "to"}, "arrow")
        return Arrow(_pair(obj["from"], "arrow from"), _pair(obj["to"], "arrow to"),
                     style=_style(obj.get("style")))
    if kind == "text":
        return _text_primitive(obj)
    raise SceneFormatError(f"unknown primitive type {kind!r}")


def _ticks(items: Any, edge: str) -> tuple[Tick, ...]:
    if not isinstance(items, list):
        raise SceneFormatError(f"{edge} ticks must be a list")
    ticks = []
    for item in items:
        if not isinstance(item, dict):
            raise SceneFormatError("each tick must be an object")
        _require_keys(item, {"value", "label", "psfrag"}, {"value", "label"}, "tick")
        label = _content(item, "label", "tick label")  # reported before a bad value
        ticks.append(Tick(value=_number(item["value"], "tick value"), label=label))
    return tuple(ticks)


def _decorations(obj: Any) -> DecorationSpec:
    if obj is None:
        return DecorationSpec()
    _require_keys(obj, {"plot_label", "axes_labels", "frame_ticks", "gridlines"},
                  set(), "decorations")
    plot_label = _label(obj["plot_label"], "plot label") if obj.get("plot_label") else None
    axes_labels = None
    if obj.get("axes_labels") is not None:
        pair = obj["axes_labels"]
        if not isinstance(pair, list) or len(pair) != 2:
            raise SceneFormatError("axes_labels must be a two-element list")
        axes_labels = tuple(
            _label(item, "axis label") if item is not None else None for item in pair)
    frame_ticks = FrameTicks()
    if obj.get("frame_ticks") is not None:
        ft = obj["frame_ticks"]
        _require_keys(ft, {"bottom", "left", "top", "right"}, set(), "frame_ticks")
        frame_ticks = FrameTicks(**{edge: _ticks(items, edge) for edge, items in ft.items()})
    gridlines = Gridlines()
    if obj.get("gridlines") is not None:
        gl = obj["gridlines"]
        _require_keys(gl, {"x", "y"}, set(), "gridlines")
        gridlines = Gridlines(x=_numbers(gl.get("x", []), "gridlines x"),
                              y=_numbers(gl.get("y", []), "gridlines y"))
    return DecorationSpec(plot_label=plot_label, axes_labels=axes_labels,
                          frame_ticks=frame_ticks, gridlines=gridlines)


def parse_scene(text: str) -> Scene:
    doc = _loads(text)
    if not isinstance(doc, dict):
        raise SceneFormatError("scene document must be a JSON object")
    _require_keys(doc, {"version", "plot_range", "size", "primitives", "decorations"},
                  {"version", "plot_range", "size"}, "scene")
    if doc["version"] != SCENE_VERSION:
        raise SceneFormatError(
            f"unsupported scene version {doc['version']!r} (expected {SCENE_VERSION})")
    pr = doc["plot_range"]
    if not isinstance(pr, list) or len(pr) != 2:
        raise SceneFormatError("plot_range must be [[xmin, xmax], [ymin, ymax]]")
    prims = doc.get("primitives", [])
    if not isinstance(prims, list):
        raise SceneFormatError("primitives must be a list")
    try:
        return Scene(
            plot_range=(_pair(pr[0], "x range"), _pair(pr[1], "y range")),
            target_size=_pair(doc["size"], "size"),
            primitives=tuple(_primitive(p) for p in prims),
            decorations=_decorations(doc.get("decorations")),
        )
    except SceneFormatError:
        raise
    except ValueError as exc:
        raise SceneFormatError(str(exc)) from exc


def load_scene(path: str) -> Scene:
    return parse_scene(read_text(path))


_CLASS_KEYS = {"text": LabelClass.TEXT, "math": LabelClass.MATH,
               "numeric": LabelClass.NUMERIC}


def parse_hooks(text: str) -> HookSet:
    """Hook file: named pre-apply transforms and post-replace pairs.

    {"pre_apply": {"math": ["hold"]},
     "post_replace": {"numeric": [["\\\\sqrt", "\\\\surd"]]}}
    """
    doc = _loads(text)
    if not isinstance(doc, dict):
        raise SceneFormatError("hooks document must be a JSON object")
    _require_keys(doc, {"version", "pre_apply", "post_replace"}, set(), "hooks")
    if doc.get("version", 1) != 1:
        raise SceneFormatError(f"unsupported hooks version {doc['version']!r}")

    def class_of(key: str) -> LabelClass:
        cls = _CLASS_KEYS.get(key.lower())
        if cls is None:
            raise SceneFormatError(f"unknown label class {key!r}")
        return cls

    def section(name: str):
        lists = doc.get(name) or {}
        if not (isinstance(lists, dict) and all(isinstance(v, list) for v in lists.values())):
            raise SceneFormatError(f"{name} must map label classes to lists")
        return lists.items()

    pre: dict[LabelClass, tuple] = {}
    for key, names in section("pre_apply"):
        transforms = []
        for name in names:
            if not isinstance(name, str) or name not in BUILTIN_TRANSFORMS:
                raise SceneFormatError(f"unknown transform {name!r} (have: "
                                       f"{', '.join(sorted(BUILTIN_TRANSFORMS))})")
            transforms.append(BUILTIN_TRANSFORMS[name])
        pre[class_of(key)] = tuple(transforms)
    post: dict[LabelClass, tuple] = {}
    for key, pairs in section("post_replace"):
        converted = []
        for pair in pairs:
            if not (isinstance(pair, list) and len(pair) == 2
                    and all(isinstance(s, str) for s in pair)):
                raise SceneFormatError("post_replace entries must be [find, replace] pairs")
            converted.append((pair[0], pair[1]))
        post[class_of(key)] = tuple(converted)
    return HookSet(pre_apply=pre, post_replace=post)


def load_hooks(path: str) -> HookSet:
    return parse_hooks(read_text(path))
