"""Neutral 2D plot-scene representation and decoration expansion.

A Scene holds geometric primitives in plot units plus declarative
decorations (ticks, axes labels, gridlines). expand_decorations turns the
declarative part into explicit text and stroke primitives so that the
exporter only ever deals with one primitive list; auto_wrap marks bare
text for automatic replacement. Every record checks its own values when
it is built, so a scene that exists holds only finite geometry.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Union

from .directives import LabelDirective
from .exprkit import Expr, num
from .records import record, replace

Point = tuple[float, float]


class SceneFormatError(ValueError):
    """A scene or hooks document breaks its schema, or a scene value is invalid."""
    exit_code = 1


@record
class StrokeStyle:
    width: float = 1.0
    dash: tuple[float, float] | None = None  # on/off lengths in points
    gray: float | None = None
    hue: float | None = None


@record
class Polyline:
    points: tuple[Point, ...]
    style: StrokeStyle = StrokeStyle()

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(tuple(p) for p in self.points))
        if len(self.points) < 2:
            raise SceneFormatError("polyline needs at least 2 points")
        if not all(map(math.isfinite, chain.from_iterable(self.points))):
            raise SceneFormatError("polyline points must be finite")


@record
class CircleArc:
    center: Point
    radius: float
    start_deg: float = 0.0
    end_deg: float = 360.0
    style: StrokeStyle = StrokeStyle()

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(self.center))
        if not all(map(math.isfinite, (*self.center, self.radius, self.start_deg,
                                       self.end_deg))):
            raise SceneFormatError("circle center, radius and arc must be finite")
        if self.radius <= 0:
            raise SceneFormatError("circle radius must be positive")


@record
class Arrow:
    start: Point
    end: Point
    style: StrokeStyle = StrokeStyle()

    def __post_init__(self):
        object.__setattr__(self, "start", tuple(self.start))
        object.__setattr__(self, "end", tuple(self.end))
        if not all(map(math.isfinite, (*self.start, *self.end))):
            raise SceneFormatError("arrow ends must be finite")


@record
class TextPrimitive:
    """Text at a position; anchor picks the box point placed there.

    Anchor components run from -1 (left/bottom edge) through 0 (center)
    to +1 (right/top edge). direction is the unit baseline vector.
    """

    content: Union[Expr, LabelDirective]
    position: Point
    anchor: tuple[float, float] = (0.0, 0.0)
    direction: tuple[float, float] = (1.0, 0.0)

    def __post_init__(self):
        (px, py), (ax, ay), (dx, dy) = self.position, self.anchor, self.direction
        fields = self.__dict__  # where __init__ stored them; each pair is kept as a tuple
        fields["position"], fields["anchor"], fields["direction"] = (px, py), (ax, ay), (dx, dy)
        if not (math.isfinite(px) and math.isfinite(py)):
            raise SceneFormatError("text position must be finite")
        if not (-1.0 <= ax <= 1.0 and -1.0 <= ay <= 1.0):
            raise SceneFormatError("anchor components must lie in [-1, 1]")
        if not abs(math.hypot(dx, dy) - 1.0) <= 1e-9:  # written so that NaN fails too
            raise SceneFormatError("direction must be a unit vector")

    @property
    def directive(self) -> LabelDirective | None:
        return self.content if isinstance(self.content, LabelDirective) else None

    @property
    def expr(self) -> Expr:
        if isinstance(self.content, LabelDirective):
            return self.content.expr
        return self.content


Primitive = Union[Polyline, CircleArc, Arrow, TextPrimitive]


@record
class Tick:
    value: float
    label: Union[Expr, LabelDirective]


@record
class FrameTicks:
    bottom: tuple[Tick, ...] = ()
    left: tuple[Tick, ...] = ()
    top: tuple[Tick, ...] = ()
    right: tuple[Tick, ...] = ()

    def __post_init__(self):
        for edge in ("bottom", "left", "top", "right"):
            ticks = tuple(getattr(self, edge))
            object.__setattr__(self, edge, ticks)
            values = [t.value for t in ticks]
            if any(b <= a for a, b in zip(values, values[1:])):
                raise SceneFormatError(f"{edge} tick values must be strictly increasing")


@record
class Gridlines:
    x: tuple[float, ...] = ()
    y: tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "x", tuple(self.x))
        object.__setattr__(self, "y", tuple(self.y))


@record
class DecorationSpec:
    plot_label: Expr | LabelDirective | None = None
    axes_labels: tuple[Union[Expr, LabelDirective, None], Union[Expr, LabelDirective, None]] | None = None
    frame_ticks: FrameTicks = FrameTicks()
    gridlines: Gridlines = Gridlines()

    def is_empty(self) -> bool:
        return (self.plot_label is None
                and self.axes_labels is None
                and not any((self.frame_ticks.bottom, self.frame_ticks.left,
                             self.frame_ticks.top, self.frame_ticks.right))
                and not self.gridlines.x and not self.gridlines.y)


@record
class Scene:
    plot_range: tuple[tuple[float, float], tuple[float, float]]
    target_size: tuple[float, float]  # PostScript points
    primitives: tuple[Primitive, ...] = ()
    decorations: DecorationSpec = DecorationSpec()

    def __post_init__(self):
        (xmin, xmax), (ymin, ymax) = self.plot_range
        xmin, xmax, ymin, ymax = float(xmin), float(xmax), float(ymin), float(ymax)
        object.__setattr__(self, "plot_range", ((xmin, xmax), (ymin, ymax)))
        object.__setattr__(self, "target_size", tuple(self.target_size))
        object.__setattr__(self, "primitives", tuple(self.primitives))
        # A non-finite bound makes its width non-finite too.
        if not all(map(math.isfinite, (xmax - xmin, ymax - ymin))):
            raise SceneFormatError("plot range width and height must be finite")
        if not (xmin < xmax and ymin < ymax):
            raise SceneFormatError("plot range must be nonempty in both axes")
        # %%BoundingBox holds the size's ceiling, and PostScript integers stop at 2**31 - 1.
        if not all(0 < v <= 2147483647 for v in self.target_size):
            raise SceneFormatError("target size must be positive and at most 2147483647 pt")

    def text_primitives(self) -> list[TextPrimitive]:
        return [p for p in self.primitives if isinstance(p, TextPrimitive)]


@record
class ExportOptions:
    tex_suffix: str = "-psfrag.tex"
    eps_suffix: str = "-psfrag.eps"
    renumber_tags: bool = False
    auto_convert_text: bool = True
    auto_position: bool = True

    @property
    def effective_auto_convert(self) -> bool:
        # Disabling automatic positioning also disables automatic wrapping.
        return self.auto_convert_text and self.auto_position


# Fixed decoration geometry: tick marks 2% of the shorter plot extent,
# labels 0.6% outside the frame, axes labels one 12 pt line further out.
_TICK_FRACTION = 0.02
_LABEL_OFFSET_FRACTION = 0.006
_AXIS_LABEL_CLEARANCE_PT = 12.0
_PLOT_MARGIN_FRACTION = 0.05

_TICK_STYLE = StrokeStyle(width=0.7)
_GRID_STYLE = StrokeStyle(width=0.4, dash=(0.1, 1.0), gray=0.5)


def expand_decorations(scene: Scene) -> Scene:
    """Convert ticks, axes labels, plot label, and gridlines to primitives.

    All pre-existing primitives are preserved in order; the generated ones
    are appended after them (tick labels, tick marks, axes labels, plot
    label, gridlines). Idempotent: the result carries no decorations.
    """
    if scene.decorations.is_empty():
        return scene

    (xmin, xmax), (ymin, ymax) = scene.plot_range
    xspan, yspan = xmax - xmin, ymax - ymin
    ext = min(xspan, yspan)
    tick_len = _TICK_FRACTION * ext
    label_off = _LABEL_OFFSET_FRACTION * ext
    deco = scene.decorations

    labels: list[TextPrimitive] = []
    marks: list[Polyline] = []

    edge_geometry = {
        "bottom": ((0.0, 1.0), lambda v: ((v, ymin), (v, ymin + tick_len), (v, ymin - label_off))),
        "left": ((1.0, 0.0), lambda v: ((xmin, v), (xmin + tick_len, v), (xmin - label_off, v))),
        "top": ((0.0, -1.0), lambda v: ((v, ymax), (v, ymax - tick_len), (v, ymax + label_off))),
        "right": ((-1.0, 0.0), lambda v: ((xmax, v), (xmax - tick_len, v), (xmax + label_off, v))),
    }
    for edge in ("bottom", "left", "top", "right"):
        anchor, geometry = edge_geometry[edge]
        for tick in getattr(deco.frame_ticks, edge):
            mark_from, mark_to, label_pos = geometry(tick.value)
            labels.append(TextPrimitive(tick.label, label_pos, anchor=anchor))
            marks.append(Polyline((mark_from, mark_to), style=_TICK_STYLE))

    axes: list[TextPrimitive] = []
    if deco.axes_labels is not None:
        x_label, y_label = deco.axes_labels
        width, height = scene.target_size
        usable_w = (1 - 2 * _PLOT_MARGIN_FRACTION) * width
        usable_h = (1 - 2 * _PLOT_MARGIN_FRACTION) * height
        if x_label is not None:
            clearance = _AXIS_LABEL_CLEARANCE_PT * yspan / usable_h
            axes.append(TextPrimitive(
                x_label, ((xmin + xmax) / 2, ymin - label_off - clearance),
                anchor=(0.0, 1.0)))
        if y_label is not None:
            clearance = _AXIS_LABEL_CLEARANCE_PT * xspan / usable_w
            axes.append(TextPrimitive(
                y_label, (xmin - label_off - clearance, (ymin + ymax) / 2),
                anchor=(0.0, -1.0), direction=(0.0, 1.0)))

    title: list[TextPrimitive] = []
    if deco.plot_label is not None:
        title.append(TextPrimitive(
            deco.plot_label, ((xmin + xmax) / 2, ymax + label_off),
            anchor=(0.0, -1.0)))

    grids: list[Polyline] = []
    for v in deco.gridlines.x:
        grids.append(Polyline(((v, ymin), (v, ymax)), style=_GRID_STYLE))
    for v in deco.gridlines.y:
        grids.append(Polyline(((xmin, v), (xmax, v)), style=_GRID_STYLE))

    new_primitives = scene.primitives + tuple(labels) + tuple(marks) + tuple(axes) + tuple(title) + tuple(grids)
    return replace(scene, primitives=new_primitives, decorations=DecorationSpec())


def auto_wrap(scene: Scene) -> Scene:
    """Wrap every bare text expression in an all-automatic directive."""
    changed = False
    prims: list[Primitive] = []
    for p in scene.primitives:
        if isinstance(p, TextPrimitive) and not isinstance(p.content, LabelDirective):
            prims.append(replace(p, content=LabelDirective(expr=p.content)))
            changed = True
        else:
            prims.append(p)
    if not changed:
        return scene
    return replace(scene, primitives=tuple(prims))


def linear_ticks(lo: float, hi: float, step: float) -> tuple[Tick, ...]:
    """Evenly spaced ticks with fixed-precision decimal labels.

    The label spelling follows the step: an integer step on integer
    bounds yields integer labels, otherwise labels keep the step's number
    of decimal places ("1.0" rather than "1.").
    """
    if step <= 0:
        raise ValueError("step must be positive")
    decimals = 0
    step_text = repr(float(step))
    if "." in step_text and step != int(step):
        decimals = len(step_text.split(".")[1])
    if lo != int(lo):
        decimals = max(decimals, 1)
    count = int(math.floor((hi - lo) / step + 1e-9)) + 1
    ticks = []
    for i in range(count):
        v = lo + i * step
        if decimals == 0:
            label = num(int(round(v)))
        else:
            label = num(f"{v:.{decimals}f}")
        ticks.append(Tick(value=v, label=label))
    return tuple(ticks)
