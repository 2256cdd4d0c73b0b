from __future__ import annotations

import math

import pytest

from labelforge import (DecorationSpec, FrameTicks, Gridlines, LabelDirective,
                        Polyline, Scene, TextPrimitive, Tick, auto_wrap,
                        expand_decorations, linear_ticks)
from labelforge.directives import PosCode
from labelforge.exprkit import Str, Sym, num, parse_expr
from labelforge.labeling import pos_from_anchor
from labelforge.scene import Arrow, CircleArc, SceneFormatError


def _scene(primitives=(), decorations=DecorationSpec()):
    return Scene(plot_range=((0.0, 10.0), (0.0, 8.0)), target_size=(300.0, 200.0),
                 primitives=primitives, decorations=decorations)


def test_expand_no_decorations_is_identity():
    scene = _scene(primitives=(TextPrimitive(Sym("x"), (1.0, 1.0)),))
    assert expand_decorations(scene) == scene


def test_expand_is_idempotent():
    scene = _scene(decorations=DecorationSpec(
        frame_ticks=FrameTicks(bottom=(Tick(2.0, num(2)),)),
        gridlines=Gridlines(x=(5.0,))))
    once = expand_decorations(scene)
    assert expand_decorations(once) == once
    assert once.decorations.is_empty()


@pytest.mark.parametrize("spec, empty", [
    (DecorationSpec(), True),
    (DecorationSpec(None, None, FrameTicks(bottom=[]), Gridlines(x=[], y=[])), True),
    (DecorationSpec(plot_label=Sym("t")), False),
    (DecorationSpec(axes_labels=(None, None)), False),
    *[(DecorationSpec(frame_ticks=FrameTicks(**{edge: (Tick(1.0, num(1)),)})), False)
      for edge in ("bottom", "left", "top", "right")],
    (DecorationSpec(gridlines=Gridlines(x=(1.0,))), False),
    (DecorationSpec(gridlines=Gridlines(y=(1.0,))), False),
])
def test_decorations_are_empty_only_when_each_field_has_its_default(spec, empty):
    assert spec.is_empty() is empty


def test_expand_preserves_existing_primitives_as_prefix():
    existing = (Polyline(((0.0, 0.0), (1.0, 1.0))),
                TextPrimitive(Str("keep me"), (2.0, 2.0)))
    scene = _scene(primitives=existing, decorations=DecorationSpec(
        plot_label=Str("title"),
        frame_ticks=FrameTicks(bottom=(Tick(1.0, num(1)), Tick(2.0, num(2))))))
    out = expand_decorations(scene)
    assert out.primitives[:2] == existing
    assert len(out.primitives) > 2


def test_expand_bottom_tick_anchor_matches_manual_tc():
    value = math.pi / 2
    scene = _scene(decorations=DecorationSpec(
        frame_ticks=FrameTicks(bottom=(Tick(value, parse_expr("1/2*Pi")),))))
    out = expand_decorations(scene)
    labels = [p for p in out.primitives if isinstance(p, TextPrimitive)]
    assert len(labels) == 1
    tick_label = labels[0]
    assert tick_label.content == parse_expr("1/2*Pi")
    assert tick_label.anchor == (0.0, 1.0)
    assert tick_label.position[0] == pytest.approx(value)
    # just outside the bottom edge
    assert tick_label.position[1] == pytest.approx(0.0 - 0.006 * 8.0)
    assert str(pos_from_anchor(tick_label.anchor)) == "tc"


@pytest.mark.parametrize("edge, anchor, code", [
    ("bottom", (0.0, 1.0), "tc"),
    ("left", (1.0, 0.0), "cr"),
    ("top", (0.0, -1.0), "bc"),
    ("right", (-1.0, 0.0), "cl"),
])
def test_expand_edge_anchors(edge, anchor, code):
    ticks = FrameTicks(**{edge: (Tick(3.0, num(3)),)})
    out = expand_decorations(_scene(decorations=DecorationSpec(frame_ticks=ticks)))
    label = next(p for p in out.primitives if isinstance(p, TextPrimitive))
    assert label.anchor == anchor
    assert str(pos_from_anchor(label.anchor)) == code


def test_expand_emits_tick_marks_and_gridlines():
    scene = _scene(decorations=DecorationSpec(
        frame_ticks=FrameTicks(bottom=(Tick(1.0, num(1)), Tick(2.0, num(2)))),
        gridlines=Gridlines(x=(4.0,), y=(3.0, 5.0))))
    out = expand_decorations(scene)
    polylines = [p for p in out.primitives if isinstance(p, Polyline)]
    assert len(polylines) == 2 + 3  # two tick marks, three gridlines
    grid = polylines[-3]
    assert grid.points == ((4.0, 0.0), (4.0, 8.0))
    assert grid.style.dash is not None and grid.style.gray == 0.5
    mark = polylines[0]
    assert mark.points[0] == (1.0, 0.0)
    assert mark.points[1][1] == pytest.approx(0.02 * 8.0)  # 2% of shorter extent


def test_expand_axes_and_plot_labels():
    scene = _scene(decorations=DecorationSpec(
        plot_label=Str("title"),
        axes_labels=(Sym("x"), parse_expr("HoldForm[(3*x - 1)^3]"))))
    out = expand_decorations(scene)
    texts = [p for p in out.primitives if isinstance(p, TextPrimitive)]
    assert len(texts) == 3
    x_label, y_label, title = texts
    assert x_label.anchor == (0.0, 1.0)
    assert x_label.position[0] == pytest.approx(5.0)
    assert x_label.position[1] < 0.0
    assert y_label.anchor == (0.0, -1.0)
    assert y_label.direction == (0.0, 1.0)
    assert y_label.position[0] < 0.0
    assert title.anchor == (0.0, -1.0)
    assert title.position[1] > 8.0


def test_expand_ordering_labels_then_marks_then_axes_then_title_then_grid():
    scene = _scene(decorations=DecorationSpec(
        plot_label=Str("t"),
        axes_labels=(Sym("x"), None),
        frame_ticks=FrameTicks(bottom=(Tick(1.0, num(1)),)),
        gridlines=Gridlines(x=(2.0,))))
    out = expand_decorations(scene)
    kinds = [type(p).__name__ for p in out.primitives]
    assert kinds == ["TextPrimitive", "Polyline", "TextPrimitive",
                     "TextPrimitive", "Polyline"]


def test_auto_wrap_wraps_bare_expressions():
    scene = _scene(primitives=(TextPrimitive(Str("local maximum"), (1.0, 1.0)),))
    out = auto_wrap(scene)
    directive = out.primitives[0].content
    assert isinstance(directive, LabelDirective)
    assert directive.expr == Str("local maximum")
    assert directive.position is None and directive.ps_position is None
    assert directive.scaling is None and directive.rotation == 0.0


def test_auto_wrap_keeps_existing_directives():
    directive = LabelDirective(Sym("x"), position=PosCode.parse("Br"))
    scene = _scene(primitives=(TextPrimitive(directive, (1.0, 1.0)),))
    assert auto_wrap(scene) == scene


def test_auto_wrap_identity_without_text():
    scene = _scene(primitives=(Polyline(((0.0, 0.0), (1.0, 1.0))),))
    assert auto_wrap(scene) == scene


def test_auto_wrap_idempotent_and_count_preserving():
    scene = _scene(primitives=(
        TextPrimitive(Sym("a"), (1.0, 1.0)),
        Polyline(((0.0, 0.0), (1.0, 1.0))),
        TextPrimitive(Sym("b"), (2.0, 2.0)),
    ))
    once = auto_wrap(scene)
    assert auto_wrap(once) == once
    assert len(once.primitives) == len(scene.primitives)


def test_linear_ticks_decimal_labels():
    ticks = linear_ticks(-0.5, 2.5, 0.5)
    assert [t.value for t in ticks] == pytest.approx([-0.5, 0, 0.5, 1, 1.5, 2, 2.5])
    assert [t.label.literal for t in ticks] == \
        ["-0.5", "0.0", "0.5", "1.0", "1.5", "2.0", "2.5"]


@pytest.mark.parametrize("step", [0, -1, -0.5])
def test_linear_ticks_refuse_a_step_that_is_not_positive(step):
    with pytest.raises(ValueError, match="step must be positive"):
        linear_ticks(0, 1, step)


def test_linear_ticks_integer_labels():
    ticks = linear_ticks(-15, 15, 5)
    assert [t.label.literal for t in ticks] == \
        [None] * 7  # exact integers carry no decimal literal
    assert [str(t.label.value) for t in ticks] == \
        ["-15", "-10", "-5", "0", "5", "10", "15"]


@pytest.mark.parametrize("step, labels", [
    (5e-05, ["0.00000", "0.00005", "0.00010", "0.00015", "0.00020"]),
    (1e-05, ["0.00000", "0.00001", "0.00002", "0.00003", "0.00004"]),
    (2.5e-07, ["0.00000000", "0.00000025", "0.00000050", "0.00000075", "0.00000100"]),
])
def test_linear_ticks_keep_the_decimals_of_a_step_below_1e_4(step, labels):
    # repr writes these steps with an exponent (5e-05, 2.5e-07)
    ticks = linear_ticks(0, 4 * step, step)
    assert [t.label.literal for t in ticks] == labels


def test_scene_validation():
    with pytest.raises(ValueError):
        Scene(plot_range=((1.0, 1.0), (0.0, 1.0)), target_size=(10.0, 10.0))
    with pytest.raises(ValueError):
        Scene(plot_range=((0.0, 1.0), (0.0, 1.0)), target_size=(0.0, 10.0))
    with pytest.raises(ValueError):
        TextPrimitive(Sym("x"), (0.0, 0.0), anchor=(2.0, 0.0))
    with pytest.raises(ValueError):
        TextPrimitive(Sym("x"), (0.0, 0.0), direction=(1.0, 1.0))
    with pytest.raises(ValueError):
        TextPrimitive(Sym("x"), (math.inf, 0.0))
    with pytest.raises(ValueError):
        Polyline(((0.0, 0.0),))
    with pytest.raises(ValueError):
        FrameTicks(bottom=(Tick(2.0, num(2)), Tick(1.0, num(1))))


_NAN, _INF = math.nan, math.inf


@pytest.mark.parametrize("build", [
    lambda: Scene(plot_range=((0.0, _INF), (0.0, 1.0)), target_size=(100.0, 100.0)),
    lambda: Scene(plot_range=((-1e308, 1e308), (0.0, 1.0)), target_size=(100.0, 100.0)),
    lambda: Scene(plot_range=((0.0, 1.0), (_NAN, 1.0)), target_size=(100.0, 100.0)),
    lambda: Scene(plot_range=((0.0, 1.0), (0.0, 1.0)), target_size=(_INF, 100.0)),
    lambda: Scene(plot_range=((0.0, 1.0), (0.0, 1.0)), target_size=(100.0, _NAN)),
    lambda: TextPrimitive(Sym("x"), (0.0, _NAN)),
    lambda: TextPrimitive(Sym("x"), (0.0, 0.0), direction=(_NAN, 0.0)),
    lambda: TextPrimitive(Sym("x"), (0.0, 0.0), direction=(_INF, 0.0)),
    lambda: Polyline(((0.0, 0.0), (_NAN, 1.0))),
    lambda: Polyline(((0.0, 0.0), (1.0, -_INF))),
    lambda: CircleArc((_INF, 0.0), 1.0),
    lambda: CircleArc((0.0, 0.0), _NAN),
    lambda: CircleArc((0.0, 0.0), 1.0, 0.0, _INF),
    lambda: Arrow((0.0, 0.0), (_NAN, 1.0)),
    lambda: Arrow((0.0, _INF), (0.0, 1.0)),
])
def test_scene_records_refuse_non_finite_values_when_built(build):
    with pytest.raises(SceneFormatError):
        build()


@pytest.mark.parametrize("size", [(1e300, 100.0), (100.0, 2147483647.5), (2.0**31, 1.0)])
def test_scene_refuses_a_target_size_whose_bounding_box_overflows_a_postscript_integer(size):
    with pytest.raises(SceneFormatError, match="at most 2147483647 pt"):
        Scene(plot_range=((0.0, 1.0), (0.0, 1.0)), target_size=size)


def test_scene_takes_the_largest_target_size_a_bounding_box_can_hold():
    from labelforge import write_eps
    scene = Scene(plot_range=((0.0, 1.0), (0.0, 1.0)), target_size=(2147483647.0, 0.5))
    assert b"%%BoundingBox: 0 0 2147483647 1\n" in write_eps(scene)
