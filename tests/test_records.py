"""`@record` against `dataclasses`: each record class and a twin built from the same
annotations and defaults agree on repr, equality, hashing and assignment."""

from __future__ import annotations

import ast
import dataclasses
import functools
import importlib
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labelforge import records
from labelforge.affine import Affine
from labelforge.directives import LabelDirective, PosCode
from labelforge.epsio import TagOccurrence, TextPlacement, _Font, _PsString
from labelforge.exprkit import Call, Hold, HookSet, LabelClass, Num, Str, Sym
from labelforge.labeling import PsfragEntry
from labelforge.preview import LabelBox, PreviewResult
from labelforge.records import replace
from labelforge.scene import (Arrow, CircleArc, DecorationSpec, ExportOptions, FrameTicks,
                              Gridlines, Polyline, Scene, StrokeStyle, TextPrimitive, Tick)

SRC = Path(records.__file__).parent
BC = PosCode("b", "c")

# Positional arguments of a few instances per record class; each list holds two
# instances that differ, so equality is checked both ways.
SAMPLES = {
    Affine: [(), (2.0, 0.0, 0.5, 1.0, 1.5)],
    PosCode: [("b", "c"), ("t", "l")],
    LabelDirective: [(Sym("x"),),
                     (Num(Fraction(1)), "$1$", "t1", PosCode("t", "l"), BC, 90.0, 2.0)],
    TagOccurrence: [("a", (1.0, 2.0), 0.0, 1.0, 10.0, (3, 6)),
                    ("b", (1.0, 2.0), 90.0, 2.0, 10.0, (3, 6))],
    _Font: [("Helvetica", 10.0), ("Times-Roman", 12.0)],
    _PsString: [(b"ab", (0, 4)), (b"", (5, 7))],
    TextPlacement: [(0, "x", True, (1.0, 2.0), (1.5, 2.5), 0.0, 10.0),
                    (1, "y", False, (1.0, 2.0), (1.5, 2.5), 45.0, 10.0)],
    Num: [(Fraction(1, 2),), (Fraction(3, 2), "1.5")],
    Sym: [("x",), ("y",)],
    Str: [("x",), ("a b",)],
    Call: [("Sin", (Sym("x"),)), ("Plus", [Num(Fraction(1)), Sym("y")])],
    Hold: [(Sym("x"),), (Hold(Sym("x")),), (Call("Plus", (Sym("b"), Sym("a"))),)],
    HookSet: [(), ({LabelClass.MATH: ()}, {LabelClass.TEXT: (("a", "b"),)})],
    PsfragEntry: [("a", BC, BC), ("b", BC, PosCode("t", "l"), 2.0, 90.0, "$x$")],
    LabelBox: [(10.0, 5.0), (10.0, 5.0, 1.0)],
    PreviewResult: [(b"%!", 1, ["u"], ["s"]), (b"%!", 0, [], [])],
    StrokeStyle: [(), (2.0, (1.0, 2.0), 0.5)],
    Polyline: [([(0, 0), (1, 1)],), (((0, 0), (1, 1), (2, 0)), StrokeStyle(2.0))],
    CircleArc: [((0, 0), 1.0), ([1, 1], 2.0, 90.0, 180.0, StrokeStyle(0.5))],
    Arrow: [((0, 0), (1, 1)), ([0, 1], [1, 0], StrokeStyle(3.0))],
    TextPrimitive: [(Sym("x"), (0.5, 0.5)), (LabelDirective(Sym("y")), [1, 2], (1, -1), (0, 1))],
    Tick: [(0.0, Num(Fraction(0))), (1.0, LabelDirective(Sym("x")))],
    FrameTicks: [(), ([Tick(0.0, Num(Fraction(0))), Tick(1.0, Num(Fraction(1)))],)],
    Gridlines: [(), ([0.5], [0.25, 0.75])],
    DecorationSpec: [(), (Sym("t"), (Sym("x"), None))],
    Scene: [(((0, 1), (0, 1)), (100, 100)),
            (((0, 2), (0, 1)), (100, 50), [Polyline(((0, 0), (1, 1)))], DecorationSpec(Sym("t")))],
    ExportOptions: [(), ("-a.tex", "-a.eps", True, False, True)],
}


def _record_classes() -> list[type]:
    """Every class labelforge defines with `@record`, which sets `__match_args__`."""
    found = []
    for path in sorted(SRC.glob("[!_]*.py")):
        module = importlib.import_module(f"labelforge.{path.stem}")
        found += [value for value in vars(module).values()
                  if isinstance(value, type) and value.__module__ == module.__name__
                  and "__match_args__" in vars(value)]
    return found


@functools.cache
def _twin(cls: type) -> type:
    """A `dataclasses` class with cls's name, fields, defaults and __post_init__."""
    own = vars(cls)
    fields = []
    for name in cls.__match_args__:
        if name not in own:
            fields.append((name, cls.__annotations__[name]))
            continue
        default = own[name]
        # dataclasses refuses an unhashable default; a factory hands out the same object
        spec = (dataclasses.field(default_factory=lambda d=default: d)
                if type(default).__hash__ is None else dataclasses.field(default=default))
        fields.append((name, cls.__annotations__[name], spec))
    namespace = {"__post_init__": cls.__post_init__} if hasattr(cls, "__post_init__") else {}
    return dataclasses.make_dataclass(cls.__name__, fields, namespace=namespace, frozen=True)


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except (AttributeError, TypeError) as exc:
        return type(exc).__name__, str(exc)


def test_every_record_class_has_samples():
    assert sorted(c.__qualname__ for c in _record_classes()) == sorted(
        c.__qualname__ for c in SAMPLES)
    assert len(SAMPLES) == 27


@pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda c: c.__qualname__)
def test_record_agrees_with_its_dataclass_twin(cls):
    twin = _twin(cls)
    recs = [cls(*args) for args in SAMPLES[cls]]
    twins = [twin(*args) for args in SAMPLES[cls]]
    for rec, tw, args in zip(recs, twins, SAMPLES[cls]):
        assert repr(rec) == repr(tw)
        assert rec == cls(*args) and tw == twin(*args)
        assert rec != tw and tw != rec
        assert _outcome(hash, rec) == _outcome(hash, tw)
        first = cls.__match_args__[0]
        assert _outcome(setattr, rec, first, 0) == _outcome(setattr, tw, first, 0)
        assert _outcome(delattr, cls(*args), first) == _outcome(delattr, twin(*args), first)
    for i, (a, b) in enumerate(zip(recs, twins)):
        for c, d in zip(recs[i + 1:], twins[i + 1:]):
            assert (a == c) == (b == d) and (a != c) == (b != d)


# Field values: NaN and -0.0 among the floats, records nested in records, lists and tuples.
_LEAVES = (st.floats() | st.sampled_from([math.nan, -0.0, math.inf]) | st.integers(-2, 2)
           | st.text("ab", max_size=2) | st.binary(max_size=2) | st.none() | st.booleans())
_VALUES = st.recursive(
    _LEAVES, lambda inner: st.lists(inner, max_size=3) | st.lists(inner, max_size=3).map(tuple)
    | st.builds(Sym, inner) | st.builds(_Font, inner, inner), max_leaves=6)


@st.composite
def _fields_of(draw, cls):
    """Keyword arguments for `cls`: each sample argument kept or replaced by a drawn value,
    each later field left to its default or drawn."""
    sample = draw(st.sampled_from(SAMPLES[cls]))
    kwargs = {}
    for i, name in enumerate(cls.__match_args__):
        if i < len(sample):
            kwargs[name] = draw(st.just(sample[i]) | _VALUES)
        elif draw(st.booleans()):
            kwargs[name] = draw(_VALUES)
    return kwargs


def _build_both(cls, twin, kwargs):
    """A record and its twin from `kwargs`, or None when both refuse them alike."""
    try:
        rec = cls(**kwargs)
    except Exception as exc:  # then __post_init__ refuses the values; the twin runs it too
        with pytest.raises(type(exc)) as info:
            twin(**kwargs)
        assert str(info.value) == str(exc)
        return None
    return rec, twin(**kwargs)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_record_agrees_with_its_twin_on_generated_values(data):
    cls = data.draw(st.sampled_from(list(SAMPLES)))
    twin = _twin(cls)
    first = _build_both(cls, twin, kwargs := data.draw(_fields_of(cls)))
    second = _build_both(cls, twin, data.draw(_fields_of(cls)))
    if first is None:
        return
    rec, tw = first
    again, tw_again = cls(**kwargs), twin(**kwargs)
    assert repr(rec) == repr(tw)
    assert (rec == again, rec != again) == (tw == tw_again, tw != tw_again)
    if second is not None:
        assert (rec == second[0], rec != second[0]) == (tw == second[1], tw != second[1])
    assert rec != tw and not tw == rec
    assert _outcome(hash, rec) == _outcome(hash, tw)
    name = data.draw(st.sampled_from(cls.__match_args__))
    value = data.draw(_VALUES)
    assert _outcome(setattr, rec, name, value) == _outcome(setattr, tw, name, value)
    assert _outcome(delattr, again, name) == _outcome(delattr, tw_again, name)


def test_record_classes_share_every_method_but_init():
    classes = _record_classes()
    assert {cls.__repr__ for cls in classes} == {records._repr}
    assert {cls.__eq__ for cls in classes} == {records._eq}
    assert len(classes) == 27
    for method, shared in [("__hash__", records._hash), ("__setattr__", records._setattr),
                           ("__delattr__", records._delattr)]:
        assert {vars(cls)[method] for cls in classes} == {shared}
    assert len({cls.__init__ for cls in classes}) == len(classes)
    assert all(cls.__init__.__qualname__ == f"{cls.__qualname__}.__init__" for cls in classes)


def test_frozen_records_refuse_assignment_with_an_attribute_error():
    with pytest.raises(AttributeError, match="cannot assign to field 'name'"):
        Sym("x").name = "y"
    with pytest.raises(records.FrozenInstanceError, match="cannot delete field 'a'"):
        del Affine().a


def test_replace_rebuilds_through_post_init():
    entry = PsfragEntry("a", BC, BC)
    with pytest.raises(ValueError, match="scale must be positive"):
        replace(entry, scale=0)
    line = replace(Polyline(((0, 0), (1, 1))), points=[[0, 0], [2, 2]])
    assert line == Polyline(((0.0, 0.0), (2.0, 2.0))) and line.points == ((0, 0), (2, 2))
    assert replace(entry, tag="b") == PsfragEntry("b", BC, BC)
    with pytest.raises(TypeError):
        replace(entry, no_such_field=1)


def test_equality_needs_the_same_class():
    assert Sym("x") != Str("x") and Sym("x") == Sym("x")
    assert hash(Sym("x")) == hash(("x",))


def test_records_share_immutable_defaults():
    first, second = Polyline(((0, 0), (1, 1))), Polyline(((1, 1), (2, 2)))
    assert first.style is second.style and first.style == StrokeStyle()
    with pytest.raises(AttributeError):
        first.style.width = 2.0
    assert HookSet().pre_apply is HookSet().post_replace
    with pytest.raises(TypeError):
        HookSet().pre_apply[LabelClass.MATH] = ()


def test_no_module_imports_dataclasses():
    """Loading `dataclasses` pulls in `inspect` and costs every command that imports it."""
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            offenders += [f"{path.name}:{node.lineno}" for name in names
                          if name.split(".")[0] == "dataclasses"]
    assert offenders == []
