"""`@record` against `dataclasses`: each record class and a twin built from the same
annotations and defaults agree on repr, equality, hashing and assignment."""

from __future__ import annotations

import ast
import dataclasses
import importlib
from fractions import Fraction
from pathlib import Path

import pytest

from labelforge import records
from labelforge.affine import Affine
from labelforge.directives import LabelDirective, PosCode
from labelforge.epsio import GraphicsState, PsToken, TagOccurrence, TextPlacement, _Font, _PsString
from labelforge.exprkit import Call, Hold, HookSet, LabelClass, Num, Str, Sym, _Token
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
    PsToken: [("name", "show", 0, 5, -1), ("string", b"ab", 3, 8, 4)],
    GraphicsState: [(), (Affine(2.0), (1.0, 2.0), 12.0)],
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
    _Token: [("ident", "x", 0), ("eof", "", 3)],
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


def _twin(cls: type) -> type:
    """A `dataclasses` class with cls's name, fields, defaults and __post_init__."""
    own = vars(cls)
    fields = []
    for name in cls.__match_args__:
        if name not in own or name in own.get("__slots__", ()):
            fields.append((name, cls.__annotations__[name]))
            continue
        default = own[name]
        # dataclasses refuses an unhashable default; a factory hands out the same object
        spec = (dataclasses.field(default_factory=lambda d=default: d)
                if type(default).__hash__ is None else dataclasses.field(default=default))
        fields.append((name, cls.__annotations__[name], spec))
    namespace = {"__post_init__": cls.__post_init__} if hasattr(cls, "__post_init__") else {}
    return dataclasses.make_dataclass(cls.__name__, fields, namespace=namespace,
                                      frozen=cls.__hash__ is not None)


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except (AttributeError, TypeError) as exc:
        return type(exc).__name__, str(exc)


def test_every_record_class_has_samples():
    assert sorted(c.__qualname__ for c in _record_classes()) == sorted(
        c.__qualname__ for c in SAMPLES)
    assert len(SAMPLES) == 30


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


def test_mutable_records_share_immutable_defaults_and_tokens_have_no_dict():
    token = PsToken("name", "show", 0, 5, -1)
    assert not hasattr(token, "__dict__")
    token.end = 4
    assert token.end == 4
    first, second = GraphicsState(), GraphicsState()
    assert first.ctm is second.ctm and first.ctm == Affine()
    with pytest.raises(AttributeError):
        first.ctm.a = 2.0
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
