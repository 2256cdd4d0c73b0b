from __future__ import annotations

import math

import pytest

from labelforge import (ExportOptions, LabelBox, TagRegistry, place, reference_point, scan_tags,
                        substitute_preview)
from labelforge.directives import PosCode
from labelforge.epsio import TagOccurrence
from labelforge.labeling import PsfragEntry, parse_psfrag_document
from labelforge.preview import PREVIEW_CREATOR, tag_box_for

from conftest import FIXTURES

ALL_CODES = [PosCode(v, h) for v in "tcbB" for h in "lcr"]


def _occurrence(rotation=0.0, position=(40.0, 30.0), scale=1.0):
    return TagOccurrence(tag="gA", device_position=position, rotation=rotation,
                         scale=scale, font_size=10.0, byte_span=(0, 4))


def _pinned_point(occ, tag_box, psposn):
    """Independent trig computation of the psposn device point."""
    rx, ry = reference_point(tag_box, psposn)
    theta = math.radians(occ.rotation)
    return (occ.device_position[0] + math.cos(theta) * rx
            - math.sin(theta) * (ry - tag_box.depth),
            occ.device_position[1] + math.sin(theta) * rx
            + math.cos(theta) * (ry - tag_box.depth))


# --------------------------------------------------------- reference_point

def test_reference_point_origin():
    assert reference_point(LabelBox(10, 8, 2), PosCode.parse("bl")) == (0, 0)


def test_reference_point_baseline_center():
    assert reference_point(LabelBox(10, 8, 2), PosCode.parse("Bc")) == (5, 2)


def test_reference_point_top_right():
    assert reference_point(LabelBox(10, 8, 2), PosCode.parse("tr")) == (10, 8)


def test_reference_point_monotone():
    box = LabelBox(10, 8, 2)  # depth <= height/2
    xs = {h: reference_point(box, PosCode("c", h))[0] for h in "lcr"}
    assert xs["l"] <= xs["c"] <= xs["r"]
    ys = {v: reference_point(box, PosCode(v, "c"))[1] for v in "bBct"}
    assert ys["b"] <= ys["B"] <= ys["c"] <= ys["t"]


def test_label_box_validation():
    with pytest.raises(ValueError):
        LabelBox(0, 5)
    with pytest.raises(ValueError):
        LabelBox(5, 5, depth=5)


# ------------------------------------------------------------------ place

def test_place_pinning_invariant_full_grid():
    occ = _occurrence(rotation=20.0)
    tag_box = tag_box_for(occ)
    box = LabelBox(24.0, 11.0, 3.0)
    for posn in ALL_CODES:
        for psposn in ALL_CODES:
            for rot in (-90.0, 0.0, 30.0, 45.0, 180.0):
                for scale in (0.5, 1.0, 2.0):
                    entry = PsfragEntry("gA", posn, psposn, scale, rot, "$x$")
                    transform = place(box, entry, occ, tag_box)
                    got = transform.apply(*reference_point(box, posn))
                    want = _pinned_point(occ, tag_box, psposn)
                    assert math.hypot(got[0] - want[0], got[1] - want[1]) < 1e-9


def test_place_identity_maps_box_onto_tag_box():
    occ = _occurrence(rotation=35.0)
    tag_box = tag_box_for(occ)
    entry = PsfragEntry("gA", PosCode.parse("bl"), PosCode.parse("bl"),
                        1.0, 0.0, "x")
    transform = place(tag_box, entry, occ, tag_box)
    theta = math.radians(occ.rotation)
    corners = [(0.0, 0.0), (tag_box.width, 0.0),
               (tag_box.width, tag_box.height), (0.0, tag_box.height)]
    for corner in corners:
        got = transform.apply(*corner)
        want = (occ.device_position[0] + math.cos(theta) * corner[0]
                - math.sin(theta) * (corner[1] - tag_box.depth),
                occ.device_position[1] + math.sin(theta) * corner[0]
                + math.cos(theta) * (corner[1] - tag_box.depth))
        assert got == pytest.approx(want, abs=1e-9)


def test_place_rotation_composes_about_pinned_point():
    occ = _occurrence(rotation=10.0)
    tag_box = tag_box_for(occ)
    box = LabelBox(20.0, 10.0, 2.0)
    posn, psposn = PosCode.parse("tl"), PosCode.parse("Br")
    a, b = 30.0, 45.0
    combined = place(box, PsfragEntry("gA", posn, psposn, 1.0, a + b, "x"),
                     occ, tag_box)
    partial = place(box, PsfragEntry("gA", posn, psposn, 1.0, a, "x"),
                    occ, tag_box)
    pin = _pinned_point(occ, tag_box, psposn)
    from labelforge.affine import Affine
    post = (Affine.translation(*pin) @ Affine.rotation(b)
            @ Affine.translation(-pin[0], -pin[1])) @ partial
    for attr in ("a", "b", "c", "d", "tx", "ty"):
        assert getattr(post, attr) == pytest.approx(getattr(combined, attr),
                                                    abs=1e-9)


def test_place_scale_leaves_pinned_point_fixed():
    occ = _occurrence(rotation=-40.0)
    tag_box = tag_box_for(occ)
    box = LabelBox(18.0, 9.0, 2.0)
    posn, psposn = PosCode.parse("Br"), PosCode.parse("bc")
    ref = reference_point(box, posn)
    points = set()
    for scale in (0.5, 0.75, 1.0, 1.5, 2.0):
        entry = PsfragEntry("gA", posn, psposn, scale, 0.0, "x")
        got = place(box, entry, occ, tag_box).apply(*ref)
        points.add((round(got[0], 9), round(got[1], 9)))
    assert len(points) == 1


def test_nonpositive_scale_rejected_at_entry_construction():
    with pytest.raises(ValueError):
        PsfragEntry("gA", PosCode.parse("bl"), PosCode.parse("bl"), 0.0, 0.0, "x")


# ------------------------------------------------------ substitute_preview

def test_preview_empty_registry_only_banner(export):
    eps, _tex, _reg = export("ex_auto")
    result = substitute_preview(eps, TagRegistry())
    assert result.matched == 0
    assert result.unmatched == sorted({occ.tag for occ in scan_tags(eps)})
    out = result.eps
    lines_in = eps.split(b"\n")
    lines_out = out.split(b"\n")
    assert len(lines_out) == len(lines_in) + 1
    assert PREVIEW_CREATOR in lines_out
    assert [l for l in lines_out if l != PREVIEW_CREATOR] == lines_in


def test_preview_without_showpage_appends_the_boxes_and_puts_the_banner_second():
    eps = b"%!PS-Adobe-3.0 EPSF-3.0\n10 10 moveto (T) show\n"
    out = substitute_preview(eps, parse_psfrag_document("\\psfrag{T}{$x$}\n")).eps
    head = b"%!PS-Adobe-3.0 EPSF-3.0\n" + PREVIEW_CREATOR + b"\n10 10 moveto () show\ngsave\n"
    assert out.startswith(head) and out.endswith(b"(T) show\ngrestore\n")
    assert out.count(b"gsave") == 1


@pytest.mark.parametrize("name", [p.stem for p in sorted(FIXTURES.glob("*.scene"))])
@pytest.mark.parametrize("no_auto_convert", [False, True])
def test_preview_counts_match_scan_and_registry(export, name, no_auto_convert):
    eps, tex, _reg = export(name, opts=ExportOptions(auto_convert_text=not no_auto_convert))
    registry = parse_psfrag_document(tex + "\\psfrag{staleTag}{x}\n")
    shown = [occ.tag for occ in scan_tags(eps)]
    result = substitute_preview(eps, registry)
    assert result.matched == sum(1 for tag in shown if tag in registry)
    assert result.unmatched == sorted({tag for tag in shown if tag not in registry})
    assert result.stale == [tag for tag in registry.tags() if tag not in shown]
    assert result.stale[-1] == "staleTag"


def test_preview_unmatched_tag_is_listed_and_passes_through(export):
    eps, tex, _reg = export("ex_rot", opts=__import__("labelforge").ExportOptions(
        auto_convert_text=False))
    registry = parse_psfrag_document(tex)
    result = substitute_preview(eps, registry)
    assert "Example 0" in result.unmatched
    out = result.eps
    # untagged plain labels are still shown verbatim
    remaining = {occ.tag for occ in scan_tags(out)}
    assert "Example 0" in remaining


def test_preview_fig2_places_fifteen_boxes(export):
    eps, tex, _reg = export("fig2")
    registry = parse_psfrag_document(tex)
    out = substitute_preview(eps, registry).eps
    assert out.count(b"closepath stroke") == 15
    assert PREVIEW_CREATOR in out
    # every original tag string was blanked
    shown = [occ.tag for occ in scan_tags(out)]
    assert shown.count("") == 15


def test_preview_fig2_boxes_pin_to_their_anchor(export):
    eps, tex, _reg = export("fig2")
    registry = parse_psfrag_document(tex)
    from labelforge.preview import default_measure
    for occ in scan_tags(eps):
        entry = registry.get(occ.tag)
        assert entry is not None
        tag_box = tag_box_for(occ)
        box = default_measure(entry.body)
        transform = place(box, entry, occ, tag_box)
        got = transform.apply(*reference_point(box, entry.posn))
        want = _pinned_point(occ, tag_box, entry.psposn)
        assert got == pytest.approx(want, abs=1e-9)


def test_preview_rot_zero_boxes_parallel_tag_direction(export):
    import labelforge
    eps, tex, _reg = export("ex_rot", opts=labelforge.ExportOptions(
        auto_convert_text=False))
    registry = parse_psfrag_document(tex)
    for occ in scan_tags(eps):
        entry = registry.get(occ.tag)
        if entry is None:
            continue
        assert entry.rot == 0.0
        box = LabelBox(10.0, 5.0, 1.0)
        transform = place(box, entry, occ, tag_box_for(occ))
        assert transform.rotation_degrees() == pytest.approx(occ.rotation,
                                                             abs=1e-9)


def test_preview_output_is_valid_eps(export):
    eps, tex, _reg = export("fig2")
    registry = parse_psfrag_document(tex)
    out = substitute_preview(eps, registry).eps
    occs = scan_tags(out)  # must tokenize and scan cleanly
    assert len(occs) == 30  # 15 blanked shows + 15 box identification labels
