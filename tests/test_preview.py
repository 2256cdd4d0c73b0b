from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labelforge import (ExportOptions, LabelBox, TagRegistry, place, psfrag_export,
                        reference_point, scan_tags, substitute_preview)
from labelforge.affine import Affine
from labelforge.directives import PosCode
from labelforge.epsio import TagOccurrence, _fmt
from labelforge.fontmetrics import string_extents
from labelforge.labeling import PsfragEntry, parse_psfrag_document
from labelforge.preview import (PREVIEW_CREATOR, PreviewError, _preview_block, default_measure,
                                tag_box_for)
from labelforge.scenefile import parse_scene

from conftest import FIXTURES, preview_points

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


def _chain_place(replacement, entry, occ, tag_box):
    """`place` as four transforms multiplied by `Affine.__matmul__`: its oracle."""
    def ref(box, code):
        return ({"l": 0.0, "c": box.width / 2.0, "r": box.width}[code.horizontal],
                {"b": 0.0, "B": box.depth, "c": box.height / 2.0, "t": box.height}[code.vertical])
    ps_ref = ref(tag_box, entry.psposn)
    offset = Affine.rotation(occ.rotation).apply(ps_ref[0], ps_ref[1] - tag_box.depth)
    pinned = (occ.device_position[0] + offset[0], occ.device_position[1] + offset[1])
    latex_ref = ref(replacement, entry.posn)
    return (Affine.translation(*pinned)
            @ Affine.rotation(occ.rotation + entry.rot)
            @ Affine.scaling(entry.scale, entry.scale)
            @ Affine.translation(-latex_ref[0], -latex_ref[1]))


def _finite(low, high):
    return st.floats(low, high, allow_nan=False, allow_infinity=False)


def _boxes():
    return st.builds(lambda w, h, f: LabelBox(w, h, h * f),
                     _finite(1e-6, 1e6), _finite(1e-6, 1e6), _finite(0.0, 0.99))


@settings(max_examples=200, deadline=None)
@given(rotation=_finite(-180.0, 180.0), position=st.tuples(_finite(-1e6, 1e6), _finite(-1e6, 1e6)),
       rot=_finite(-1e9, 1e9), scale=_finite(1e-6, 1e6), box=_boxes(), tag_box=_boxes())
def test_place_equals_the_four_transform_chain_exactly(rotation, position, rot, scale, box,
                                                       tag_box):
    occ = _occurrence(rotation=rotation, position=position)
    for posn in ALL_CODES:
        for psposn in ALL_CODES:
            entry = PsfragEntry("gA", posn, psposn, scale, rot, "x")
            assert (place(box, entry, occ, tag_box).as_ps_array()
                    == _chain_place(box, entry, occ, tag_box).as_ps_array())


def test_nonpositive_scale_rejected_at_entry_construction():
    with pytest.raises(ValueError):
        PsfragEntry("gA", PosCode.parse("bl"), PosCode.parse("bl"), 0.0, 0.0, "x")


# ------------------------------------------------------------ preview block

def _reference_fmt(v: float, places: int = 3) -> str:
    """`_fmt` as it was when it built its format spec from `places` on every call."""
    s = f"{v:.{places}f}".rstrip("0").rstrip(".")
    return s if s not in ("", "-0") else "0"


def _reference_preview_block(occ: TagOccurrence, box: LabelBox, transform: Affine) -> bytes:
    """`_preview_block` as it was when it joined seven lines and encoded each box."""
    values = (*transform.as_ps_array(), box.width, box.height, box.depth, box.depth + 1)
    if not all(abs(v) <= 1e38 for v in values):
        start, end = occ.byte_span
        raise PreviewError(f"the preview of tag {occ.tag!r} at bytes {start}..{end} needs a "
                           "number beyond 1e38, the largest a PostScript interpreter reads")
    a, b, c, d, tx, ty, w, h, depth, label_y = (_reference_fmt(v, 6) for v in values)
    lines = [
        "gsave",
        f"[{a} {b} {c} {d} {tx} {ty}] concat",
        "0 setgray 0.4 setlinewidth",
        f"newpath 0 0 moveto {w} 0 lineto {w} {h} lineto 0 {h} lineto closepath stroke",
        f"newpath 0 {depth} moveto {w} {depth} lineto stroke",
        f"/Times-Roman 4 selectfont 1 {label_y} moveto ({occ.tag}) show",
        "grestore",
    ]
    return ("\n".join(lines) + "\n").encode("latin-1")


# Where six places round up, down or to a signed zero, whole numbers, and 1e38, the largest
# real a preview may write, with the next float above it.
_EDGES = [0.0, -0.0, 4e-7, -4e-7, 5e-7, -5e-7, 0.9999995, -0.9999995, 1.0, -3.0, 35.0, 1e6,
          2.0**53, 1e38, -1e38, math.nextafter(1e38, math.inf), -math.nextafter(1e38, math.inf)]
_NUMBERS = st.sampled_from(_EDGES) | st.floats()
_SIZES = st.sampled_from([v for v in _EDGES if v > 0]) | st.floats(min_value=5e-324)


def _outcome(block, occ, box, transform):
    """The bytes `block` writes, or the message of the PreviewError it raises."""
    try:
        text = block(occ, box, transform)
    except PreviewError as exc:
        return str(exc)
    return text.encode("latin-1") if isinstance(text, str) else text


@settings(max_examples=1000)
@given(transform=st.builds(Affine, _NUMBERS, _NUMBERS, _NUMBERS, _NUMBERS, _NUMBERS, _NUMBERS),
       width=_SIZES, height=_SIZES, depth=_SIZES | st.just(0.0),
       tag=st.text("abcXYZ019", min_size=1, max_size=4))
def test_preview_block_matches_the_block_of_seven_joined_lines(transform, width, height, depth,
                                                               tag):
    if not depth < height:
        depth = 0.0
    box = LabelBox(width, height, depth)
    occ = TagOccurrence(tag, (0.0, 0.0), 0.0, 1.0, 10.0, (3, 9))
    assert (_outcome(_preview_block, occ, box, transform)
            == _outcome(_reference_preview_block, occ, box, transform))


@settings(max_examples=1000)
@given(_NUMBERS)
def test_fmt_matches_the_formatter_that_built_its_spec_per_call(v):
    assert _fmt(v) == _reference_fmt(v, 3)
    assert _fmt(v, ".6f") == _reference_fmt(v, 6)


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


_PROPERTY_REGISTRY = parse_psfrag_document("\\psfrag{gA}[cc][cc][1][0]{x}\n"
                                            "\\psfrag{gB}[Bl][tr][2][30]{$y^2$}\n")
_SHOW = st.tuples(st.sampled_from(["gA", "gB", "zz"]), st.integers(-50, 550),
                  st.integers(-50, 550), st.integers(-179, 180))


# Text after the page is shown that holds a `showpage` the scan must not take for it.
_NOT_RUN = [b"", b"(<EOL>showpage) pop", b"% showpage", b"{<EOL>showpage<EOL>} pop"]


@settings(max_examples=300, deadline=None)
@given(eol=st.sampled_from([b"\n", b"\r", b"\r\n"]),
       showpage=st.sampled_from(["none", "own line", "last show's line"]),
       not_run=st.sampled_from(_NOT_RUN), nested=st.booleans(), final_eol=st.booleans(),
       shows=st.lists(_SHOW, min_size=1, max_size=4))
def test_preview_of_any_line_ends_blanks_the_tags_and_draws_before_showpage(
        eol, showpage, not_run, nested, final_eol, shows):
    lines = [b"%!PS-Adobe-3.0 EPSF-3.0", b"%%BoundingBox: 0 0 500 500"]
    lines += [f"gsave /Times-Roman 10 selectfont {x} {y} translate {r} rotate 0 0 moveto "
              f"({tag}) show grestore".encode() for tag, x, y, r in shows]
    if nested:  # every show one gsave deeper, under a translation of its own
        lines[2] = b"gsave 7 -3 translate " + lines[2]
        lines[-1] += b" grestore"
    if showpage == "last show's line":
        lines[-1] += b" showpage"
    elif showpage == "own line":
        lines.append(b"showpage")
    lines += [not_run.replace(b"<EOL>", eol)] if not_run else []
    lines += [b"%%EOF"] if showpage != "none" else []
    eps = eol.join(lines) + (eol if final_eol else b"")
    before = scan_tags(eps)
    result = substitute_preview(eps, _PROPERTY_REGISTRY)
    after = scan_tags(result.eps)
    matched = [occ for occ in before if occ.tag in _PROPERTY_REGISTRY]
    assert len(after) == len(before) + len(matched) and result.matched == len(matched)
    for old, new in zip(before, after):
        blank = old.tag in _PROPERTY_REGISTRY
        assert (new.tag, new.device_position) == ("" if blank else old.tag, old.device_position)
    for occ, caption in zip(matched, after[len(before):]):
        entry = _PROPERTY_REGISTRY.get(occ.tag)
        box = default_measure(entry.body)
        want = place(box, entry, occ, tag_box_for(occ)).apply(1, box.depth + 1)
        assert caption.tag == occ.tag
        assert caption.device_position == pytest.approx(want, abs=1e-5)  # `_fmt(v, ".6f")` rounds
    assert result.eps.splitlines()[1] == PREVIEW_CREATOR
    assert (after.showpage is None) == (showpage == "none")
    if showpage != "none":
        assert all(c.byte_span[1] < after.showpage for c in after[len(before):])


@pytest.mark.parametrize("body, rest", [
    (b"(t) show\nshowpage\n%%EOF\n", b"showpage\n%%EOF\n"),
    (b"(t) show showpage\n%%EOF\n", b"showpage\n%%EOF\n"),
    (b"(t) show\nshowpage\n(\nshowpage) pop\n%%EOF\n", b"showpage\n(\nshowpage) pop\n%%EOF\n"),
    (b"(a\nshowpage) show 10 10 moveto (t) show\n", b""),
    (b"(t) show\n", b""),
    (b"(t) show\n%%Trailer\nend\n%%EOF\n", b"%%Trailer\nend\n%%EOF\n"),
    (b"(t) show\n%%EOF\n", b"%%EOF\n"),
    (b"(t) show\r%%Trailer\r%%EOF\r", b"%%Trailer\r%%EOF\r"),
    (b"(t) show %%EOF\n", b""),
    (b"(t) show\n{\n%%EOF\n} pop\n", b""),
    (b"(t) show\nshowpage\n%%Trailer\n%%EOF\n", b"showpage\n%%Trailer\n%%EOF\n"),
])
def test_preview_draws_before_the_showpage_that_runs_else_at_the_end(body, rest):
    """The input with `(t)` blanked and the creator line second, the drawing spliced in just
    before `rest`: the `showpage` that runs, else the DSC trailer, else the end. The scan of
    the output finds its caption before that point."""
    eps = b"%!PS\n" + body
    out = substitute_preview(eps, parse_psfrag_document("\\psfrag{t}[cc][cc]{x}\n")).eps
    start, end = out.index(b"gsave\n["), len(out) - len(rest)
    assert out[start:end].endswith(b"grestore\n") and out[end:] == rest
    assert out[:start] + rest == b"%!PS\n" + PREVIEW_CREATOR + b"\n" + body.replace(b"(t)", b"()")
    after = scan_tags(out)
    assert [occ.tag for occ in after] == [
        "" if occ.tag == "t" else occ.tag for occ in scan_tags(eps)] + ["t"]
    assert after[-1].byte_span[1] < end


def test_preview_inserts_nothing_inside_a_blanked_string_continued_past_a_line_end():
    # `(t\<LF>)` reads as `t`, so the first line ends inside the literal that is blanked
    eps = b"(t\\\n) show"
    out = substitute_preview(eps, parse_psfrag_document("\\psfrag{t}{x}\n")).eps
    assert out.startswith(PREVIEW_CREATOR + b"\n() show\ngsave\n")
    assert [occ.tag for occ in scan_tags(out)] == ["", "t"]


def test_preview_puts_the_creator_line_first_when_the_input_opens_with_no_comment():
    # the first line ends inside `(a<LF>b)`, a literal that is not blanked
    eps = b"(a\nb) show (t) show\n"
    out = substitute_preview(eps, parse_psfrag_document("\\psfrag{t}[cc][cc][1][0]{x}\n")).eps
    assert out.startswith(PREVIEW_CREATOR + b"\n(a\nb) show () show\n")
    assert [occ.tag for occ in scan_tags(out)] == ["a\nb", "", "t"]


def test_preview_draws_at_the_end_when_the_only_showpage_line_is_in_a_blanked_string():
    # `(t\<LF>showpage)` reads as `tshowpage`; its second line starts with `showpage`, which
    # is not run
    eps = b"%!PS\n(t\\\nshowpage) show\n"
    out = substitute_preview(eps, parse_psfrag_document("\\psfrag{tshowpage}{x}\n")).eps
    assert out.startswith(b"%!PS\n" + PREVIEW_CREATOR + b"\n() show\ngsave\n")
    assert out.endswith(b"(tshowpage) show\ngrestore\n")
    assert [occ.tag for occ in scan_tags(out)] == ["", "tshowpage"]


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


_TEXT = st.text(alphabet="abcxyzABQ019 ", min_size=1, max_size=10)
_LABEL = st.fixed_dictionaries({
    "type": st.just("text"),
    "expr": _TEXT.map(lambda text: f'"{text}"'),
    "pos": st.tuples(st.floats(0, 10), st.floats(0, 10)).map(list),
    "anchor": st.tuples(*[st.sampled_from([-1, 0, 1])] * 2).map(list),
    "dir": st.tuples(st.floats(-1, 1), st.floats(-1, 1)).filter(
        lambda d: math.hypot(*d) > 1e-3).map(list),
})


@settings(max_examples=100, deadline=None)
@given(st.lists(_LABEL, min_size=1, max_size=6),
       st.tuples(st.floats(50, 600), st.floats(50, 600)).map(list))
def test_each_box_on_a_grid_anchor_lands_where_the_plain_text_is_shown(labels, size):
    # Closed loop: measured as the Times-Roman box of its own text, each label's preview box
    # must sit where `export --no-auto-convert` shows that text. psfrag puts its posn point
    # on the tag's psposn point, and the writer put that point on the label's anchor.
    scene = parse_scene(json.dumps({"version": 1, "plot_range": [[0, 10], [0, 10]],
                                    "size": size, "primitives": labels}))
    shown = scan_tags(psfrag_export(scene, ExportOptions(auto_convert_text=False)).eps)
    for opts in (ExportOptions(), ExportOptions(renumber_tags=True)):
        result = psfrag_export(scene, opts)
        text_of = {result.registry.get(occ.tag).body: plain.tag
                   for occ, plain in zip(scan_tags(result.eps), shown)}
        points = preview_points(result.eps, result.tex,
                                lambda body: LabelBox(*string_extents(text_of[body], 10.0)))
        assert len(points) == len(shown)
        for (_, (x, y)), plain in zip(points, shown):
            assert math.hypot(x - plain.device_position[0], y - plain.device_position[1]) < 0.01
