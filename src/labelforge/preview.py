"""Placeholder-box substitution implementing the psfrag placement rules.

The replacement box is placed so that its posn reference point lands on
the psposn reference point of the PostScript tag box, rotated relative to
the tag's orientation and scaled about the pinned point. Substituting
stroked rectangles for the tags makes those semantics checkable without
typesetting anything.
"""

from __future__ import annotations

import math

from .affine import Affine
from .directives import PosCode
from .epsio import TagOccurrence, _fmt, scan_tags, splice
from .fontmetrics import string_extents
from .labeling import PsfragEntry, TagRegistry
from .records import record

PREVIEW_CREATOR = b"%%Creator: labelforge-preview"


class PreviewError(ValueError):
    """A matched tag's box under- or overflows at its font size and scale, or its placed
    preview needs a number no PostScript interpreter reads."""
    exit_code = 1


@record
class LabelBox:
    """Box frame: origin bottom-left, baseline at y = depth."""

    width: float
    height: float  # total, above the box bottom
    depth: float = 0.0  # baseline height above the box bottom

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise ValueError("box width and height must be positive")
        if not (0 <= self.depth < self.height):
            raise ValueError("depth must lie in [0, height)")


def reference_point(box: LabelBox, code: PosCode) -> tuple[float, float]:
    """Box-frame coordinates of the reference point named by `code`."""
    h, v = code.horizontal, code.vertical
    x = 0.0 if h == "l" else box.width / 2.0 if h == "c" else box.width
    y = 0.0 if v == "b" else box.depth if v == "B" else box.height / 2.0 if v == "c" else box.height
    return x, y


def tag_box_for(occ: TagOccurrence) -> LabelBox:
    """Estimated box of the shown tag string at the occurrence's scale."""
    # A mirroring (negative) size is measured at its magnitude, a zero one as tiny.
    width, height, depth = string_extents(occ.tag, abs(occ.font_size) or 1e-6)
    s = occ.scale
    width, height = max(width, 1e-6) * s, height * s
    if not (0 < width < math.inf and 0 < height < math.inf):
        start, end = occ.byte_span
        raise PreviewError(f"the box of tag {occ.tag!r} at bytes {start}..{end} is too small or "
                           f"too large to measure at font size {occ.font_size:g}, scale {s:g}")
    return LabelBox(width, height, depth * s)


def place(replacement: LabelBox,
          entry: PsfragEntry,
          occ: TagOccurrence,
          tag_box: LabelBox) -> Affine:
    """Device transform taking replacement-box coordinates to the page.

    The occurrence's device position is the baseline-left point of the
    tag string, i.e. the tag box point (0, depth). Applying the returned
    transform to the replacement's posn reference point yields exactly
    the device image of the tag box's psposn reference point. It is
    T(pinned) @ R(rotation + entry.rot) @ S(entry.scale) @ T(-ref), multiplied out.
    """
    x, y = reference_point(tag_box, entry.psposn)
    y -= tag_box.depth
    r = math.radians(occ.rotation)
    cos_r, sin_r = math.cos(r), math.sin(r)
    px = occ.device_position[0] + (cos_r * x - sin_r * y)
    py = occ.device_position[1] + (sin_r * x + cos_r * y)
    lx, ly = reference_point(replacement, entry.posn)
    r = math.radians(occ.rotation + entry.rot)
    a, b = math.cos(r) * entry.scale, math.sin(r) * entry.scale
    return Affine(a, b, -b, a, px + (b * ly - a * lx), py - (b * lx + a * ly))


def default_measure(body: str) -> LabelBox:
    """Character-count box heuristic at the writer's 10 pt nominal size."""
    return LabelBox(width=5.0 * max(len(body), 1), height=10.0, depth=2.0)


def _preview_block(occ: TagOccurrence, box: LabelBox, transform: Affine) -> str:
    values = (*transform.as_ps_array(), box.width, box.height, box.depth, box.depth + 1)
    if not all(abs(v) <= 1e38 for v in values):  # the largest real in PLRM Appendix B
        start, end = occ.byte_span
        raise PreviewError(f"the preview of tag {occ.tag!r} at bytes {start}..{end} needs a "
                           "number beyond 1e38, the largest a PostScript interpreter reads")
    a, b, c, d, tx, ty, w, h, depth, label_y = [_fmt(v, ".6f") for v in values]
    return (f"gsave\n[{a} {b} {c} {d} {tx} {ty}] concat\n0 setgray 0.4 setlinewidth\n"
            f"newpath 0 0 moveto {w} 0 lineto {w} {h} lineto 0 {h} lineto closepath stroke\n"
            f"newpath 0 {depth} moveto {w} {depth} lineto stroke\n"
            f"/Times-Roman 4 selectfont 1 {label_y} moveto ({occ.tag}) show\ngrestore\n")


@record
class PreviewResult:
    eps: bytes
    matched: int  # occurrences substituted
    unmatched: list[str]  # shown strings with no entry, sorted
    stale: list[str]  # entries shown nowhere, in registry order


def substitute_preview(eps: bytes, registry: TagRegistry) -> PreviewResult:
    """Replace matched shows by placed placeholder boxes.

    Each matched tag string is blanked and a stroked rectangle with a
    baseline line and the tag name in 4 pt type is drawn under the
    placement transform, its box measured by default_measure. Unmatched
    text is left untouched and listed in the result. The output carries a
    labelforge-preview creator marker.
    """
    occurrences = scan_tags(eps)
    blanks: list[tuple[tuple[int, int], bytes]] = []
    drawing = []
    for occ in occurrences:
        entry = registry.get(occ.tag)
        if entry is None:
            continue
        box = default_measure(entry.body)
        transform = place(box, entry, occ, tag_box_for(occ))
        blanks.append((occ.byte_span, b"()"))
        drawing.append(_preview_block(occ, box, transform))

    # Edits are made on the input, where a line ends at LF, CR or CRLF, and each goes at a
    # token boundary. The creator line goes after the first line if that is a comment, else
    # at the start; the drawing goes where the scan found the page shown, else before the
    # DSC trailer, else at the end, after a line break.
    end = len(eps)
    creator_at = len(eps.splitlines(keepends=True)[0]) if eps.startswith(b"%") else 0
    inserts = [(creator_at, PREVIEW_CREATOR + b"\n")]
    if drawing:
        at = next((at for at in (occurrences.showpage, occurrences.trailer) if at is not None), end)
        inserts.append((at, "".join(drawing).encode("latin-1")))
    if not eps.endswith((b"\n", b"\r")) and any(at == end for at, _text in inserts):
        inserts.insert(0, (end, b"\n"))
    out = splice(eps, blanks + [((at, at), text) for at, text in inserts])
    shown = {occ.tag for occ in occurrences}
    return PreviewResult(out, len(blanks), sorted(tag for tag in shown if tag not in registry),
                         [tag for tag in registry.tags() if tag not in shown])
