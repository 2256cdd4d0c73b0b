"""EPS tokenizing, tag scanning, writing, and in-place tag rewriting.

The tokenizer is lossless: every token records the byte span it came
from, with any preceding whitespace attached, so that concatenating the
spans reproduces the input exactly. The scanner executes a conservative
subset of PostScript (matrix ops, gsave/grestore, moveto, font selection,
show) over the token stream and reports every shown string with its
device position, rotation, and scale; everything it does not understand
is skipped rather than failed, because real-world prologs are large.
"""

from __future__ import annotations

import math
import re
import warnings
from typing import TYPE_CHECKING, Mapping

from .affine import Affine
from .records import record

if TYPE_CHECKING:
    from .scene import Scene, StrokeStyle


class TokenizeError(ValueError):
    exit_code = 1

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at byte offset {offset}")
        self.offset = offset


class ScanError(ValueError):
    exit_code = 1

    def __init__(self, message: str, span: tuple[int, int]):
        super().__init__(f"{message} at bytes {span[0]}..{span[1]}")
        self.span = span


class ScanWarning(UserWarning):
    """The scanner skipped a text operator it does not treat as a tag."""


class RewriteError(ValueError):
    """A tag scheduled for rewriting does not occur in the file."""
    exit_code = 2


# Token kinds
NUMBER = "number"
NAME = "name"
LITERAL_NAME = "literal_name"
STRING = "string"
ARRAY_DELIM = "array_delim"
PROC_DELIM = "proc_delim"
COMMENT = "comment"


# Mutable and slotted: an EPS file holds tens of thousands of tokens, and
# plain slot stores are the cheapest way to build one. A token's bytes are
# data[start:end]; tokenize extends the last token over trailing whitespace.
@record(frozen=False)
class PsToken:
    __slots__ = ("kind", "value", "start", "end", "lit_start")
    kind: str
    value: object  # float | str | bytes depending on kind
    start: int  # span start, including attached leading whitespace
    end: int
    lit_start: int  # strings only: offset of the opening parenthesis, else -1


_WS = b" \t\r\n\f\x00"
_REGULAR = rb"[^ \t\r\n\f\x00()<>\[\]{}/%]"  # not whitespace, not a delimiter

# One alternative per token kind, tried in order after the leading
# whitespace; `<<` is a name and a `<` with no closing `>` is an error.
_TOKEN = re.compile(
    rb"[ \t\r\n\f\x00]*(?:"
    rb"(?P<comment>%[^\r\n]*)"
    rb"|(?P<string>\()"
    rb"|(?P<number>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?(?!" + _REGULAR + rb"))"
    rb"|(?P<name><<|>>?|" + _REGULAR + rb"+)"
    rb"|(?P<hex><(?P<hex_body>[^>]*)>)"
    rb"|//?(?P<literal>" + _REGULAR + rb"*)"
    rb"|(?P<array>[\[\]])"
    rb"|(?P<open>\{)"
    rb"|(?P<close>\})"
    rb"|(?P<error>[)<])"
    rb")?")
_KINDS = {"number": NAME, "name": NAME, "literal": LITERAL_NAME, "comment": COMMENT,
          "array": ARRAY_DELIM, "open": PROC_DELIM, "close": PROC_DELIM}
_ERRORS = {b")": "unmatched ')'", b"<": "unterminated hex string"}

_STRING_ESCAPES = {
    ord("n"): b"\n", ord("r"): b"\r", ord("t"): b"\t",
    ord("b"): b"\b", ord("f"): b"\f",
    ord("("): b"(", ord(")"): b")", ord("\\"): b"\\",
}


_STRING_PLAIN = re.compile(rb"[^\\()]*")


def _scan_string(data: bytes, start: int) -> tuple[bytes, int]:
    """Decode a parenthesized string starting at data[start] == '('."""
    out = bytearray()
    depth = 1
    i = start + 1
    n = len(data)
    while i < n:
        plain_end = _STRING_PLAIN.match(data, i).end()
        if plain_end > i:
            out += data[i:plain_end]
            i = plain_end
            if i >= n:
                break
        ch = data[i]
        if ch == 0x5C:  # backslash
            if i + 1 >= n:
                raise TokenizeError("unterminated string", start)
            nxt = data[i + 1]
            if nxt in _STRING_ESCAPES:
                out += _STRING_ESCAPES[nxt]
                i += 2
            elif 0x30 <= nxt <= 0x37:  # up to three octal digits
                j = i + 1
                value = 0
                while j < n and j < i + 4 and 0x30 <= data[j] <= 0x37:
                    value = value * 8 + (data[j] - 0x30)
                    j += 1
                out.append(value & 0xFF)
                i = j
            elif nxt in (0x0A, 0x0D):  # line continuation
                i += 2
                if nxt == 0x0D and i < n and data[i] == 0x0A:
                    i += 1
            else:
                out.append(nxt)
                i += 2
        elif ch == 0x28:  # (
            depth += 1
            out.append(ch)
            i += 1
        else:  # ) — the plain run stops only at backslash and parens
            depth -= 1
            if depth == 0:
                return bytes(out), i + 1
            out.append(ch)
            i += 1
    raise TokenizeError("unterminated string", start)


def tokenize(data: bytes) -> list[PsToken]:
    """Lossless tokenization of an EPS byte stream.

    Whitespace runs attach to the following token; a trailing run attaches
    to the last token. An input with no tokens at all yields an empty
    list. Unterminated strings or procedures and stray closers raise
    TokenizeError with the offending byte offset.
    """
    tokens: list[PsToken] = []
    proc_opens: list[int] = []
    append = tokens.append
    match = _TOKEN.match
    i = 0
    n = len(data)
    while i < n:
        m = match(data, i)
        group = m.lastgroup
        if group is None:  # only whitespace is left
            if tokens:
                tokens[-1].end = n
            break
        text = m[group]
        pos = m.start(group)
        end = m.end()
        lit_start = -1
        if group == "number" and math.isfinite(value := float(text)):
            kind = NUMBER
        elif group == "string":
            kind, lit_start = STRING, pos
            value, end = _scan_string(data, pos)
        elif group == "hex":
            kind, lit_start = STRING, pos
            digits = m["hex_body"].translate(None, _WS)
            if len(digits) % 2:
                digits += b"0"
            try:
                value = bytes.fromhex(digits.decode("latin-1"))
            except ValueError:
                value = b""
        elif group == "error":
            raise TokenizeError(_ERRORS[text], pos)
        else:
            if group == "open":
                proc_opens.append(pos)
            elif group == "close":
                if not proc_opens:
                    raise TokenizeError("unmatched '}'", pos)
                proc_opens.pop()
            kind, value = _KINDS[group], text.decode("latin-1")
        append(PsToken(kind, value, i, end, lit_start))
        i = end
    if proc_opens:
        raise TokenizeError("unterminated procedure", proc_opens[0])
    return tokens


# ---------------------------------------------------------------------------
# Conservative interpreter

@record(frozen=False)
class GraphicsState:
    ctm: Affine = Affine()  # shared by every fresh state; an Affine is immutable
    current_point: tuple[float, float] | None = None  # user space
    font_size: float = 10.0


@record
class TagOccurrence:
    tag: str
    device_position: tuple[float, float]
    rotation: float  # degrees in (-180, 180]
    scale: float
    font_size: float
    byte_span: tuple[int, int]  # the (...) literal


_MARK = object()  # the stack entry `[` leaves
_PROC = object()  # a skipped procedure body


@record
class _Font:
    name: str
    size: float


@record
class _PsString:
    data: bytes
    span: tuple[int, int]


# Operators with no tracked semantics: name -> number of operands popped.
_ARITY = {
    "lineto": 2, "rlineto": 2, "curveto": 6, "rcurveto": 6,
    "arc": 5, "arcn": 5, "closepath": 0, "newpath": 0,
    "stroke": 0, "fill": 0, "eofill": 0, "clip": 0, "eoclip": 0,
    "setlinewidth": 1, "setgray": 1, "setrgbcolor": 3, "sethsbcolor": 3,
    "setdash": 2, "setlinecap": 1, "setlinejoin": 1, "setmiterlimit": 1,
    "showpage": 0, "pop": 1, "def": 2, "bind": 0, "exch": 0, "dup": 0,
}

_TEXT_VARIANTS = {"widthshow": 4, "awidthshow": 6, "ashow": 3, "kshow": 2, "xshow": 2,
                  "xyshow": 2, "glyphshow": 1, "cshow": 2}


class _Interpreter:
    def __init__(self):
        self.stack: list[object] = []
        self.state = GraphicsState()
        self.saved: list[GraphicsState] = []
        self.occurrences: list[TagOccurrence] = []

    def _pop(self, count: int, token: PsToken) -> list[object]:
        if len(self.stack) < count:
            raise ScanError(f"stack underflow on {token.value!r}",
                            (token.start, token.end))
        taken = self.stack[len(self.stack) - count:]
        del self.stack[len(self.stack) - count:]
        return taken

    def _pop_numbers(self, count: int, token: PsToken) -> list[float]:
        taken = self._pop(count, token)
        values = []
        for item in taken:
            if not isinstance(item, float):
                raise ScanError(f"non-numeric operand for {token.value!r}",
                                (token.start, token.end))
            values.append(item)
        return values

    def _update_ctm(self, m: Affine, token: PsToken) -> None:
        new = self.state.ctm @ m
        if abs(new.determinant()) < 1e-12:
            raise ScanError("transformation matrix became singular",
                            (token.start, token.end))
        self.state.ctm = new

    def run(self, tokens: list[PsToken]) -> None:
        i = 0
        n = len(tokens)
        while i < n:
            token = tokens[i]
            kind = token.kind
            if kind == COMMENT:
                pass
            elif kind == NUMBER:
                self.stack.append(token.value)
            elif kind == STRING:
                self.stack.append(_PsString(token.value, (token.lit_start, token.end)))
            elif kind == LITERAL_NAME:
                self.stack.append(token.value)
            elif kind == ARRAY_DELIM:
                if token.value == "[":
                    self.stack.append(_MARK)
                else:
                    items = []
                    while self.stack and self.stack[-1] is not _MARK:
                        items.append(self.stack.pop())
                    if self.stack:
                        self.stack.pop()
                    self.stack.append(list(reversed(items)))
            elif kind == PROC_DELIM:
                # Procedures are skipped, not executed.
                depth = 1
                i += 1
                while i < n and depth:
                    if tokens[i].kind == PROC_DELIM:
                        depth += 1 if tokens[i].value == "{" else -1
                    i += 1
                self.stack.append(_PROC)
                continue
            else:
                self._execute_name(token)
            i += 1

    def _execute_name(self, token: PsToken) -> None:
        name = token.value
        state = self.state
        if name == "translate":
            x, y = self._pop_numbers(2, token)
            self._update_ctm(Affine.translation(x, y), token)
        elif name == "scale":
            x, y = self._pop_numbers(2, token)
            self._update_ctm(Affine.scaling(x, y), token)
        elif name == "rotate":
            (deg,) = self._pop_numbers(1, token)
            self._update_ctm(Affine.rotation(deg), token)
        elif name == "concat":
            (arr,) = self._pop(1, token)
            if not (isinstance(arr, list) and len(arr) == 6
                    and all(isinstance(v, float) for v in arr)):
                raise ScanError("concat needs a six-number matrix",
                                (token.start, token.end))
            self._update_ctm(Affine(*arr), token)
        elif name == "gsave":
            self.saved.append(GraphicsState(state.ctm, state.current_point,
                                            state.font_size))
        elif name == "grestore":
            if not self.saved:
                raise ScanError("grestore with no saved state",
                                (token.start, token.end))
            self.state = self.saved.pop()
        elif name == "moveto":
            x, y = self._pop_numbers(2, token)
            state.current_point = (x, y)
        elif name == "rmoveto":
            dx, dy = self._pop_numbers(2, token)
            cx, cy = state.current_point or (0.0, 0.0)
            state.current_point = (cx + dx, cy + dy)
        elif name == "findfont":
            (font_name,) = self._pop(1, token)
            self.stack.append(_Font(str(font_name), 1.0))
        elif name == "scalefont":
            (size,) = self._pop(1, token)
            if not isinstance(size, float):
                raise ScanError("scalefont needs a numeric size",
                                (token.start, token.end))
            (base,) = self._pop(1, token)
            font = base if isinstance(base, _Font) else _Font("", 1.0)
            self.stack.append(_Font(font.name, font.size * size))
        elif name == "setfont":
            (font,) = self._pop(1, token)
            if isinstance(font, _Font):
                state.font_size = font.size
        elif name == "selectfont":
            (size,) = self._pop(1, token)
            self._pop(1, token)
            if isinstance(size, float):
                state.font_size = size
        elif name == "show":
            (operand,) = self._pop(1, token)
            if not isinstance(operand, _PsString):
                raise ScanError("show needs a string operand",
                                (token.start, token.end))
            self._record_show(operand)
        elif name in _TEXT_VARIANTS:
            warnings.warn(f"{name} is not treated as a tag occurrence",
                          ScanWarning, stacklevel=4)
            self._pop(_TEXT_VARIANTS[name], token)
        elif name in _ARITY:
            popped = self._pop(_ARITY[name], token)
            if name in ("lineto", "curveto"):
                tail = popped[-2:]
                if all(isinstance(v, float) for v in tail):
                    state.current_point = (tail[0], tail[1])
            elif name == "newpath":
                state.current_point = None
        # Unknown names pop nothing and never error.

    def _record_show(self, operand: _PsString) -> None:
        state = self.state
        cx, cy = state.current_point or (0.0, 0.0)
        self.occurrences.append(TagOccurrence(
            tag=operand.data.decode("latin-1"),
            device_position=state.ctm.apply(cx, cy),
            rotation=state.ctm.rotation_degrees(),
            scale=state.ctm.x_scale(),
            font_size=state.font_size,
            byte_span=operand.span,
        ))


def scan_tags(data: bytes) -> list[TagOccurrence]:
    """Find every shown string with its device position, rotation, scale.

    This sees exactly what a tag substitution pass would see: each `show`
    of a string literal, in byte order.
    """
    interp = _Interpreter()
    interp.run(tokenize(data))
    return interp.occurrences


# ---------------------------------------------------------------------------
# Writer

FONT_SIZE = 10.0
_MARGIN_FRACTION = 0.05
_ARROW_HEAD_LENGTH = 8.0  # points
_ARROW_HEAD_HALF_ANGLE = 25.0  # degrees


@record
class TextPlacement:
    """Exact device placement of one text primitive, for round-trips."""

    index: int  # position among the scene's text primitives
    text: str
    tagged: bool
    show_point: tuple[float, float]
    anchor_point: tuple[float, float]
    rotation: float
    font_size: float


def _fmt(v: float, places: int = 3) -> str:
    if v == 0:
        v = 0.0  # normalize -0
    s = f"{v:.{places}f}".rstrip("0").rstrip(".")
    return s if s not in ("", "-0") else "0"


def _escape_ps_string(text: str) -> str:
    # PostScript strings are 8-bit; characters outside latin-1 degrade to '?'
    if any(ord(ch) > 255 for ch in text):
        text = "".join(ch if ord(ch) <= 255 else "?" for ch in text)
    return (text.replace("\\", "\\\\").replace("(", "\\(").replace(")", "\\)"))


def _style_ops(style: StrokeStyle) -> str:
    parts = [f"{_fmt(style.width)} w"]
    if style.dash is not None:
        on, off = style.dash
        parts.append(f"[{_fmt(on)} {_fmt(off)}] 0 d")
    if style.gray is not None:
        parts.append(f"{_fmt(style.gray)} g")
    elif style.hue is not None:
        parts.append(f"{_fmt(style.hue)} 1 1 hsb")
    return " ".join(parts)


_PROLOG = (
    "%%BeginProlog\n"
    "/l {lineto} bind def\n"
    "/s {stroke} bind def\n"
    "/n {newpath} bind def\n"
    "/w {setlinewidth} bind def\n"
    "/g {setgray} bind def\n"
    "/hsb {sethsbcolor} bind def\n"
    "/d {setdash} bind def\n"
    "%%EndProlog\n"
)


def write_eps(scene: Scene,
              tag_text: Mapping[int, str] | None = None,
              ) -> tuple[bytes, list[TextPlacement]]:
    """Emit a deterministic EPSF-3.0 rendering of an expanded scene.

    `tag_text` maps text-primitive index (in primitive order) to the tag
    string to show; unmapped text primitives are drawn with their plain
    rendering. Text is set in Times-Roman so untagged output remains
    presentable. Returns the bytes plus the exact device placement of
    every text primitive.
    """
    from .exprkit import plain_text  # here, so that reading EPS loads no scene model
    from .fontmetrics import string_extents
    from .scene import Arrow, CircleArc, Polyline, TextPrimitive
    if not scene.decorations.is_empty():
        raise ValueError("scene decorations must be expanded before writing")
    tag_text = tag_text or {}
    (xmin, xmax), (ymin, ymax) = scene.plot_range
    width, height = scene.target_size
    for prim in scene.primitives:
        if isinstance(prim, TextPrimitive):
            values = (*prim.position, *prim.direction)
        elif isinstance(prim, Polyline):
            values = tuple(v for p in prim.points for v in p)
        elif isinstance(prim, CircleArc):
            values = (*prim.center, prim.radius, prim.start_deg, prim.end_deg)
        else:
            values = (*prim.start, *prim.end)
        if not all(math.isfinite(v) for v in values):
            raise ValueError("non-finite coordinate in scene")

    sx = width * (1 - 2 * _MARGIN_FRACTION) / (xmax - xmin)
    sy = height * (1 - 2 * _MARGIN_FRACTION) / (ymax - ymin)
    ox = _MARGIN_FRACTION * width - xmin * sx
    oy = _MARGIN_FRACTION * height - ymin * sy

    def dev(p: tuple[float, float]) -> tuple[float, float]:
        return (p[0] * sx + ox, p[1] * sy + oy)

    lines = [
        "%!PS-Adobe-3.0 EPSF-3.0",
        f"%%BoundingBox: 0 0 {math.ceil(width)} {math.ceil(height)}",
        "%%Creator: labelforge",
        "%%EndComments",
        _PROLOG.rstrip("\n"),
    ]
    placements: list[TextPlacement] = []
    text_index = 0

    for prim in scene.primitives:
        if isinstance(prim, Polyline):
            points = [dev(p) for p in prim.points]
            path = f"n {_fmt(points[0][0])} {_fmt(points[0][1])} moveto " + " ".join(
                f"{_fmt(x)} {_fmt(y)} l" for x, y in points[1:])
            lines.append(f"gsave {_style_ops(prim.style)} {path} s grestore")
        elif isinstance(prim, CircleArc):
            cx, cy = dev(prim.center)
            lines.append(
                f"gsave {_style_ops(prim.style)} {_fmt(cx)} {_fmt(cy)} translate "
                f"{_fmt(sx)} {_fmt(sy)} scale n 0 0 {_fmt(prim.radius)} "
                f"{_fmt(prim.start_deg)} {_fmt(prim.end_deg)} arc s grestore")
        elif isinstance(prim, Arrow):
            tail, tip = dev(prim.start), dev(prim.end)
            back = (tail[0] - tip[0], tail[1] - tip[1])
            length = math.hypot(*back)
            segments = f"n {_fmt(tail[0])} {_fmt(tail[1])} moveto {_fmt(tip[0])} {_fmt(tip[1])} l s"
            if length > 1e-12:
                ux, uy = back[0] / length, back[1] / length
                half = math.radians(_ARROW_HEAD_HALF_ANGLE)
                for sign in (1.0, -1.0):
                    cos_h, sin_h = math.cos(half * sign), math.sin(half * sign)
                    hx = tip[0] + _ARROW_HEAD_LENGTH * (ux * cos_h - uy * sin_h)
                    hy = tip[1] + _ARROW_HEAD_LENGTH * (ux * sin_h + uy * cos_h)
                    segments += f" n {_fmt(hx)} {_fmt(hy)} moveto {_fmt(tip[0])} {_fmt(tip[1])} l s"
            lines.append(f"gsave {_style_ops(prim.style)} {segments} grestore")
        elif isinstance(prim, TextPrimitive):
            shown = tag_text.get(text_index)
            tagged = shown is not None
            if shown is None:
                shown = plain_text(prim.expr)
            anchor_dev = dev(prim.position)
            dx, dy = prim.direction
            ddx, ddy = dx * sx, dy * sy
            rotation = math.degrees(math.atan2(ddy, ddx))
            if rotation <= -180.0:
                rotation += 360.0
            w, h, depth = string_extents(shown, FONT_SIZE)
            ax, ay = prim.anchor
            mx = -(ax + 1.0) / 2.0 * w
            my = depth - (ay + 1.0) / 2.0 * h
            lines.append(
                f"gsave /Times-Roman {_fmt(FONT_SIZE)} selectfont "
                f"{_fmt(anchor_dev[0])} {_fmt(anchor_dev[1])} translate "
                f"{_fmt(rotation)} rotate {_fmt(mx)} {_fmt(my)} moveto "
                f"({_escape_ps_string(shown)}) show grestore")
            offset = Affine.rotation(rotation).apply(mx, my)
            placements.append(TextPlacement(
                index=text_index,
                text=shown,
                tagged=tagged,
                show_point=(anchor_dev[0] + offset[0], anchor_dev[1] + offset[1]),
                anchor_point=anchor_dev,
                rotation=rotation,
                font_size=FONT_SIZE,
            ))
            text_index += 1
    lines.append("showpage")
    lines.append("%%EOF")
    return ("\n".join(lines) + "\n").encode("latin-1"), placements


def rewrite_tags(data: bytes, tag_map: Mapping[str, str]) -> bytes:
    """Replace shown string literals equal to old tags by their new tags.

    Only bytes inside matched string-literal spans change; whitespace,
    comments, and everything else is preserved. Raises RewriteError when
    an old tag never occurs. The data is scanned even for an empty map, so
    malformed PostScript is always rejected.
    """
    occurrences = scan_tags(data)
    edits: list[tuple[tuple[int, int], str]] = []
    found: set[str] = set()
    for occ in occurrences:
        if occ.tag in tag_map:
            found.add(occ.tag)
            edits.append((occ.byte_span, tag_map[occ.tag]))
    missing = sorted(set(tag_map) - found)
    if missing:
        raise RewriteError(f"tags not found in EPS: {', '.join(missing)}")
    return splice(data, [(span, b"(" + _escape_ps_string(new_tag).encode("latin-1") + b")")
                         for span, new_tag in edits])


def splice(data: bytes, edits: list[tuple[tuple[int, int], bytes]]) -> bytes:
    """Replace each (start, end) span of data by its bytes, in one pass.

    Spans must not overlap; they may come in any order.
    """
    parts = []
    pos = 0
    for (start, end), new in sorted(edits, key=lambda e: e[0]):
        parts += (data[pos:start], new)
        pos = end
    parts.append(data[pos:])
    return b"".join(parts)
