"""EPS tokenizing, tag scanning, writing, and in-place tag rewriting.

The tokenizer is lossless: every token records the byte span it came
from, with any preceding whitespace attached, so that concatenating the
spans reproduces the input exactly. The scanner executes a conservative
subset of PostScript (matrix ops, gsave/grestore, path operators, font
selection, show) over the token stream and reports every shown string
with its device position, rotation, and scale; anything it does not
understand is skipped rather than failed, as real-world prologs are large.
"""

from __future__ import annotations

import math
import re
import warnings
from itertools import islice

from .affine import Affine, angle_degrees
from .records import record

TYPE_CHECKING = False  # as `typing.TYPE_CHECKING`, without loading `typing` at run time
if TYPE_CHECKING:
    from collections.abc import Mapping

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
    """The scanner skipped a text operator, or found no current point where one is needed."""


class RewriteError(ValueError):
    """A tag scheduled for rewriting does not occur in the file."""
    exit_code = 2


# Token kinds
WORDS = "words"
NUMBER = "number"
NAME = "name"
LITERAL_NAME = "literal_name"
STRING = "string"
ARRAY_DELIM = "array_delim"
PROC_DELIM = "proc_delim"
COMMENT = "comment"

# A token is a plain tuple (kind, value, start, end, lit_start). value is a WORDS
# token's run of words (see word_tokens), the decoded bytes for STRING, else the
# text. data[start:end] are the token's bytes with the whitespace before it;
# tokenize extends the last token over trailing whitespace. lit_start is a
# string's opening `(` or `<`, else -1.

_WS = b" \t\r\n\f\x00"
_REGULAR = rb"[^ \t\r\n\f\x00()<>\[\]{}/%]"  # not whitespace, not a delimiter
_WORD = re.compile(_REGULAR + rb"+")
# A word is a number when it matches [+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)? and is finite,
# which is when float() reads it as finite once this table has made `_` (float() reads
# `1_0`) and VT (float() skips it) unreadable and NUL (bytes.split() keeps it) a space.
_UNREADABLE = bytes.maketrans(b"_\x0b\x00", b"## ")

# One alternative per token kind, tried in order after the leading
# whitespace; `<<` is a name, `<~` opens an ASCII85 string, whose digits include `>`,
# and a `<` with no closing `>` is an error. A run of words is one repeat of a byte
# class: `re` keeps state per repeat of a group.
_TOKEN = re.compile(
    rb"[ \t\r\n\f\x00]*(?:"
    rb"(?P<comment>%[^\r\n]*)"
    rb"|(?P<string>\()"
    rb"|(?P<words>" + _REGULAR + rb"(?:[^()<>\[\]{}/%]*" + _REGULAR + rb")?)"
    rb"|(?P<name><<|>>?)"
    rb"|(?P<a85><~(?P<a85_body>[^~]*)(?P<a85_end>~>)?)"
    rb"|(?P<hex><(?P<hex_body>[^>]*)>)"
    rb"|//?(?P<literal>" + _REGULAR + rb"*)"
    rb"|(?P<array>[\[\]])"
    rb"|(?P<open>\{)"
    rb"|(?P<close>\})"
    rb"|(?P<error>[)<])"
    rb")?")
_KINDS = {"name": NAME, "literal": LITERAL_NAME, "comment": COMMENT,
          "array": ARRAY_DELIM, "open": PROC_DELIM, "close": PROC_DELIM}
_ERRORS = {b")": "unmatched ')'", b"<": "unterminated hex string"}

# What each escape other than an octal one stands for, where that is not its own byte: a
# backslash before CR, LF or CRLF continues the line and stands for nothing.
_STRING_ESCAPES = {b"n": b"\n", b"r": b"\r", b"t": b"\t", b"b": b"\b", b"f": b"\f",
                   b"\r": b"", b"\n": b"", b"\r\n": b""}
_STRING_END = re.compile(rb"\\[\s\S]|[()]")  # an escaped byte is neither paren
_STRING_ESCAPE = re.compile(rb"\\(?:([0-7]{1,3})|(\r\n|[\s\S]))")


def _unescape(m: re.Match) -> bytes:
    return bytes([int(m[1], 8) & 0xFF]) if m[1] else _STRING_ESCAPES.get(m[2], m[2])


def _scan_string(data: bytes, start: int) -> tuple[bytes, int]:
    """Decode the `(` string literal at data[start]: its body, and the end of its `)`."""
    depth = 0
    for m in _STRING_END.finditer(data, start):
        if m[0] == b"(":
            depth += 1
        elif m[0] == b")":
            depth -= 1
            if not depth:
                body = data[start + 1:m.start()]
                return _STRING_ESCAPE.sub(_unescape, body) if b"\\" in body else body, m.end()
    raise TokenizeError("unterminated string", start)


def tokenize(data: bytes) -> list[tuple]:
    """Lossless tokenization of an EPS byte stream into token tuples.

    Whitespace runs attach to the following token; a trailing run attaches
    to the last token. An input with no tokens at all yields an empty
    list. Unterminated strings or procedures, invalid hex or ASCII85 strings
    and stray closers raise TokenizeError with the offending byte offset.
    """
    tokens: list[tuple] = []
    proc_opens: list[int] = []
    append = tokens.append
    i = 0
    # _TOKEN matches at every offset, so one finditer run yields the tokens back to back until
    # a `(` string, whose end _scan_string finds; a one-byte group starts at m.end() - 1.
    while True:
        for m in _TOKEN.finditer(data, i):
            group = m.lastgroup
            end = m.end()
            lit_start = -1
            if group == "words":
                kind, value = WORDS, m[group]
            elif group is None:  # only whitespace is left: the input's end
                if proc_opens:
                    raise TokenizeError("unterminated procedure", proc_opens[0])
                if tokens:
                    kind, value, start, _end, lit_start = tokens[-1]
                    tokens[-1] = (kind, value, start, end, lit_start)
                return tokens
            elif group == "string":
                value, i = _scan_string(data, end - 1)
                append((STRING, value, m.start(), i, end - 1))
                break
            elif group == "hex":
                kind, lit_start = STRING, m.start(group)
                digits = m["hex_body"].translate(None, _WS)
                if digits.translate(None, b"0123456789ABCDEFabcdef"):
                    raise TokenizeError("invalid hex string", lit_start)
                value = bytes.fromhex((digits + b"0" * (len(digits) % 2)).decode("latin-1"))
            elif group == "a85":
                from base64 import a85decode  # here, so that only an input holding `<~` loads it
                kind, lit_start = STRING, m.start(group)
                digits = m["a85_body"].translate(None, _WS)
                try:  # a85decode accepts a last group of one digit, which PLRM rejects
                    if not m["a85_end"] or len(digits.replace(b"z", b"")) % 5 == 1:
                        raise ValueError
                    value = a85decode(digits)
                except ValueError:
                    raise TokenizeError("invalid ASCII85 string", lit_start) from None
            elif group == "error":
                raise TokenizeError(_ERRORS[m[group]], end - 1)
            else:
                if group == "open":
                    proc_opens.append(end - 1)
                elif group == "close":
                    if not proc_opens:
                        raise TokenizeError("unmatched '}'", end - 1)
                    proc_opens.pop()
                kind, value = _KINDS[group], m[group].decode("latin-1")
            append((kind, value, i, end, lit_start))
            i = end


def _number(word: bytes) -> float | None:
    """The word's value if it is a number, else None; the word has been through _UNREADABLE."""
    if word[0] in b"+-.0123456789":  # no other byte starts a finite number, and raising is slow
        try:
            number = float(word)
        except ValueError:
            return None
        if math.isfinite(number):
            return number
    return None


def word_tokens(data: bytes, token: tuple) -> list[tuple]:
    """A WORDS token as one token per word: a NUMBER if _number reads the word, else a
    NAME. Each holds the whitespace before it, the last also the token's after."""
    _kind, _run, start, end, _lit = token
    words = []
    for m in _WORD.finditer(data, start, end):
        number = _number(m[0].translate(_UNREADABLE))
        words.append((NAME, m[0].decode("latin-1"), start, m.end(), -1) if number is None
                     else (NUMBER, number, start, m.end(), -1))
        start = m.end()
    words[-1] = (*words[-1][:3], end, -1)
    return words


# ---------------------------------------------------------------------------
# Conservative interpreter

@record
class TagOccurrence:
    tag: str
    device_position: tuple[float, float]
    rotation: float  # degrees in (-180, 180]
    scale: float
    font_size: float
    byte_span: tuple[int, int]  # the (...) literal


class Scan(list):
    """A scan's TagOccurrences in byte order. `showpage` is the start of the last `showpage`
    run at top level, not in a string, a comment or a skipped procedure, or None; `trailer`
    the start of the last top-level line that begins `%%Trailer`, else `%%EOF`, or None."""
    showpage: int | None = None
    trailer: int | None = None


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


class _Interpreter:
    """Runs a token list. Each operator the scanner models has a method named after it,
    which takes the operands `run` has popped for it; the operators of one family, alike
    but for their operand count, share a method."""

    def __init__(self, data: bytes):
        self.data = data  # the tokens' source, read only to name an error's bytes
        self.stack: list[object] = []
        # The graphics state: the current matrix, point (device space) and font size.
        self.ctm, self.point, self.font_size = Affine(), None, 10.0
        self.saved: list[tuple[Affine, tuple[float, float] | None, float]] = []
        self.occurrences = Scan()

    def _span(self, word: tuple) -> tuple[int, int]:
        """The word's own bytes, without the whitespace its token holds."""
        _name, (_kind, _run, start, end, _lit), index = word
        return next(islice(_WORD.finditer(self.data, start, end), index, None)).span()

    def _error(self, message: str, word: tuple) -> ScanError:
        return ScanError(message, self._span(word))

    def run(self, tokens: list[tuple]) -> None:
        stack, data, dsc = self.stack, self.data, {}  # dsc: is it %%EOF -> where its line starts
        push = stack.append
        ops, number_of = _OPS, _number
        remaining = iter(tokens)
        for token in remaining:
            kind, value, start, end, lit_start = token
            if kind == WORDS:
                for index, word in enumerate(value.translate(_UNREADABLE).split()):
                    if (number := number_of(word)) is not None:
                        push(number)
                        continue
                    op = ops.get(word)  # no operator's name holds `_` or VT
                    if op is None:  # any other name pops nothing
                        continue
                    count, numeric, handler = op
                    at = (word.decode("latin-1"), token, index)
                    if len(stack) < count:
                        raise self._error(f"stack underflow on {at[0]!r}", at)
                    operands = stack[len(stack) - count:]
                    del stack[len(stack) - count:]
                    if numeric:
                        for item in operands:
                            if not isinstance(item, float):
                                raise self._error(f"non-numeric operand for {at[0]!r}", at)
                    handler(self, at, *operands)
            elif kind == LITERAL_NAME:
                push(value)
            elif kind == STRING:
                push(_PsString(value, (lit_start, end)))
            elif kind == ARRAY_DELIM:
                if value == "[":
                    push(_MARK)
                else:
                    items = []
                    while stack and stack[-1] is not _MARK:
                        items.append(stack.pop())
                    if stack:
                        stack.pop()
                    push(items[::-1])
            elif kind == PROC_DELIM:  # always a `{`: procedures are skipped, not executed
                depth = 1
                for inner in remaining:
                    if inner[0] == PROC_DELIM:
                        depth += 1 if inner[1] == "{" else -1
                        if not depth:
                            break
                push(_PROC)
            elif kind == COMMENT and value.startswith(("%%Trailer", "%%EOF")):
                if not (at := data.index(b"%", start)) or data[at - 1] in b"\r\n":  # TN 5001
                    dsc[value.startswith("%%EOF")] = at
        self.occurrences.trailer = dsc.get(False, dsc.get(True))

    # Any matrix is accepted, a singular one too: only inverting the CTM could fail.
    def translate(self, word: tuple, tx: float, ty: float) -> None:
        self.ctm = self.ctm @ Affine.translation(tx, ty)

    def scale(self, word: tuple, sx: float, sy: float) -> None:
        self.ctm = self.ctm @ Affine.scaling(sx, sy)

    def rotate(self, word: tuple, angle: float) -> None:
        self.ctm = self.ctm @ Affine.rotation(angle)

    def concat(self, word: tuple, arr: object) -> None:
        if not (isinstance(arr, list) and len(arr) == 6
                and all(isinstance(v, float) for v in arr)):
            raise self._error("concat needs a six-number matrix", word)
        self.ctm = self.ctm @ Affine(*arr)

    def gsave(self, word: tuple) -> None:
        self.saved.append((self.ctm, self.point, self.font_size))

    def grestore(self, word: tuple) -> None:
        if not self.saved:
            raise self._error("grestore with no saved state", word)
        self.ctm, self.point, self.font_size = self.saved.pop()

    def newpath(self, word: tuple) -> None:
        self.point = None

    def _path_to(self, word: tuple, *operands: object) -> None:
        """moveto, lineto, curveto: the point becomes the CTM's image of the last pair."""
        x, y = operands[-2:]
        if isinstance(x, float) and isinstance(y, float):
            self.point = self.ctm.apply(x, y)

    def _path_by(self, word: tuple, *operands: object) -> None:
        """rmoveto, rlineto, rcurveto: the point, else the user-space origin, moves by the
        image of the last pair under the CTM's linear part."""
        dx, dy = operands[-2:]
        if isinstance(dx, float) and isinstance(dy, float):
            m = self.ctm
            x, y = self._current_point(word)
            self.point = (x + m.a * dx + m.c * dy, y + m.b * dx + m.d * dy)

    def _current_point(self, word: tuple) -> tuple[float, float]:
        """The current point; with none, where PostScript raises `nocurrentpoint`, a
        ScanWarning and the CTM's image of the user-space origin."""
        if self.point is None:
            start, end = self._span(word)  # stacklevel 5: as in `_text_variant`, one deeper
            warnings.warn(f"{word[0]} at bytes {start}..{end} has no current point: the "
                          "user-space origin is taken", ScanWarning, stacklevel=5)
        return self.point or (self.ctm.tx, self.ctm.ty)

    def _drop(self, word: tuple, *operands: object) -> None:
        """The operands are dropped, the effect is not modelled."""

    def findfont(self, word: tuple, font_name: object) -> None:
        self.stack.append(_Font(str(font_name), 1.0))

    def scalefont(self, word: tuple, base: object, size: object) -> None:
        if not isinstance(size, float):
            raise self._error("scalefont needs a numeric size", word)
        font = base if isinstance(base, _Font) else _Font("", 1.0)
        self.stack.append(_Font(font.name, font.size * size))

    def setfont(self, word: tuple, font: object) -> None:
        if isinstance(font, _Font):
            self.font_size = font.size

    def selectfont(self, word: tuple, _font_name: object, size: object) -> None:
        if isinstance(size, float):
            self.font_size = size

    def _text_variant(self, word: tuple, *operands: object) -> None:
        # stacklevel 4: this method, run, scan_tags, then scan_tags' caller
        warnings.warn(f"{word[0]} is not treated as a tag occurrence",
                      ScanWarning, stacklevel=4)

    def showpage(self, word: tuple) -> None:
        self.occurrences.showpage = self._span(word)[0]

    def show(self, word: tuple, operand: object) -> None:
        if not isinstance(operand, _PsString):
            raise self._error("show needs a string operand", word)
        x, y = self._current_point(word)
        rotation, scale = self.ctm.rotation_degrees(), self.ctm.x_scale()
        if not all(map(math.isfinite, (x, y, rotation, scale, self.font_size))):
            raise self._error("show places its text at a non-finite position, rotation, "
                              "scale or size", word)
        self.occurrences.append(TagOccurrence(
            tag=operand.data.decode("latin-1"),
            device_position=(x, y),
            rotation=rotation,
            scale=scale,
            font_size=self.font_size,
            byte_span=operand.span,
        ))


# The operators the scanner models: name's bytes -> (count, numeric, handler). `run` pops
# the count of operands, each a float if numeric, and calls handler(interpreter, (name, WORDS
# token, the name's index in it), *operands). Any other name, even `stroke` or `bind`, pops
# nothing.
_OPS = {name.encode(): (count, numeric, getattr(_Interpreter, method or name))
        for method, numeric, counts in [
            (None, True, {"translate": 2, "scale": 2, "rotate": 1}),
            (None, False, {"concat": 1, "gsave": 0, "grestore": 0, "newpath": 0, "selectfont": 2,
                           "findfont": 1, "scalefont": 2, "setfont": 1, "show": 1, "showpage": 0}),
            ("_path_to", True, {"moveto": 2}), ("_path_by", True, {"rmoveto": 2}),
            ("_path_to", False, {"lineto": 2, "curveto": 6}),
            ("_path_by", False, {"rlineto": 2, "rcurveto": 6}),
            ("_text_variant", False, {"widthshow": 4, "awidthshow": 6, "ashow": 3, "kshow": 2,
                                      "xshow": 2, "xyshow": 2, "glyphshow": 1, "cshow": 2}),
            ("_drop", False, {
                "arc": 5, "arcn": 5, "setlinewidth": 1, "setgray": 1, "setrgbcolor": 3,
                "sethsbcolor": 3, "setdash": 2, "setlinecap": 1, "setlinejoin": 1,
                "setmiterlimit": 1, "pop": 1, "def": 2})]
        for name, count in counts.items()}


def scan_tags(data: bytes) -> Scan:
    """Find every shown string with its device position, rotation, scale.

    This sees exactly what a tag substitution pass would see: each `show`
    of a string literal, in byte order, and the `showpage` that shows the page.
    """
    interp = _Interpreter(data)
    interp.run(tokenize(data))
    return interp.occurrences


# ---------------------------------------------------------------------------
# Writer

FONT_SIZE = 10.0
_ARROW_HEAD_LENGTH = 8.0  # points
_ARROW_HEAD_HALF_ANGLE = 25.0  # degrees


def _fmt(v: float, spec: str = ".3f") -> str:
    s = f"{v:{spec}}".rstrip("0").rstrip(".")  # to the places of `spec`, no trailing zeros
    return s if s != "-0" else "0"  # -0.0 and any tiny negative print as 0


def _escape_ps_string(text: str) -> str:
    return text.replace("\\", "\\\\").replace("(", "\\(").replace(")", "\\)")


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
              ) -> bytes:
    """Emit a deterministic EPSF-3.0 rendering of an expanded scene.

    `tag_text` maps text-primitive index (in primitive order) to the tag
    string to show; unmapped text primitives are drawn with their plain
    rendering. Text is set in Times-Roman so untagged output remains
    presentable.
    """
    from .exprkit import plain_text  # here, so that reading EPS loads no scene model
    from .fontmetrics import string_extents
    from .scene import PLOT_MARGIN_FRACTION as margin, Arrow, CircleArc, Polyline, SceneFormatError
    if not scene.decorations.is_empty():
        raise ValueError("scene decorations must be expanded before writing")
    tag_text = tag_text or {}
    (xmin, xmax), (ymin, ymax) = scene.plot_range
    width, height = scene.target_size

    sx = width * (1 - 2 * margin) / (xmax - xmin)
    sy = height * (1 - 2 * margin) / (ymax - ymin)
    ox = margin * width - xmin * sx
    oy = margin * height - ymin * sy

    def dev(p: tuple[float, float]) -> tuple[float, float]:
        return (p[0] * sx + ox, p[1] * sy + oy)

    lines = [
        "%!PS-Adobe-3.0 EPSF-3.0",
        f"%%BoundingBox: 0 0 {math.ceil(width)} {math.ceil(height)}",
        "%%Creator: labelforge",
        "%%EndComments",
        _PROLOG.rstrip("\n"),
    ]
    text_index = 0
    select_font = f"gsave /Times-Roman {_fmt(FONT_SIZE)} selectfont "

    for prim in scene.primitives:
        if isinstance(prim, Polyline):
            points = [dev(p) for p in prim.points]
            path = f"n {_fmt(points[0][0])} {_fmt(points[0][1])} moveto " + " ".join(
                f"{_fmt(x)} {_fmt(y)} l" for x, y in points[1:])
            line = f"gsave {_style_ops(prim.style)} {path} s grestore"
        elif isinstance(prim, CircleArc):
            cx, cy = dev(prim.center)
            line = (f"gsave {_style_ops(prim.style)} {_fmt(cx)} {_fmt(cy)} translate "
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
            line = f"gsave {_style_ops(prim.style)} {segments} grestore"
        else:  # a TextPrimitive, the last kind of scene.Primitive
            shown = tag_text.get(text_index)
            if shown is None:
                shown = plain_text(prim.expr)
            anchor_dev = dev(prim.position)
            rotation = angle_degrees(prim.direction[0] * sx, prim.direction[1] * sy)
            w, h, depth = string_extents(shown, FONT_SIZE)
            ax, ay = prim.anchor
            mx = -(ax + 1.0) / 2.0 * w
            my = depth - (ay + 1.0) / 2.0 * h
            line = (f"{select_font}{_fmt(anchor_dev[0])} {_fmt(anchor_dev[1])} translate "
                    f"{_fmt(rotation)} rotate {_fmt(mx)} {_fmt(my)} moveto "
                    f"({_escape_ps_string(shown)}) show grestore")
            text_index += 1
        # _fmt writes a non-finite number (all are if sx, sy, ox or oy is) as nan, inf or -inf,
        # words no operator contains; only a shown string, after the line's `(`, may hold them.
        if "nan" in (ops := line.partition("(")[0]) or "inf" in ops:
            raise SceneFormatError("device coordinates must be finite: the target size is too "
                                   "large for the plot range or a point lies too far outside it")
        lines.append(line)
    lines += ("showpage", "%%EOF")
    # PostScript strings are 8-bit: a shown character outside Latin-1 is written as `?`.
    return ("\n".join(lines) + "\n").encode("latin-1", "replace")


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
    return splice(data, [(span, f"({_escape_ps_string(new_tag)})".encode("latin-1", "replace"))
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
