"""Tag derivation, psfrag entry construction, and the export pipeline.

Tags are alphanumeric placeholder strings shown inside the EPS; each one
is keyed to a `\\psfrag` replacement macro emitted into a companion .tex
file. This module owns tag uniqueness, the compact base-52 renumbering,
the anchor-to-alignment mapping, and the top-level export orchestration.
"""

from __future__ import annotations

import math
import re
import sys
import warnings

from . import deferred, epsio
from .directives import POS_CODES, LabelDirective, PosCode, is_valid_tag
# Unused here: perfbench/spans.py SITES, their only reader, wraps them in this module.
from .fileio import atomic_write_bytes, atomic_write_text
from .records import record, replace

TYPE_CHECKING = False  # as `typing.TYPE_CHECKING`, without loading `typing` at run time
if TYPE_CHECKING:
    from .exprkit import HookSet
    from .scene import ExportOptions, Scene

# Export-side names, read as attributes of `_this` so that `__getattr__` imports each on
# its first read: reading \psfrag files loads neither exprkit nor scene.
__getattr__ = deferred(__name__, {"print_source", "guess_tex", "EMPTY_HOOKS",
                                  "expand_decorations", "auto_wrap", "ExportOptions"})
_this = sys.modules[__name__]


class DuplicateTagError(ValueError):
    """Two labels requested the same explicit psfrag tag."""
    exit_code = 2


class PsfragSyntaxError(ValueError):
    """A \\psfrag entry is invalid; the message names its line or its label."""
    exit_code = 1


FALLBACK_POSITION = POS_CODES["bc"]


@record
class PsfragEntry:
    tag: str
    posn: PosCode
    psposn: PosCode
    scale: float = 1.0
    rot: float = 0.0
    body: str = ""

    def __post_init__(self):
        if not is_valid_tag(self.tag):
            raise ValueError(f"psfrag tag must be nonempty alphanumeric: {self.tag!r}")
        if not 0 < self.scale < math.inf:
            raise ValueError(f"psfrag scale must be positive and finite: {self.scale!r}")
        if not math.isfinite(self.rot):
            raise ValueError(f"psfrag rotation must be finite: {self.rot!r}")
        if _group_end(f"{{{self.body}}}", 0) != len(self.body) + 1:
            raise ValueError(f"psfrag body is not a balanced TeX group on one line: {self.body!r}")
        if re.search("[\ud800-\udfff]", self.body):  # the code points UTF-8 cannot encode
            raise ValueError(f"psfrag body holds a character UTF-8 cannot encode: {self.body!r}")


class TagRegistry:
    """Ordered tag -> entry map; insertion order is primitive order."""

    def __init__(self):
        self._entries: dict[str, PsfragEntry] = {}
        self._origins: dict[str, str] = {}

    def add(self, entry: PsfragEntry, origin: str = "") -> None:
        if entry.tag in self._entries:
            raise DuplicateTagError(
                f"psfrag tag {entry.tag!r} assigned to both "
                f"{self._origins[entry.tag] or 'an earlier label'} and {origin or 'a later label'}")
        self._entries[entry.tag] = entry
        self._origins[entry.tag] = origin

    def __contains__(self, tag: str) -> bool:
        return tag in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, tag: str) -> PsfragEntry | None:
        return self._entries.get(tag)

    def tags(self) -> list[str]:
        return list(self._entries)

    def entries(self) -> list[PsfragEntry]:
        return list(self._entries.values())

    def origin(self, tag: str) -> str:
        return self._origins.get(tag, "")


def derive_tag(expr, registry: TagRegistry) -> str:
    """Alphanumeric tag from the canonical source form of the expression.

    Collisions get the smallest decimal suffix >= 2 that is free.
    """
    return _free_tag(_this.print_source(expr), registry)


def _free_tag(source: str, registry: TagRegistry) -> str:
    base = re.sub(r"[^A-Za-z0-9]", "", source) or "tag"
    if base not in registry:
        return base
    n = 2
    while f"{base}{n}" in registry:
        n += 1
    return f"{base}{n}"


_ALPHABET = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


def shortlex_tag(index: int) -> str:
    """The index-th string (0-based) over a..z then A..Z, ordered shortlex.

    Bijective base 52: "a".."Z" for 0..51, then "aa", "ab", ...
    """
    if index < 0:
        raise ValueError("index must be nonnegative")
    n = index + 1
    chars = []
    while n > 0:
        n -= 1
        chars.append(_ALPHABET[n % 52])
        n //= 52
    return "".join(reversed(chars))


def renumber(registry: TagRegistry) -> dict[str, str]:
    """Map every tag, in registry order, to its compact shortlex form."""
    return {tag: shortlex_tag(i) for i, tag in enumerate(registry.tags())}


def pos_from_anchor(anchor: tuple[float, float]) -> PosCode:
    """Map a text anchor to the matching alignment code.

    Baseline alignment is never produced automatically; it is reachable
    only through explicit directives.
    """
    ax, ay = anchor
    horizontal = "l" if ax < -0.5 else ("r" if ax > 0.5 else "c")
    vertical = "t" if ay > 0.5 else ("b" if ay < -0.5 else "c")
    return POS_CODES[vertical + horizontal]


def resolve_alignment(directive: LabelDirective,
                      anchor: tuple[float, float] | None,
                      auto_position: bool) -> tuple[PosCode, PosCode]:
    if directive.position is not None:
        posn = directive.position
    elif auto_position and anchor is not None:
        posn = pos_from_anchor(anchor)
    else:
        posn = FALLBACK_POSITION
    psposn = directive.ps_position if directive.ps_position is not None else posn
    return posn, psposn


def build_entry(directive: LabelDirective,
                anchor: tuple[float, float] | None,
                hooks: HookSet,
                opts: ExportOptions,
                registry: TagRegistry) -> PsfragEntry:
    """Construct one entry and record it in the registry.

    Numeric scaling goes into the psfrag scale slot; automatic scaling is
    realized through the LaTeX scale hooks inside the body instead, since
    LaTeX-side scaling survives font substitution better.
    """
    source = _this.print_source(directive.expr)
    tag = directive.psfrag_tag or _free_tag(source, registry)
    if directive.tex_command is not None:
        body = directive.tex_command
    else:
        body = _this.guess_tex(directive.expr, hooks,
                               include_scale_hook=directive.scaling is None)
    posn, psposn = resolve_alignment(directive, anchor, opts.auto_position)
    scale = directive.scaling if directive.scaling is not None else 1.0
    origin = f"label {source!r}"
    try:
        entry = PsfragEntry(tag=tag, posn=posn, psposn=psposn, scale=scale,
                            rot=directive.rotation, body=body)
    except ValueError as exc:
        raise PsfragSyntaxError(f"{origin}: {exc}") from None
    registry.add(entry, origin=origin)
    return entry


def _fmt_num(v: float) -> str:
    """The shortest positional decimal that reads back as `v`, the one number form TeX
    reads: `repr`'s digits with the exponent worked in, and no `.0` (5e-05 is `0.00005`)."""
    if v % 1 == 0 and -2**53 < v < 2**53:  # an integer a float holds exactly: no point
        return str(int(v))
    from decimal import Decimal  # here: preview and renumber load this module, print no slot
    return format(Decimal(repr(float(v))).normalize(), "f")


_TEX_HEADER = (
    "% labelforge psfrag macros -- \\input this file inside a psfrags"
    " environment, before \\includegraphics\n"
)

_PROVIDES = (
    "\\providecommand{\\psfragtextstyle}[1]{#1}\n"
    "\\providecommand{\\psfragmathstyle}[1]{#1}\n"
    "\\providecommand{\\psfragnumericstyle}[1]{#1}\n"
    "\\providecommand{\\psfragscaletext}{}\n"
    "\\providecommand{\\psfragscalemath}{}\n"
    "\\providecommand{\\psfragscalenumeric}{}\n"
)


def format_psfrag_line(entry: PsfragEntry) -> str:
    return (f"\\psfrag{{{entry.tag}}}[{entry.posn}][{entry.psposn}]"
            f"[{_fmt_num(entry.scale)}][{_fmt_num(entry.rot)}]{{{entry.body}}}")


def emit_tex(registry: TagRegistry) -> str:
    """Serialize the registry: header, hook defaults, one line per entry.

    \\providecommand keeps the defaults overridable: user \\newcommand
    bindings made before the \\input win. All four optional arguments are
    always written so output is byte-deterministic.
    """
    lines = [_TEX_HEADER, _PROVIDES]
    for entry in registry.entries():
        lines.append(format_psfrag_line(entry) + "\n")
    return "".join(lines)


_LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"  # where str.splitlines breaks
# As TeX reads a line: `\` and the next character are one token, braces group, and an
# unescaped `%` ends the line. A match is a run of other tokens, then one character or "".
_TEX_RUN = re.compile(rf"(?:[^{{}}%\\{_LINE_BREAKS}]+|\\[^{_LINE_BREAKS}])*(.?)", re.S)


def _group_end(text: str, i: int) -> int:
    """Index of the brace closing the TeX group that opens at `text[i] == "{"`, or -1 when
    the line ends first: at the end of `text`, a line break or an unescaped `%`."""
    depth = 0
    for m in _TEX_RUN.finditer(text, i):
        if m[1] == "{":
            depth += 1
        elif m[1] != "}":
            break
        elif depth == 1:
            return m.start(1)
        else:
            depth -= 1
    return -1


def is_psfrag_line(line: str) -> bool:
    """Whether `line` is a `\\psfrag` entry: it starts with `\\psfrag{` after whitespace and
    after the byte order mark U+FEFF that opens a file saved with one."""
    return line.removeprefix("\ufeff").lstrip().startswith("\\psfrag{")


def parse_psfrag_line(line: str) -> PsfragEntry | None:
    """Parse one `\\psfrag{tag}[posn][psposn][scale][rot]{body}` line.

    None if `is_psfrag_line` rejects the line; else an entry or a ValueError.
    """
    if not is_psfrag_line(line):
        return None
    stripped = line.removeprefix("\ufeff").strip()
    i = len("\\psfrag{")
    close = stripped.find("}", i)
    if close < 0:
        raise ValueError("psfrag tag has no closing brace")
    tag = stripped[i:close]
    i = close + 1
    options: list[str] = []
    while stripped.startswith("[", i):
        if len(options) == 4:
            raise ValueError("psfrag takes at most four optional arguments")
        end = stripped.find("]", i)
        if end < 0:
            raise ValueError("psfrag optional argument has no closing bracket")
        options.append(stripped[i + 1:end])
        i = end + 1
    if not stripped.startswith("{", i):
        if stripped[i:].lstrip()[:1] in ("", "%"):
            raise ValueError("psfrag entry must be on one line")
        raise ValueError(f"psfrag replacement must start with '{{': {stripped[i:]!r}")
    # The group runs to the last `}` before the comment, which an unescaped `%` starts (one
    # after an odd run of `\` is escaped); PsfragEntry checks that it is one TeX group.
    end = stripped.find("%", i)
    while end >= 0 and (end - len(stripped[:end].rstrip("\\"))) % 2:
        end = stripped.find("%", end + 1)
    group = (stripped[i:end] if end >= 0 else stripped[i:]).rstrip()
    try:
        if not group.endswith("}"):
            raise ValueError("psfrag replacement text must end its line")  # worded below
        posn, psposn, scale, rot = options + [""] * (4 - len(options))
        posn = PosCode.parse(posn) if posn else FALLBACK_POSITION
        psposn = PosCode.parse(psposn) if psposn else posn
        return PsfragEntry(tag=tag, posn=posn, psposn=psposn, scale=_read_num(scale, 1.0),
                           rot=_read_num(rot, 0.0), body=group[1:-1])
    except ValueError:  # a line whose group does not close as the line ends names that first
        body_end = _group_end(stripped, i)
        if body_end < 0:
            raise ValueError("psfrag replacement text has no closing brace") from None
        rest = stripped[body_end + 1:].lstrip()
        if rest and not rest.startswith("%"):
            raise ValueError(f"unexpected text after psfrag replacement: {rest!r}") from None
        raise


def _read_num(slot: str, default: float) -> float:
    """A scale or rotation slot: `default` when empty, else a decimal as TeX reads one."""
    if not slot:
        return default
    number = slot.strip(" ")  # then a sign, and digits with at most one point among them
    digits = (number[1:] if number[:1] in ("+", "-") else number).replace(".", "", 1)
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"psfrag scale and rotation must be decimals like -1.5: {slot!r}")
    return float(slot)


def parse_psfrag_document(text: str) -> TagRegistry:
    """Collect all psfrag lines of a .tex file into a registry.

    A line that starts like a psfrag entry but does not parse raises
    PsfragSyntaxError naming the line.
    """
    registry = TagRegistry()
    for lineno, line in enumerate(text.splitlines(), start=1):
        try:
            entry = parse_psfrag_line(line)
        except ValueError as exc:
            raise PsfragSyntaxError(f"line {lineno}: {exc}") from None
        if entry is not None:
            registry.add(entry, origin=f"line {lineno}")
    return registry


def retag_psfrag_text(text: str, tag_map: dict[str, str]) -> str:
    """`text` with each `\\psfrag` entry's tag replaced by `tag_map[tag]`; all else kept."""
    lines = text.splitlines(keepends=True)
    for n, line in enumerate(lines):
        if is_psfrag_line(line):
            head, _, tail = line.partition("{")
            tag, _, rest = tail.partition("}")
            lines[n] = f"{head}{{{tag_map[tag]}}}{rest}"
    return "".join(lines)


@record
class ExportResult:
    eps: bytes
    tex: str
    registry: TagRegistry
    labels: int  # text primitives shown, tagged or not


def psfrag_export(scene: Scene,
                  opts: ExportOptions | None = None,
                  hooks: HookSet | None = None,
                  ) -> ExportResult:
    """Export a scene to the bytes of a tagged EPS and the text of its `\\psfrag` file.

    Pipeline: decorations are expanded (so directive-carrying tick labels
    stay taggable even with automatic positioning off), bare text is
    auto-wrapped when enabled, one entry is built per directive-bearing
    text primitive, and tags are optionally renumbered. Bare text primitives
    that remain are drawn as plain PostScript text and not tagged. Writes
    nothing. Defaults: `ExportOptions()`, `EMPTY_HOOKS`. Returns both files'
    contents, the registry and the number of labels shown.
    """
    opts = _this.ExportOptions() if opts is None else opts
    hooks = _this.EMPTY_HOOKS if hooks is None else hooks
    working = _this.expand_decorations(scene)
    if opts.effective_auto_convert:
        working = _this.auto_wrap(working)

    registry = TagRegistry()
    tag_of_index: dict[int, str] = {}
    texts = working.text_primitives()
    # Re-emit each built label's warnings, repeats included, naming the label.
    labelled: list[tuple[str, warnings.WarningMessage]] = []
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for idx, prim in enumerate(texts):
                if prim.directive is None:
                    continue
                seen = len(caught)
                entry = build_entry(prim.directive, prim.anchor, hooks, opts, registry)
                tag_of_index[idx] = entry.tag
                labelled += [(registry.origin(entry.tag), w) for w in caught[seen:]]
    finally:
        for origin, w in labelled:
            warnings.warn(f"{origin}: {w.message}", w.category, stacklevel=2)

    if opts.renumber_tags:
        tag_map = renumber(registry)
        renamed = TagRegistry()
        for entry in registry.entries():
            renamed.add(replace(entry, tag=tag_map[entry.tag]), origin=registry.origin(entry.tag))
        registry = renamed
        tag_of_index = {idx: tag_map[tag] for idx, tag in tag_of_index.items()}

    return ExportResult(epsio.write_eps(working, tag_of_index), emit_tex(registry), registry,
                        len(texts))
