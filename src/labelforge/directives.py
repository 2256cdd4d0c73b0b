"""Per-label override records and psfrag alignment codes."""

from __future__ import annotations

from .records import record

TYPE_CHECKING = False  # as `typing.TYPE_CHECKING`, without loading `typing` at run time
if TYPE_CHECKING:
    from .exprkit import Expr

_VERTICALS = ("t", "c", "b", "B")
_HORIZONTALS = ("l", "c", "r")


def is_valid_tag(tag: str) -> bool:
    """A psfrag tag is a nonempty run of ASCII letters and digits."""
    return tag.isascii() and tag.isalnum()


@record
class PosCode:
    """Two-character alignment code, vertical first: {t,c,b,B} x {l,c,r}."""

    vertical: str
    horizontal: str

    def __post_init__(self):
        if self.vertical not in _VERTICALS:
            raise ValueError(f"bad vertical alignment {self.vertical!r}")
        if self.horizontal not in _HORIZONTALS:
            raise ValueError(f"bad horizontal alignment {self.horizontal!r}")

    @classmethod
    def parse(cls, code: str) -> "PosCode":
        if len(code) != 2:
            raise ValueError(f"alignment code must be two characters: {code!r}")
        return POS_CODES.get(code) or cls(code[0], code[1])

    def __str__(self) -> str:
        return self.vertical + self.horizontal


# The twelve codes, built once: parsers and the anchor mapping share these instances.
POS_CODES = {v + h: PosCode(v, h) for v in _VERTICALS for h in _HORIZONTALS}


@record
class LabelDirective:
    """Manual control over one label's replacement.

    None stands for Automatic throughout: the tag is derived from the
    expression, the body is guessed, the alignment is taken over from the
    surrounding text anchor, and scaling happens through the LaTeX scale
    hooks. ps_position = None means CopyPosition.
    """

    expr: Expr
    tex_command: str | None = None
    psfrag_tag: str | None = None
    position: PosCode | None = None
    ps_position: PosCode | None = None
    rotation: float = 0.0
    scaling: float | None = None

    def __post_init__(self):
        if self.psfrag_tag is not None and not is_valid_tag(self.psfrag_tag):
            raise ValueError(
                f"psfrag tag must be nonempty alphanumeric: {self.psfrag_tag!r}")
        if self.scaling is not None and self.scaling <= 0:
            raise ValueError("scaling must be positive")
