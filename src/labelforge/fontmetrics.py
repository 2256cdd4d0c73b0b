"""Times-Roman advance widths for estimating label box sizes.

Widths are the standard Adobe AFM values in 1/1000 em, indexed by byte
code. Codes without a glyph fall back to 500 (the digit width), which is
good enough here: replaced text only needs an approximate box, the anchor
point itself is computed analytically.
"""

from __future__ import annotations

_DEFAULT_WIDTH = 500

# Printable ASCII range 32..126.
_ASCII_WIDTHS = (
    250, 333, 408, 500, 500, 833, 778, 333,    # space ! " # $ % & '
    333, 333, 500, 564, 250, 333, 250, 278,    # ( ) * + , - . /
    500, 500, 500, 500, 500, 500, 500, 500,    # 0 1 2 3 4 5 6 7
    500, 500, 278, 278, 564, 564, 564, 444,    # 8 9 : ; < = > ?
    921, 722, 667, 667, 722, 611, 556, 722,    # @ A B C D E F G
    722, 333, 389, 722, 611, 889, 722, 722,    # H I J K L M N O
    556, 722, 667, 556, 611, 722, 722, 944,    # P Q R S T U V W
    722, 722, 611, 333, 278, 333, 469, 500,    # X Y Z [ \ ] ^ _
    333, 444, 500, 444, 500, 444, 333, 500,    # ` a b c d e f g
    500, 278, 278, 500, 278, 778, 500, 500,    # h i j k l m n o
    500, 500, 333, 389, 278, 500, 500, 722,    # p q r s t u v w
    500, 500, 444, 480, 200, 480, 541,         # x y z { | } ~
)

WIDTHS = tuple(
    _ASCII_WIDTHS[code - 32] if 32 <= code <= 126 else _DEFAULT_WIDTH
    for code in range(256)
)

# Vertical extents of the em box actually used by glyphs, as a fraction
# of the font size (Times-Roman ascender/descender).
ASCENT = 0.683
DESCENT = 0.217


def string_width(text: str, font_size: float) -> float:
    """Advance width of `text` set in Times-Roman at `font_size` points: the sum, in
    order, of each character's width scaled to the font size."""
    return sum([(WIDTHS[code] if code < 256 else _DEFAULT_WIDTH) * font_size / 1000.0
                for code in map(ord, text)])


def string_extents(text: str, font_size: float) -> tuple[float, float, float]:
    """(width, height, depth) of the text box.

    Height is the total box height, depth the baseline height above the
    box bottom (both in points).
    """
    width = string_width(text, font_size)
    height = (ASCENT + DESCENT) * font_size
    depth = DESCENT * font_size
    return width, height, depth
