"""labelforge: tagged EPS export with psfrag replacement macros."""

from .directives import LabelDirective, PosCode
from .epsio import (RewriteError, ScanError, TagOccurrence, TokenizeError,
                    rewrite_tags, scan_tags, tokenize, write_eps)
from .exprkit import (Call, Expr, ExprSyntaxError, Hold, HookSet, LabelClass,
                      Num, Str, Sym, classify, guess_tex, num, numeric_q,
                      parse_expr, plain_text, print_source, to_tex)
from .labeling import (DuplicateTagError, PsfragEntry, TagRegistry, build_entry,
                       derive_tag, emit_tex, parse_psfrag_document,
                       parse_psfrag_line, pos_from_anchor, psfrag_export,
                       renumber, resolve_alignment, shortlex_tag)
from .preview import (LabelBox, PreviewResult, default_measure, place,
                      reference_point, substitute_preview)
from .scene import (Arrow, CircleArc, DecorationSpec, ExportOptions, FrameTicks,
                    Gridlines, Polyline, Scene, StrokeStyle, TextPrimitive,
                    Tick, auto_wrap, expand_decorations, linear_ticks)
from .scenefile import SceneFormatError, load_hooks, load_scene, parse_scene

__version__ = "0.1.0"
