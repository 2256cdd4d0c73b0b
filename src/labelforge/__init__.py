"""labelforge: tagged EPS export with psfrag replacement macros.

Each exported name imports its submodule on first use, not with the package.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {name: module for module, names in {
    "directives": "LabelDirective",
    "epsio": "RewriteError ScanError TokenizeError rewrite_tags scan_tags tokenize write_eps",
    "exprkit": "parse_expr to_tex",
    "labeling": "DuplicateTagError PsfragEntry TagRegistry build_entry derive_tag emit_tex "
                "parse_psfrag_line pos_from_anchor psfrag_export renumber resolve_alignment "
                "shortlex_tag",
    "preview": "LabelBox place reference_point substitute_preview",
    "scene": "DecorationSpec ExportOptions FrameTicks Gridlines Polyline Scene TextPrimitive "
             "Tick auto_wrap expand_decorations linear_ticks",
    "scenefile": "load_scene",
}.items() for name in names.split()}  # name -> the submodule that defines it


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    return globals()[name]
