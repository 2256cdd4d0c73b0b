"""labelforge: tagged EPS export with psfrag replacement macros.

Each exported name imports its submodule on first use, not with the package.
"""

import importlib
import sys

__version__ = "0.1.0"

_EXPORTS = {name: module for module, names in {
    "directives": "LabelDirective",
    "epsio": "RewriteError ScanError TokenizeError rewrite_tags scan_tags tokenize write_eps",
    "exprkit": "EMPTY_HOOKS guess_tex parse_expr print_source to_tex",
    "labeling": "DuplicateTagError PsfragEntry TagRegistry build_entry derive_tag emit_tex "
                "is_psfrag_line parse_psfrag_document parse_psfrag_line pos_from_anchor "
                "psfrag_export renumber resolve_alignment retag_psfrag_text shortlex_tag",
    "preview": "LabelBox place reference_point substitute_preview",
    "scene": "DecorationSpec ExportOptions FrameTicks Gridlines Polyline Scene TextPrimitive "
             "Tick auto_wrap expand_decorations linear_ticks",
    "scenefile": "load_hooks load_scene",
}.items() for name in names.split()}  # name -> the submodule that defines it


def deferred(module: str, names):
    """A PEP 562 `__getattr__` for `module`: the first read of one of `names` imports it
    from its submodule in `_EXPORTS` and binds it in `module`; other names raise."""
    def __getattr__(name: str):
        if name not in names:
            raise AttributeError(f"module {module!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
        setattr(sys.modules[module], name, value)
        return value
    return __getattr__


__getattr__ = deferred(__name__, _EXPORTS)
