"""Command-line front end: export, inspect, renumber, preview.

Exit codes: 0 success, 1 parse error, 2 semantic error (each error class
carries its own as `exit_code`), 3 I/O failure. Every failing path writes no
output files; in-place commands always keep .bak copies of the originals.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from pathlib import Path

from . import deferred
from .epsio import rewrite_tags, scan_tags
from .fileio import atomic_write_bytes, atomic_write_text, make_backup, read_text

EXIT_OK = 0
EXIT_SEMANTIC = 2
EXIT_IO = 3

# What the commands call beyond the EPS reader, read as attributes of `_this` so that
# `__getattr__` imports each on its first read: `inspect` loads no more.
__getattr__ = deferred(__name__, {"load_scene", "load_hooks", "ExportOptions", "psfrag_export",
                                  "parse_psfrag_document", "renumber", "retag_psfrag_text",
                                  "substitute_preview"})
_this = sys.modules[__name__]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="labelforge",
        description="Export plot scenes to tagged EPS plus psfrag macros.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_export = sub.add_parser("export", help="export a scene file")
    p_export.add_argument("scene", help="scene document (JSON)")
    p_export.add_argument("--basename", required=True,
                          help="output base name; suffixes are appended")
    p_export.add_argument("--tex-suffix", default="-psfrag.tex")
    p_export.add_argument("--eps-suffix", default="-psfrag.eps")
    p_export.add_argument("--renumber-tags", action="store_true")
    p_export.add_argument("--no-auto-convert", action="store_true",
                          help="tag only manually marked labels")
    p_export.add_argument("--no-auto-position", action="store_true",
                          help="ignore anchors; implies --no-auto-convert")
    p_export.add_argument("--hooks", default=os.environ.get("LABELFORGE_HOOKS"),
                          help="hook definition file (default: $LABELFORGE_HOOKS)")
    p_export.set_defaults(func=cmd_export)

    p_inspect = sub.add_parser("inspect", help="list tag occurrences in an EPS")
    p_inspect.add_argument("eps")
    p_inspect.add_argument("--format", choices=("tsv", "json"), default="tsv")
    p_inspect.set_defaults(func=cmd_inspect)

    p_renumber = sub.add_parser("renumber",
                                help="renumber tags in an EPS/tex pair in place")
    p_renumber.add_argument("eps")
    p_renumber.add_argument("tex")
    p_renumber.set_defaults(func=cmd_renumber)

    p_preview = sub.add_parser("preview",
                               help="substitute placeholder boxes for tags")
    p_preview.add_argument("eps")
    p_preview.add_argument("tex")
    p_preview.add_argument("out")
    p_preview.add_argument("--strict", action="store_true",
                           help="fail on any unmatched tag in either direction")
    p_preview.set_defaults(func=cmd_preview)
    return parser


def cmd_export(args: argparse.Namespace) -> int:
    scene = _this.load_scene(args.scene)
    hooks = _this.load_hooks(args.hooks) if args.hooks else None
    opts = _this.ExportOptions(tex_suffix=args.tex_suffix, eps_suffix=args.eps_suffix,
                               renumber_tags=args.renumber_tags,
                               auto_convert_text=not args.no_auto_convert,
                               auto_position=not args.no_auto_position)
    result = _this.psfrag_export(scene, args.basename, opts, hooks)
    print(f"{result.labels} labels, {len(result.registry)} tagged")
    return EXIT_OK


_TSV_ESCAPES = str.maketrans({"\\": "\\\\", "\t": "\\t", "\n": "\\n", "\r": "\\r"})


def cmd_inspect(args: argparse.Namespace) -> int:
    occurrences = scan_tags(Path(args.eps).read_bytes())
    if args.format == "json":
        import json  # here, so that no other command pays for loading it
        print(json.dumps([
            {"tag": occ.tag,
             "x": round(occ.device_position[0], 3),
             "y": round(occ.device_position[1], 3),
             "rot": round(occ.rotation, 3),
             "scale": round(occ.scale, 3)}
            for occ in occurrences]))
    else:
        for occ in occurrences:  # one line of five fields each, whatever the tag holds
            print(f"{occ.tag.translate(_TSV_ESCAPES)}\t{occ.device_position[0]:.3f}"
                  f"\t{occ.device_position[1]:.3f}\t{occ.rotation:.3f}\t{occ.scale:.3f}")
    return EXIT_OK


def cmd_renumber(args: argparse.Namespace) -> int:
    eps_path, tex_path = Path(args.eps), Path(args.tex)
    eps_data = eps_path.read_bytes()
    tex_text = read_text(tex_path)
    registry = _this.parse_psfrag_document(tex_text)
    tag_map = _this.renumber(registry)
    new_eps = rewrite_tags(eps_data, tag_map)
    new_tex = _this.retag_psfrag_text(tex_text, tag_map)
    make_backup(eps_path)
    make_backup(tex_path)
    atomic_write_bytes(eps_path, new_eps)
    atomic_write_text(tex_path, new_tex)
    print(f"renumbered {len(tag_map)} tags")
    return EXIT_OK


def cmd_preview(args: argparse.Namespace) -> int:
    eps_data = Path(args.eps).read_bytes()
    registry = _this.parse_psfrag_document(read_text(args.tex))
    result = _this.substitute_preview(eps_data, registry)
    if args.strict and (result.stale or result.unmatched):
        for tag in result.stale:
            print(f"error: entry {tag!r} matches nothing in the EPS", file=sys.stderr)
        for tag in result.unmatched:
            print(f"error: shown text {tag!r} has no entry", file=sys.stderr)
        return EXIT_SEMANTIC
    atomic_write_bytes(args.out, result.eps)
    print(f"{result.matched} occurrences substituted")
    return EXIT_OK


def _print_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = _print_warning
        try:
            return args.func(args)
        except ValueError as exc:
            if not hasattr(exc, "exit_code"):
                raise
            print(f"error: {exc}", file=sys.stderr)
            return exc.exit_code
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
