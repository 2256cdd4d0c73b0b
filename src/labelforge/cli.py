"""Command-line front end: export, inspect, renumber, preview.

Exit codes: 0 success, 1 parse error, 2 semantic or usage error (each error
class carries its own as `exit_code`), 3 I/O failure. Every failing path writes no
output files; in-place commands always keep .bak copies of the originals.
"""

from __future__ import annotations

import atexit
import errno
import os
import re
import sys
import warnings
from types import SimpleNamespace

from . import deferred
from .epsio import rewrite_tags, scan_tags
from .fileio import atomic_write_bytes, atomic_write_text, make_backup, read_bytes, read_text

EXIT_OK = 0
EXIT_SEMANTIC = 2
EXIT_IO = 3

# What the commands call beyond the EPS reader, read as attributes of `_this` so that
# `__getattr__` imports each on its first read: `inspect` loads no more.
__getattr__ = deferred(__name__, {"load_scene", "load_hooks", "ExportOptions", "psfrag_export",
                                  "parse_psfrag_document", "renumber", "retag_psfrag_text",
                                  "substitute_preview"})
_this = sys.modules[__name__]


def cmd_export(args: SimpleNamespace) -> int:
    scene = _this.load_scene(args.scene)
    hooks = _this.load_hooks(args.hooks) if args.hooks else None
    if not args.basename:
        raise UsageError("basename must be nonempty")
    eps_path, tex_path = args.basename + args.eps_suffix, args.basename + args.tex_suffix
    _check_outputs("export", {"EPS": eps_path, "tex": tex_path}, (args.scene, args.hooks))
    opts = _this.ExportOptions(renumber_tags=args.renumber_tags,
                               auto_convert_text=not args.no_auto_convert,
                               auto_position=not args.no_auto_position)
    result = _this.psfrag_export(scene, opts, hooks)
    atomic_write_bytes(eps_path, result.eps)
    atomic_write_text(tex_path, result.tex)
    print(f"{result.labels} labels, {len(result.registry)} tagged")
    return EXIT_OK


_TSV_ESCAPES = str.maketrans({"\\": "\\\\", "\t": "\\t", "\n": "\\n", "\r": "\\r"})


def cmd_inspect(args: SimpleNamespace) -> int:
    occurrences = scan_tags(read_bytes(args.eps))
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


def cmd_renumber(args: SimpleNamespace) -> int:
    eps_data = read_bytes(args.eps)
    tex_text = read_text(args.tex)
    _check_outputs("renumber", {"EPS backup": f"{args.eps}.bak", "tex backup": f"{args.tex}.bak"},
                   (args.eps, args.tex))
    registry = _this.parse_psfrag_document(tex_text)
    tag_map = _this.renumber(registry)
    new_eps = rewrite_tags(eps_data, tag_map)
    new_tex = _this.retag_psfrag_text(tex_text, tag_map)
    make_backup(args.eps)
    make_backup(args.tex)
    atomic_write_bytes(args.eps, new_eps)
    atomic_write_text(args.tex, new_tex)
    print(f"renumbered {len(tag_map)} tags")
    return EXIT_OK


def _check_outputs(command: str, outputs: dict[str, str], inputs: tuple[str | None, ...]) -> None:
    """Refuse, before any write, an output naming the file of another output or of an input
    (an empty one names none), being a directory, or in a directory that is not there.
    `outputs` maps each kind to its path."""
    named: dict[str, tuple[str, str]] = {}  # real path -> kind, path as given
    for kind, path in outputs.items():
        real = os.path.realpath(path)
        if real in named:
            first_kind, first = named[real]
            raise UsageError(f"{first_kind} and {kind} paths must differ: {first!r} and "
                             f"{path!r} both name {real!r}")
        named[real] = kind, path
    read = {os.path.realpath(path) for path in inputs if path}
    for real, (_, path) in named.items():
        if real in read:
            raise UsageError(f"{command}: output {path!r} is an input: both name {real!r}")
        if os.path.isdir(path) and not os.path.islink(path):  # a rename cannot replace it
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        folder = os.path.dirname(path) or "."
        if not os.path.isdir(folder):  # the temporary file could not be made there
            code = errno.ENOTDIR if os.path.exists(folder) else errno.ENOENT
            raise OSError(code, os.strerror(code), path)


def cmd_preview(args: SimpleNamespace) -> int:
    _check_outputs("preview", {"output": args.out}, (args.eps, args.tex))
    eps_data = read_bytes(args.eps)
    registry = _this.parse_psfrag_document(read_text(args.tex))
    result = _this.substitute_preview(eps_data, registry)
    if args.strict and (result.stale or result.unmatched):
        for tag in result.stale:
            _stderr(f"error: entry {tag!r} matches nothing in the EPS")
        for tag in result.unmatched:
            _stderr(f"error: shown text {tag!r} has no entry")
        return EXIT_SEMANTIC
    atomic_write_bytes(args.out, result.eps)
    print(f"{result.matched} occurrences substituted")
    return EXIT_OK


# Each command's handler, positionals, and options with their defaults. False marks a flag,
# a tuple lists the allowed values with the default first, None marks a required option,
# and "$NAME" is that environment variable, read each time a command line is.
COMMANDS = {
    "export": (cmd_export, ("scene",), {
        "--basename": None, "--tex-suffix": "-psfrag.tex", "--eps-suffix": "-psfrag.eps",
        "--renumber-tags": False, "--no-auto-convert": False, "--no-auto-position": False,
        "--hooks": "$LABELFORGE_HOOKS"}),
    "inspect": (cmd_inspect, ("eps",), {"--format": ("tsv", "json")}),
    "renumber": (cmd_renumber, ("eps", "tex"), {}),
    "preview": (cmd_preview, ("eps", "tex", "out"), {"--strict": False}),
}
_HELP = ("-h", "--help")


class UsageError(ValueError):
    """A command line that COMMANDS does not describe, or whose paths clash."""
    exit_code = 2


def _usage(command: str | None) -> str:
    """One usage line for `command`, or for every command when it is None."""
    lines = []
    for name in [command] if command else COMMANDS:
        _, positionals, options = COMMANDS[name]
        words = ["labelforge", name, *positionals]
        for option, default in options.items():
            if default is False:
                words.append(f"[{option}]")
            elif default is None:
                words.append(f"{option}={option[2:].upper()}")
            else:
                shown = "{" + ",".join(default) + "}" if isinstance(default, tuple) else default
                words.append(f"[{option}={shown}]")
        lines.append(" ".join(words))
    return "usage: " + "\n       ".join(lines)


def _print_usage(args: SimpleNamespace) -> int:
    print(_usage(args.command))
    return EXIT_OK


def _option(token: str, names: tuple[str, ...]) -> tuple[str | None, str | None] | None:
    """None when `token` is an argument; else the option of `names` it gives (None for an
    unknown one) and its `=` value. A long option may be cut to a prefix of one name only."""
    if token in names:
        return token, None
    if token[:1] != "-" or token == "-":
        return None
    name, eq, value = token.partition("=")
    if eq and name in names:
        return name, value
    if token[1] == "-":
        matches = [(option, value if eq else None) for option in names if option.startswith(name)]
    else:  # one dash: "-hX" gives -h the value X
        matches = [(token[:2], token[2:])] if token[:2] in names else []
    if len(matches) > 1:
        raise UsageError(f"ambiguous option {token!r} could be "
                         f"{', '.join(option for option, _ in matches)}")
    if matches:
        return matches[0]
    if " " in token or re.match(r"^-\d+$|^-\d*\.\d+$", token):  # a negative number
        return None
    return None, None


def _dest(option: str) -> str:
    return option[2:].replace("-", "_")


def _parse_args(argv: list[str]) -> SimpleNamespace:
    """`argv` read by COMMANDS as argparse read it, with `func` the handler to run.

    Options and arguments mix in any order, the last of a repeated option wins, and each
    token after the first "--" is an argument. -h or --help, reached before any error,
    gives `_print_usage`. An unknown option or a surplus argument fails only once the
    whole line is read, so that a later -h still gives the usage.
    """
    unknown = []
    for i, token in enumerate(argv):
        kind = None if token == "--" else _option(token, _HELP)
        if kind is None:
            break
        if kind[0] is None:
            unknown.append(f"unknown option {token!r}")
        elif kind[1] is not None:
            raise UsageError(f"{kind[0]} takes no value: {kind[1]!r}")
        else:
            return SimpleNamespace(command=None, func=_print_usage)
    else:
        raise UsageError(f"missing command: choose from {', '.join(COMMANDS)}")
    command, rest = argv[i], argv[i + 1:]
    if command not in COMMANDS:
        raise UsageError(f"unknown command {command!r}: choose from {', '.join(COMMANDS)}")
    func, positionals, options = COMMANDS[command]
    dash = rest.index("--") if "--" in rest else len(rest)
    names = _HELP + tuple(options)
    # Every token before "--" is looked up before any is taken: an ambiguous one fails first.
    kinds = [_option(token, names) for token in rest[:dash]]
    args = SimpleNamespace(command=command, func=func)
    for option, default in options.items():
        if isinstance(default, tuple):
            default = default[0]
        elif isinstance(default, str) and default[:1] == "$":
            default = os.environ.get(default[1:])
        setattr(args, _dest(option), default)
    arguments, taken = [], None  # `taken`: the index of the last token read as an argument
    j = 0
    while j < len(rest):
        token, kind = rest[j], kinds[j] if j < dash else None
        if j == dash:  # argparse reads "--" with the argument before or after it
            if taken != j - 1 and not (len(arguments) < len(positionals) and j + 1 < len(rest)):
                unknown.append("unexpected argument '--'")
        elif kind is None:
            if len(arguments) < len(positionals):
                arguments.append(token)
                taken = j
            else:
                unknown.append(f"unexpected argument {token!r}")
        elif kind[0] is None:
            unknown.append(f"unknown option {token!r}")
        else:
            option, value = kind
            default = False if option in _HELP else options[option]
            if default is False:
                if value is not None:
                    raise UsageError(f"{command}: {option} takes no value: {value!r}")
                if option in _HELP:
                    return SimpleNamespace(command=command, func=_print_usage)
                value = True
            elif value is None:
                if j + 1 >= dash or kinds[j + 1] is not None:
                    raise UsageError(f"{command}: {option} needs a value")
                j += 1
                value = rest[j]
            if isinstance(default, tuple) and value not in default:
                raise UsageError(f"{command}: {option} must be one of {', '.join(default)}: "
                                 f"{value!r}")
            setattr(args, _dest(option), value)
        j += 1
    missing = positionals[len(arguments):] + tuple(
        option for option, default in options.items()
        if default is None and getattr(args, _dest(option)) is None)
    if missing:
        raise UsageError(f"{command}: missing {', '.join(missing)}")
    if unknown:
        raise UsageError(f"{command}: {unknown[0]}")
    for name, value in zip(positionals, arguments):
        setattr(args, name, value)
    return args


def _stderr(line: str) -> None:
    """Write one line to stderr. A stderr that cannot be written or is None loses the line."""
    try:
        if sys.stderr:  # print(file=None) would write to stdout
            print(line, file=sys.stderr)
    except OSError:
        pass


def main(argv: list[str] | None = None) -> int:
    with warnings.catch_warnings():
        warnings.showwarning = lambda message, *_: _stderr(f"warning: {message}")
        try:
            args = _parse_args(sys.argv[1:] if argv is None else argv)
            code = args.func(args)
            if sys.stdout:  # None when fd 1 was closed at start; a failed write raises here
                sys.stdout.flush()
            return code
        except (OSError, UnicodeEncodeError) as exc:  # or a stdout that cannot encode a char
            _stderr(f"error: {exc}")
            return EXIT_IO
        except ValueError as exc:
            if not hasattr(exc, "exit_code"):
                raise
            _stderr(f"error: {exc}")
            return exc.exit_code


def run(argv: list[str] | None = None) -> None:
    """`main` as a program: `atexit` handlers, a flush, then `os._exit`, skipping teardown."""
    code = main(argv)
    atexit._run_exitfuncs()
    for stream in filter(None, (sys.stdout, sys.stderr)):
        try:
            stream.flush()
        except OSError:  # a failed write to stdout, which `main` has reported
            pass
    os._exit(code)


if __name__ == "__main__":
    run()
