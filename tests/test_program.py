"""labelforge run as a program: `python -m labelforge.cli` and the `labelforge` script.

Both routes call `cli.run`, which runs `main`, then the `atexit` handlers, flushes stdout
and stderr, and ends the process with `os._exit`, so the interpreter's teardown is skipped.
These tests hold that the program writes what `main` writes, and that a failure to write
stdout exits 3 with one `error:` line whether or not stdout is buffered, and that a stderr
that cannot be written loses its lines and changes nothing else. Each child runs without
PYTHONUNBUFFERED unless a test asks for it, so its stdout is block-buffered when it is a
file or a pipe.
"""

from __future__ import annotations

import ast
import atexit
import contextlib
import importlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import labelforge
from labelforge import cli
from labelforge.cli import main

from test_outputs import CASES

ROOT = Path(__file__).resolve().parents[1]
SRC = str(Path(labelforge.__file__).parents[1])


def _env(unbuffered: bool = False, encoding: str | None = None) -> dict[str, str]:
    env = {key: value for key, value in os.environ.items()
           if key not in ("PYTHONUNBUFFERED", "PYTHONIOENCODING")}
    env["PYTHONPATH"] = os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    if encoding:
        env["PYTHONIOENCODING"] = encoding
    return env


def _program(argv: list[str], cwd: Path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
             unbuffered: bool = False, encoding: str | None = None,
             **kwargs) -> subprocess.CompletedProcess:
    """`python -m labelforge.cli argv` run in `cwd`, by default its stderr captured as bytes;
    `encoding`, if given, is the child's PYTHONIOENCODING."""
    return subprocess.run([sys.executable, "-m", "labelforge.cli", *argv], cwd=cwd,
                          stdout=stdout, stderr=stderr, env=_env(unbuffered, encoding),
                          timeout=120, **kwargs)


def _export_ex_auto(work: Path) -> None:
    (work / "s.scene").write_text(CASES["ex_auto"][0], encoding="utf-8")
    assert _program(["export", "s.scene", "--basename", "s"], work).returncode == 0


# ------------------------------------------------- the program and main agree

# Each step runs in the directory the previous steps wrote to; the last two fail.
_STEPS = (["export", "s.scene", "--basename", "s"],
          ["inspect", "s-psfrag.eps"],
          ["inspect", "s-psfrag.eps", "--format", "json"],
          ["preview", "s-psfrag.eps", "s-psfrag.tex", "p.eps"],
          ["renumber", "s-psfrag.eps", "s-psfrag.tex"],
          ["inspect", "missing.eps"],
          ["inspect", "--format", "xml", "s-psfrag.eps"])


def _files(work: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(work.iterdir())}


@pytest.mark.parametrize("case", ["ex_auto", "label_dense"])
def test_the_program_writes_what_main_writes(tmp_path, monkeypatch, case):
    """Every step's exit code, stdout, stderr and files, through `-m` and through `main`.
    On `label_dense`, `inspect --format json` prints more than a 64 KiB pipe buffer holds,
    so a block of stdout still buffered at the early exit would show as a shorter stdout."""
    by_program, in_process = tmp_path / "program", tmp_path / "main"
    for work in (by_program, in_process):
        work.mkdir()
        (work / "s.scene").write_text(CASES[case][0], encoding="utf-8")
    largest = 0
    for step in _STEPS:
        proc = _program(step, by_program)
        monkeypatch.chdir(in_process)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(step)
        assert (proc.returncode, proc.stdout.decode("utf-8"), proc.stderr.decode("utf-8")) \
            == (code, out.getvalue(), err.getvalue()), step
        assert _files(by_program) == _files(in_process), step
        largest = max(largest, len(proc.stdout))
    assert largest > (65536 if case == "label_dense" else 0)


# ------------------------------------------------------ a failed stdout write

def _closed_pipe() -> int:
    """The write end of a pipe whose read end is already closed: every write fails."""
    read, write = os.pipe()
    os.close(read)
    return write


@contextlib.contextmanager
def _stdout_target(target: str):
    if target == "ascii":  # a pipe read to its end, through an encoding that lacks `é`
        yield subprocess.PIPE
    elif target == "full":
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full on this system")
        with open("/dev/full", "wb") as full:
            yield full
    else:
        fd = _closed_pipe()
        try:
            yield fd
        finally:
            os.close(fd)


_MESSAGES = {"full": f"error: {OSError(28, os.strerror(28))}\n",
             "pipe": f"error: {BrokenPipeError(32, os.strerror(32))}\n",
             "ascii": "error: 'ascii' codec can't encode character '\\xe9' in position 3: "
                      "ordinal not in range(128)\n"}


@pytest.mark.parametrize("target, unbuffered", [
    ("full", False), ("pipe", False), ("ascii", False), ("ascii", True)],
    ids=["full", "pipe", "ascii", "ascii-unbuffered"])
def test_a_failed_stdout_write_exits_three_in_one_line(tmp_path, target, unbuffered):
    """On `ascii`, the tag `a` prints and the tag `café` cannot: the line before the
    failure still reaches stdout."""
    if target == "ascii":
        (tmp_path / "s-psfrag.eps").write_bytes(b"%!PS\n0 0 moveto (a) show (caf\\351) show\n")
    else:
        _export_ex_auto(tmp_path)
    with _stdout_target(target) as stdout:
        proc = _program(["inspect", "s-psfrag.eps"], tmp_path, stdout=stdout,
                        unbuffered=unbuffered, encoding=target if target == "ascii" else None)
    assert (proc.returncode, proc.stderr.decode("utf-8")) == (3, _MESSAGES[target])
    if target == "ascii":
        assert proc.stdout == b"a\t0.000\t0.000\t0.000\t1.000\n"


@pytest.mark.parametrize("command", ["export", "renumber"])
@pytest.mark.parametrize("target", ["full", "pipe"])
def test_files_committed_before_a_failed_summary_line_stay(tmp_path, target, command):
    _export_ex_auto(tmp_path)
    before = _files(tmp_path)
    argv = (["export", "s.scene", "--basename", "t"] if command == "export"
            else ["renumber", "s-psfrag.eps", "s-psfrag.tex"])
    with _stdout_target(target) as stdout:
        proc = _program(argv, tmp_path, stdout=stdout)
    assert (proc.returncode, proc.stderr.decode("utf-8")) == (3, _MESSAGES[target])
    written = set(_files(tmp_path)) - set(before)
    if command == "export":
        assert written == {"t-psfrag.eps", "t-psfrag.tex"}
        assert _files(tmp_path)["t-psfrag.eps"] == before["s-psfrag.eps"]
    else:
        assert written == {"s-psfrag.eps.bak", "s-psfrag.tex.bak"}


def test_a_program_started_with_stdout_closed_runs_without_a_traceback(tmp_path):
    (tmp_path / "s.scene").write_text(CASES["ex_auto"][0], encoding="utf-8")
    proc = _program(["export", "s.scene", "--basename", "s"], tmp_path, stdout=None,
                    preexec_fn=lambda: os.close(1))
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert {"s-psfrag.eps", "s-psfrag.tex"} <= set(_files(tmp_path))


class _FullStdout(io.StringIO):
    def flush(self) -> None:
        raise OSError(28, os.strerror(28))


def test_main_reports_a_failed_stdout_flush(tmp_path, capsys, monkeypatch):
    _export_ex_auto(tmp_path)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "stdout", _FullStdout())
    assert main(["inspect", "s-psfrag.eps"]) == 3
    assert capsys.readouterr().err == _MESSAGES["full"]


def test_main_runs_with_no_stdout(tmp_path, capsys, monkeypatch):
    _export_ex_auto(tmp_path)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "stdout", None)
    assert main(["inspect", "s-psfrag.eps"]) == 0
    assert capsys.readouterr().err == ""


# ------------------------------------------------- a stderr that cannot be written

@contextlib.contextmanager
def _stderr_target(target: str):
    """The keyword arguments that give the child a stderr on which every write fails:
    /dev/full, or file descriptor 2 closed before the program starts."""
    if target == "closed":
        yield {"stderr": None, "preexec_fn": lambda: os.close(2)}
    else:
        with _stdout_target("full") as full:
            yield {"stderr": full}


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("target", ["full", "closed"])
def test_an_unwritable_stderr_loses_the_error_line_and_keeps_the_exit_code(tmp_path, target,
                                                                           unbuffered):
    with _stderr_target(target) as kwargs:
        proc = _program(["inspect", "missing.eps"], tmp_path, unbuffered=unbuffered, **kwargs)
    assert (proc.returncode, proc.stdout) == (3, b"")


_WARNING_SCENE = {"version": 1, "plot_range": [[0, 1], [0, 1]], "size": [100, 100],
                  "primitives": [{"type": "text", "expr": "Foo[x]", "pos": [0.5, 0.5]}]}


@pytest.mark.parametrize("unbuffered", [False, True])
def test_an_unwritable_stderr_loses_the_warning_and_keeps_the_export(tmp_path, unbuffered):
    by_pipe, by_full = tmp_path / "pipe", tmp_path / "full"
    for work in (by_pipe, by_full):
        work.mkdir()
        (work / "s.scene").write_text(json.dumps(_WARNING_SCENE), encoding="utf-8")
    argv = ["export", "s.scene", "--basename", "s"]
    piped = _program(argv, by_pipe, unbuffered=unbuffered)
    assert piped.stderr == b"warning: label 'Foo[x]': no LaTeX mapping for head 'Foo'\n"
    with _stderr_target("full") as kwargs:
        proc = _program(argv, by_full, unbuffered=unbuffered, **kwargs)
    assert (proc.returncode, proc.stdout) == (piped.returncode, piped.stdout) == (
        0, b"1 labels, 1 tagged\n")
    assert _files(by_full) == _files(by_pipe) and len(_files(by_full)) == 3


# ------------------------------------------------------------ the entry function

# `run` runs every `atexit` handler of its process, pytest's own among them, so it is called
# here in a fresh interpreter. `os._exit` is replaced by a recorder, and stdout by a buffer
# that records its contents at each flush; the handler prints one more line.
_ENTRY_PROBE = """\
import atexit, io, json, os, sys
from labelforge import cli
events = []
class Stdout(io.StringIO):
    def flush(self):
        events.append(["flush", self.getvalue()])
sys.stdout = Stdout()
atexit.register(lambda: (events.append(["atexit"]), print("printed at exit")))
os._exit = lambda code: events.append(["exit", code])
cli.run(sys.argv[1:])
sys.__stdout__.write(json.dumps(events))
"""


@pytest.mark.parametrize("argv", [["--help"], ["inspect", "missing.eps"]])
def test_run_ends_with_mains_code_after_the_atexit_handlers_and_a_flush(tmp_path, monkeypatch,
                                                                          capsys, argv):
    monkeypatch.chdir(tmp_path)
    code = main(argv)
    usage = capsys.readouterr().out
    proc = subprocess.run([sys.executable, "-c", _ENTRY_PROBE, *argv], cwd=tmp_path,
                          capture_output=True, text=True, env=_env(), timeout=120, check=True)
    events = json.loads(proc.stdout)
    flushed_by_main = [["flush", usage]] if code == 0 else []
    assert events == [*flushed_by_main, ["atexit"], ["flush", usage + "printed at exit\n"],
                      ["exit", code]]


def test_an_exception_from_main_propagates_and_skips_the_early_exit(monkeypatch):
    exits, handled = [], []

    def fail(argv):
        raise RuntimeError("from main")

    monkeypatch.setattr(cli, "main", fail)
    monkeypatch.setattr(os, "_exit", exits.append)
    atexit.register(handled.append, "atexit")
    try:
        with pytest.raises(RuntimeError, match="from main"):
            cli.run(["--help"])
    finally:
        atexit.unregister(handled.append)
    assert exits == handled == []


# --------------------------------------------------------------------- packaging

def test_the_script_and_the_module_run_one_entry_function():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    with open(ROOT / "pyproject.toml", "rb") as handle:
        entry = tomllib.load(handle)["project"]["scripts"]["labelforge"]
    module, _, name = entry.partition(":")
    assert getattr(importlib.import_module(module), name) is cli.run
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    (block,) = [node for node in tree.body if isinstance(node, ast.If)
                and ast.unparse(node.test) == "__name__ == '__main__'"]
    assert ast.unparse(block) == f"if __name__ == '__main__':\n    {name}()"


def test_the_program_needs_nothing_beyond_the_standard_library():
    """Every module labelforge imports, at any depth of its code, is a standard-library module
    or labelforge's own, and the package declares no runtime dependency."""
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    imported = {}
    for path in sorted(Path(labelforge.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = ["labelforge" if node.level else node.module]
            else:
                continue
            for name in names:
                imported.setdefault(name.partition(".")[0], path.name)
    assert "json" in imported and "labelforge" in imported  # the walk reaches both kinds
    assert {name: where for name, where in imported.items()
            if name not in sys.stdlib_module_names and name != "labelforge"} == {}
    with open(ROOT / "pyproject.toml", "rb") as handle:
        project = tomllib.load(handle)["project"]
    assert project["dependencies"] == [] and "dependencies" not in project.get("dynamic", [])
