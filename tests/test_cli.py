from __future__ import annotations

import argparse
import ast
import contextlib
import hashlib
import importlib
import importlib.util
import io
import json
import os
import re
import shutil
import stat
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import labelforge
from labelforge import cli, epsio, labeling, scan_tags
from labelforge.cli import main
from labelforge.directives import PosCode
from labelforge.labeling import parse_psfrag_document
from labelforge.scene import TextPrimitive
from labelforge.scenefile import SceneFormatError, load_scene, parse_hooks, parse_scene

from conftest import FIXTURES


def _copy_fixture(name: str, tmp_path: Path) -> Path:
    dest = tmp_path / f"{name}.scene"
    shutil.copyfile(FIXTURES / f"{name}.scene", dest)
    return dest


# ----------------------------------------------------------------- export

def test_export_writes_both_files_and_summary(tmp_path, capsys):
    scene = _copy_fixture("ex_auto", tmp_path)
    code = main(["export", str(scene), "--basename", str(tmp_path / "ex_auto")])
    assert code == 0
    assert (tmp_path / "ex_auto-psfrag.eps").exists()
    assert (tmp_path / "ex_auto-psfrag.tex").exists()
    assert capsys.readouterr().out.strip() == "13 labels, 13 tagged"


@pytest.mark.parametrize("flags", [[], ["--renumber-tags"], ["--no-auto-position"]])
@pytest.mark.parametrize("name", [p.stem for p in sorted(FIXTURES.glob("*.scene"))])
def test_export_label_count_is_the_number_of_shows(tmp_path, capsys, name, flags):
    scene = _copy_fixture(name, tmp_path)
    assert main(["export", str(scene), "--basename", str(tmp_path / "s"), *flags]) == 0
    shows = len(scan_tags((tmp_path / "s-psfrag.eps").read_bytes()))
    assert capsys.readouterr().out.startswith(f"{shows} labels, ")


def test_each_command_tokenizes_its_eps_at_most_once(tmp_path, capsys, monkeypatch):
    calls = []
    original = epsio.tokenize
    monkeypatch.setattr(epsio, "tokenize", lambda data: calls.append(1) or original(data))
    scene = _copy_fixture("fig2", tmp_path)
    eps, tex = str(tmp_path / "f-psfrag.eps"), str(tmp_path / "f-psfrag.tex")
    counts = {}
    for command, argv in [
            ("export", ["export", str(scene), "--basename", str(tmp_path / "f")]),
            ("inspect", ["inspect", eps]),
            ("preview", ["preview", eps, tex, str(tmp_path / "prev.eps")]),
            ("renumber", ["renumber", eps, tex])]:
        calls.clear()
        assert main(argv) == 0
        counts[command] = len(calls)
    assert counts == {"export": 0, "inspect": 1, "preview": 1, "renumber": 1}


def test_export_custom_tex_suffix(tmp_path, capsys):
    scene = _copy_fixture("ex_auto", tmp_path)
    code = main(["export", str(scene), "--basename", str(tmp_path / "s"),
                 "--tex-suffix", ".tex"])
    assert code == 0
    assert (tmp_path / "s.tex").exists()


def test_export_no_auto_position_tags_nothing(tmp_path, capsys):
    scene = _copy_fixture("ex_auto", tmp_path)
    code = main(["export", str(scene), "--basename", str(tmp_path / "s"),
                 "--no-auto-position"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "13 labels, 0 tagged"


def test_export_flag_implication_byte_identical(tmp_path, capsys):
    scene = _copy_fixture("ex_rot", tmp_path)
    main(["export", str(scene), "--basename", str(tmp_path / "a"),
          "--no-auto-position"])
    main(["export", str(scene), "--basename", str(tmp_path / "b"),
          "--no-auto-position", "--no-auto-convert"])
    assert (tmp_path / "a-psfrag.eps").read_bytes() == \
        (tmp_path / "b-psfrag.eps").read_bytes()
    assert (tmp_path / "a-psfrag.tex").read_bytes() == \
        (tmp_path / "b-psfrag.tex").read_bytes()


def test_export_is_deterministic_across_runs(tmp_path, capsys):
    scene = _copy_fixture("ex_auto", tmp_path)
    main(["export", str(scene), "--basename", str(tmp_path / "a")])
    main(["export", str(scene), "--basename", str(tmp_path / "b")])
    assert (tmp_path / "a-psfrag.eps").read_bytes() == \
        (tmp_path / "b-psfrag.eps").read_bytes()
    assert (tmp_path / "a-psfrag.tex").read_bytes() == \
        (tmp_path / "b-psfrag.tex").read_bytes()


# The first 16 hex digits of the sha256 of the EPS and the tex that `export` writes for each
# fixture under each option set, computed at commit 39cdf92, before the expression parser,
# the label records and the entry builder were rewritten for speed. An export that changes
# a byte must change this table on purpose.
EXPORT_DIGESTS = {
    ("ex_3d", ""): ("2bc521fb064a089a", "871d6d807d9f96aa"),
    ("ex_3d", "--renumber-tags"): ("ee96b9d7aba5d496", "8f0c0160cb55d119"),
    ("ex_3d", "--no-auto-convert"): ("2bc521fb064a089a", "871d6d807d9f96aa"),
    ("ex_3d", "--no-auto-position"): ("2bc521fb064a089a", "871d6d807d9f96aa"),
    ("ex_auto", ""): ("b383a69dea3eec16", "033039f8ab7c8d94"),
    ("ex_auto", "--renumber-tags"): ("10f2728e1519acfd", "eada4f033dbc3f1c"),
    ("ex_auto", "--no-auto-convert"): ("585f74374c7751e1", "63b882069460b335"),
    ("ex_auto", "--no-auto-position"): ("585f74374c7751e1", "63b882069460b335"),
    ("ex_hold", ""): ("076743b9ebd48844", "327a7a0cbaed6999"),
    ("ex_hold", "--renumber-tags"): ("f135e0a60662da49", "1a089ecfed203831"),
    ("ex_hold", "--no-auto-convert"): ("ab93ded2f5eeea72", "63b882069460b335"),
    ("ex_hold", "--no-auto-position"): ("ab93ded2f5eeea72", "63b882069460b335"),
    ("ex_manual", ""): ("b383a69dea3eec16", "a746b9982024b096"),
    ("ex_manual", "--renumber-tags"): ("10f2728e1519acfd", "6abfc4c00c75c242"),
    ("ex_manual", "--no-auto-convert"): ("b383a69dea3eec16", "a746b9982024b096"),
    ("ex_manual", "--no-auto-position"): ("b383a69dea3eec16", "a746b9982024b096"),
    ("ex_rot", ""): ("6eb202b32c9cfe91", "3cc72709cbec937f"),
    ("ex_rot", "--renumber-tags"): ("b739803c7238d5f8", "3cb766d2516b9ecd"),
    ("ex_rot", "--no-auto-convert"): ("c382a8b76b6d5910", "da2d07b73f54948b"),
    ("ex_rot", "--no-auto-position"): ("c382a8b76b6d5910", "354c8f48fc1ea5f8"),
    ("fig2", ""): ("41ad030c68d79f9e", "18d87f983b1af020"),
    ("fig2", "--renumber-tags"): ("78436a128090582b", "b98352409abc36c5"),
    ("fig2", "--no-auto-convert"): ("41ad030c68d79f9e", "18d87f983b1af020"),
    ("fig2", "--no-auto-position"): ("41ad030c68d79f9e", "18d87f983b1af020"),
    ("mini", ""): ("2338b02a24c22140", "3b98b05f34a1fa1f"),
    ("mini", "--renumber-tags"): ("53751e9b309fd52a", "e40696bdb33dbffe"),
    ("mini", "--no-auto-convert"): ("5d0a1036683b6749", "63b882069460b335"),
    ("mini", "--no-auto-position"): ("5d0a1036683b6749", "63b882069460b335"),
}


# The labels and the tagged labels `export` counts for each case of EXPORT_DIGESTS, as it
# printed them at commit 775ef13, when it still counted the labels with a second pass.
EXPORT_COUNTS = {
    "ex_3d": {"": (18, 18), "--renumber-tags": (18, 18), "--no-auto-convert": (18, 18),
              "--no-auto-position": (18, 18)},
    "ex_auto": {"": (13, 13), "--renumber-tags": (13, 13), "--no-auto-convert": (13, 0),
                "--no-auto-position": (13, 0)},
    "ex_hold": {"": (16, 16), "--renumber-tags": (16, 16), "--no-auto-convert": (16, 0),
                "--no-auto-position": (16, 0)},
    "ex_manual": {"": (13, 13), "--renumber-tags": (13, 13), "--no-auto-convert": (13, 13),
                  "--no-auto-position": (13, 13)},
    "ex_rot": {"": (12, 12), "--renumber-tags": (12, 12), "--no-auto-convert": (12, 6),
               "--no-auto-position": (12, 6)},
    "fig2": {"": (15, 15), "--renumber-tags": (15, 15), "--no-auto-convert": (15, 15),
             "--no-auto-position": (15, 15)},
    "mini": {"": (2, 2), "--renumber-tags": (2, 2), "--no-auto-convert": (2, 0),
             "--no-auto-position": (2, 0)},
}


@pytest.mark.parametrize("name, flag", sorted(EXPORT_DIGESTS))
def test_export_writes_the_same_bytes_as_before(tmp_path, capsys, name, flag):
    scene = _copy_fixture(name, tmp_path)
    assert main(["export", str(scene), "--basename", str(tmp_path / "s"),
                 *([flag] if flag else [])]) == 0
    digests = tuple(hashlib.sha256((tmp_path / f"s-psfrag.{ext}").read_bytes()).hexdigest()[:16]
                    for ext in ("eps", "tex"))
    assert digests == EXPORT_DIGESTS[name, flag]
    assert capsys.readouterr().out == "%d labels, %d tagged\n" % EXPORT_COUNTS[name][flag]


def test_export_missing_scene_is_io_error(tmp_path, capsys):
    code = main(["export", str(tmp_path / "absent.scene"),
                 "--basename", str(tmp_path / "x")])
    assert code == 3
    assert not list(tmp_path.iterdir())


def test_export_with_an_empty_basename_exits_two_in_one_line(tmp_path, capsys, monkeypatch):
    scene = _copy_fixture("fig2", tmp_path)
    monkeypatch.chdir(tmp_path)  # where a suffix-only name would be written
    assert main(["export", str(scene), "--basename", ""]) == 2
    assert capsys.readouterr() == ("", "error: basename must be nonempty\n")
    assert list(tmp_path.iterdir()) == [scene]


@pytest.mark.parametrize("suffix", [".out", ""])
def test_export_with_equal_suffixes_exits_two_in_one_line(tmp_path, capsys, suffix):
    scene = _copy_fixture("mini", tmp_path)
    assert main(["export", str(scene), "--basename", str(tmp_path / "o"),
                 "--eps-suffix", suffix, "--tex-suffix", suffix]) == 2
    path = str(tmp_path / "o") + suffix
    assert capsys.readouterr() == (
        "", f"error: EPS and tex paths must differ: {path!r} and {path!r} both name "
            f"{os.path.realpath(path)!r}\n")
    assert list(tmp_path.iterdir()) == [scene]


@pytest.mark.parametrize("eps_suffix, tex_suffix, made", [
    ("/../x.out", "/./../x.out", "o"),  # `o` is a directory
    (".eps", "_link", "o_link"),  # `o_link` is a symbolic link to `o.eps`
])
def test_export_with_suffixes_naming_one_file_exits_two_in_one_line(tmp_path, capsys, eps_suffix,
                                                                    tex_suffix, made):
    scene = _copy_fixture("mini", tmp_path)
    if made == "o":
        (tmp_path / "o").mkdir()
    else:
        (tmp_path / made).symlink_to(tmp_path / "o.eps")
    before = sorted(tmp_path.iterdir())
    assert main(["export", str(scene), "--basename", str(tmp_path / "o"),
                 "--eps-suffix", eps_suffix, "--tex-suffix", tex_suffix]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: EPS and tex paths must differ: ")
    assert err.count("\n") == 1 and str(tmp_path / "x.out" if made == "o" else "o.eps") in err
    assert sorted(tmp_path.iterdir()) == before and not (tmp_path / "o.eps").exists()


@pytest.mark.parametrize("spelling", ["same", "dotted", "link"])
@pytest.mark.parametrize("output", ["eps", "tex"])
@pytest.mark.parametrize("which", ["scene", "hooks", "env"])
def test_export_refuses_an_output_that_is_one_of_its_inputs(tmp_path, capsys, monkeypatch, which,
                                                            output, spelling):
    scene = _copy_fixture("mini", tmp_path)
    hooks = tmp_path / "h.json"
    hooks.write_text("{}")
    victim = scene if which == "scene" else hooks
    (tmp_path / "sub").mkdir()
    basename, suffix = {"same": (tmp_path / victim.stem, victim.suffix),
                        "dotted": (tmp_path / "sub", f"/../{victim.name}"),
                        "link": (tmp_path / "sub" / "out", "")}[spelling]
    if spelling == "link":
        (tmp_path / "sub" / "out").symlink_to(victim)
    monkeypatch.setenv("LABELFORGE_HOOKS", str(hooks) if which == "env" else "")
    argv = ["export", str(scene), "--basename", str(basename), f"--{output}-suffix", suffix]
    if which == "hooks":
        argv += ["--hooks", str(hooks)]
    before = {path: path.read_bytes() for path in (scene, hooks)}
    names = sorted(tmp_path.rglob("*"))
    assert main(argv) == 2
    assert capsys.readouterr() == (
        "", f"error: export: output {str(basename) + suffix!r} is an input: both name "
        f"{os.path.realpath(victim)!r}\n")
    assert {path: path.read_bytes() for path in (scene, hooks)} == before
    assert sorted(tmp_path.rglob("*")) == names


def _tree(folder: Path) -> dict[Path, bytes | bool]:
    """Each path under `folder`: a file's bytes, False for a directory."""
    return {path: path.is_file() and path.read_bytes() for path in folder.rglob("*")}


@pytest.mark.parametrize("argv, in_the_way", [
    (["export", "{d}/mini.scene", "--basename", "{d}/o"], "o-psfrag.eps"),
    (["export", "{d}/mini.scene", "--basename", "{d}/o"], "o-psfrag.tex"),
    (["preview", "{golden}/ex_auto-psfrag.eps", "{golden}/ex_auto-psfrag.tex", "{d}/p.eps"],
     "p.eps"),
    (["renumber", "{d}/e.eps", "{d}/e.tex"], "e.eps.bak"),
    (["renumber", "{d}/e.eps", "{d}/e.tex"], "e.tex.bak"),
])
def test_an_output_that_is_a_directory_is_refused_before_the_first_write(tmp_path, capsys, argv,
                                                                         in_the_way):
    from conftest import GOLDEN
    _copy_fixture("mini", tmp_path)
    for suffix in ("eps", "tex"):  # a pair for `renumber` to rewrite in place
        shutil.copyfile(GOLDEN / f"ex_auto-psfrag.{suffix}", tmp_path / f"e.{suffix}")
    (tmp_path / in_the_way).mkdir()
    before = _tree(tmp_path)
    assert main([arg.format(d=tmp_path, golden=GOLDEN) for arg in argv]) == 3
    assert capsys.readouterr() == (
        "", f"error: [Errno 21] Is a directory: {str(tmp_path / in_the_way)!r}\n")
    assert _tree(tmp_path) == before


@pytest.mark.parametrize("tex, message", [
    ("e.eps", "EPS backup and tex backup paths must differ: {bak!r} and {bak!r} both name {real!r}"),
    ("e.eps.bak", "renumber: output {bak!r} is an input: both name {real!r}"),
])
def test_renumber_refuses_a_backup_that_names_the_other_or_an_input(tmp_path, capsys, tex,
                                                                    message):
    from conftest import GOLDEN
    shutil.copyfile(GOLDEN / "ex_auto-psfrag.eps", tmp_path / "e.eps")
    shutil.copyfile(GOLDEN / "ex_auto-psfrag.tex", tmp_path / tex)
    before = _tree(tmp_path)
    assert main(["renumber", str(tmp_path / "e.eps"), str(tmp_path / tex)]) == 2
    bak = str(tmp_path / "e.eps.bak")
    assert capsys.readouterr() == (
        "", "error: " + message.format(bak=bak, real=os.path.realpath(bak)) + "\n")
    assert _tree(tmp_path) == before


@pytest.mark.parametrize("missing", [True, False], ids=["missing", "a-file"])
@pytest.mark.parametrize("argv, output", [
    (["export", "{d}/mini.scene", "--basename", "{folder}/o"], "o-psfrag.eps"),
    (["preview", "{golden}/ex_auto-psfrag.eps", "{golden}/ex_auto-psfrag.tex", "{folder}/p.eps"],
     "p.eps"),
])
def test_an_output_in_a_directory_that_is_not_there_is_refused_naming_it(tmp_path, capsys, argv,
                                                                        output, missing):
    from conftest import GOLDEN
    _copy_fixture("mini", tmp_path)
    folder = tmp_path / ("nodir" if missing else "mini.scene")
    names = sorted(tmp_path.rglob("*"))
    assert main([arg.format(d=tmp_path, folder=folder, golden=GOLDEN) for arg in argv]) == 3
    reason = "[Errno 2] No such file or directory" if missing else "[Errno 20] Not a directory"
    assert capsys.readouterr() == ("", f"error: {reason}: {str(folder / output)!r}\n")
    assert sorted(tmp_path.rglob("*")) == names


def test_export_bad_scene_is_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.scene"
    bad.write_text('{"version": 1, "plot_range": [[0, 1], [0, 1]], '
                   '"size": [10, 10], "bogus": true}')
    code = main(["export", str(bad), "--basename", str(tmp_path / "x")])
    assert code == 1
    assert "bogus" in capsys.readouterr().err
    assert not (tmp_path / "x-psfrag.eps").exists()


def test_export_bad_expression_reports_offset(tmp_path, capsys):
    bad = tmp_path / "bad.scene"
    bad.write_text(json.dumps({
        "version": 1, "plot_range": [[0, 1], [0, 1]], "size": [10, 10],
        "primitives": [{"type": "text", "expr": "Sin[x", "pos": [0.5, 0.5]}],
    }))
    code = main(["export", str(bad), "--basename", str(tmp_path / "x")])
    assert code == 1
    assert "offset" in capsys.readouterr().err


def test_inspect_unbalanced_grestore_exits_one(tmp_path, capsys):
    eps = tmp_path / "grestore.eps"
    eps.write_bytes(b"%!PS\ngrestore\n")
    assert main(["inspect", str(eps)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: grestore with no saved state") and err.count("\n") == 1


@pytest.mark.parametrize("program", [
    b"(ab) [5 5] xshow", b"(ab) [1 2 3 4] xyshow", b"/a glyphshow", b"{pop pop pop} (ab) cshow",
    b"1 0 32 0.5 0 (ab) awidthshow"])
def test_inspect_show_variant_prints_one_warning(tmp_path, capsys, program):
    eps = tmp_path / "variant.eps"
    eps.write_bytes(b"%!PS\n" + program + b"\n")
    assert main(["inspect", str(eps)]) == 0
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("warning: ") and err.count("\n") == 1


_FAR = b"1e200 1e200 scale 1e200 1e200 scale 1 1 moveto (a) show"


@pytest.mark.parametrize("command, program", [
    ("inspect", _FAR),
    ("inspect", b"1e300 1 scale 1e10 1e10 moveto (a) show"),
    ("preview", _FAR),
    ("preview", b"/Times-Roman findfont 1e300 scalefont 1e300 scalefont setfont (a) show"),
])
def test_a_show_at_a_non_finite_placement_exits_one(tmp_path, capsys, command, program):
    data = b"%!PS-Adobe-3.0 EPSF-3.0\n" + program + b"\n"
    eps, tex = tmp_path / "far.eps", tmp_path / "far.tex"
    eps.write_bytes(data)
    tex.write_text("\\psfrag{a}[cc][cc][1][0]{x}\n")
    argv = (["inspect", "--format", "json", str(eps)] if command == "inspect"
            else ["preview", str(eps), str(tex), str(tmp_path / "out.eps")])
    before = sorted(tmp_path.iterdir())
    assert main(argv) == 1
    out, err = capsys.readouterr()
    show = data.rindex(b"show")  # the span is the operator's bytes, not the whitespace around
    no_point = "" if b"moveto" in program else (
        f"warning: show at bytes {show}..{show + 4} has no current point: the user-space "
        "origin is taken\n")
    assert out == "" and err == (f"{no_point}error: show places its text at a non-finite "
                                 f"position, rotation, scale or size at bytes {show}..{show + 4}\n")
    assert sorted(tmp_path.iterdir()) == before


def test_export_non_decimal_digit_is_a_bad_expression(tmp_path, capsys):
    path = tmp_path / "bad.scene"
    path.write_text(_text_scene("2\u00b2"))
    before = sorted(tmp_path.iterdir())
    assert main(["export", str(path), "--basename", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: bad expression ") and err.count("\n") == 1
    assert sorted(tmp_path.iterdir()) == before


def test_export_prints_one_line_per_warning(tmp_path, capsys):
    path = tmp_path / "warn.scene"
    path.write_text(json.dumps({
        "version": 1, "plot_range": [[0, 1], [0, 1]], "size": [100, 100],
        "primitives": [
            {"type": "text", "expr": "f[x]", "pos": [0.2, 0.5]},
            {"type": "text", "expr": "g[y]", "pos": [0.8, 0.5]}]}))
    assert main(["export", str(path), "--basename", str(tmp_path / "w")]) == 0
    out, err = capsys.readouterr()
    assert out == "2 labels, 2 tagged\n"
    lines = err.splitlines()
    assert len(lines) == 2 and err.endswith("\n")
    assert all(line.startswith("warning: ") and ".py:" not in line for line in lines)


def test_export_warns_once_per_label_naming_it(tmp_path, capsys):
    exprs = ["f[x]", "f[y]", "g[x]", "f[x]+1"]
    path = tmp_path / "heads.scene"
    path.write_text(json.dumps({
        "version": 1, "plot_range": [[0, 1], [0, 1]], "size": [100, 100],
        "primitives": [{"type": "text", "expr": e, "pos": [0.2 * i, 0.5]}
                       for i, e in enumerate(exprs)]}))
    assert main(["export", str(path), "--basename", str(tmp_path / "h")]) == 0
    assert capsys.readouterr().err.splitlines() == [
        f"warning: label {source!r}: no LaTeX mapping for head {head!r}"
        for source, head in [("f[x]", "f"), ("f[y]", "f"), ("g[x]", "g"), ("f[x] + 1", "f")]]


def test_export_failing_on_a_later_label_still_prints_earlier_warnings(tmp_path, capsys):
    path = tmp_path / "dup.scene"
    path.write_text(json.dumps({
        "version": 1, "plot_range": [[0, 1], [0, 1]], "size": [100, 100],
        "primitives": [{"type": "text", "expr": "f[x]", "pos": [0.1, 0.5]}] + [
            {"type": "text", "expr": e, "pos": [0.5, 0.5], "psfrag": {"tag": "T"}}
            for e in ("x", "y")]}))
    assert main(["export", str(path), "--basename", str(tmp_path / "d")]) == 2
    warning, error = capsys.readouterr().err.splitlines()
    assert warning == "warning: label 'f[x]': no LaTeX mapping for head 'f'"
    assert error.startswith("error: psfrag tag 'T' assigned to both label 'x' and label 'y'")


def test_export_prints_each_label_source_once(tmp_path, capsys, monkeypatch):
    calls = []
    original = labeling.print_source
    monkeypatch.setattr(labeling, "print_source", lambda e: calls.append(1) or original(e))
    scene = _copy_fixture("ex_auto", tmp_path)
    assert main(["export", str(scene), "--basename", str(tmp_path / "a")]) == 0
    assert capsys.readouterr().out == "13 labels, 13 tagged\n"
    assert len(calls) == 13



def _count_checks(monkeypatch, cls) -> list:
    """A list that grows by one each time a `cls` record is built and checked."""
    calls = []
    original = cls.__post_init__
    monkeypatch.setattr(cls, "__post_init__", lambda self: calls.append(1) or original(self))
    return calls


def test_export_builds_no_alignment_code_per_automatic_label(tmp_path, capsys, monkeypatch):
    built = _count_checks(monkeypatch, PosCode)
    scene = _copy_fixture("ex_auto", tmp_path)
    load_scene(scene)
    loaded, built[:] = len(built), []
    assert main(["export", str(scene), "--basename", str(tmp_path / "a")]) == 0
    assert capsys.readouterr().out == "13 labels, 13 tagged\n"
    assert len(built) == loaded  # the codes the scene names; its 13 labels are automatic


@pytest.mark.parametrize("name", [p.stem for p in sorted(FIXTURES.glob("*.scene"))])
def test_export_checks_each_label_at_most_twice(tmp_path, capsys, monkeypatch, name):
    checked = _count_checks(monkeypatch, TextPrimitive)
    scene = _copy_fixture(name, tmp_path)
    assert main(["export", str(scene), "--basename", str(tmp_path / "a")]) == 0
    labels = int(capsys.readouterr().out.split()[0])
    assert 0 < len(checked) <= 2 * labels  # on load or expansion, again if auto_wrap wraps it


def test_export_expands_the_decorations_once(tmp_path, capsys, monkeypatch):
    calls = []
    original = labeling.expand_decorations
    monkeypatch.setattr(labeling, "expand_decorations",
                        lambda scene: calls.append(1) or original(scene))
    scene = _copy_fixture("ex_hold", tmp_path)
    assert main(["export", str(scene), "--basename", str(tmp_path / "a")]) == 0
    assert capsys.readouterr().out == "16 labels, 16 tagged\n"
    assert len(calls) == 1


def test_export_duplicate_tag_is_semantic_error(tmp_path, capsys):
    bad = tmp_path / "dup.scene"
    bad.write_text(json.dumps({
        "version": 1, "plot_range": [[0, 1], [0, 1]], "size": [10, 10],
        "primitives": [
            {"type": "text", "expr": "x", "pos": [0.2, 0.2],
             "psfrag": {"tag": "T"}},
            {"type": "text", "expr": "y", "pos": [0.8, 0.8],
             "psfrag": {"tag": "T"}},
        ],
    }))
    code = main(["export", str(bad), "--basename", str(tmp_path / "x")])
    assert code == 2
    assert not (tmp_path / "x-psfrag.eps").exists()
    assert not (tmp_path / "x-psfrag.tex").exists()


def test_export_of_a_zero_scaling_exits_one_and_writes_nothing(tmp_path, capsys):
    scene = tmp_path / "s.scene"
    scene.write_text(json.dumps({
        "version": 1, "plot_range": [[0, 1], [0, 1]], "size": [100, 100],
        "primitives": [{"type": "text", "expr": "y", "pos": [0.5, 0.5],
                        "psfrag": {"scaling": 0}}]}))
    before = sorted(tmp_path.iterdir())
    assert main(["export", str(scene), "--basename", str(tmp_path / "s")]) == 1
    assert capsys.readouterr().err == "error: scaling must be positive\n"
    assert sorted(tmp_path.iterdir()) == before


_NOT_ONE_GROUP = "psfrag body is not a balanced TeX group"
_NOT_UTF8 = "psfrag body holds a character UTF-8 cannot encode"


@pytest.mark.parametrize("psfrag, hooks, message", [
    ({"tex": "{a"}, None, _NOT_ONE_GROUP),
    ({"tex": "a\nb"}, None, _NOT_ONE_GROUP),
    ({"tex": "50%"}, None, _NOT_ONE_GROUP),
    ({}, {"post_replace": {"math": [["$", "{$"]]}}, _NOT_ONE_GROUP),
    ({"tex": "a\ud800"}, None, _NOT_UTF8),
    ({}, {"post_replace": {"math": [["$", "\ud800"]]}}, _NOT_UTF8),
])
def test_export_rejects_a_body_that_is_not_one_tex_group(tmp_path, capsys, psfrag, hooks,
                                                         message):
    scene = tmp_path / "b.scene"
    scene.write_text(json.dumps({
        "version": 1, "plot_range": [[0, 1], [0, 1]], "size": [100, 100],
        "primitives": [{"type": "text", "expr": "y", "pos": [0.8, 0.5], "psfrag": psfrag}]}))
    argv = ["export", str(scene), "--basename", str(tmp_path / "b")]
    if hooks:
        (tmp_path / "h.json").write_text(json.dumps(hooks))
        argv += ["--hooks", str(tmp_path / "h.json")]
    before = sorted(tmp_path.iterdir())
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: label 'y': {message}")
    assert err.count("\n") == 1
    assert sorted(tmp_path.iterdir()) == before  # no -psfrag.eps, no -psfrag.tex


def test_a_text_label_with_a_brace_exports_previews_and_renumbers(tmp_path, capsys):
    scene = tmp_path / "t.scene"
    scene.write_text(json.dumps({
        "version": 1, "plot_range": [[0, 1], [0, 1]], "size": [100, 100],
        "primitives": [{"type": "text", "expr": '"a{"', "pos": [0.5, 0.5]}]}))
    assert main(["export", str(scene), "--basename", str(tmp_path / "t")]) == 0
    eps, tex = str(tmp_path / "t-psfrag.eps"), str(tmp_path / "t-psfrag.tex")
    assert main(["preview", "--strict", eps, tex, str(tmp_path / "p.eps")]) == 0
    assert main(["renumber", eps, tex]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == ["1 occurrences substituted",
                                                        "renumbered 1 tags"]


def test_export_hooks_file(tmp_path, capsys):
    scene = _copy_fixture("ex_auto", tmp_path)
    hooks = tmp_path / "hooks.json"
    hooks.write_text(json.dumps(
        {"post_replace": {"math": [["\\sin", "\\operatorname{sin}"]]}}))
    main(["export", str(scene), "--basename", str(tmp_path / "h"),
          "--hooks", str(hooks)])
    tex = (tmp_path / "h-psfrag.tex").read_text()
    assert "\\operatorname{sin}" in tex
    assert "\\sin" not in tex


def test_export_hooks_env_var(tmp_path, capsys, monkeypatch):
    scene = _copy_fixture("ex_auto", tmp_path)
    hooks = tmp_path / "hooks.json"
    hooks.write_text(json.dumps(
        {"post_replace": {"math": [["\\sin", "\\operatorname{sin}"]]}}))
    monkeypatch.setenv("LABELFORGE_HOOKS", str(hooks))
    main(["export", str(scene), "--basename", str(tmp_path / "h")])
    assert "\\operatorname{sin}" in (tmp_path / "h-psfrag.tex").read_text()


# ---------------------------------------------------------------- inspect

def test_inspect_rot_export(tmp_path, capsys):
    scene = _copy_fixture("ex_rot", tmp_path)
    main(["export", str(scene), "--basename", str(tmp_path / "r"),
          "--no-auto-convert"])
    capsys.readouterr()
    code = main(["inspect", str(tmp_path / "r-psfrag.eps")])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 12
    rots = [float(line.split("\t")[3]) for line in lines]
    expected = [k * 30.0 for k in range(12)]
    assert [r % 360.0 for r in rots] == pytest.approx(expected, abs=1e-3)
    assert all(len(line.split("\t")) == 5 for line in lines)


def test_inspect_json_format(tmp_path, capsys):
    scene = _copy_fixture("ex_auto", tmp_path)
    main(["export", str(scene), "--basename", str(tmp_path / "a")])
    capsys.readouterr()
    code = main(["inspect", str(tmp_path / "a-psfrag.eps"), "--format", "json"])
    assert code == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 13
    assert set(rows[0]) == {"tag", "x", "y", "rot", "scale"}



@pytest.mark.parametrize("literal, field", [
    (r"a\\b", r"a\\b"), (r"a\tb", r"a\tb"), (r"a\nb", r"a\nb"), (r"a\rb", r"a\rb"),
    (r"\t\n\r\\", r"\t\n\r\\"), (r"\\t", r"\\t"), ("plain", "plain"),
])
def test_inspect_tsv_prints_one_line_of_five_fields_per_occurrence(tmp_path, capsys,
                                                                    literal, field):
    eps = tmp_path / "t.eps"
    eps.write_text(f"10 10 moveto ({literal}) show 20 20 moveto (x) show\n")
    assert main(["inspect", str(eps)]) == 0
    lines = capsys.readouterr().out.split("\n")
    assert lines[-1] == "" and len(lines) == 3
    assert [len(line.split("\t")) for line in lines[:2]] == [5, 5]
    assert lines[0].split("\t")[0] == field and lines[1].startswith("x\t")
    assert main(["inspect", str(eps), "--format", "json"]) == 0
    tags = [row["tag"] for row in json.loads(capsys.readouterr().out)]
    assert tags == [field.encode().decode("unicode_escape"), "x"]

def test_inspect_empty_eps(tmp_path, capsys):
    eps = tmp_path / "empty.eps"
    eps.write_bytes(b"%!PS-Adobe-3.0 EPSF-3.0\n%%BoundingBox: 0 0 10 10\n"
                    b"%%EndComments\nshowpage\n%%EOF\n")
    code = main(["inspect", str(eps)])
    assert code == 0
    assert capsys.readouterr().out == ""


def test_inspect_truncated_file_exits_one(tmp_path, capsys):
    eps = tmp_path / "trunc.eps"
    eps.write_bytes(b"%!PS\n0 0 moveto (never closed")
    code = main(["inspect", str(eps)])
    assert code == 1
    assert "offset" in capsys.readouterr().err


# --------------------------------------------------------------- renumber

def _export_3d(tmp_path) -> tuple[Path, Path]:
    scene = _copy_fixture("ex_3d", tmp_path)
    main(["export", str(scene), "--basename", str(tmp_path / "k")])
    return tmp_path / "k-psfrag.eps", tmp_path / "k-psfrag.tex"


def test_renumber_keeps_pair_consistent(tmp_path, capsys):
    eps_path, tex_path = _export_3d(tmp_path)
    capsys.readouterr()
    code = main(["renumber", str(eps_path), str(tex_path)])
    assert code == 0
    registry = parse_psfrag_document(tex_path.read_text())
    assert registry.tags() == list("abcdefghijklmnopqr")
    shown = {occ.tag for occ in scan_tags(eps_path.read_bytes())}
    assert shown == set(registry.tags())
    assert eps_path.with_name(eps_path.name + ".bak").exists()
    assert tex_path.with_name(tex_path.name + ".bak").exists()


def test_renumber_is_idempotent(tmp_path, capsys):
    eps_path, tex_path = _export_3d(tmp_path)
    main(["renumber", str(eps_path), str(tex_path)])
    eps_once = eps_path.read_bytes()
    tex_once = tex_path.read_bytes()
    code = main(["renumber", str(eps_path), str(tex_path)])
    assert code == 0
    assert eps_path.read_bytes() == eps_once
    assert tex_path.read_bytes() == tex_once


def test_renumber_missing_tag_exits_two(tmp_path, capsys):
    eps_path, tex_path = _export_3d(tmp_path)
    with tex_path.open("a") as handle:
        handle.write("\\psfrag{ghost}[bc][bc][1][0]{$g$}\n")
    before_eps = eps_path.read_bytes()
    capsys.readouterr()
    code = main(["renumber", str(eps_path), str(tex_path)])
    assert code == 2
    assert "ghost" in capsys.readouterr().err
    assert eps_path.read_bytes() == before_eps  # nothing written


def test_renumber_of_a_one_letter_alignment_code_exits_one(tmp_path, capsys):
    eps_path, tex_path = tmp_path / "r.eps", tmp_path / "r.tex"
    eps_path.write_bytes(b"%!PS\n0 0 moveto (gA01) show\n")
    tex_path.write_text("\\psfrag{gA01}[c]{x}\n")
    assert main(["renumber", str(eps_path), str(tex_path)]) == 1
    assert capsys.readouterr().err == (
        "error: line 1: alignment code must be two characters: 'c'\n")
    assert list(tmp_path.glob("*.bak")) == []


def test_renumber_leaves_commented_psfrag_line_alone(tmp_path, capsys):
    eps_path, tex_path = _export_3d(tmp_path)
    tag = parse_psfrag_document(tex_path.read_text()).tags()[0]
    comment = f"% \\psfrag{{{tag}}}[bc][bc][1][0]{{old}}\n"
    with tex_path.open("a") as handle:
        handle.write(comment)
    assert main(["renumber", str(eps_path), str(tex_path)]) == 0
    assert tex_path.read_text().endswith(comment)


def test_renumber_retags_indented_entries_and_keeps_other_lines(tmp_path, capsys):
    eps_path, tex_path = _export_3d(tmp_path)
    tex_path.write_text("% header\n"
                        "  \\psfrag{1}[Br][Br][1][0]{a}\n"
                        "\t\\psfrag{05}{b} % note\n"
                        "% \\psfrag{0}{c}\n"
                        "x \\psfrag{0}{c}\n"
                        "\\psfrag{0}[Br]{d}")
    assert main(["renumber", str(eps_path), str(tex_path)]) == 0
    assert tex_path.read_text() == ("% header\n"
                                    "  \\psfrag{a}[Br][Br][1][0]{a}\n"
                                    "\t\\psfrag{b}{b} % note\n"
                                    "% \\psfrag{0}{c}\n"
                                    "x \\psfrag{0}{c}\n"
                                    "\\psfrag{c}[Br]{d}")
    assert {"a", "b", "c", "12"} <= {occ.tag for occ in scan_tags(eps_path.read_bytes())}


def test_renumber_reads_each_tex_line_once(tmp_path, capsys, monkeypatch):
    eps_path, tex_path = _export_3d(tmp_path)
    read = []
    original = labeling.parse_psfrag_line
    monkeypatch.setattr(labeling, "parse_psfrag_line",
                        lambda line: read.append(line) or original(line))
    lines = tex_path.read_text().splitlines()
    assert main(["renumber", str(eps_path), str(tex_path)]) == 0
    assert read == lines
    assert not hasattr(cli, "parse_psfrag_line")  # no second reader in the CLI


def test_renumber_empty_tex_still_rejects_truncated_eps(tmp_path, capsys):
    eps_path, _tex_path = _export_3d(tmp_path)
    eps_path.write_bytes(eps_path.read_bytes()[:-200] + b"(cut")
    tex_path = tmp_path / "empty.tex"
    tex_path.write_text("% nothing here\n")
    capsys.readouterr()
    assert main(["renumber", str(eps_path), str(tex_path)]) == 1
    assert capsys.readouterr().err.startswith("error: unterminated string")
    assert list(tmp_path.glob("*.bak")) == []


def test_renumber_keeps_crlf_line_endings(tmp_path, capsys):
    eps_path, tex_path = _export_3d(tmp_path)
    tex_path.write_bytes(tex_path.read_bytes().replace(b"\n", b"\r\n"))
    assert main(["renumber", str(eps_path), str(tex_path)]) == 0
    old = tex_path.with_name(tex_path.name + ".bak").read_bytes()
    new = tex_path.read_bytes()
    tag = re.compile(rb"\\psfrag\{[^}]*\}")
    assert new != old and tag.split(new) == tag.split(old)  # only the tags changed
    assert b"\r\n" in old


def test_a_byte_order_mark_keeps_the_first_psfrag_entry(tmp_path, capsys):
    scene = _copy_fixture("mini", tmp_path)
    assert main(["export", str(scene), "--basename", str(tmp_path / "m")]) == 0
    eps_path, tex_path = tmp_path / "m-psfrag.eps", tmp_path / "m-psfrag.tex"
    entries = [line for line in tex_path.read_bytes().splitlines(keepends=True)
               if line.startswith(b"\\psfrag{")]
    tex_path.write_bytes(b"\xef\xbb\xbf" + b"".join(entries))
    capsys.readouterr()
    assert main(["preview", "--strict", str(eps_path), str(tex_path), str(tmp_path / "p.eps")]) == 0
    assert capsys.readouterr().out == "2 occurrences substituted\n"
    assert main(["renumber", str(eps_path), str(tex_path)]) == 0
    assert capsys.readouterr().out == "renumbered 2 tags\n"
    old = tex_path.with_name(tex_path.name + ".bak").read_bytes()
    new = tex_path.read_bytes()
    tag = re.compile(rb"\\psfrag\{[^}]*\}")
    assert new.startswith(b"\xef\xbb\xbf\\psfrag{a}")
    assert tag.split(new) == tag.split(old)  # the BOM and all but the tags kept
    assert {occ.tag for occ in scan_tags(eps_path.read_bytes())} == {"a", "b"}


def test_renumber_keeps_every_byte_but_the_tags(tmp_path, capsys):
    scene = _copy_fixture("mini", tmp_path)
    assert main(["export", str(scene), "--basename", str(tmp_path / "m")]) == 0
    eps_path, tex_path = tmp_path / "m-psfrag.eps", tmp_path / "m-psfrag.tex"
    first, second = parse_psfrag_document(tex_path.read_text()).tags()
    tex = ("\ufeff% 50\\% header\r\n"
           f"\\psfrag{{{first}}}[bc][bc][1][0]{{$\\{{\\sqrt{{x}}\\}}$}} % note\r\n"
           f"\t\\psfrag{{{second}}}{{a\\}}b\\%c{{}}}}\r"
           f"% \\psfrag{{{first}}}{{old}}\n")
    tex_path.write_bytes(tex.encode())
    assert main(["renumber", str(eps_path), str(tex_path)]) == 0
    expected = tex.replace(f"\\psfrag{{{first}}}[", "\\psfrag{a}[").replace(
        f"\\psfrag{{{second}}}", "\\psfrag{b}")
    assert tex_path.read_bytes() == expected.encode()


@pytest.mark.parametrize("command", ["export", "hooks", "preview", "renumber"])
def test_non_utf8_input_exits_one_naming_the_byte(tmp_path, capsys, command):
    eps_path, tex_path = _export_3d(tmp_path)
    scene, bad = _copy_fixture("mini", tmp_path), tmp_path / "bad.txt"
    argv = {"export": ["export", str(bad), "--basename", str(tmp_path / "o")],
            "hooks": ["export", str(scene), "--basename", str(tmp_path / "o"), "--hooks", str(bad)],
            "preview": ["preview", str(eps_path), str(bad), str(tmp_path / "p.eps")],
            "renumber": ["renumber", str(eps_path), str(bad)]}[command]
    tex = b"% caf\xe9\n" + tex_path.read_bytes()
    data = {"export": b'{"version": 1, "\xff": 0}', "hooks": b'{"pre_apply": {"\xffmath": []}}',
            "preview": tex, "renumber": tex}[command]
    bad.write_bytes(data)
    before = sorted(tmp_path.iterdir())
    capsys.readouterr()
    assert main(argv) == 1
    offset = re.search(rb"[\x80-\xff]", data).start()
    assert capsys.readouterr().err == (
        f"error: {bad}: not UTF-8: byte 0x{data[offset]:02X} at byte offset {offset}\n")
    assert sorted(tmp_path.iterdir()) == before  # no output file, no .bak


@pytest.mark.parametrize("line", [
    "\\psfrag{a}[zz]{x}",
    "\\psfrag{a-b}{x}",
    "\\psfrag{a}[bc][bc][x][0]{x}",
    "\\psfrag{a}[bc][bc][nan][0]{x}",
    "\\psfrag{a}[bc][bc][1][inf]{x}",
    "\\psfrag{a}[bc][bc][1e3][0]{x}",
    "\\psfrag{a}[bc][bc][1_0][0]{x}",
    "\\psfrag{a}[bc][bc][1][\u0663]{x}",
    "\\psfrag{a}{x",
    "\\psfrag{a}[bc][bc][1][0][9]{x}",
    "\\psfrag{a}[bc]{x} junk",
    "\\psfrag{a}[bc",
    "\\psfrag{a",
    "\\psfrag{a}x",
    "\\psfrag{a}[bc]x{y}",
    "\\psfrag{a}",
    "\\psfrag{a}[bc][bc]",
])
@pytest.mark.parametrize("command", ["preview", "renumber"])
def test_bad_psfrag_line_exits_one_naming_the_line(tmp_path, capsys, command, line):
    eps_path, tex_path = _export_3d(tmp_path)
    tex_path.write_text("% header\n" + line + "\n", encoding="utf-8")
    out_path = tmp_path / "prev.eps"
    before = sorted(tmp_path.iterdir())
    capsys.readouterr()
    argv = [command, str(eps_path), str(tex_path)]
    assert main(argv + [str(out_path)] if command == "preview" else argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: line 2: ") and err.count("\n") == 1
    assert sorted(tmp_path.iterdir()) == before  # no output file, no .bak


def test_new_files_follow_umask_and_rewrites_keep_mode(tmp_path, capsys):
    old_umask = os.umask(0o022)
    try:
        eps_path, tex_path = _export_3d(tmp_path)
        assert stat.S_IMODE(eps_path.stat().st_mode) == 0o644
        assert stat.S_IMODE(tex_path.stat().st_mode) == 0o644
        eps_path.chmod(0o640)
        tex_path.chmod(0o640)
        assert main(["renumber", str(eps_path), str(tex_path)]) == 0
        for path in (eps_path, tex_path):
            assert stat.S_IMODE(path.stat().st_mode) == 0o640
            backup = path.with_name(path.name + ".bak")
            assert stat.S_IMODE(backup.stat().st_mode) == 0o640
    finally:
        os.umask(old_umask)


# ---------------------------------------------------------------- preview

def _export_fig2(tmp_path) -> tuple[Path, Path]:
    scene = _copy_fixture("fig2", tmp_path)
    main(["export", str(scene), "--basename", str(tmp_path / "f")])
    return tmp_path / "f-psfrag.eps", tmp_path / "f-psfrag.tex"


def test_preview_fig2_counts_fifteen(tmp_path, capsys):
    eps_path, tex_path = _export_fig2(tmp_path)
    out_path = tmp_path / "prev.eps"
    capsys.readouterr()
    code = main(["preview", str(eps_path), str(tex_path), str(out_path)])
    assert code == 0
    assert capsys.readouterr().out.strip() == "15 occurrences substituted"
    assert out_path.read_bytes().count(b"closepath stroke") == 15


def test_preview_of_the_golden_pair_writes_the_golden_preview(tmp_path, capsys):
    from conftest import GOLDEN
    out_path = tmp_path / "prev.eps"
    assert main(["preview", str(GOLDEN / "ex_auto-psfrag.eps"), str(GOLDEN / "ex_auto-psfrag.tex"),
                 str(out_path)]) == 0
    assert capsys.readouterr() == ("13 occurrences substituted\n", "")
    assert out_path.read_bytes() == (GOLDEN / "ex_auto-preview.eps").read_bytes()


def test_preview_strict_stale_tag_exits_two(tmp_path, capsys):
    eps_path, tex_path = _export_fig2(tmp_path)
    with tex_path.open("a") as handle:
        handle.write("\\psfrag{stale}[bc][bc][1][0]{$s$}\n")
    out_path = tmp_path / "prev.eps"
    capsys.readouterr()
    code = main(["preview", str(eps_path), str(tex_path), str(out_path),
                 "--strict"])
    assert code == 2
    assert "stale" in capsys.readouterr().err
    assert not out_path.exists()


def test_preview_strict_shown_text_with_no_entry_exits_two(tmp_path, capsys):
    eps_path, tex_path = tmp_path / "z.eps", tmp_path / "z.tex"
    eps_path.write_bytes(b"%!PS\n0 0 moveto (zzz) show\n")
    tex_path.write_text("")
    out_path = tmp_path / "prev.eps"
    assert main(["preview", str(eps_path), str(tex_path), str(out_path), "--strict"]) == 2
    assert capsys.readouterr().err == "error: shown text 'zzz' has no entry\n"
    assert not out_path.exists()


@pytest.mark.parametrize("spelling", ["same", "dotted", "link"])
@pytest.mark.parametrize("which", ["eps", "tex"])
def test_preview_refuses_an_output_that_is_one_of_its_inputs(tmp_path, capsys, which, spelling):
    from conftest import GOLDEN
    inputs = {kind: tmp_path / f"a.{kind}" for kind in ("eps", "tex")}
    for kind, path in inputs.items():
        shutil.copyfile(GOLDEN / f"ex_auto-psfrag.{kind}", path)
    (tmp_path / "sub").mkdir()
    out = {"same": inputs[which], "dotted": tmp_path / "sub" / ".." / f"a.{which}",
           "link": tmp_path / "sub" / "out"}[spelling]
    if spelling == "link":
        out.symlink_to(inputs[which])
    assert main(["preview", str(inputs["eps"]), str(inputs["tex"]), str(out)]) == 2
    assert capsys.readouterr() == (
        "", f"error: preview: output {str(out)!r} is an input: both name "
        f"{os.path.realpath(inputs[which])!r}\n")
    for kind, path in inputs.items():
        assert path.read_bytes() == (GOLDEN / f"ex_auto-psfrag.{kind}").read_bytes()
    assert sorted(p.name for p in tmp_path.rglob("*")) == sorted(
        ["a.eps", "a.tex", "sub"] + (["out"] if spelling == "link" else []))


@pytest.mark.parametrize("size", ["0", "-10"])
def test_preview_takes_a_zero_or_negative_font_size(tmp_path, capsys, size):
    eps_path, tex_path = tmp_path / "z.eps", tmp_path / "z.tex"
    eps_path.write_text(f"%!PS-Adobe-3.0 EPSF-3.0\n/Times-Roman {size} selectfont"
                        " 10 10 moveto (a) show\nshowpage\n")
    tex_path.write_text("\\psfrag{a}[bc][bc][1][0]{x}\n")
    out_path = tmp_path / "prev.eps"
    assert main(["preview", str(eps_path), str(tex_path), str(out_path)]) == 0
    assert capsys.readouterr().out.strip() == "1 occurrences substituted"
    out_path.unlink()
    with tex_path.open("a") as handle:
        handle.write("\\psfrag{stale}{y}\n")
    argv = ["preview", str(eps_path), str(tex_path), str(out_path), "--strict"]
    assert main(argv) == 2
    assert not out_path.exists()


@pytest.mark.parametrize("size, scale", [
    ("1e-320", "0.00001 0.00001"),  # the box's height underflows to 0
    ("1e300", "1e10 1e-10"),  # its width and height overflow
    ("10", "0 1"),  # a singular matrix, under which the scale is 0
])
def test_preview_of_a_box_too_small_or_large_to_measure_exits_one(tmp_path, capsys, size, scale):
    eps_path, tex_path = tmp_path / "z.eps", tmp_path / "z.tex"
    eps = f"/Times-Roman findfont {size} scalefont setfont {scale} scale 10 10 moveto (a) show\n"
    eps_path.write_text(eps)
    tex_path.write_text("\\psfrag{a}[cc][cc]{x}\n")
    out_path = tmp_path / "prev.eps"
    assert main(["inspect", str(eps_path)]) == 0
    capsys.readouterr()
    assert main(["preview", str(eps_path), str(tex_path), str(out_path)]) == 1
    out, err = capsys.readouterr()
    start = eps.index("(a)")
    assert out == "" and err.startswith(
        f"error: the box of tag 'a' at bytes {start}..{start + 3} is too small or too large")
    assert err.count("\n") == 1 and not out_path.exists()



@pytest.mark.parametrize("scale, code", [
    ("1" + "0" * 307, 1),  # each of the six transform numbers is about 1e307
    ("1" + "0" * 38, 1),  # a and d are 1e38 itself, the translation beyond it
    ("1" + "0" * 30, 0),
    ("0." + "0" * 300 + "1", 0),
])
def test_preview_refuses_a_number_beyond_the_largest_postscript_real(tmp_path, capsys,
                                                                      scale, code):
    eps = "%!PS-Adobe-3.0 EPSF-3.0\n10 10 moveto (a) show\nshowpage\n"
    (tmp_path / "z.eps").write_text(eps)
    (tmp_path / "z.tex").write_text(f"\\psfrag{{a}}[cc][cc][{scale}][0]{{xxxxx}}\n")
    out_path = tmp_path / "prev.eps"
    assert main(["preview", str(tmp_path / "z.eps"), str(tmp_path / "z.tex"),
                 str(out_path)]) == code
    out, err = capsys.readouterr()
    if code == 0:
        concat = next(line for line in out_path.read_text().splitlines() if "concat" in line)
        assert max(len(word) for word in concat.split()) < 40 and err == ""
        return
    start = eps.index("(a)")
    assert out == "" and err == (f"error: the preview of tag 'a' at bytes {start}..{start + 3} "
                                 "needs a number beyond 1e38, the largest a PostScript "
                                 "interpreter reads\n")
    assert not out_path.exists()

def test_preview_draws_the_box_of_a_subnormal_font_size(tmp_path, capsys):
    eps_path, tex_path = tmp_path / "z.eps", tmp_path / "z.tex"
    eps_path.write_text("/Times-Roman findfont 1e-320 scalefont setfont 10 10 moveto (a) show\n")
    tex_path.write_text("\\psfrag{a}[cc][cc]{x}\n")
    assert main(["preview", str(eps_path), str(tex_path), str(tmp_path / "prev.eps")]) == 0
    assert capsys.readouterr() == ("1 occurrences substituted\n", "")


def test_full_workflow_manual_fixture(tmp_path, capsys):
    scene = _copy_fixture("ex_manual", tmp_path)
    base = tmp_path / "m"
    assert main(["export", str(scene), "--basename", str(base),
                 "--no-auto-position"]) == 0
    assert capsys.readouterr().out.strip() == "13 labels, 13 tagged"
    eps_path = tmp_path / "m-psfrag.eps"
    tex_path = tmp_path / "m-psfrag.tex"
    assert main(["renumber", str(eps_path), str(tex_path)]) == 0
    out_path = tmp_path / "m-preview.eps"
    # every show is tagged, so strict preview must succeed
    assert main(["preview", str(eps_path), str(tex_path), str(out_path),
                 "--strict"]) == 0
    assert capsys.readouterr().out.strip().endswith("13 occurrences substituted")
    assert out_path.read_bytes().count(b"closepath stroke") == 13


def test_preview_empty_tex_passthrough_with_banner(tmp_path, capsys):
    eps_path, _tex_path = _export_fig2(tmp_path)
    empty_tex = tmp_path / "empty.tex"
    empty_tex.write_text("% nothing here\n")
    out_path = tmp_path / "prev.eps"
    capsys.readouterr()
    code = main(["preview", str(eps_path), str(empty_tex), str(out_path)])
    assert code == 0
    assert capsys.readouterr().out.strip() == "0 occurrences substituted"
    out = out_path.read_bytes()
    assert b"%%Creator: labelforge-preview" in out
    assert out.replace(b"%%Creator: labelforge-preview\n", b"") == \
        eps_path.read_bytes()


# --------------------------------------------------------- scene documents

def test_scene_rejects_wrong_version():
    with pytest.raises(SceneFormatError):
        parse_scene('{"version": 2, "plot_range": [[0,1],[0,1]], "size": [1,1]}')


def test_scene_rejects_unknown_top_level_key():
    with pytest.raises(SceneFormatError) as info:
        parse_scene('{"version": 1, "plot_range": [[0,1],[0,1]], "size": [1,1],'
                    ' "extras": []}')
    assert "extras" in str(info.value)


def test_scene_rejects_bad_json():
    with pytest.raises(SceneFormatError):
        parse_scene("{not json")


def test_scene_rejects_unknown_primitive():
    with pytest.raises(SceneFormatError):
        parse_scene(json.dumps({
            "version": 1, "plot_range": [[0, 1], [0, 1]], "size": [1, 1],
            "primitives": [{"type": "blob"}]}))


_PROBE_SCENE = """{"version": 1, "plot_range": [[0, 1], [0, 1]], "size": [100, 100],
 "primitives": [
  {"type": "polyline", "points": [[0, 0], [1, 1]]},
  {"type": "circle", "center": [0.5, 0.5], "radius": 0.2},
  {"type": "text", "expr": "x", "pos": [0.5, 0.5], "psfrag": {"tex": "$x$", "tag": "T"}}]}"""


@pytest.mark.parametrize("old, new", [
    ('"points": [[0, 0], [1, 1]]', '"points": [[0, 0], [1, 1e400]]'),
    ('"points": [[0, 0], [1, 1]]', '"points": 5'),
    ('"points": [[0, 0], [1, 1]]', '"points": [[0, 0], [1, NaN]]'),
    ('"radius": 0.2', '"radius": null'),
    ('"radius": 0.2', '"radius": Infinity'),
    ('"tex": "$x$"', '"tex": 5'),
    ('"tag": "T"', '"tag": 5'),
])
def test_export_rejects_mistyped_scene_values(tmp_path, capsys, old, new):
    assert old in _PROBE_SCENE
    path = tmp_path / "probe.scene"
    path.write_text(_PROBE_SCENE.replace(old, new))
    before = sorted(tmp_path.iterdir())
    assert main(["export", str(path), "--basename", str(tmp_path / "p")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert sorted(tmp_path.iterdir()) == before


_OVERFLOWING_TITLE = json.dumps({"version": 1, "plot_range": [[1e308, 1.7e308], [0, 1]],
                                 "size": [100, 100], "decorations": {"plot_label": "t"}})
# Every value finite, but the device scale 1e9 * 0.9 / 1e-300 overflows: written as nan
# before, with exit 0. Then a finite scale and a point whose device x overflows.
_OVERFLOWING_SCALE = json.dumps({
    "version": 1, "size": [1e9, 100], "plot_range": [[0, 1e-300], [0, 1]],
    "primitives": [{"type": "polyline", "points": [[0, 0], [1e-300, 1]]},
                   {"type": "text", "expr": '"x"', "pos": [5e-301, 0.5]}]})
_FAR_POINT = _PROBE_SCENE.replace('"pos": [0.5, 0.5]', '"pos": [1e307, 0.5]')
# A finite scale, but a 301-digit %%BoundingBox: exit 0 before.
_HUGE_SIZE = _PROBE_SCENE.replace('"size": [100, 100]', '"size": [1e300, 100]')
_DEVICE_OVERFLOW = ("device coordinates must be finite: the target size is too large for the "
                    "plot range or a point lies too far outside it")


@pytest.mark.parametrize("scene, message", [
    (_PROBE_SCENE.replace('"tag": "T"', '"tag": "T", "position": "zz"'),
     "bad vertical alignment 'z'"),
    (_PROBE_SCENE.replace('"pos": [0.5, 0.5]', '"pos": [0.5, 0.5], "anchor": [2, 0]'),
     "anchor components must lie in [-1, 1]"),
    (_PROBE_SCENE.replace('"radius": 0.2', '"radius": 0'), "circle radius must be positive"),
    (_PROBE_SCENE.replace('"tag": "T"', '"tag": "a-b"'),
     "psfrag tag must be nonempty alphanumeric: 'a-b'"),
    # finite bounds whose width overflows; decoration geometry that overflows
    (_PROBE_SCENE.replace("[[0, 1], [0, 1]]", "[[-1e308, 1e308], [0, 1]]"),
     "plot range width and height must be finite"),
    (_OVERFLOWING_TITLE, "text position must be finite"),
    (_OVERFLOWING_SCALE, _DEVICE_OVERFLOW),
    (_FAR_POINT, _DEVICE_OVERFLOW),
    (_HUGE_SIZE, "target size must be positive and at most 2147483647 pt"),
], ids=["position", "anchor", "radius", "tag", "wide-range", "overflowing-title",
        "overflowing-scale", "far-point", "huge-size"])
def test_export_refuses_an_invalid_scene_value_in_one_line(tmp_path, capsys, scene, message):
    path = tmp_path / "probe.scene"
    path.write_text(scene)
    before = sorted(tmp_path.iterdir())
    assert main(["export", str(path), "--basename", str(tmp_path / "p")]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert sorted(tmp_path.iterdir()) == before


def test_probe_scene_itself_exports(tmp_path, capsys):
    path = tmp_path / "probe.scene"
    path.write_text(_PROBE_SCENE)
    assert main(["export", str(path), "--basename", str(tmp_path / "p")]) == 0
    assert capsys.readouterr().out.strip() == "1 labels, 1 tagged"


def _text_scene(expr: str) -> str:
    return json.dumps({"version": 1, "plot_range": [[0, 1], [0, 1]], "size": [100, 100],
                       "primitives": [{"type": "text", "expr": expr, "pos": [0.5, 0.5]}]})


def test_export_takes_expressions_nested_a_hundred_deep(tmp_path, capsys):
    path = tmp_path / "deep.scene"
    path.write_text(_text_scene("(" * 100 + "x" + ")" * 100))
    assert main(["export", str(path), "--basename", str(tmp_path / "p")]) == 0
    assert capsys.readouterr().out.strip() == "1 labels, 1 tagged"


_DEEP_JSON = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("scene, hooks", [
    (_text_scene("(" * 101 + "x" + ")" * 101), None),
    (_PROBE_SCENE.replace('"primitives": [', '"primitives": [' + _DEEP_JSON + ","), None),
    (_PROBE_SCENE, '{"pre_apply": ' + _DEEP_JSON + "}"),
], ids=["expression", "scene", "hooks"])
def test_export_rejects_too_deep_nesting(tmp_path, capsys, scene, hooks):
    path = tmp_path / "deep.scene"
    path.write_text(scene)
    argv = ["export", str(path), "--basename", str(tmp_path / "p")]
    if hooks is not None:
        (tmp_path / "hooks.json").write_text(hooks)
        argv += ["--hooks", str(tmp_path / "hooks.json")]
    before = sorted(tmp_path.iterdir())
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert sorted(tmp_path.iterdir()) == before


def test_scene_normalizes_direction():
    scene = parse_scene(json.dumps({
        "version": 1, "plot_range": [[0, 1], [0, 1]], "size": [10, 10],
        "primitives": [{"type": "text", "expr": "x", "pos": [0.5, 0.5],
                        "dir": [3, 4]}]}))
    assert scene.primitives[0].direction == pytest.approx((0.6, 0.8))


def test_scene_rejects_bad_scaling():
    with pytest.raises(SceneFormatError):
        parse_scene(json.dumps({
            "version": 1, "plot_range": [[0, 1], [0, 1]], "size": [10, 10],
            "primitives": [{"type": "text", "expr": "x", "pos": [0.5, 0.5],
                            "psfrag": {"scaling": "big"}}]}))


def test_scene_plot_label_with_directive_survives_export(tmp_path, capsys):
    doc = {
        "version": 1, "plot_range": [[0, 1], [0, 1]], "size": [100, 100],
        "decorations": {
            "plot_label": {"expr": "\"title text\"",
                           "psfrag": {"position": "Bc", "tag": "TTL"}},
            "axes_labels": ["x", {"expr": "Sin[x]", "psfrag": {"rotation": 90}}],
        },
    }
    path = tmp_path / "deco.scene"
    path.write_text(json.dumps(doc))
    code = main(["export", str(path), "--basename", str(tmp_path / "d"),
                 "--no-auto-convert"])
    assert code == 0
    # only the directive-carrying labels are tagged
    assert capsys.readouterr().out.strip() == "3 labels, 2 tagged"
    tex = (tmp_path / "d-psfrag.tex").read_text()
    assert "\\psfrag{TTL}[Bc][Bc][1][0]" in tex
    assert "[1][90]{\\psfragmathstyle" in tex


def test_hooks_rejects_unknown_transform():
    with pytest.raises(SceneFormatError):
        parse_hooks('{"pre_apply": {"math": ["mystery"]}}')


@pytest.mark.parametrize("text", [
    '{"pre_apply": ["hold"]}',
    '{"pre_apply": {"math": 5}}',
    '{"pre_apply": {"math": [["hold"]]}}',
    '{"post_replace": ["a"]}',
    '{"post_replace": {"math": NaN}}',
])
def test_hooks_rejects_mistyped_values(text):
    with pytest.raises(SceneFormatError):
        parse_hooks(text)


_SCENE_HEAD = '"version": 1, "plot_range": [[0, 1], [0, 1]], "size": [1, 1]'
_TEXT_AT = '{"type": "text", "pos": [0, 0], '


@pytest.mark.parametrize("parse, text, message", [
    (parse_scene, "[]", "scene document must be a JSON object"),
    (parse_scene, '{"version": 1, "size": [1, 1]}', "missing scene keys: plot_range"),
    (parse_scene, '{"version": 1, "plot_range": [[0, 1]], "size": [1, 1]}',
     "plot_range must be [[xmin, xmax], [ymin, ymax]]"),
    (parse_scene, '{"version": 1, "plot_range": [[0, 1], [0, 1]], "size": [1]}',
     "size must be a pair of numbers"),
    (parse_scene, '{"version": 1, "plot_range": [[0, 1], [0, 1]], "size": [1%s, 1]}' % ("0" * 400),
     "size must be a finite number"),  # an integer too large for a float
    (parse_scene, '{%s, "primitives": {}}' % _SCENE_HEAD, "primitives must be a list"),
    (parse_scene, '{%s, "primitives": [5]}' % _SCENE_HEAD,
     "each primitive must be an object with a type"),
    (parse_scene, '{%s, "primitives": [{"type": "arrow", "from": [0, 0], "to": [1, 1], '
     '"style": 5}]}' % _SCENE_HEAD, "style must be an object"),
    (parse_scene, '{%s, "primitives": [%s"expr": 5}]}' % (_SCENE_HEAD, _TEXT_AT),
     "text primitive must be an expression string"),
    (parse_scene, '{%s, "primitives": [%s"expr": "x", "dir": [0, 0]}]}' % (_SCENE_HEAD, _TEXT_AT),
     "text dir must be nonzero"),
    (parse_scene, '{%s, "decorations": {"plot_label": 5}}' % _SCENE_HEAD,
     "plot label must be a string or an object"),
    (parse_scene, '{%s, "decorations": {"axes_labels": ["x"]}}' % _SCENE_HEAD,
     "axes_labels must be a two-element list"),
    (parse_scene, '{%s, "decorations": {"frame_ticks": {"left": 5}}}' % _SCENE_HEAD,
     "left ticks must be a list"),
    (parse_scene, '{%s, "decorations": {"frame_ticks": {"left": [5]}}}' % _SCENE_HEAD,
     "each tick must be an object"),
    (parse_scene, '{%s, "decorations": {"gridlines": {"x": 5}}}' % _SCENE_HEAD,
     "gridlines x must be a list of numbers"),
    (parse_hooks, "[]", "hooks document must be a JSON object"),
    (parse_hooks, '{"version": 2}', "unsupported hooks version 2"),
    (parse_hooks, '{"pre_apply": {"graph": []}}', "unknown label class 'graph'"),
    (parse_hooks, '{"post_replace": {"math": [["a"]]}}',
     "post_replace entries must be [find, replace] pairs"),
])
def test_scene_and_hooks_documents_name_what_they_reject(parse, text, message):
    with pytest.raises(SceneFormatError) as info:
        parse(text)
    assert str(info.value) == message


@pytest.mark.parametrize("direction, same_as", [
    ("[1e-200, 0]", "[1, 0]"), ("[1e200, 0]", "[1, 0]"), ("[3e-170, 4e-170]", "[3, 4]"),
    ("[-1, -0.0]", "[-1, 0]"),
])
def test_a_text_dir_exports_as_its_unit_vector_whatever_its_length(tmp_path, capsys, direction,
                                                                   same_as):
    written = []
    for name, given in (("given", direction), ("unit", same_as)):
        scene = tmp_path / f"{name}.scene"
        scene.write_text('{%s, "primitives": [%s"expr": "\\"a\\"", "dir": %s}]}'
                         % (_SCENE_HEAD, _TEXT_AT, given), encoding="utf-8")
        assert main(["export", str(scene), "--basename", str(tmp_path / name)]) == 0
        written.append([(tmp_path / f"{name}-psfrag.{ext}").read_bytes() for ext in ("eps", "tex")])
    assert written[0] == written[1]
    if direction == "[-1, -0.0]":  # atan2 gives -180 degrees for it; the range is (-180, 180]
        assert b" 180 rotate " in written[0][0]


def test_hooks_parses_builtins():
    hooks = parse_hooks('{"pre_apply": {"math": ["hold", "expand_negations"]},'
                        ' "post_replace": {"text": [["a", "b"]]}}')
    from labelforge.exprkit import LabelClass
    assert len(hooks.pre_apply[LabelClass.MATH]) == 2
    assert hooks.post_replace[LabelClass.TEXT] == (("a", "b"),)


# ------------------------------------------------------ imports and call paths

# Each module that defers names, and the names it defers; `labelforge._EXPORTS` names
# each one's defining submodule.
DEFERRED = {
    "labelforge": sorted(labelforge._EXPORTS),
    "labelforge.cli": ["ExportOptions", "load_hooks", "load_scene", "parse_psfrag_document",
                       "psfrag_export", "renumber", "retag_psfrag_text", "substitute_preview"],
    "labelforge.labeling": ["EMPTY_HOOKS", "ExportOptions", "auto_wrap", "expand_decorations",
                            "guess_tex", "print_source"],
}


def _fresh_python(code: str, *argv: str,
                  flags: tuple[str, ...] = ()) -> subprocess.CompletedProcess:
    """Run `code` with `argv` in a fresh interpreter, started with `flags`, that imports this
    checkout's labelforge."""
    src = str(Path(labelforge.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, *flags, "-c", code, *argv], capture_output=True,
                          text=True, env=env, check=True)


# Modules that only some commands need, or none: `fractions` and `decimal` (the expression
# model), `json` (`export` and `inspect --format json`), `base64` (an EPS holding an ASCII85
# string), and `dataclasses`, `inspect`, and `argparse` with the `gettext` and `locale` it
# loads (none). `site` may load `typing`, `tempfile`, `shutil` and `pathlib` itself, so only a
# `python -S` probe watches them: `inspect` needs none of them.
_WATCHED = ("fractions", "decimal", "json", "base64", "dataclasses", "inspect", "argparse",
            "gettext", "locale")
_WATCHED_WITHOUT_SITE = _WATCHED + ("typing", "tempfile", "shutil", "pathlib")


def _loaded_after(*argv: str, site: bool = True) -> list[str]:
    """The labelforge modules and the `_WATCHED` ones (`_WATCHED_WITHOUT_SITE` under
    `python -S` when `site` is false) a fresh interpreter holds after `main(argv)`, or after
    `import labelforge` when argv is empty. The probe itself imports only `sys`, so that it
    does not load what it looks for."""
    watched = _WATCHED if site else _WATCHED_WITHOUT_SITE
    code = ("import sys\n"
            "if sys.argv[1:]:\n"
            "    import labelforge.cli\n"
            "    labelforge.cli.main(sys.argv[1:])\n"
            "else:\n"
            "    import labelforge\n"
            f"watched = lambda m: m.startswith('labelforge') or m in {watched!r}\n"
            "print(sorted(filter(watched, sys.modules)), file=sys.stderr)\n")
    proc = _fresh_python(code, *argv, flags=() if site else ("-S",))
    return ast.literal_eval(proc.stderr.splitlines()[-1])


_INSPECT_LOADS = ["labelforge", "labelforge.affine", "labelforge.cli", "labelforge.epsio",
                  "labelforge.fileio", "labelforge.records"]


def test_each_command_imports_only_what_it_runs(tmp_path, capsys):
    scene = _copy_fixture("fig2", tmp_path)
    assert main(["export", str(scene), "--basename", str(tmp_path / "f")]) == 0
    eps, tex = str(tmp_path / "f-psfrag.eps"), str(tmp_path / "f-psfrag.tex")
    assert _loaded_after() == ["labelforge"]
    assert _loaded_after("inspect", eps) == _INSPECT_LOADS
    exported = _loaded_after("export", str(scene), "--basename", str(tmp_path / "g"))
    assert "labelforge.preview" not in exported
    assert not {"base64", "dataclasses", "inspect", "argparse", "gettext",
                "locale"} & set(exported)
    reader = ["labelforge", "labelforge.affine", "labelforge.cli", "labelforge.directives",
              "labelforge.epsio", "labelforge.fileio", "labelforge.labeling",
              "labelforge.records"]
    assert _loaded_after("preview", eps, tex, str(tmp_path / "p.eps")) == sorted(
        reader + ["labelforge.fontmetrics", "labelforge.preview"])
    assert _loaded_after("renumber", eps, tex) == reader


@pytest.mark.parametrize("command, stdlib", [
    pytest.param("inspect", [], id="inspect"),
    pytest.param("export", ["decimal", "fractions", "json", "shutil", "tempfile", "typing"],
                 id="export"),
    pytest.param("preview", ["shutil", "tempfile"], id="preview"),
    pytest.param("renumber", ["shutil", "tempfile"], id="renumber"),
])
def test_each_command_on_an_interpreter_without_site_loads_nothing_it_does_not_run(
        tmp_path, capsys, command, stdlib):
    """No command loads `pathlib`; the writing ones load `tempfile`, which loads `shutil`;
    `export` alone loads the expression model, `json`, and `typing` for `scenefile`."""
    scene = _copy_fixture("fig2", tmp_path)
    assert main(["export", str(scene), "--basename", str(tmp_path / "f")]) == 0
    eps, tex = str(tmp_path / "f-psfrag.eps"), str(tmp_path / "f-psfrag.tex")
    argv = {"inspect": [eps], "export": [str(scene), "--basename", str(tmp_path / "g")],
            "preview": [eps, tex, str(tmp_path / "p.eps")], "renumber": [eps, tex]}[command]
    loaded = _loaded_after(command, *argv, site=False)
    assert [module for module in loaded if not module.startswith("labelforge")] == stdlib
    if command == "inspect":
        assert loaded == _INSPECT_LOADS


def test_only_export_and_inspect_json_load_json(tmp_path, capsys):
    """`site` does not load `json`, so each command that imports it pays for the import."""
    scene = _copy_fixture("fig2", tmp_path)
    assert main(["export", str(scene), "--basename", str(tmp_path / "f")]) == 0
    eps, tex = str(tmp_path / "f-psfrag.eps"), str(tmp_path / "f-psfrag.tex")
    assert "json" not in _loaded_after("inspect", eps)
    assert "json" not in _loaded_after("preview", eps, tex, str(tmp_path / "p.eps"))
    assert "json" not in _loaded_after("renumber", eps, tex)
    assert "json" in _loaded_after("inspect", "--format", "json", eps)
    assert "json" in _loaded_after("export", str(scene), "--basename", str(tmp_path / "g"))


def test_only_an_eps_with_an_ascii85_string_loads_base64(tmp_path):
    eps = tmp_path / "a85.eps"
    eps.write_bytes(b"%!PS-Adobe-3.0 EPSF-3.0\n10 10 moveto <~@V>~> show\n")
    assert "base64" in _loaded_after("inspect", str(eps))
    assert "base64" not in _loaded_after("inspect", str(FIXTURES.parent / "golden"
                                                      / "ex_auto-psfrag.eps"))


def test_library_export_side_binds_its_names_on_first_use(tmp_path, capsys):
    """derive_tag, build_entry and psfrag_export with default opts and hooks work in a
    fresh interpreter that imported nothing of the export side through labeling."""
    scene = _copy_fixture("fig2", tmp_path)
    assert main(["export", str(scene), "--basename", str(tmp_path / "cli")]) == 0
    code = ("import json, sys\n"
            "from labelforge import labeling\n"
            "from labelforge.directives import LabelDirective\n"
            "from labelforge.exprkit import EMPTY_HOOKS, parse_expr\n"
            "from labelforge.scene import ExportOptions\n"
            "from labelforge.scenefile import load_scene\n"
            "registry = labeling.TagRegistry()\n"
            "tag = labeling.derive_tag(parse_expr('x^2'), registry)\n"
            "entry = labeling.build_entry(LabelDirective(parse_expr('Sin[x]')), None,\n"
            "                             EMPTY_HOOKS, ExportOptions(), registry)\n"
            f"unbound = sorted(set({DEFERRED['labelforge.labeling']!r}) - set(vars(labeling)))\n"
            "result = labeling.psfrag_export(load_scene(sys.argv[1]))\n"
            "print(json.dumps([tag, entry.tag, entry.body, unbound,\n"
            "                  result.eps.decode('latin-1'), result.tex]))\n")
    proc = _fresh_python(code, str(scene))
    from labelforge.exprkit import EMPTY_HOOKS, guess_tex, parse_expr
    *names, eps, tex = json.loads(proc.stdout)
    assert names == [
        "x2", "Sinx", guess_tex(parse_expr("Sin[x]"), EMPTY_HOOKS),
        ["EMPTY_HOOKS", "ExportOptions", "auto_wrap", "expand_decorations"]]
    assert eps.encode("latin-1") == (tmp_path / "cli-psfrag.eps").read_bytes()
    assert tex.encode("utf-8") == (tmp_path / "cli-psfrag.tex").read_bytes()


@pytest.mark.parametrize("module, name", [(module, name) for module, names in DEFERRED.items()
                                          for name in names])
def test_each_deferred_name_resolves_to_its_definition(module, name):
    deferring = importlib.import_module(module)
    defining = importlib.import_module(f"labelforge.{labelforge._EXPORTS[name]}")
    assert deferring.__getattr__(name) is getattr(defining, name)
    assert getattr(deferring, name) is getattr(defining, name)
    with pytest.raises(AttributeError):
        deferring.no_such_name


@pytest.mark.parametrize("module", ["cli", "labeling"])
def test_every_name_read_through_this_is_deferred_or_defined(module):
    """A `_this.<name>` read with no table entry would fail only on the path that runs it."""
    tree = ast.parse(Path(labelforge.__file__).with_name(f"{module}.py").read_text("utf-8"))
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Assign):
            defined |= {target.id for target in node.targets if isinstance(target, ast.Name)}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            defined |= {alias.asname or alias.name for alias in node.names}
    read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "_this"}
    assert read and read - defined <= set(DEFERRED[f"labelforge.{module}"])


def _calls(tree: ast.AST) -> list[tuple[str | None, str, ast.Call]]:
    """Each call in `tree` as (what the name is read from: None for a bare name, the module
    name, or "" for any other value; the name; the call)."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name):
                found.append((None, node.func.id, node))
            elif isinstance(node.func, ast.Attribute):
                owner = node.func.value.id if isinstance(node.func.value, ast.Name) else ""
                found.append((owner, node.func.attr, node))
    return found


def _writes(owner: str | None, name: str, call: ast.Call) -> bool:
    """Whether the call writes a file: a rename, a temp file, a copy, a `Path` writer, or an
    `open` whose mode can write (a mode that is not a literal counts as one that can)."""
    if (owner, name) in {("os", "replace"), ("os", "rename"), ("tempfile", "mkstemp"),
                         ("shutil", "copy")} or name in {"write_bytes", "write_text"}:
        return True
    if name not in {"open", "fdopen"} or (owner, name) == ("os", "open"):
        return False
    # open(path, mode), io.open(path, mode), os.fdopen(fd, mode); else Path.open(mode)
    args = call.args[1:] if owner in {None, "io", "os"} else call.args
    mode = next((kw.value for kw in call.keywords if kw.arg == "mode"),
                args[0] if args else ast.Constant("r"))
    return not isinstance(mode, ast.Constant) or bool(set(mode.value) & set("wax+"))


def test_only_fileio_writes_files_and_only_cli_calls_its_writers():
    writers, callers = set(), set()
    for path in Path(labelforge.__file__).parent.glob("*.py"):
        for owner, name, call in _calls(ast.parse(path.read_text("utf-8"))):
            if _writes(owner, name, call):
                writers.add((path.stem, owner, name))
            if name in {"atomic_write_bytes", "atomic_write_text", "make_backup"}:
                callers.add(path.stem)
    assert {module for module, _, _ in writers} == {"fileio"}
    assert {(owner, name) for _, owner, name in writers} == {
        ("os", "replace"), ("tempfile", "mkstemp"), ("shutil", "copy"), ("os", "fdopen")}
    assert callers == {"cli", "fileio"}  # fileio: atomic_write_text calls atomic_write_bytes


def test_only_fileio_opens_files_and_only_cli_and_scenefile_call_its_readers():
    openers, callers = set(), set()
    for path in Path(labelforge.__file__).parent.glob("*.py"):
        for owner, name, _call in _calls(ast.parse(path.read_text("utf-8"))):
            if name == "open" or (owner is not None and name in {"read_bytes", "read_text"}):
                openers.add((path.stem, owner, name))
            if owner is None and name in {"read_bytes", "read_text"}:
                callers.add(path.stem)
    assert openers == {("fileio", None, "open")}
    assert callers == {"cli", "fileio", "scenefile"}  # fileio: read_text calls read_bytes


def test_no_module_reads_bytecode():
    for path in Path(labelforge.__file__).parent.glob("*.py"):
        text = path.read_text(encoding="utf-8")
        assert "co_names" not in text and "__code__" not in text, path.name


def test_tracer_reaches_every_layer_the_benchmark_names(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", Path(__file__).parents[1] / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    tracer.install()
    try:
        for module, attr in spans.SITES:
            assert hasattr(getattr(importlib.import_module(f"labelforge.{module}"), attr),
                           "__wrapped__"), (module, attr)
        scene = _copy_fixture("fig2", tmp_path)
        eps, tex = str(tmp_path / "f-psfrag.eps"), str(tmp_path / "f-psfrag.tex")
        assert main(["export", str(scene), "--basename", str(tmp_path / "f")]) == 0
        # fig2 gives every label its TeX; ex_auto's labels have theirs guessed.
        auto = _copy_fixture("ex_auto", tmp_path)
        assert main(["export", str(auto), "--basename", str(tmp_path / "a")]) == 0
        assert main(["preview", eps, tex, str(tmp_path / "p.eps")]) == 0
        assert main(["renumber", eps, tex]) == 0
    finally:
        tracer.uninstall()
    layers = {span[spans.NAME] for span in tracer.spans}
    assert layers >= {"exprkit.print_source", "exprkit.guess_tex", "scene.expand_decorations",
                      "scene.auto_wrap", "labeling.build_entry", "labeling.emit_tex",
                      "labeling.parse_psfrag_document", "labeling.renumber"}
    assert not hasattr(labeling.print_source, "__wrapped__")


def test_commands_call_through_the_cli_module_names(tmp_path, capsys, monkeypatch):
    calls = dict.fromkeys(["load_scene", "psfrag_export", "parse_psfrag_document", "renumber",
                           "rewrite_tags", "substitute_preview"], 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(cli, name, counting(name, getattr(cli, name)))
    scene = _copy_fixture("fig2", tmp_path)
    eps, tex = str(tmp_path / "f-psfrag.eps"), str(tmp_path / "f-psfrag.tex")
    assert main(["export", str(scene), "--basename", str(tmp_path / "f")]) == 0
    assert main(["preview", eps, tex, str(tmp_path / "p.eps")]) == 0
    assert main(["renumber", eps, tex]) == 0
    assert calls == {"load_scene": 1, "psfrag_export": 1, "parse_psfrag_document": 2,
                     "renumber": 1, "rewrite_tags": 1, "substitute_preview": 1}


# ----------------------------------------------------------- command line

def _build_parser() -> argparse.ArgumentParser:
    """The argparse parser `cli` used before it read `cli.COMMANDS`: the oracle for
    `cli._parse_args`."""
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
    p_export.set_defaults(func=cli.cmd_export)

    p_inspect = sub.add_parser("inspect", help="list tag occurrences in an EPS")
    p_inspect.add_argument("eps")
    p_inspect.add_argument("--format", choices=("tsv", "json"), default="tsv")
    p_inspect.set_defaults(func=cli.cmd_inspect)

    p_renumber = sub.add_parser("renumber",
                                help="renumber tags in an EPS/tex pair in place")
    p_renumber.add_argument("eps")
    p_renumber.add_argument("tex")
    p_renumber.set_defaults(func=cli.cmd_renumber)

    p_preview = sub.add_parser("preview",
                               help="substitute placeholder boxes for tags")
    p_preview.add_argument("eps")
    p_preview.add_argument("tex")
    p_preview.add_argument("out")
    p_preview.add_argument("--strict", action="store_true",
                           help="fail on any unmatched tag in either direction")
    p_preview.set_defaults(func=cli.cmd_preview)
    return parser


def _run_main(argv: list[str]) -> tuple[int, str, str]:
    """`main(argv)`'s exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


_OPTIONS = sorted({option for _, _, options in cli.COMMANDS.values() for option in options}
                  | {"--help"})
# No value is "--": argparse 3.11 read `--format=--` as the format [], which ran as tsv,
# where `_parse_args` refuses it. Nor is "-hh", which argparse read as -h -h.
_VALUES = st.sampled_from(["v", "", "a=b", "=", "json", "tsv", "xml", "-"])
# Each option in full and cut to each shorter prefix that still has two dashes and a
# letter: "--h" is --help to the top level and ambiguous to `export`, "--no-auto" always.
_SPELLINGS = st.sampled_from([option[:n] for option in _OPTIONS
                              for n in range(3, len(option) + 1)])
_TOKENS = (st.sampled_from([*cli.COMMANDS, "--", "-h", "--nope", "-x"]) | _VALUES
           | _SPELLINGS | st.builds("{}={}".format, _SPELLINGS, _VALUES))


@st.composite
def _near_table_lines(draw) -> list[str]:
    """A command with its positionals and some of its options, each cut to a prefix and
    given its value apart or after "=", in any order, with at most one of `_TOKENS` put in."""
    command = draw(st.sampled_from(list(cli.COMMANDS)))
    _, positionals, options = cli.COMMANDS[command]
    groups = [[draw(_VALUES)] for _ in positionals]
    for option in draw(st.lists(st.sampled_from(list(options)), max_size=4)) if options else []:
        cut = option[:draw(st.integers(3, len(option)))]
        if options[option] is False:
            groups.append([cut])
        elif draw(st.booleans()):
            groups.append([f"{cut}={draw(_VALUES)}"])
        else:
            groups.append([cut, draw(_VALUES)])
    words = [word for group in draw(st.permutations(groups)) for word in group]
    for at, token in draw(st.lists(st.tuples(st.integers(0, len(words)), _TOKENS), max_size=1)):
        words.insert(at, token)
    return [command, *words]


@settings(max_examples=600, deadline=None)
@example(["inspect", "--form", "json", "x"])
@example(["inspect", "--form=json", "--", "-x"])
@example(["export", "--basename=", "-", "--hooks", "h", "--hooks=k", "--no-auto-c", "--no-auto-c"])
@example(["preview", "a", "--", "b", "c"])
@example(["preview", "a", "b", "c", "--"])
@example(["inspect", "a", "--format", "json", "--"])
@example(["renumber", "-1", "-.5"])
@example(["renumber", "--", "a", "--"])
@example(["--nope", "-h", "export"])
@example(["export", "-h", "--no-auto"])
@given(st.lists(_TOKENS, max_size=8) | _near_table_lines())
def test_parse_args_reads_a_command_line_as_argparse_did(argv):
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            expected, exit_code = vars(_build_parser().parse_args(argv)), None
        except SystemExit as exc:
            expected, exit_code = None, exc.code
    if exit_code == 2:
        with pytest.raises(cli.UsageError):
            cli._parse_args(argv)
        code, out, err = _run_main(argv)
        assert (code, out, err.count("\n"), err[:7]) == (2, "", 1, "error: ")
    elif exit_code == 0:
        assert cli._parse_args(argv).func is cli._print_usage
        code, out, err = _run_main(argv)
        assert (code, out[:7], err) == (0, "usage: ", "")
    else:
        assert exit_code is None
        got = vars(cli._parse_args(argv))
        assert got.pop("func") is expected.pop("func")
        # argparse 3.11 reads a "--" after the first one as an empty list when it stands
        # alone for a positional; `_parse_args` reads it as the argument "--".
        assert got == {name: "--" if value == [] else value for name, value in expected.items()}


@pytest.mark.parametrize("argv", [
    [],  # no command
    ["bogus"],
    ["inspect", "{eps}", "--nope"],
    ["export", "{scene}", "--basename", "{out}", "--no-auto"],  # ambiguous prefix
    ["export", "{scene}"],  # no --basename
    ["renumber", "{eps}"],
    ["inspect", "{eps}", "{eps}"],
    ["inspect", "{eps}", "--format", "xml"],
    ["export", "{scene}", "--basename", "{out}", "--renumber-tags=1"],
    ["export", "{scene}", "--basename"],
    ["--help=x"],
], ids=["no-command", "unknown-command", "unknown-option", "ambiguous-prefix",
        "no-basename", "missing-positional", "extra-positional", "bad-format",
        "flag-with-value", "option-without-value", "help-with-value"])
def test_a_usage_error_exits_two_in_one_line_and_writes_nothing(tmp_path, capsys, argv):
    scene = _copy_fixture("fig2", tmp_path)
    eps = tmp_path / "in.eps"
    shutil.copyfile(FIXTURES.parent / "golden" / "ex_auto-psfrag.eps", eps)
    before = sorted(tmp_path.iterdir())
    argv = [word.format(scene=scene, eps=eps, out=tmp_path / "out") for word in argv]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and err.startswith("error: ")
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["--nope", "--he"], ["export", "-h"],
                                  ["preview", "a", "--help"], ["inspect", "--he", "--nope"]])
def test_help_prints_the_usage_the_table_gives(capsys, argv):
    assert main(argv) == 0
    out, err = capsys.readouterr()
    commands = [argv[0]] if argv[0] in cli.COMMANDS else list(cli.COMMANDS)
    assert err == "" and out.startswith("usage: labelforge ")
    assert out.count("\n") == len(commands)
    for command, line in zip(commands, out.splitlines()):
        _, positionals, options = cli.COMMANDS[command]
        words = line.split()
        words = words[words.index("labelforge") + 1:]
        assert words[:1 + len(positionals)] == [command, *positionals]
        assert [word.strip("[]").partition("=")[0] for word in words[1 + len(positionals):]] == [
            *options]


# ------------------------------------------------- the README contract on mutated inputs

_SCENES = {path.stem: json.loads(path.read_text(encoding="utf-8"))
           for path in sorted(FIXTURES.glob("*.scene"))}
_GOLDEN_EPS = (FIXTURES.parent / "golden" / "ex_auto-psfrag.eps").read_bytes()
_GOLDEN_TEX = (FIXTURES.parent / "golden" / "ex_auto-psfrag.tex").read_bytes()
# What a scene value is replaced by: a lone surrogate, a huge number, a value of the wrong
# type, or an expression that does not parse.
_SCENE_VALUES = ["a\ud800", '"a\ud800"', 1e308, -1e308, 0, True, None, [], {}, "x +", "f[", ""]
_SURROGATE_SCENE = json.dumps({
    "version": 1, "plot_range": [[0, 1], [0, 1]], "size": [100, 100],
    "primitives": [{"type": "text", "expr": "\"a\ud800\"", "pos": [0.5, 0.5]}]}).encode()


def _value_paths(value, path=()):
    """The key path of every value inside the JSON value."""
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        yield (*path, key)
        yield from _value_paths(item, (*path, key))


@st.composite
def _mutated_scene(draw) -> tuple[str, bytes]:
    scene = json.loads(json.dumps(_SCENES[draw(st.sampled_from(sorted(_SCENES)))]))
    *parents, key = draw(st.sampled_from(list(_value_paths(scene))))
    target = scene
    for parent in parents:
        target = target[parent]
    target[key] = draw(st.sampled_from(_SCENE_VALUES))
    return "scene", json.dumps(scene).encode()


@st.composite
def _mutated_tex(draw) -> tuple[str, bytes]:
    lines = _GOLDEN_TEX.splitlines(keepends=True)
    i = draw(st.integers(0, len(lines) - 1))
    line = lines[i]
    at = draw(st.integers(0, len(line)))
    insert = draw(st.sampled_from([b"{", b"}", b"[", b"]", b"%", b"\\", b"\n", b"\xff", b"x", b"-",
                                   b"1e999"]))
    lines[i] = draw(st.sampled_from([line[:at] + line[at + 1:], line[:at] + insert + line[at:],
                                     line + line]))  # a byte less, a byte more, the line twice
    return "tex", b"".join(lines)


@st.composite
def _mutated_eps(draw) -> tuple[str, bytes]:
    data = bytearray(_GOLDEN_EPS)
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(data) - 1))
        data[at] = draw(st.sampled_from(b"()<>[]{}/%\\ \n09.-e\x00\xff") | st.integers(0, 255))
    return "eps", bytes(data)


@settings(max_examples=150, deadline=None)
@given(case=st.one_of(_mutated_scene(), _mutated_tex(), _mutated_eps()))
@example(case=("scene", _SURROGATE_SCENE))
def test_every_command_on_a_mutated_input_exits_zero_to_three_and_a_failure_writes_nothing(case):
    """A fixture scene with one value replaced goes through `export`, the ex_auto pair with one
    `\\psfrag` line mutated through `preview` and `renumber`, and the pair with a few EPS
    bytes changed through `inspect`, `preview` and `renumber`. Each returns 0 to 3 and raises
    nothing, and one that fails leaves every file as it was."""
    kind, data = case
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        eps, tex, out = work / "a.eps", work / "a.tex", str(work / "out")
        (work / "s.scene").write_bytes(data if kind == "scene" else b"{}")
        eps.write_bytes(data if kind == "eps" else _GOLDEN_EPS)
        tex.write_bytes(data if kind == "tex" else _GOLDEN_TEX)
        runs = {"scene": [["export", str(work / "s.scene"), "--basename", out]],
                "tex": [["preview", str(eps), str(tex), out], ["renumber", str(eps), str(tex)]],
                "eps": [["inspect", str(eps)], ["preview", str(eps), str(tex), out],
                        ["renumber", str(eps), str(tex)]]}[kind]
        for argv in runs:
            before = {path.name: path.read_bytes() for path in work.iterdir()}
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                code = main(argv)
            assert code in (0, 1, 2, 3), argv
            if code:
                assert {path.name: path.read_bytes() for path in work.iterdir()} == before, argv
                assert err.getvalue().count("error: ") == 1, (argv, err.getvalue())
