"""Every command's output bytes, pinned by sha256 in golden/outputs.json.

Each case exports a scene, then runs `inspect` (tsv and json), `preview` and `renumber` on
the pair it wrote, all through `cli.main` in one process. The cases are the seven fixtures
under four option sets and the seed-1 scenes of the benchmark's two dense workloads. A
change that means to change output bytes regenerates the file with

    PYTHONPATH=src python tests/test_outputs.py

and names every key that changed.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import sys
from pathlib import Path

import pytest

from labelforge.cli import main

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = ROOT / "tests" / "golden" / "outputs.json"
FLAGS = ("", "--renumber-tags", "--no-auto-position", "--no-auto-convert")


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses looks its module up there
    spec.loader.exec_module(module)
    return module


def _cases() -> dict[str, tuple[str, str]]:
    """Case name -> (scene text, export flag)."""
    workloads, cases = _workloads(), {}
    for name in workloads.FIXTURE_NAMES:
        text = (ROOT / "tests" / "fixtures" / f"{name}.scene").read_text(encoding="utf-8")
        for flag in FLAGS:
            cases[f"{name} {flag}".rstrip()] = text, flag
    for build in (workloads.label_dense, workloads.path_dense):
        (scene,) = build(1).scenes
        cases[scene.name] = scene.text, ""
    return cases


CASES = _cases()


def _run(argv: list[str]) -> tuple[str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        main(argv)
    return out.getvalue(), err.getvalue()


def outputs(scene_text: str, flag: str, work: Path) -> dict[str, str]:
    """The sha256 of each output of one case, run in the empty directory `work`."""
    cwd = os.getcwd()
    os.chdir(work)  # relative paths: no output names the directory it was made in
    try:
        Path("s.scene").write_text(scene_text, encoding="utf-8")
        ran = {}
        ran["export.stdout"], ran["export.stderr"] = _run(
            ["export", "s.scene", "--basename", "s", *([flag] if flag else [])])
        ran["export.eps"], ran["export.tex"] = Path("s-psfrag.eps"), Path("s-psfrag.tex")
        ran["inspect.tsv"], _ = _run(["inspect", "s-psfrag.eps"])
        ran["inspect.json"], _ = _run(["inspect", "s-psfrag.eps", "--format", "json"])
        ran["preview.stdout"], _ = _run(["preview", "s-psfrag.eps", "s-psfrag.tex", "p.eps"])
        ran["preview.eps"] = Path("p.eps")
        ran["renumber.stdout"], _ = _run(["renumber", "s-psfrag.eps", "s-psfrag.tex"])
        ran["renumber.eps"], ran["renumber.tex"] = Path("s-psfrag.eps"), Path("s-psfrag.tex")
        return {key: hashlib.sha256(value.read_bytes() if isinstance(value, Path)
                                    else value.encode("utf-8")).hexdigest()
                for key, value in ran.items()}
    finally:
        os.chdir(cwd)


@pytest.mark.parametrize("case", sorted(CASES))
def test_every_output_has_its_recorded_digest(tmp_path, case):
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))[case]
    got = outputs(*CASES[case], tmp_path)
    assert [key for key in sorted(expected.keys() | got.keys())
            if got.get(key) != expected.get(key)] == []


def write_digests(root: Path) -> None:
    """Rewrite DIGESTS from the outputs of the code under `src/`."""
    digests = {}
    for case in sorted(CASES):
        work = root / str(len(digests))
        work.mkdir()
        digests[case] = outputs(*CASES[case], work)
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as root:
        write_digests(Path(root))
