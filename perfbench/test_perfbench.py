"""Tests of the benchmark itself: generators, span arithmetic, output checks."""

from __future__ import annotations

import json

import pytest

import checks
import run
import spans
import workloads
from checks import CheckFailed


@pytest.mark.parametrize("generate", [workloads.label_dense, workloads.path_dense])
def test_generators_are_deterministic_per_seed(generate):
    def files(seed):
        return [s.text for s in generate(seed).scenes]

    assert files(7) == files(7)
    assert files(7) != files(8)


def test_self_time_subtracts_the_time_children_cover():
    tree = [
        ["cli.main", 0.0, 10.0, -1, 0],
        ["epsio.scan_tags", 1.0, 6.0, 0, 0],
        ["epsio.tokenize", 1.5, 4.0, 1, 100],
        ["fileio.make_backup", 7.0, 8.0, 0, 0],
        ["epsio.tokenize", 8.5, 9.0, 0, 50],
    ]
    assert spans.self_times(tree) == pytest.approx([10 - 5 - 1 - 0.5, 5 - 2.5, 2.5, 1.0, 0.5])
    assert spans.layer_totals(tree)["epsio.tokenize"] == pytest.approx(
        {"self_s": 3.0, "calls": 2, "bytes": 150})


def test_tracer_records_nested_spans_and_restores_functions():
    cli = pytest.importorskip("labelforge.cli")
    from labelforge import epsio

    original = epsio.tokenize
    tracer = spans.Tracer()
    tracer.install()
    try:
        eps = b"%!PS\n/Times-Roman 10 selectfont 0 0 moveto (ab1) show\n"
        occurrences = tracer.span(spans.ROOT, cli.scan_tags, eps)
    finally:
        tracer.uninstall()
    assert epsio.tokenize is original
    assert [occ.tag for occ in occurrences] == ["ab1"]
    assert [(s[spans.NAME], s[spans.PARENT]) for s in tracer.spans] == [
        ("cli.main", -1), ("epsio.scan_tags", 0), ("epsio.tokenize", 1)]
    assert spans.layer_totals(tracer.spans)["epsio.tokenize"]["bytes"] == len(eps)


def test_base52_is_bijective_shortlex():
    assert [checks.base52(i) for i in (0, 25, 26, 51, 52, 53, 103, 104, 52 + 52 * 52)] == [
        "a", "z", "A", "Z", "aa", "ab", "aZ", "ba", "aaa"]


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_output_checks_reject_a_corrupted_eps(tmp_path, capsys):
    cli = pytest.importorskip("labelforge.cli")
    scene = workloads.label_dense(3, labels=40).scenes[0]
    scene_path = tmp_path / "s.scene"
    scene_path.write_text(scene.text, encoding="utf-8")
    eps_path, tex_path = tmp_path / "s-psfrag.eps", tmp_path / "s-psfrag.tex"

    assert cli.main(["export", str(scene_path), "--basename", str(tmp_path / "s")]) == 0
    stdout = capsys.readouterr().out
    eps, tex = eps_path.read_bytes(), tex_path.read_text(encoding="utf-8")
    checks.check_export(scene, stdout, eps, tex)
    first = checks.eps_tags(eps)[0].encode()
    renamed = eps.replace(b"(" + first + b") show", b"(" + first + b"x) show", 1)
    with pytest.raises(CheckFailed):
        checks.check_export(scene, stdout, renamed, tex)
    dropped = b"\n".join(line for line in eps.split(b"\n")
                         if not line.endswith(b"(" + first + b") show grestore"))
    with pytest.raises(CheckFailed):
        checks.check_export(scene, stdout, dropped, tex)

    assert cli.main(["renumber", str(eps_path), str(tex_path)]) == 0
    stdout = capsys.readouterr().out
    new_eps, new_tex = eps_path.read_bytes(), tex_path.read_text(encoding="utf-8")
    checks.check_renumber(scene.labels, stdout, new_eps, new_tex)
    swapped = new_eps.replace(b"(a) show", b"(b) show", 1)
    with pytest.raises(CheckFailed):
        checks.check_renumber(scene.labels, stdout, swapped, new_tex)


def test_benchmark_json_lists_what_the_runs_report():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert {m["name"] for m in spec["end_to_end"]} == {
        *(f"{c}_s" for c in run.COMMANDS), "setup_s", "peak_rss_mb"}
