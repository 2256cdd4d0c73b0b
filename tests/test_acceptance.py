"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (visible with `pytest -s` or `-rP`)."""

from __future__ import annotations

import functools
import itertools
import math
import random
import string

from labelforge import (ExportOptions, LabelBox, LabelDirective, Scene,
                        TextPrimitive, TokenizeError, auto_wrap,
                        expand_decorations, parse_expr, place, pos_from_anchor,
                        psfrag_export, reference_point, renumber, rewrite_tags,
                        scan_tags, to_tex, tokenize, write_eps)
from labelforge.cli import main
from labelforge.directives import PosCode
from labelforge.epsio import TagOccurrence
from labelforge.exprkit import Str
from labelforge.labeling import PsfragEntry, parse_psfrag_document
from labelforge.preview import substitute_preview, tag_box_for

from conftest import FIXTURES, GOLDEN, check_shows


def criterion(number: int, title: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number}: FAIL - {title}")
                raise
            print(f"criterion {number}: PASS - {title}")
        return wrapper
    return decorate


@criterion(1, "automatic export reproduction (13 entries, root body, golden tex)")
def test_criterion_1_auto_reproduction(export):
    _eps, tex, registry = export("ex_auto")
    assert len(registry) == 13
    bottom = [t for t in registry.tags()][3:8]
    left = [t for t in registry.tags()][8:13]
    assert len(bottom) == 5 and len(left) == 5
    f2_entry = registry.get("3Cos2Sqrtx213")
    assert f2_entry is not None
    assert "\\sqrt[3]{\\cos ^2(2 \\sqrt{x})}" in f2_entry.body
    golden = (GOLDEN / "ex_auto-psfrag.tex").read_text(encoding="utf-8")
    assert tex == golden


@criterion(2, "anchor alignment matches the manual codes tc/cl/cr")
def test_criterion_2_alignment_correspondence():
    assert str(pos_from_anchor((0.0, 1.0))) == "tc"
    assert str(pos_from_anchor((-1.0, 0.0))) == "cl"
    assert str(pos_from_anchor((1.0, 0.0))) == "cr"


@criterion(3, "fallback alignment bc and option implication, byte-for-byte")
def test_criterion_3_fallback_and_implication(export):
    opts_a = ExportOptions(auto_position=False)
    eps_a, tex_a, registry = export("ex_rot", opts_a)
    assert len(registry) == 6
    for entry in registry.entries():
        assert str(entry.posn) == "bc"
        assert str(entry.psposn) == "bc"
    opts_b = ExportOptions(auto_position=False, auto_convert_text=False)
    eps_b, tex_b, _ = export("ex_rot", opts_b)
    assert eps_a == eps_b
    assert tex_a == tex_b


@criterion(4, "base-52 renumbering against brute force; renumber command"
              " consistency and idempotence")
def test_criterion_4_renumbering(tmp_path, capsys):
    # 60-label synthetic scene
    prims = tuple(
        TextPrimitive(LabelDirective(Str(f"label {i}")),
                      ((i % 10) + 0.5, (i // 10) + 0.5))
        for i in range(60))
    scene = Scene(plot_range=((0.0, 11.0), (0.0, 7.0)), target_size=(300.0, 200.0),
                  primitives=prims)
    registry = psfrag_export(scene, ExportOptions(renumber_tags=True)).registry
    alphabet = string.ascii_lowercase + string.ascii_uppercase
    brute = []
    length = 1
    while len(brute) < 60:
        for combo in itertools.product(alphabet, repeat=length):
            brute.append("".join(combo))
            if len(brute) == 60:
                break
        length += 1
    assert registry.tags() == brute
    assert max(len(t) for t in registry.tags()) == 2
    assert registry.tags()[:26] == list(string.ascii_lowercase)
    assert registry.tags()[26:52] == list(string.ascii_uppercase)
    assert registry.tags()[52:] == ["aa", "ab", "ac", "ad", "ae", "af", "ag", "ah"]

    # cmd_renumber keeps the pair consistent and is idempotent
    assert main(["export", str(FIXTURES / "ex_3d.scene"), "--basename", str(tmp_path / "k")]) == 0
    eps_path = tmp_path / "k-psfrag.eps"
    tex_path = tmp_path / "k-psfrag.tex"
    assert main(["renumber", str(eps_path), str(tex_path)]) == 0
    tex_tags = parse_psfrag_document(tex_path.read_text()).tags()
    shown = {occ.tag for occ in scan_tags(eps_path.read_bytes())}
    assert set(tex_tags) == shown
    first = (eps_path.read_bytes(), tex_path.read_bytes())
    assert main(["renumber", str(eps_path), str(tex_path)]) == 0
    assert (eps_path.read_bytes(), tex_path.read_bytes()) == first


@criterion(5, "placement geometry: pinning, identity corners, 15-box preview")
def test_criterion_5_geometry(export):
    occ = TagOccurrence(tag="gA", device_position=(40.0, 30.0), rotation=20.0,
                        scale=1.0, font_size=10.0, byte_span=(0, 4))
    tag_box = tag_box_for(occ)
    box = LabelBox(24.0, 11.0, 3.0)
    codes = [PosCode(v, h) for v in "tcbB" for h in "lcr"]
    cases = 0
    for code in codes:
        for rot in (-90.0, 0.0, 30.0, 45.0, 180.0):
            for scale in (0.5, 1.0, 2.0):
                for psposn in codes:
                    entry = PsfragEntry("gA", code, psposn, scale, rot, "$x$")
                    transform = place(box, entry, occ, tag_box)
                    got = transform.apply(*reference_point(box, code))
                    rx, ry = reference_point(tag_box, psposn)
                    theta = math.radians(occ.rotation)
                    want = (occ.device_position[0] + math.cos(theta) * rx
                            - math.sin(theta) * (ry - tag_box.depth),
                            occ.device_position[1] + math.sin(theta) * rx
                            + math.cos(theta) * (ry - tag_box.depth))
                    assert math.hypot(got[0] - want[0], got[1] - want[1]) < 1e-9
                    cases += 1
    assert cases >= 180

    # identity placement maps the box corners onto the tag box corners
    entry = PsfragEntry("gA", PosCode.parse("bl"), PosCode.parse("bl"), 1.0, 0.0, "x")
    transform = place(tag_box, entry, occ, tag_box)
    theta = math.radians(occ.rotation)
    for cx, cy in ((0, 0), (tag_box.width, 0), (tag_box.width, tag_box.height),
                   (0, tag_box.height)):
        gx, gy = transform.apply(cx, cy)
        wx = occ.device_position[0] + math.cos(theta) * cx - math.sin(theta) * (cy - tag_box.depth)
        wy = occ.device_position[1] + math.sin(theta) * cx + math.cos(theta) * (cy - tag_box.depth)
        assert math.hypot(gx - wx, gy - wy) < 1e-9

    # the fifteen-variant fixture previews fifteen boxes, each pinned
    eps, tex, _reg = export("fig2")
    registry = parse_psfrag_document(tex)
    out = substitute_preview(eps, registry).eps
    assert out.count(b"closepath stroke") == 15
    from labelforge.preview import default_measure
    for occ2 in scan_tags(eps):
        entry2 = registry.get(occ2.tag)
        box2 = default_measure(entry2.body)
        tag_box2 = tag_box_for(occ2)
        transform2 = place(box2, entry2, occ2, tag_box2)
        got = transform2.apply(*reference_point(box2, entry2.posn))
        rx, ry = reference_point(tag_box2, entry2.psposn)
        theta2 = math.radians(occ2.rotation)
        want = (occ2.device_position[0] + math.cos(theta2) * rx
                - math.sin(theta2) * (ry - tag_box2.depth),
                occ2.device_position[1] + math.sin(theta2) * rx
                + math.cos(theta2) * (ry - tag_box2.depth))
        assert math.hypot(got[0] - want[0], got[1] - want[1]) < 1e-9


def _roundtrip_case(scene_source: Scene, opts: ExportOptions, registry, eps: bytes):
    working = expand_decorations(scene_source)
    if opts.effective_auto_convert:
        working = auto_wrap(working)
    tags = iter(registry.tags())
    tag_map = {}
    for idx, prim in enumerate(working.text_primitives()):
        if prim.directive is not None:
            tag_map[idx] = next(tags)
    assert write_eps(working, tag_map) == eps  # reconstruction matches the exported bytes
    occs = check_shows(eps, working, tag_map)
    recovered_tags = {occs[idx].tag for idx in tag_map}
    assert recovered_tags == set(registry.tags())  # 100% of tagged primitives


@criterion(6, "scan/write round-trip within 0.5pt and 0.1 degree")
def test_criterion_6_roundtrip(export, scene_of):
    opts_rot = ExportOptions(auto_convert_text=False)
    eps_rot, _tex, reg_rot = export("ex_rot", opts_rot)
    occs = scan_tags(eps_rot)
    assert len(occs) == 12
    _roundtrip_case(scene_of("ex_rot"), opts_rot, reg_rot, eps_rot)

    opts_auto = ExportOptions()
    eps_auto, _tex, reg_auto = export("ex_auto", opts_auto)
    _roundtrip_case(scene_of("ex_auto"), opts_auto, reg_auto, eps_auto)


@criterion(7, "tag rewriting touches only matched string spans")
def test_criterion_7_rewrite_safety(export):
    def strip_spans(data: bytes, spans):
        kept, prev = [], 0
        for start, end in sorted(spans):
            kept.append(data[prev:start])
            prev = end
        kept.append(data[prev:])
        return b"".join(kept)

    cases = [("ex_auto", ExportOptions()), ("ex_rot", ExportOptions(auto_convert_text=False)),
             ("ex_hold", ExportOptions()), ("ex_3d", ExportOptions()),
             ("ex_manual", ExportOptions(auto_position=False, auto_convert_text=False)),
             ("fig2", ExportOptions()), ("mini", ExportOptions())]
    for name, opts in cases:
        eps, _tex, registry = export(name, opts)
        assert rewrite_tags(eps, {}) == eps  # empty map is byte identity
        tag_map = {tag: f"r{i}" for i, tag in enumerate(registry.tags())}
        if not tag_map:
            continue
        old_spans = [o.byte_span for o in scan_tags(eps) if o.tag in tag_map]
        out = rewrite_tags(eps, tag_map)
        new_spans = [o.byte_span for o in scan_tags(out)
                     if o.tag in set(tag_map.values())]
        assert len(old_spans) == len(new_spans)
        assert strip_spans(eps, old_spans) == strip_spans(out, new_spans)


@criterion(8, "hold barrier renders stored order; unheld is canonical")
def test_criterion_8_hold_semantics(export):
    held = to_tex(parse_expr("HoldForm[(3*x-1)^3]"))
    assert held == "(3 x-1)^3"
    unheld = to_tex(parse_expr("(3*x-1)^3"))
    assert unheld == "(-1+3 x)^3"
    _eps, tex, _reg = export("ex_hold")
    assert "(3 x-1)^3" in tex
    assert "(-1+3 x)^3" not in tex


@criterion(9, "tokenizer is lossless and crash-free under 10k byte mutations")
def test_criterion_9_tokenizer_fuzz(export):
    eps_small, _tex, _reg = export("mini")
    golden_eps = (GOLDEN / "ex_auto-psfrag.eps").read_bytes()
    rng = random.Random(20260808)

    def fuzz(base: bytes, rounds: int):
        survived = 0
        for _ in range(rounds):
            mutated = bytearray(base)
            for _edit in range(rng.randrange(1, 4)):
                pos = rng.randrange(len(mutated))
                mutated[pos] = rng.randrange(256)
            mutated = bytes(mutated)
            try:
                tokens = tokenize(mutated)
            except TokenizeError:
                continue  # rejected inputs are fine; crashes are not
            if tokens:
                assert b"".join(mutated[start:end]
                                for _kind, _value, start, end, _lit in tokens) == mutated
                survived += 1
        return survived

    assert fuzz(eps_small, 10_000) > 1000
    assert fuzz(golden_eps, 300) > 30
