from __future__ import annotations

import math
import random
import string
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labelforge import (ExportOptions, RewriteError, Scene, ScanError,
                        TextPrimitive, TokenizeError, auto_wrap,
                        expand_decorations, rewrite_tags, scan_tags, tokenize,
                        write_eps)
from labelforge import epsio
from labelforge.epsio import (ARRAY_DELIM, COMMENT, LITERAL_NAME, NAME, NUMBER,
                              PROC_DELIM, STRING, ScanWarning)
from labelforge.exprkit import Str


# -------------------------------------------------------------- tokenize

# A token is the tuple (kind, value, start, end, lit_start).

def test_tokenize_string_escape_example():
    tokens = tokenize(b"(a\\)b) show")
    assert [kind for kind, *_ in tokens] == [STRING, NAME]
    assert tokens[0][1] == b"a)b"
    assert tokens[1][1] == "show"


def test_tokenize_dsc_comment():
    tokens = tokenize(b"%%BoundingBox: 0 0 360 223\n")
    assert len(tokens) == 1
    assert tokens[0][0] == COMMENT
    assert tokens[0][1] == "%%BoundingBox: 0 0 360 223"


def test_tokenize_empty_input():
    assert tokenize(b"") == []


def test_tokenize_kinds():
    tokens = tokenize(b"/Times-Roman 10 selectfont [0.1 1] {lineto} (s)")
    kinds = [kind for kind, *_ in tokens]
    assert kinds == [LITERAL_NAME, NUMBER, NAME, ARRAY_DELIM, NUMBER, NUMBER,
                     ARRAY_DELIM, PROC_DELIM, NAME, PROC_DELIM, STRING]
    assert tokens[0][1] == "Times-Roman"
    assert tokens[1][1] == 10.0


def test_tokenize_octal_and_named_escapes():
    tokens = tokenize(b"(\\101\\n\\t\\\\)")
    assert tokens[0][1] == b"A\n\t\\"


def test_tokenize_nested_parens():
    tokens = tokenize(b"(a(b)c)")
    assert tokens[0][1] == b"a(b)c"


def test_tokenize_lossless_spans_on_writer_output(scene_of):
    scene = expand_decorations(scene_of("ex_auto"))
    data, _ = write_eps(scene)
    tokens = tokenize(data)
    assert b"".join(data[start:end] for _kind, _value, start, end, _lit in tokens) == data


def test_tokenize_whitespace_attaches_to_following_token():
    data = b"  12  (x) \n"
    tokens = tokenize(data)
    assert data[tokens[0][2]:tokens[0][3]] == b"  12"
    # trailing whitespace extends the final token
    assert data[tokens[1][2]:tokens[1][3]] == b"  (x) \n"
    assert b"".join(data[start:end] for _kind, _value, start, end, _lit in tokens) == data


@pytest.mark.parametrize("data, message", [
    (b"(abc", "unterminated string"),
    (b"{ stroke", "unterminated procedure"),
    (b"abc )", "unmatched ')'"),
    (b"} def", "unmatched '}'"),
    (b"<4142", "unterminated hex string"),
])
def test_tokenize_errors_carry_offsets(data, message):
    with pytest.raises(TokenizeError) as info:
        tokenize(data)
    assert message in str(info.value)
    assert 0 <= info.value.offset < len(data)


def test_tokenize_hex_string():
    tokens = tokenize(b"<414 2>")
    assert tokens[0][0] == STRING
    assert tokens[0][1] == b"AB"


def test_scan_odd_length_hex_string_pads_its_last_digit_with_zero():
    occs = scan_tags(b"10 10 moveto <414> show")
    assert [(occ.tag, occ.device_position) for occ in occs] == [("A@", (10.0, 10.0))]


def test_tokenize_number_forms():
    tokens = tokenize(b"1 -2 3.5 .5 6. 1e3 -1.5e-2 16#FF")
    values = [value for _kind, value, *_ in tokens]
    assert values[:7] == [1.0, -2.0, 3.5, 0.5, 6.0, 1000.0, -0.015]
    assert tokens[7][0] == NAME  # radix form is not required


_SOUP_BYTES = b" \t\r\n\f\x00()<>[]{}/%\\abc019.-+eE"


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(_SOUP_BYTES), max_size=60).map(bytes))
def test_tokenize_property_lossless_or_error_at_delimiter(data):
    try:
        tokens = tokenize(data)
    except TokenizeError as exc:
        assert data[exc.offset:exc.offset + 1] in (b"(", b")", b"<", b"{", b"}")
        return
    if not tokens:  # a file of whitespace alone has no token to carry it
        assert data.strip(b" \t\r\n\f\x00") == b""
    assert b"".join(data[start:end] for _kind, _value, start, end, _lit in tokens) == (
        data if tokens else b"")
    for kind, _value, _start, _end, lit_start in tokens:
        if kind == STRING:
            assert data[lit_start:lit_start + 1] in (b"(", b"<")


# -------------------------------------------------------------- scan_tags

def test_scan_rotate_fragment():
    occs = scan_tags(b"gsave 30 rotate (gA) show grestore")
    assert len(occs) == 1
    assert occs[0].tag == "gA"
    assert occs[0].rotation == pytest.approx(30.0)


def test_scan_translate_and_moveto_compose():
    occs = scan_tags(b"10 20 translate 5 6 moveto (t) show")
    assert occs[0].device_position == pytest.approx((15.0, 26.0))


def test_scan_rmoveto_moves_from_the_current_point():
    occs = scan_tags(b"10 20 translate 5 6 moveto 3 -4 rmoveto (t) show")
    assert occs[0].device_position == pytest.approx((18.0, 22.0))


@pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
def test_scan_string_line_continuation_adds_nothing_to_the_tag(newline):
    occs = scan_tags(b"0 0 moveto (ta\\" + newline + b"g) show")
    assert [occ.tag for occ in occs] == ["tag"]


def test_scan_concat_matrix():
    occs = scan_tags(b"[0 1 -1 0 50 0] concat 0 0 moveto (t) show")
    assert occs[0].rotation == pytest.approx(90.0)
    assert occs[0].device_position == pytest.approx((50.0, 0.0))


def test_scan_scalefont_and_selectfont_track_size():
    occs = scan_tags(b"/Times-Roman findfont 14 scalefont setfont (a) show "
                     b"/Times-Roman 7 selectfont (b) show")
    assert [occ.font_size for occ in occs] == [14.0, 7.0]


def test_scan_vertical_direction_gives_ninety_degrees(tmp_path):
    scene = Scene(plot_range=((0.0, 1.0), (0.0, 1.0)), target_size=(100.0, 100.0),
                  primitives=(TextPrimitive(Str("up"), (0.5, 0.5),
                                            direction=(0.0, 1.0)),))
    data, placements = write_eps(scene)
    occs = scan_tags(data)
    assert occs[0].rotation == pytest.approx(90.0, abs=1e-9)
    assert placements[0].rotation == pytest.approx(90.0)


def test_scan_grestore_underflow_is_error():
    with pytest.raises(ScanError):
        scan_tags(b"grestore")


def test_scan_stack_underflow_on_handled_operator():
    with pytest.raises(ScanError) as info:
        scan_tags(b"3 translate")
    assert "underflow" in str(info.value)


def test_scan_unknown_operators_never_error():
    occs = scan_tags(b"frobnicate 1 2 3 quux 0 0 moveto (q) show mumble")
    assert [occ.tag for occ in occs] == ["q"]


def test_scan_procedures_are_skipped_not_executed():
    occs = scan_tags(b"/f {90 rotate (hidden) show} def 0 0 moveto (seen) show")
    assert [occ.tag for occ in occs] == ["seen"]
    assert occs[0].rotation == pytest.approx(0.0)


def test_scan_widthshow_warns_and_is_not_an_occurrence():
    with pytest.warns(ScanWarning):
        occs = scan_tags(b"1 2 32 (skipped) widthshow (kept) show")
    assert [occ.tag for occ in occs] == ["kept"]


_SHOW_FAMILY = [
    b"1 2 32 (ab) widthshow", b"1 0 32 0.5 0 (ab) awidthshow", b"0.5 0 (ab) ashow",
    b"{pop pop} (ab) kshow", b"(ab) [5 5] xshow", b"(ab) [1 2 3 4] xyshow", b"/a glyphshow",
    b"{pop pop pop} (ab) cshow"]


@pytest.mark.parametrize("program", _SHOW_FAMILY)
def test_scan_show_variant_pops_its_operands_and_warns_once(program):
    interp = epsio._Interpreter(program)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        interp.run(tokenize(program))
    assert interp.stack == [] and interp.occurrences == []
    assert [w.category for w in caught] == [ScanWarning]


def test_a_show_variant_warning_points_at_the_caller_of_scan_tags():
    with pytest.warns(ScanWarning) as caught:
        scan_tags(b"0 0 moveto 1 2 32 (ab) widthshow")
    assert [w.filename for w in caught] == [__file__]


@pytest.mark.parametrize("data, message, operator", [
    (b"  grestore  ", "grestore with no saved state", b"grestore"),
    (b"%!PS\n1 moveto\n", "stack underflow on 'moveto'", b"moveto"),
    (b"\t\r\nshow", "stack underflow on 'show'", b"show"),
    (b"(a) 1 moveto (b) show", "non-numeric operand for 'moveto'", b"moveto"),
    (b"1 show\x00", "show needs a string operand", b"show"),
    (b"0 1 scale\f(a) show", "transformation matrix became singular", b"scale"),
    (b"[1 0] concat ", "concat needs a six-number matrix", b"concat"),
    (b"/F findfont /x scalefont", "scalefont needs a numeric size", b"scalefont"),
    (b"1e200 1e200 scale 1e200 1e200 scale 1 1 moveto (a) show \n",
     "show places its text at a non-finite position, rotation, scale or size", b"show"),
])
def test_a_scan_error_names_the_operator_bytes_alone(data, message, operator):
    with pytest.raises(ScanError) as info:
        scan_tags(data)
    start, end = info.value.span
    assert data[start:end] == operator and data.rindex(operator) == start
    assert str(info.value) == f"{message} at bytes {start}..{end}"


def test_scan_occurrences_in_byte_order(export):
    eps, _tex, _reg = export("ex_auto")
    occs = scan_tags(eps)
    spans = [occ.byte_span for occ in occs]
    assert spans == sorted(spans)


def test_scan_gsave_nesting_random_depths():
    rng = random.Random(424242)
    for _ in range(25):
        lines = []
        stack = []
        ctm = [(1.0, 0.0, 0.0, 1.0, 0.0, 0.0)]

        def apply(kind, *args):
            a, b, c, d, tx, ty = ctm[-1]
            if kind == "translate":
                x, y = args
                ctm[-1] = (a, b, c, d, a * x + c * y + tx, b * x + d * y + ty)
            elif kind == "rotate":
                (deg,) = args
                cr, sr = math.cos(math.radians(deg)), math.sin(math.radians(deg))
                ctm[-1] = (a * cr + c * sr, b * cr + d * sr,
                           -a * sr + c * cr, -b * sr + d * cr, tx, ty)

        expected = []
        depth = 0
        for _step in range(rng.randrange(10, 60)):
            roll = rng.random()
            if roll < 0.3 and depth < 32:
                lines.append("gsave")
                stack.append(ctm[-1])
                ctm.append(ctm[-1])
                depth += 1
            elif roll < 0.5 and depth > 0:
                lines.append("grestore")
                ctm.pop()
                depth -= 1
            elif roll < 0.7:
                x = round(rng.uniform(-40, 40), 4)
                y = round(rng.uniform(-40, 40), 4)
                lines.append(f"{x} {y} translate")
                apply("translate", x, y)
            elif roll < 0.85:
                deg = rng.choice([-90, -30, 15, 45, 90])
                lines.append(f"{deg} rotate")
                apply("rotate", deg)
            else:
                tag = f"t{len(expected)}"
                lines.append(f"1 2 moveto ({tag}) show")
                a, b, c, d, tx, ty = ctm[-1]
                expected.append((tag, (a * 1 + c * 2 + tx, b * 1 + d * 2 + ty)))
        lines.extend("grestore" for _ in range(depth))
        occs = scan_tags("\n".join(lines).encode())
        assert [o.tag for o in occs] == [tag for tag, _pos in expected]
        for occ, (_tag, pos) in zip(occs, expected):
            assert occ.device_position == pytest.approx(pos, abs=1e-6)


# -------------------------------------------------------------- write_eps

def test_write_empty_scene_bounding_box():
    scene = Scene(plot_range=((0.0, 1.0), (0.0, 1.0)), target_size=(360.0, 223.0))
    data, placements = write_eps(scene)
    assert data.startswith(b"%!PS-Adobe-3.0 EPSF-3.0\n%%BoundingBox: 0 0 360 223\n")
    assert b"%%Creator: labelforge" in data
    assert b"%%EndComments" in data
    assert b" show" not in data
    assert placements == []
    assert scan_tags(data) == []


def test_write_requires_expanded_scene(scene_of):
    with pytest.raises(ValueError):
        write_eps(scene_of("ex_auto"))


def test_write_rot_fixture_rotations(scene_of):
    scene = expand_decorations(scene_of("ex_rot"))
    data, placements = write_eps(scene)
    occs = scan_tags(data)
    assert len(occs) == 12
    for k, occ in enumerate(occs):
        want = k * 30.0
        if want > 180.0:
            want -= 360.0
        assert occ.rotation == pytest.approx(want, abs=0.1)


def test_write_auto_fixture_show_count(scene_of):
    scene = expand_decorations(scene_of("ex_auto"))
    data, _ = write_eps(scene)
    assert len(scan_tags(data)) == 13


def test_write_is_deterministic(scene_of):
    scene = expand_decorations(scene_of("ex_auto"))
    first, _ = write_eps(scene)
    second, _ = write_eps(scene)
    assert first == second


def test_export_matches_frozen_golden_eps(export):
    from conftest import GOLDEN
    eps, _tex, _reg = export("ex_auto")
    assert eps == (GOLDEN / "ex_auto-psfrag.eps").read_bytes()


def test_write_scan_roundtrip_positions(scene_of):
    for name in ("ex_auto", "ex_rot", "ex_hold"):
        scene = auto_wrap(expand_decorations(scene_of(name)))
        texts = scene.text_primitives()
        tags = {i: f"tag{i}" for i in range(len(texts))}
        data, placements = write_eps(scene, tags)
        occs = scan_tags(data)
        assert len(occs) == len(placements)
        for occ, placement in zip(occs, placements):
            assert occ.tag == placement.text
            dx = occ.device_position[0] - placement.show_point[0]
            dy = occ.device_position[1] - placement.show_point[1]
            assert math.hypot(dx, dy) < 0.5
            delta = (occ.rotation - placement.rotation) % 360.0
            assert min(delta, 360.0 - delta) < 0.1


def test_write_rejects_non_finite():
    from labelforge import Polyline
    with pytest.raises(ValueError):
        write_eps(Scene(plot_range=((0.0, 1.0), (0.0, 1.0)),
                        target_size=(100.0, 100.0),
                        primitives=(Polyline(((0.0, 0.0), (math.nan, 1.0))),)))


# ----------------------------------------------------------- rewrite_tags

def test_rewrite_single_tag_touches_only_its_span(export):
    eps, _tex, _reg = export("ex_auto")
    occ = next(o for o in scan_tags(eps) if o.tag == "Sinx")
    out = rewrite_tags(eps, {"Sinx": "a"})
    start, end = occ.byte_span
    assert out[:start] == eps[:start]
    assert out[start:start + 3] == b"(a)"
    assert out[start + 3:] == eps[end:]


def test_rewrite_empty_map_is_identity(export):
    eps, _tex, _reg = export("ex_auto")
    assert rewrite_tags(eps, {}) == eps


def test_rewrite_missing_tag_lists_it(export):
    eps, _tex, _reg = export("ex_auto")
    with pytest.raises(RewriteError) as info:
        rewrite_tags(eps, {"Sinx": "a", "nope1": "b", "nope2": "c"})
    assert "nope1" in str(info.value) and "nope2" in str(info.value)


def _strip_spans(data: bytes, spans: list[tuple[int, int]]) -> bytes:
    kept = []
    prev = 0
    for start, end in sorted(spans):
        kept.append(data[prev:start])
        prev = end
    kept.append(data[prev:])
    return b"".join(kept)


def test_rewrite_changes_only_matched_string_spans(export):
    for name in ("ex_auto", "ex_rot", "ex_3d"):
        eps, _tex, reg = export(name, ExportOptions(
            auto_convert_text=name != "ex_rot"))
        tag_map = {tag: f"n{i}" for i, tag in enumerate(reg.tags())}
        old_spans = [o.byte_span for o in scan_tags(eps) if o.tag in tag_map]
        out = rewrite_tags(eps, tag_map)
        new_spans = [o.byte_span for o in scan_tags(out)
                     if o.tag in set(tag_map.values())]
        assert len(old_spans) == len(new_spans)
        assert _strip_spans(eps, old_spans) == _strip_spans(out, new_spans)


_TAG = st.text(string.ascii_letters + string.digits, min_size=1, max_size=5)


@settings(deadline=None)
@given(shows=st.lists(st.tuples(_TAG, st.booleans()), min_size=1, max_size=6),
       renames=st.lists(_TAG, min_size=6, max_size=6))
def test_rewrite_changes_only_bytes_inside_the_scanned_literals(shows, renames):
    """Shows of tags, repeats included, between plain shows whose text holds `(` and `\\`."""
    scene = Scene(plot_range=((0.0, 1.0), (0.0, 1.0)), target_size=(100.0, 100.0),
                  primitives=tuple(TextPrimitive(Str(text + "(\\"), (0.1 * i, 0.5))
                                   for i, (text, _tagged) in enumerate(shows)))
    eps, _ = write_eps(scene, {i: text for i, (text, tagged) in enumerate(shows) if tagged})
    tag_map = dict(zip(sorted({text for text, tagged in shows if tagged}), renames))
    out = rewrite_tags(eps, tag_map)
    before, after = scan_tags(eps), scan_tags(out)
    assert [o.tag for o in after] == [tag_map.get(o.tag, o.tag) for o in before]
    changed = [i for i, o in enumerate(before) if o.tag in tag_map]
    assert (_strip_spans(eps, [before[i].byte_span for i in changed])
            == _strip_spans(out, [after[i].byte_span for i in changed]))


def test_rewrite_composes_with_renumber(export):
    from labelforge import renumber
    eps, _tex, registry = export("ex_3d")
    tag_map = renumber(registry)
    out = rewrite_tags(eps, tag_map)
    new_occs = [o for o in scan_tags(out) if o.tag in set(tag_map.values())]
    assert [o.tag for o in new_occs] == list("abcdefghijklmnopqr")
    old_occs = [o for o in scan_tags(eps) if o.tag in tag_map]
    for old, new in zip(old_occs, new_occs):
        assert new.device_position == pytest.approx(old.device_position)
        assert new.rotation == pytest.approx(old.rotation)


_NUM = st.sampled_from(["0", "1", "-2.5", "12", ".5", "3e1"])
_SHOW = _TAG.map(lambda tag: [f"({tag})", "show"])
_STATEMENT = st.one_of(
    st.tuples(_NUM, _NUM).map(lambda p: [*p, "moveto"]),
    st.tuples(_NUM, _NUM).map(lambda p: [*p, "translate"]),
    _NUM.map(lambda d: [d, "rotate"]),
    st.sampled_from(["0.5", "2", "-1"]).map(lambda k: [k, k, "scale"]),
    _SHOW,
    _SHOW.map(lambda shown: ["/p", "{", "90", "rotate", *shown, "}", "def"]),
    st.sampled_from([["foo"], ["stroke"], ["l"], ["bind"], ["[", "1", "2", "]", "pop"]]),
)
_PROGRAM = st.recursive(
    st.lists(_STATEMENT, max_size=6).map(lambda parts: [t for part in parts for t in part]),
    lambda inner: st.lists(inner.map(lambda body: ["gsave", *body, "grestore"]) | inner,
                           max_size=3).map(lambda parts: [t for part in parts for t in part]),
    max_leaves=8)
_SEPARATOR = st.lists(st.sampled_from([" ", "\t", "\r", "\n", "\f", "\x00", "%\n",
                                         "% (a) show {\n", "%%EOF\r"]),
                       min_size=1, max_size=3).map("".join)


@settings(max_examples=200, deadline=None)
@given(tokens=_PROGRAM, data=st.data())
def test_whitespace_and_comments_between_tokens_only_shift_the_spans(tokens, data):
    """A program scans alike however its tokens are separated; each literal's span
    moves by exactly the bytes inserted before it."""
    base = " ".join(tokens).encode("latin-1")
    seps = data.draw(st.lists(_SEPARATOR, min_size=len(tokens) + 1, max_size=len(tokens) + 1))
    seps[0] = data.draw(st.sampled_from(["", seps[0]]))  # the file may start with a token
    spread, moved, base_at = "", {}, 0
    for sep, token in zip(seps, tokens):
        spread += sep
        moved[base_at] = len(spread)
        spread += token
        base_at += len(token) + 1
    spread += seps[-1]  # after the last token, or the whole file when there is none
    before, after = scan_tags(base), scan_tags(spread.encode("latin-1"))
    assert [(o.tag, o.device_position, o.rotation, o.scale, o.font_size) for o in after] == [
        (o.tag, o.device_position, o.rotation, o.scale, o.font_size) for o in before]
    for old, new in zip(before, after):
        start, end = old.byte_span
        assert new.byte_span == (moved[start], moved[start] + end - start)
