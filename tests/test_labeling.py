from __future__ import annotations

import itertools
import math
import re
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labelforge import (DuplicateTagError, ExportOptions, LabelDirective,
                        PsfragEntry, TagRegistry, build_entry, derive_tag,
                        emit_tex, parse_psfrag_line, pos_from_anchor,
                        psfrag_export, renumber, resolve_alignment,
                        shortlex_tag)
from labelforge.directives import PosCode
from labelforge.exprkit import EMPTY_HOOKS, Str, Sym, num, parse_expr
from labelforge.labeling import (PsfragSyntaxError, _fmt_num, format_psfrag_line,
                                 parse_psfrag_document, retag_psfrag_text)


def _entry(tag: str, body: str = "$x$") -> PsfragEntry:
    return PsfragEntry(tag=tag, posn=PosCode.parse("bc"), psposn=PosCode.parse("bc"),
                       body=body)


# ---------------------------------------------------------------- tags

def test_derive_tag_strips_brackets():
    assert derive_tag(parse_expr("Sin[x]"), TagRegistry()) == "Sinx"


def test_derive_tag_strips_quotes_and_spaces():
    assert derive_tag(Str("local maximum"), TagRegistry()) == "localmaximum"


def test_derive_tag_collision_suffix():
    registry = TagRegistry()
    registry.add(_entry("x"))
    assert derive_tag(Sym("x"), registry) == "x2"
    registry.add(_entry("x2"))
    assert derive_tag(Sym("x"), registry) == "x3"


def test_derive_tag_empty_fallback():
    assert derive_tag(Str("!!!"), TagRegistry()) == "tag"


# ------------------------------------------------------------- renumber

def _brute_force_shortlex(count: int) -> list[str]:
    alphabet = string.ascii_lowercase + string.ascii_uppercase
    out: list[str] = []
    length = 1
    while len(out) < count:
        for combo in itertools.product(alphabet, repeat=length):
            out.append("".join(combo))
            if len(out) == count:
                break
        length += 1
    return out


def test_shortlex_pinned_values():
    assert shortlex_tag(0) == "a"
    assert shortlex_tag(51) == "Z"
    assert shortlex_tag(52) == "aa"
    assert shortlex_tag(103) == "aZ"
    assert shortlex_tag(104) == "ba"


def test_shortlex_matches_brute_force_enumerator():
    expected = _brute_force_shortlex(3000)
    assert [shortlex_tag(i) for i in range(3000)] == expected


def _retagged(registry: TagRegistry, tag_map: dict[str, str]) -> TagRegistry:
    """The registry `renumber` on the command line writes: its tex, retagged and read back."""
    return parse_psfrag_document(retag_psfrag_text(emit_tex(registry), tag_map))


def test_renumber_empty_registry():
    assert renumber(TagRegistry()) == {}


def test_renumber_is_bijection_preserving_everything_else():
    registry = TagRegistry()
    for i in range(60):
        registry.add(PsfragEntry(tag=f"orig{i}", posn=PosCode.parse("tc"),
                                 psposn=PosCode.parse("Br"), scale=1.5,
                                 rot=30.0, body=f"$b_{i}$"))
    tag_map = renumber(registry)
    assert list(tag_map) == [f"orig{i}" for i in range(60)]
    assert list(tag_map.values()) == _brute_force_shortlex(60)
    renumbered = _retagged(registry, tag_map)
    assert renumbered.tags() == _brute_force_shortlex(60)
    for old, entry in zip(registry.entries(), renumbered.entries()):
        assert (entry.posn, entry.psposn, entry.scale, entry.rot, entry.body) == \
            (old.posn, old.psposn, old.scale, old.rot, old.body)


def test_renumber_twice_equals_once():
    registry = TagRegistry()
    for i in range(5):
        registry.add(_entry(f"t{i}"))
    once = _retagged(registry, renumber(registry))
    tag_map = renumber(once)
    assert _retagged(once, tag_map).tags() == once.tags()
    assert all(old == new for old, new in tag_map.items())


# ------------------------------------------------------------ alignment

@pytest.mark.parametrize("anchor, code", [
    ((0.0, 1.0), "tc"),
    ((-1.0, 0.0), "cl"),
    ((1.0, 0.0), "cr"),
    ((0.0, 0.0), "cc"),
    ((0.0, -1.0), "bc"),
    ((0.6, 0.6), "tr"),
    ((-0.6, -0.6), "bl"),
    ((0.5, 0.5), "cc"),  # boundaries stay centered
])
def test_pos_from_anchor(anchor, code):
    assert str(pos_from_anchor(anchor)) == code


def test_pos_from_anchor_never_produces_baseline():
    for ax in (-1.0, -0.5, 0.0, 0.5, 1.0):
        for ay in (-1.0, -0.5, 0.0, 0.5, 1.0):
            assert pos_from_anchor((ax, ay)).vertical != "B"


def test_poscode_roundtrips_all_twelve():
    codes = [v + h for v in "tcbB" for h in "lcr"]
    assert len(codes) == 12
    for code in codes:
        assert str(PosCode.parse(code)) == code


def test_resolve_alignment_automatic_takes_anchor():
    directive = LabelDirective(Sym("x"))
    posn, psposn = resolve_alignment(directive, (0.0, 1.0), auto_position=True)
    assert (str(posn), str(psposn)) == ("tc", "tc")


def test_resolve_alignment_fallback_bottom_center():
    directive = LabelDirective(Sym("x"))
    posn, psposn = resolve_alignment(directive, (0.0, 1.0), auto_position=False)
    assert (str(posn), str(psposn)) == ("bc", "bc")
    posn, psposn = resolve_alignment(directive, None, auto_position=True)
    assert (str(posn), str(psposn)) == ("bc", "bc")


def test_resolve_alignment_explicit_with_copy():
    directive = LabelDirective(Sym("x"), position=PosCode.parse("Br"))
    posn, psposn = resolve_alignment(directive, (0.0, 0.0), auto_position=True)
    assert (str(posn), str(psposn)) == ("Br", "Br")


def test_resolve_alignment_explicit_psposition():
    directive = LabelDirective(Sym("x"), position=PosCode.parse("tl"),
                               ps_position=PosCode.parse("Bc"))
    posn, psposn = resolve_alignment(directive, None, auto_position=True)
    assert (str(posn), str(psposn)) == ("tl", "Bc")


# ----------------------------------------------------------- build_entry

def test_build_entry_tex_command_is_verbatim():
    texstr = "$3\\left|\\cos \\sqrt{4x}\\right|^\\frac{2}{3}$"
    directive = LabelDirective(parse_expr("3*((Cos[2*Sqrt[x]])^2)^(1/3)"),
                               tex_command=texstr, position=PosCode.parse("cr"))
    entry = build_entry(directive, None, EMPTY_HOOKS, ExportOptions(), TagRegistry())
    assert entry.body == texstr


def test_build_entry_numeric_tick_defaults():
    directive = LabelDirective(num(0))
    entry = build_entry(directive, (0.0, 1.0), EMPTY_HOOKS, ExportOptions(),
                        TagRegistry())
    assert entry.tag == "0"
    assert (str(entry.posn), str(entry.psposn)) == ("tc", "tc")
    assert entry.scale == 1.0 and entry.rot == 0.0


def test_build_entry_rotation_zero_preserves_orientation():
    directive = LabelDirective(Str("Example 30"))
    entry = build_entry(directive, (0.0, 0.0), EMPTY_HOOKS, ExportOptions(),
                        TagRegistry())
    assert entry.rot == 0.0


def test_build_entry_numeric_scaling_goes_to_slot_not_hook():
    directive = LabelDirective(num(1), scaling=2.0)
    entry = build_entry(directive, None, EMPTY_HOOKS, ExportOptions(), TagRegistry())
    assert entry.scale == 2.0
    assert "psfragscale" not in entry.body


def test_build_entry_automatic_scaling_uses_hook():
    directive = LabelDirective(num(1))
    entry = build_entry(directive, None, EMPTY_HOOKS, ExportOptions(), TagRegistry())
    assert entry.scale == 1.0
    assert "\\psfragscalenumeric" in entry.body


def test_build_entry_duplicate_explicit_tag_names_both_labels():
    registry = TagRegistry()
    build_entry(LabelDirective(Sym("alpha"), psfrag_tag="T1"), None, EMPTY_HOOKS,
                ExportOptions(), registry)
    with pytest.raises(DuplicateTagError) as info:
        build_entry(LabelDirective(Sym("beta"), psfrag_tag="T1"), None,
                    EMPTY_HOOKS, ExportOptions(), registry)
    message = str(info.value)
    assert "T1" in message and "alpha" in message and "beta" in message


def test_build_entry_derived_tags_avoid_collision():
    registry = TagRegistry()
    first = build_entry(LabelDirective(Sym("x")), None, EMPTY_HOOKS,
                        ExportOptions(), registry)
    second = build_entry(LabelDirective(Sym("x")), None, EMPTY_HOOKS,
                         ExportOptions(), registry)
    assert (first.tag, second.tag) == ("x", "x2")


# -------------------------------------------------------------- emit_tex

def test_emit_tex_single_entry_line():
    registry = TagRegistry()
    registry.add(_entry("a"))
    text = emit_tex(registry)
    assert "\\psfrag{a}[bc][bc][1][0]{$x$}\n" in text


def test_emit_tex_empty_registry_has_header_and_provides():
    text = emit_tex(TagRegistry())
    assert text.startswith("% labelforge")
    assert text.count("\\providecommand") == 6
    assert "\\psfrag{" not in text


@pytest.mark.parametrize("body", ["open{brace", "a}", "}{", "a\\", "50%", "a\nb", "a\rb",
                                  "a\u2028b", "\\\nb"])
def test_build_entry_rejects_an_invalid_body_naming_the_label(body):
    directive = LabelDirective(Sym("x"), tex_command=body)
    registry = TagRegistry()
    with pytest.raises(PsfragSyntaxError, match="^label 'x': psfrag body is not a balanced TeX"):
        build_entry(directive, None, EMPTY_HOOKS, ExportOptions(), registry)
    assert len(registry) == 0


@pytest.mark.parametrize("scale, rot, message", [
    (0.0, 0.0, "scale must be positive and finite"),
    (-1.0, 0.0, "scale must be positive and finite"),
    (math.nan, 0.0, "scale must be positive and finite"),
    (math.inf, 0.0, "scale must be positive and finite"),
    (1.0, math.nan, "rotation must be finite"),
    (1.0, -math.inf, "rotation must be finite"),
])
def test_entry_rejects_a_bad_scale_or_rotation(scale, rot, message):
    with pytest.raises(ValueError, match=message):
        PsfragEntry("a", PosCode.parse("bc"), PosCode.parse("bc"), scale, rot, "x")


def test_every_emitted_line_parses_back_to_equal_entry():
    registry = TagRegistry()
    registry.add(PsfragEntry("a", PosCode.parse("tc"), PosCode.parse("Br"),
                             scale=0.75, rot=-90.0, body="$\\frac{1}{2}$"))
    registry.add(PsfragEntry("bb", PosCode.parse("bl"), PosCode.parse("bl"),
                             scale=2.0, rot=180.0,
                             body="\\psfragmathstyle{$\\psfragscalemath x$}"))
    for entry in registry.entries():
        assert parse_psfrag_line(format_psfrag_line(entry)) == entry


# Bodies that are one TeX group by construction: text, escapes and nested groups.
_GROUPED = st.recursive(
    st.text(string.ascii_letters + " \t$", max_size=3)
    | st.sampled_from(["\\{", "\\}", "\\%", "\\\\", "\\$", "\\ "]),
    lambda inner: st.lists(inner, max_size=4).map(lambda parts: "{" + "".join(parts) + "}"),
    max_leaves=12)
# Any string over the characters that matter to the rule, most of them not one group.
_ANY_BODY = st.text("{}\\%$ab \t\n\r\x0b\x1c\x85\u2028", max_size=10)
# A number as TeX reads one, which each scale and rotation slot must be.
_TEX_DECIMAL = r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)"


@given(tag=st.text(string.ascii_letters + string.digits, min_size=1, max_size=6),
       posn=st.sampled_from([v + h for v in "tcbB" for h in "lcr"]),
       scale=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
       rot=st.floats(allow_nan=False, allow_infinity=False),
       body=st.lists(_GROUPED, max_size=4).map("".join) | _ANY_BODY)
def test_reader_takes_exactly_the_entries_the_record_takes(tag, posn, scale, rot, body):
    code = PosCode.parse(posn)
    try:
        entry = PsfragEntry(tag, code, code, scale, rot, body)
    except ValueError:  # then the reader takes no entry with this body either
        line = f"\\psfrag{{{tag}}}[{posn}][{posn}][1][0]{{{body}}}"
        try:  # `}%` reads as an empty body and a comment
            assert parse_psfrag_line(line).body != body
        except ValueError:
            pass
    else:
        line = format_psfrag_line(entry)
        slots = re.match(r"\\psfrag\{\w+\}\[\w+\]\[\w+\]\[([^]]*)\]\[([^]]*)\]\{", line)
        assert all(re.fullmatch(_TEX_DECIMAL, slot) for slot in slots.groups())
        assert parse_psfrag_line(line) == entry


def _reference_fmt_num(v: float) -> str:
    """`_fmt_num` before integral values took a shortcut: the oracle for every float."""
    mantissa, _, exp = repr(abs(float(v))).partition("e")
    whole, _, frac = mantissa.partition(".")
    point = len(whole) + int(exp or 0)
    digits = ("0" * (1 - point) + whole + frac).ljust(point, "0")
    point = max(point, 1)
    head, tail = digits[:point].lstrip("0") or "0", digits[point:].rstrip("0")
    return ("-" if v < 0 else "") + head + ("." + tail if tail else "")


@settings(max_examples=1000)
@given(st.floats(allow_nan=False, allow_infinity=False)
       | st.integers(-2**1023, 2**1023).map(float)
       | st.integers(2**52, 2**54).map(float).flatmap(lambda v: st.sampled_from([v, -v]))
       | st.sampled_from([0.0, -0.0, 2.0**53, 2.0**53 - 1, -2.0**53, 1e16, 5e-324]))
def test_number_slot_matches_the_reference_formatter(value):
    assert _fmt_num(value) == _reference_fmt_num(value)


_POSITIONAL = [
    (1.0, "1"), (-90.0, "-90"), (0.75, "0.75"), (-0.0, "0"), (5e-05, "0.00005"),
    (1e-05, "0.00001"), (1.5e-07, "0.00000015"), (1e16, "1" + "0" * 16),
    (2.5e22, "25" + "0" * 21), (5e-324, "0." + "0" * 323 + "5")]


@pytest.mark.parametrize("value, text", _POSITIONAL, ids=[repr(v) for v, _ in _POSITIONAL])
def test_number_slots_are_written_positionally(value, text):
    entry = PsfragEntry("a", PosCode.parse("bc"), PosCode.parse("bc"), abs(value) or 1.0,
                        value, "x")
    assert format_psfrag_line(entry).endswith(f"][{text}]{{x}}")
    assert parse_psfrag_line(format_psfrag_line(entry)).rot == value


@pytest.mark.parametrize("slot", ["1e3", "0x1", "1.5.", " ", "- 1", "\u20032"])
def test_reader_takes_only_decimal_number_slots(slot):
    with pytest.raises(ValueError, match="must be decimals"):
        parse_psfrag_line(f"\\psfrag{{a}}[bc][bc][1][{slot}]{{x}}")


def test_reader_takes_signs_bare_points_and_spaces_in_number_slots():
    entry = parse_psfrag_line("\\psfrag{a}[bc][bc][ +.5 ][-2.]{x}")
    assert (entry.scale, entry.rot) == (0.5, -2.0)


def test_retag_takes_each_old_tag_from_its_line():
    text = "\ufeff% h\r\n\\psfrag{a}{\\}}\r\n  \\psfrag{b}[bc]{50\\%} % b\r\n% \\psfrag{a}{x}\n"
    assert retag_psfrag_text(text, {"b": "x", "a": "y"}) == (
        "\ufeff% h\r\n\\psfrag{y}{\\}}\r\n  \\psfrag{x}[bc]{50\\%} % b\r\n% \\psfrag{a}{x}\n")


def test_parse_psfrag_line_rejects_other_lines():
    assert parse_psfrag_line("\\providecommand{\\psfragscaletext}{}") is None
    assert parse_psfrag_line("% comment") is None


def test_parse_psfrag_line_allows_a_trailing_comment():
    assert parse_psfrag_line("\\psfrag{a}[bc]{x}  % note").body == "x"


@pytest.mark.parametrize("line, message", [
    ("\\psfrag{a}{x", "no closing brace"),
    ("\\psfrag{a}[bc][bc][1][0][9]{x}", "at most four optional arguments"),
    ("\\psfrag{a}[bc]{x} junk", "unexpected text after"),
    ("\\psfrag{a}[bc", "no closing bracket"),
    ("\\psfrag{a", "tag has no closing brace"),
    ("\\psfrag{a}x", "must start with '{'"),
    ("\\psfrag{a}[bc]x{y}", "must start with '{'"),
    ("\\psfrag{a}", "must be on one line"),
    ("\\psfrag{a}[bc][bc]", "must be on one line"),
    ("\\psfrag{a}[bc][bc]  % body follows", "must be on one line"),
])
def test_parse_psfrag_line_rejects_malformed_entries(line, message):
    with pytest.raises(ValueError, match=message):
        parse_psfrag_line(line)
    with pytest.raises(PsfragSyntaxError, match="^line 3: "):
        parse_psfrag_document("% header\n\\psfrag{b}{y}\n" + line + "\n")


def test_parse_psfrag_document_collects_in_order(export):
    _eps, tex, registry = export("ex_auto")
    parsed = parse_psfrag_document(tex)
    assert parsed.tags() == registry.tags()
    for tag in registry.tags():
        assert parsed.get(tag) == registry.get(tag)


# --------------------------------------------------------- psfrag_export

def test_export_default_suffixes(tmp_path, scene_of):
    base = tmp_path / "ex_auto"
    psfrag_export(scene_of("ex_auto"), base)
    assert (tmp_path / "ex_auto-psfrag.eps").exists()
    assert (tmp_path / "ex_auto-psfrag.tex").exists()


def test_export_custom_suffix(tmp_path, scene_of):
    base = tmp_path / "s"
    psfrag_export(scene_of("ex_auto"), base, ExportOptions(tex_suffix=".tex",
                                                           eps_suffix=".eps"))
    assert (tmp_path / "s.tex").exists()
    assert (tmp_path / "s.eps").exists()


def test_export_auto_counts_thirteen_entries(export):
    _eps, _tex, registry = export("ex_auto")
    assert len(registry) == 13


def test_export_no_auto_position_yields_no_entries_without_directives(export):
    opts = ExportOptions(auto_position=False)
    _eps, _tex, registry = export("ex_auto", opts)
    assert len(registry) == 0


def test_export_no_auto_convert_keeps_manual_directives(export):
    opts = ExportOptions(auto_convert_text=False)
    _eps, _tex, registry = export("ex_rot", opts)
    assert len(registry) == 6
    assert all(tag.startswith("Example") for tag in registry.tags())


def test_export_option_implication_byte_identical(export):
    eps_a, tex_a, _ = export("ex_rot", ExportOptions(auto_position=False))
    eps_b, tex_b, _ = export("ex_rot", ExportOptions(auto_position=False,
                                                     auto_convert_text=False))
    assert eps_a == eps_b
    assert tex_a == tex_b


def test_export_fallback_alignment_with_auto_position_off(export):
    _eps, _tex, registry = export("ex_rot", ExportOptions(auto_position=False))
    assert registry.tags()  # the manual directives are still tagged
    for entry in registry.entries():
        assert (str(entry.posn), str(entry.psposn)) == ("bc", "bc")


def test_export_renumber_eighteen_labels(export):
    _eps, _tex, registry = export("ex_3d", ExportOptions(renumber_tags=True))
    assert registry.tags() == list("abcdefghijklmnopqr")


def test_export_tag_uniqueness_and_alphanumeric(export):
    for name, opts in [("ex_auto", ExportOptions()),
                       ("ex_hold", ExportOptions()),
                       ("ex_3d", ExportOptions())]:
        _eps, _tex, registry = export(name, opts)
        tags = registry.tags()
        assert len(tags) == len(set(tags))
        assert all(tag.isalnum() for tag in tags)


def test_export_empty_basename_rejected(scene_of):
    with pytest.raises(ValueError):
        psfrag_export(scene_of("ex_auto"), "")
