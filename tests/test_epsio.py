from __future__ import annotations

import base64
import itertools
import math
import random
import re
import string
import tracemalloc
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labelforge import (ExportOptions, RewriteError, Scene, ScanError,
                        TextPrimitive, TokenizeError, auto_wrap,
                        expand_decorations, rewrite_tags, scan_tags, substitute_preview,
                        tokenize, write_eps)
from labelforge import epsio
from labelforge.cli import main
from labelforge.epsio import (ARRAY_DELIM, COMMENT, LITERAL_NAME, NAME, NUMBER,
                              PROC_DELIM, STRING, WORDS, ScanWarning)
from labelforge.exprkit import Str

from conftest import FIXTURES, GOLDEN, check_shows


# -------------------------------------------------------------- tokenize

# A token is the tuple (kind, value, start, end, lit_start).

def _per_word_tokenize(data: bytes) -> list[tuple]:
    """The token stream with each WORDS token expanded into its NUMBER and NAME tokens."""
    return [word for token in tokenize(data)
            for word in (epsio.word_tokens(data, token) if token[0] == WORDS else [token])]


def test_tokenize_string_escape_example():
    data = b"(a\\)b) show"
    assert [kind for kind, *_ in tokenize(data)] == [STRING, WORDS]
    tokens = _per_word_tokenize(data)
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
    data = b"/Times-Roman 10 selectfont [0.1 1] {lineto} (s)"
    assert [(kind, value) for kind, value, *_ in tokenize(data)] == [
        (LITERAL_NAME, "Times-Roman"), (WORDS, b"10 selectfont"), (ARRAY_DELIM, "["),
        (WORDS, b"0.1 1"), (ARRAY_DELIM, "]"), (PROC_DELIM, "{"), (WORDS, b"lineto"),
        (PROC_DELIM, "}"), (STRING, b"s")]
    tokens = _per_word_tokenize(data)
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
    data = write_eps(scene)
    tokens = tokenize(data)
    assert b"".join(data[start:end] for _kind, _value, start, end, _lit in tokens) == data


def test_tokenize_whitespace_attaches_to_following_token():
    data = b"  12  (x) \n"
    for tokens in (tokenize(data), _per_word_tokenize(data)):
        assert data[tokens[0][2]:tokens[0][3]] == b"  12"
        # trailing whitespace extends the final token
        assert data[tokens[1][2]:tokens[1][3]] == b"  (x) \n"
        assert b"".join(data[start:end] for _kind, _value, start, end, _lit in tokens) == data


def test_each_word_holds_the_whitespace_before_it_and_the_last_the_run_after_it():
    data = b"\t1 2\x00moveto\r\n(x)\fa\x0bb  1_0 \n"
    assert [data[start:end] for _kind, _value, start, end, _lit in tokenize(data)] == [
        b"\t1 2\x00moveto", b"\r\n(x)", b"\fa\x0bb  1_0 \n"]
    assert [(kind, value, data[start:end]) for kind, value, start, end, _lit
            in _per_word_tokenize(data)] == [
        (NUMBER, 1.0, b"\t1"), (NUMBER, 2.0, b" 2"), (NAME, "moveto", b"\x00moveto"),
        (STRING, b"x", b"\r\n(x)"), (NAME, "a\x0bb", b"\fa\x0bb"), (NAME, "1_0", b"  1_0 \n")]


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


@pytest.mark.parametrize("data, value", [
    (b'<~87cURD]i,"Ebo80~>', b"Hello World!"),
    (b"<~@V>~>", b"bh"),  # `>` is an ASCII85 digit: it does not end the literal
    (b"<~ 8 7\r\nc\fU\x00RDZ\t~>", b"Hello"),  # PostScript whitespace is skipped
    (b"<~z~>", b"\0\0\0\0"),
    (b"<~~>", b""),
])
def test_an_ascii85_string_decodes_to_its_bytes(data, value):
    assert tokenize(data) == [(STRING, value, 0, len(data), 0)]


@pytest.mark.parametrize("data, message, offset", [
    (b"1 <zz> show", "invalid hex string", 2),
    (b"<41\x0b42>", "invalid hex string", 0),  # VT is no PostScript whitespace
    (b"(a) <~v~> show", "invalid ASCII85 string", 4),
    (b"<~abz~>", "invalid ASCII85 string", 0),
    (b"<~uuuuu~>", "invalid ASCII85 string", 0),  # above 2**32 - 1
    (b"<~a~>", "invalid ASCII85 string", 0),  # a last group of one digit
    (b"<~ab c", "invalid ASCII85 string", 0),
    (b"<~ab~c~>", "invalid ASCII85 string", 0),
    (b"<~>", "invalid ASCII85 string", 0),
])
def test_an_invalid_hex_or_ascii85_string_is_an_error_at_its_opening(data, message, offset):
    with pytest.raises(TokenizeError) as info:
        tokenize(data)
    assert str(info.value) == f"{message} at byte offset {offset}" and info.value.offset == offset


def test_scan_odd_length_hex_string_pads_its_last_digit_with_zero():
    occs = scan_tags(b"10 10 moveto <414> show")
    assert [(occ.tag, occ.device_position) for occ in occs] == [("A@", (10.0, 10.0))]


_WORD_POOL = ["1", "-2", "+3", "3.5", ".5", "+.5", "-.5", "6.", "1e3", "1E+3", "-1.5e-2",
              "007", "1e999", "1_0", "inf", "-nan", ".5e", "16#FF", "1\x0b", "+", "-", ".", "e5",
              "l", "x1"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_WORD_POOL),
                          st.sampled_from([" ", "\t", "\r\n", "\f", "\x00", " \x00 "])),
                min_size=1, max_size=12))
def test_the_scanner_pushes_the_numbers_word_tokens_reads(words):
    data = "".join(word + gap for word, gap in words).encode("latin-1")
    (token,) = tokenize(data)
    interp = epsio._Interpreter(data)
    interp.run([token])
    assert interp.stack == [value for kind, value, *_ in epsio.word_tokens(data, token)
                            if kind == NUMBER]


def test_tokenize_number_forms():
    data = b"1 -2 3.5 .5 6. 1e3 -1.5e-2 16#FF"
    assert len(tokenize(data)) == 1
    tokens = _per_word_tokenize(data)
    values = [value for _kind, value, *_ in tokens]
    assert values[:7] == [1.0, -2.0, 3.5, 0.5, 6.0, 1000.0, -0.015]
    assert [kind for kind, *_ in tokens[:7]] == [NUMBER] * 7
    assert tokens[7][0] == NAME  # radix form is not required


@pytest.mark.parametrize("word", [b"1_0", b"inf", b"-nan", b"Infinity", b".5e", b"1e999",
                                  b"-1e999", b"16#FF", b"1\x0b", b"\x0b1", b"1.5\x0b", b".",
                                  b"+", b"1e", b"0x10", b"1__0"])
def test_a_word_that_float_reads_but_the_grammar_does_not_is_a_name(word):
    for data, numbers in [(word, []), (b"1 " + word + b" 2", [1.0, 2.0]), (b"1_0 " + word, []),
                          (word + b"\x00 2", [2.0])]:
        tokens = _per_word_tokenize(data)
        assert (NAME, word.decode("latin-1")) in [(kind, value) for kind, value, *_ in tokens]
        interp = epsio._Interpreter(data)
        interp.run(tokenize(data))
        assert interp.stack == numbers


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


_REGULAR = rb"[^ \t\r\n\f\x00()<>\[\]{}/%]"
# The tokenizer's grammar with one token per number and per name.
_REFERENCE_TOKEN = re.compile(
    rb"[ \t\r\n\f\x00]*(?:"
    rb"(?P<comment>%[^\r\n]*)"
    rb"|(?P<string>\()"
    rb"|(?P<number>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?(?!" + _REGULAR + rb"))"
    rb"|(?P<name><<|>>?|" + _REGULAR + rb"+)"
    rb"|(?P<a85><~(?P<a85_body>[^~]*)(?P<a85_end>~>)?)"
    rb"|(?P<hex><(?P<hex_body>[^>]*)>)"
    rb"|//?(?P<literal>" + _REGULAR + rb"*)"
    rb"|(?P<array>[\[\]])"
    rb"|(?P<open>\{)"
    rb"|(?P<close>\})"
    rb"|(?P<error>[)<])"
    rb")?")
_REFERENCE_KINDS = {"number": NAME, "name": NAME, "literal": LITERAL_NAME, "comment": COMMENT,
                    "array": ARRAY_DELIM, "open": PROC_DELIM, "close": PROC_DELIM}


# The byte loop that read `(` string literals before the two PLRM rules did, kept verbatim
# with the two tables it reads as the oracle for `epsio._scan_string`.
_STRING_ESCAPES = {
    ord("n"): b"\n", ord("r"): b"\r", ord("t"): b"\t",
    ord("b"): b"\b", ord("f"): b"\f",
    ord("("): b"(", ord(")"): b")", ord("\\"): b"\\",
}


_STRING_PLAIN = re.compile(rb"[^\\()]*")


def _reference_scan_string(data: bytes, start: int) -> tuple[bytes, int]:
    """Decode a parenthesized string starting at data[start] == '('."""
    out = bytearray()
    depth = 1
    i = start + 1
    n = len(data)
    while i < n:
        plain_end = _STRING_PLAIN.match(data, i).end()
        if plain_end > i:
            out += data[i:plain_end]
            i = plain_end
            if i >= n:
                break
        ch = data[i]
        if ch == 0x5C:  # backslash
            if i + 1 >= n:
                raise TokenizeError("unterminated string", start)
            nxt = data[i + 1]
            if nxt in _STRING_ESCAPES:
                out += _STRING_ESCAPES[nxt]
                i += 2
            elif 0x30 <= nxt <= 0x37:  # up to three octal digits
                j = i + 1
                value = 0
                while j < n and j < i + 4 and 0x30 <= data[j] <= 0x37:
                    value = value * 8 + (data[j] - 0x30)
                    j += 1
                out.append(value & 0xFF)
                i = j
            elif nxt in (0x0A, 0x0D):  # line continuation
                i += 2
                if nxt == 0x0D and i < n and data[i] == 0x0A:
                    i += 1
            else:
                out.append(nxt)
                i += 2
        elif ch == 0x28:  # (
            depth += 1
            out.append(ch)
            i += 1
        else:  # ) — the plain run stops only at backslash and parens
            depth -= 1
            if depth == 0:
                return bytes(out), i + 1
            out.append(ch)
            i += 1
    raise TokenizeError("unterminated string", start)


def _reference_tokenize(data: bytes) -> list[tuple]:
    """The tokenizer as one `_REFERENCE_TOKEN.match` call per number, name and other token:
    the oracle for `tokenize` with its WORDS tokens expanded."""
    tokens: list[tuple] = []
    proc_opens: list[int] = []
    i = 0
    n = len(data)
    while i < n:
        m = _REFERENCE_TOKEN.match(data, i)
        group = m.lastgroup
        if group is None:  # only whitespace is left
            if tokens:
                kind, value, start, _end, lit_start = tokens[-1]
                tokens[-1] = (kind, value, start, n, lit_start)
            break
        text = m[group]
        pos, end = m.span(group)
        lit_start = -1
        if group == "number" and math.isfinite(value := float(text)):
            kind = NUMBER
        elif group == "string":
            kind, lit_start = STRING, pos
            value, end = _reference_scan_string(data, pos)
        elif group == "hex":
            kind, lit_start = STRING, pos
            digits = m["hex_body"].translate(None, epsio._WS)
            if not re.fullmatch(rb"[0-9A-Fa-f]*", digits):
                raise TokenizeError("invalid hex string", pos)
            if len(digits) % 2:
                digits += b"0"
            value = bytes.fromhex(digits.decode("latin-1"))
        elif group == "a85":
            kind, lit_start = STRING, pos
            digits = m["a85_body"].translate(None, epsio._WS)
            try:
                if m["a85_end"] is None or len(digits.replace(b"z", b"")) % 5 == 1:
                    raise ValueError("PLRM: no `~>`, or a last group of one digit")
                value = base64.a85decode(digits)
            except ValueError:
                raise TokenizeError("invalid ASCII85 string", pos) from None
        elif group == "error":
            raise TokenizeError(epsio._ERRORS[text], pos)
        else:
            if group == "open":
                proc_opens.append(pos)
            elif group == "close":
                if not proc_opens:
                    raise TokenizeError("unmatched '}'", pos)
                proc_opens.pop()
            kind, value = _REFERENCE_KINDS[group], text.decode("latin-1")
        tokens.append((kind, value, i, end, lit_start))
        i = end
    if proc_opens:
        raise TokenizeError("unterminated procedure", proc_opens[0])
    return tokens


# Every word of one to three bytes over the bytes where float() and the number grammar
# could part: digits, sign, dot, exponent, `_`, VT, the letters of inf and nan, and
# bytes that str.split() or float() treat as whitespace but bytes.split() does not.
_WORD_BYTES = b"09.+-eE_infa#\x0b\x1c\x85\xa0"


def test_every_short_word_is_a_number_exactly_when_the_grammar_says_so():
    words = [bytes(w) for n in (1, 2, 3) for w in itertools.product(_WORD_BYTES, repeat=n)]
    data = b" ".join(words)
    expected = _reference_tokenize(data)
    assert _per_word_tokenize(data) == expected
    interp = epsio._Interpreter(data)
    interp.run(tokenize(data))
    assert interp.stack == [value for kind, value, *_ in expected if kind == NUMBER]


def _tokenize_outcome(tokenizer, data: bytes):
    """The token tuples, or the error's message and offset."""
    try:
        return tokenizer(data)
    except TokenizeError as exc:
        return str(exc), exc.offset


_FRAGMENTS = [
    b" ", b"\t", b"\r", b"\n", b"\r\n", b"\f", b"\x00",
    b"%", b"% comment\n", b"%%BoundingBox: 0 0 1 1\r",
    b"(a)", b"()", b"(a(b)c)", b"(\\))", b"(\\()", b"(\\101\\n\\9)", b"(a\\\nb)", b"(a\\\r\nb)",
    b"(a\\\rb)", b"((x)", b"(\\", b"(",
    b"<>", b"<41>", b"<414>", b"<4 1\n42>", b"<zz>", b"<4", b"<<", b">>", b">",
    b'<~87cURD]i,"Ebo80~>', b"<~z~>", b"<~@V>~>", b"<~>~>", b"<~a~>", b"<~v~>", b"<~", b"~>", b"<~>",
    b"[", b"]", b"{", b"}", b"/a", b"//b", b"/", b"moveto", b"show", b"a-b",
    b"1e999", b"-1e999", b"16#FF", b".5", b"1.", b"-2", b"+3.5e-2", b"1e", b".", b"-", b"0",
    b")", b"<", b"}",
    b"\x0b", b"1_0", b"inf", b"-nan", b"+.5", b".5e", b"1\x0b",
]


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(_FRAGMENTS), st.binary(max_size=2)),
                max_size=40).map(b"".join))
def test_tokenize_matches_the_match_per_token_oracle(data):
    assert (_tokenize_outcome(_per_word_tokenize, data)
            == _tokenize_outcome(_reference_tokenize, data))


def _string_outcome(scan, data: bytes):
    """The (value, end) of the `(` literal at data[0], or the error's message and offset."""
    try:
        return scan(data, 0)
    except TokenizeError as exc:
        return str(exc), exc.offset


# The bytes where the two PLRM rules could part from the byte loop, alone and as the
# escapes they make: parens, backslash, the named escapes, octal and non-octal digits, line
# breaks and other bytes.
_STRING_PIECES = [b"(", b")", b"\\", b"n", b"r", b"t", b"b", b"f", b"0", b"1", b"3", b"7", b"8",
                  b"9", b"\r", b"\n", b"\r\n", b"a", b" ", b"\x00", b"\xff", b"%", b"<",
                  b"\\\\", b"\\(", b"\\)", b"\\n", b"\\\r", b"\\\n", b"\\\r\n", b"\\\n\r",
                  b"\\7", b"\\12", b"\\777", b"\\400", b"\\1234", b"\\8", b"\\x"]


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(_STRING_PIECES) | st.binary(max_size=1), max_size=20).map(b"".join),
       st.sampled_from([b")", b"))", b"", b"\\", b") x"]))
def test_scan_string_matches_the_byte_loop_oracle(body, tail):
    data = b"(" + body + tail
    assert _string_outcome(epsio._scan_string, data) == _string_outcome(
        _reference_scan_string, data)


@pytest.mark.parametrize("source", [p.stem for p in sorted(FIXTURES.glob("*.scene"))]
                         + [p.name for p in sorted(GOLDEN.glob("*.eps"))])
def test_tokenize_matches_the_oracle_on_each_export_and_golden(export, source):
    data = (GOLDEN / source).read_bytes() if source.endswith(".eps") else export(source)[0]
    assert _per_word_tokenize(data) == _reference_tokenize(data)


@pytest.mark.parametrize("command", ["scan_tags", "rewrite_tags", "substitute_preview"])
def test_each_reading_command_tokenizes_its_input_once(monkeypatch, command):
    from labelforge import parse_psfrag_document, substitute_preview
    eps = (GOLDEN / "ex_auto-psfrag.eps").read_bytes()
    registry = parse_psfrag_document((GOLDEN / "ex_auto-psfrag.tex").read_text(encoding="utf-8"))
    run = {"scan_tags": lambda: scan_tags(eps),
           "rewrite_tags": lambda: rewrite_tags(eps, {tag: tag + "x" for tag in registry.tags()}),
           "substitute_preview": lambda: substitute_preview(eps, registry)}[command]
    calls = []
    monkeypatch.setattr(epsio, "tokenize", lambda data: calls.append(data) or tokenize(data))
    run()
    assert calls == [eps]


def _polyline_scene(points: int) -> Scene:
    from labelforge import Polyline
    line = tuple((i / (points - 1), (i * 7 % points) / points) for i in range(points))
    return Scene(plot_range=((0.0, 1.0), (0.0, 1.0)), target_size=(100.0, 100.0),
                 primitives=(Polyline(line), Polyline(line[::-1]),
                             TextPrimitive(Str("t"), (0.5, 0.5))))


def test_the_token_count_of_a_written_scene_does_not_grow_with_its_points():
    small, large = (write_eps(_polyline_scene(points)) for points in (10, 250))
    assert len(large) > 5 * len(small)
    assert len(tokenize(small)) == len(tokenize(large))


def test_tokenize_holds_no_memory_per_word_of_a_run():
    data = b"1.5 2 l " * 20000
    tracemalloc.start()
    try:
        tokens = tokenize(data)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(tokens) == 1 and peak < 2 * len(data)  # the run's bytes, and little more


def _reference_scan(data: bytes) -> list:
    """The scanner as one loop step per token of `_reference_tokenize`: the oracle for
    `scan_tags`. A name reaches its handler as the one word of its own token."""
    interp = epsio._Interpreter(data)
    stack = interp.stack
    push = stack.append
    remaining = iter(_reference_tokenize(data))
    for token in remaining:
        kind, value, _start, end, lit_start = token
        if kind == NUMBER or kind == LITERAL_NAME:
            push(value)
        elif kind == NAME:
            op = epsio._OPS.get(value.encode("latin-1"))
            if op is not None:
                count, numeric, handler = op
                word = (value, token, 0)
                if len(stack) < count:
                    raise interp._error(f"stack underflow on {value!r}", word)
                operands = [stack.pop() for _ in range(count)][::-1]
                if numeric and not all(isinstance(item, float) for item in operands):
                    raise interp._error(f"non-numeric operand for {value!r}", word)
                handler(interp, word, *operands)
        elif kind == STRING:
            push(epsio._PsString(value, (lit_start, end)))
        elif kind == ARRAY_DELIM:
            if value == "[":
                push(epsio._MARK)
            else:
                items = []
                while stack and stack[-1] is not epsio._MARK:
                    items.append(stack.pop())
                if stack:
                    stack.pop()
                push(items[::-1])
        elif kind == PROC_DELIM:
            depth = 1
            for inner in remaining:
                if inner[0] == PROC_DELIM:
                    depth += 1 if inner[1] == "{" else -1
                    if not depth:
                        break
            push(epsio._PROC)
    return interp.occurrences


def _scan_outcome(scan, data: bytes):
    """The occurrences and the `showpage` offset, or the error's class, message and span or
    offset, with the warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            found = scan(data)
            result = found, found.showpage
        except (ScanError, TokenizeError) as exc:
            result = type(exc), str(exc), getattr(exc, "span", None), getattr(exc, "offset", None)
    return result, [(w.category, str(w.message)) for w in caught]


def _flat(parts: list[list[str]]) -> list[str]:
    return [atom for part in parts for atom in part]


_OPERATORS = sorted(name.decode("latin-1") for name in epsio._OPS) + [
    "foo", "l", "s", "bind", "stroke", "exch", "<<", ">>"]
_OPERAND = st.sampled_from([
    "0", "1", "-2.5", ".5", "3e1", "12", "1e200", "1e999", "1_0", "inf", "-nan", "+.5", ".5e",
    "16#FF", "1\x0b", "(a)", "(b\\)c)", "<4142>", "<>", "/F", "/Times-Roman", "foo"])
_SCAN_STATEMENT = st.one_of(
    st.tuples(st.lists(_OPERAND, max_size=6), st.sampled_from(_OPERATORS)).map(
        lambda s: [*s[0], s[1]]),
    st.lists(_OPERAND, max_size=6).map(lambda items: ["[", *items, "]"]),
    st.sampled_from([["1", "2", "moveto"], ["(t)", "show"], ["gsave"], ["grestore"],
                     ["/Times-Roman", "12", "selectfont"], ["% c\n"], ["%%EOF\r"]]),
)
_SCAN_PROGRAM = st.recursive(
    st.lists(_SCAN_STATEMENT, max_size=8).map(_flat),
    lambda inner: st.lists(inner.map(lambda body: ["{", *body, "}"]) | inner,
                           max_size=4).map(_flat),
    max_leaves=12)
_GAP = st.sampled_from(["", " ", "\t", "\r\n", "\n", "\r", "\f", "\x00", "\x0b", " \x00\f "])


@settings(max_examples=300, deadline=None)
@given(atoms=_SCAN_PROGRAM, data=st.data())
def test_scan_tags_matches_the_per_token_scanner(atoms, data):
    gaps = data.draw(st.lists(_GAP, min_size=len(atoms) + 1, max_size=len(atoms) + 1))
    program = "".join(gap + atom for gap, atom in zip(gaps, atoms + [""])).encode("latin-1")
    assert _scan_outcome(scan_tags, program) == _scan_outcome(_reference_scan, program)


@pytest.mark.parametrize("program", [
    b"0 0 moveto (a) show 1 2 3 (b) widthshow", b"gsave 1e999 2 translate grestore",
    b"1_0 2 moveto (t) show", b"1\x002\x00moveto (t) show", b"1\x0b 2 moveto", b"(a) 1 2 scale",
    b"{ 1 moveto } 1 2 moveto (t) show grestore", b"[1 0 0 1 0 0] concat 1 2 3 moveto moveto"])
def test_scan_tags_matches_the_per_token_scanner_on_examples(program):
    assert _scan_outcome(scan_tags, program) == _scan_outcome(_reference_scan, program)


def test_scan_tags_matches_the_per_token_scanner_on_each_golden():
    for path in sorted(GOLDEN.glob("*.eps")):
        data = path.read_bytes()
        assert _scan_outcome(scan_tags, data) == _scan_outcome(_reference_scan, data)


# -------------------------------------------------------------- scan_tags

def test_scan_rotate_fragment():
    occs = scan_tags(b"gsave 30 rotate (gA) show grestore")
    assert len(occs) == 1
    assert occs[0].tag == "gA"
    assert occs[0].rotation == pytest.approx(30.0)


def test_scan_translate_and_moveto_compose():
    occs = scan_tags(b"10 20 translate 5 6 moveto (t) show")
    assert occs[0].device_position == pytest.approx((15.0, 26.0))


# The current point is a device point: a path operator maps its pair through the CTM when it
# runs, and `show` reads the point as it is, with the CTM's rotation and scale at the `show`.
# A row gives the program's (x, y, rotation, scale), then the operator that ran with no current
# point, if one did, or the message of its ScanError. Under
# `_UNDER` (translate by (5, 0), scale by 2, rotate by 90) the pair (3, 4) maps to (-3, 6), and
# its offset from (10, 10) to (2, 16).
_UNDER = b"10 10 moveto 5 0 translate 2 2 scale 90 rotate "
_SCANNER_RULES = [
    (b"100 100 moveto 90 rotate (t) show", (100, 100, 90, 1)),
    (b"10 10 moveto 2 2 scale (t) show", (10, 10, 0, 2)),
    (b"10 10 moveto gsave 2 2 scale 1 1 rmoveto (t) show grestore", (12, 12, 0, 2)),
    (b"10 10 moveto 5 0 rlineto (t) show", (15, 10, 0, 1)),
    (b"10 10 moveto 1 1 2 2 5 0 rcurveto (t) show", (15, 10, 0, 1)),
    (b"1e-7 1e-7 scale 1e8 1e8 moveto (t) show", (10, 10, 0, 1e-7)),  # determinant 1e-14
    (b"gsave 0 0 scale grestore 10 10 moveto (t) show", (10, 10, 0, 1)),
    (b"0 1 scale 10 10 moveto (t) show", (0, 10, 0, 0)),  # a singular CTM: scale 0
    (b"10 20 translate 5 6 moveto 3 -4 rmoveto (t) show", (18, 22, 0, 1)),
    (_UNDER + b"3 4 moveto (t) show", (-3, 6, 90, 2)),
    (_UNDER + b"3 4 lineto (t) show", (-3, 6, 90, 2)),
    (_UNDER + b"1 1 2 2 3 4 curveto (t) show", (-3, 6, 90, 2)),
    (_UNDER + b"3 4 rmoveto (t) show", (2, 16, 90, 2)),
    (_UNDER + b"3 4 rlineto (t) show", (2, 16, 90, 2)),
    (_UNDER + b"1 1 2 2 3 4 rcurveto (t) show", (2, 16, 90, 2)),
    (b"5 0 translate 3 4 rlineto (t) show", (8, 4, 0, 1, "rlineto")),  # from the origin
    (b"30 0 translate (t) show", (30, 0, 0, 1, "show")),
    (b"10 10 moveto newpath 2 2 scale (t) show", (0, 0, 0, 2, "show")),
    (b"10 0 rmoveto (t) show", (10, 0, 0, 1, "rmoveto")),
    (b"10 0 rlineto (t) show", (10, 0, 0, 1, "rlineto")),
    (b"1 1 2 2 10 0 rcurveto (t) show", (10, 0, 0, 1, "rcurveto")),
    (b"gsave 10 10 moveto grestore 90 rotate 0 5 rmoveto (t) show", (-5, 0, 90, 1, "rmoveto")),
    (b"10 10 moveto (a) 1 lineto /x 1 rlineto (t) show", (10, 10, 0, 1)),  # lenient rows
    (b"(a) 1 moveto (t) show", "non-numeric operand for 'moveto'"),
    (b"/x 1 rmoveto (t) show", "non-numeric operand for 'rmoveto'"),
]


def _no_point(op: str, start: int) -> str:
    """The warning of `op`, run at byte `start` with no current point."""
    return (f"{op} at bytes {start}..{start + len(op)} has no current point: the user-space "
            "origin is taken")


@pytest.mark.parametrize("program, expected", _SCANNER_RULES)
def test_the_scanner_keeps_the_current_point_in_device_space(tmp_path, capsys, program,
                                                             expected):
    path = tmp_path / "r.eps"
    path.write_bytes(b"%!PS-Adobe-3.0 EPSF-3.0\n/Times-Roman 10 selectfont " + program)
    code = main(["inspect", str(path)])
    out, err = capsys.readouterr()
    if isinstance(expected, str):
        with pytest.raises(ScanError, match=f"^{expected} at bytes "):
            scan_tags(program)
        assert (code, out) == (1, "") and err.startswith(f"error: {expected} at bytes ")
        return
    x, y, rotation, scale, *no_point = expected
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        (occ,) = scan_tags(program)
    assert (*occ.device_position, occ.rotation, occ.scale) == pytest.approx(
        (x, y, rotation, scale), abs=1e-9)
    starts = [program.index(f" {op}".encode()) + 1 for op in no_point]
    assert [(w.category, str(w.message)) for w in caught] == [
        (ScanWarning, _no_point(op, start)) for op, start in zip(no_point, starts)]
    head = len(path.read_bytes()) - len(program)
    assert (code, out, err) == (
        0, f"t\t{x:.3f}\t{y:.3f}\t{rotation:.3f}\t{scale:.3f}\n",
        "".join(f"warning: {_no_point(op, head + start)}\n" for op, start in zip(no_point, starts)))


@pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
def test_scan_string_line_continuation_adds_nothing_to_the_tag(newline):
    occs = scan_tags(b"0 0 moveto (ta\\" + newline + b"g) show")
    assert [occ.tag for occ in occs] == ["tag"]


def test_scan_concat_matrix():
    occs = scan_tags(b"[0 1 -1 0 50 0] concat 0 0 moveto (t) show")
    assert occs[0].rotation == pytest.approx(90.0)
    assert occs[0].device_position == pytest.approx((50.0, 0.0))


@pytest.mark.parametrize("matrix", [b"[-1 0 0 -1 0 0]", b"[-1 -0.0 0 -1 0 0]"])
def test_scan_a_half_turn_is_180_degrees_whatever_the_sign_of_its_zero(matrix):
    # atan2(-0.0, -1) is -180 degrees; the rotation lies in (-180, 180]
    assert scan_tags(matrix + b" concat 0 0 moveto (t) show")[0].rotation == 180.0


def test_scan_scalefont_and_selectfont_track_size():
    occs = scan_tags(b"/Times-Roman findfont 14 scalefont setfont (a) show "
                     b"/Times-Roman 7 selectfont (b) show")
    assert [occ.font_size for occ in occs] == [14.0, 7.0]


def test_scan_vertical_direction_gives_ninety_degrees(tmp_path):
    scene = Scene(plot_range=((0.0, 1.0), (0.0, 1.0)), target_size=(100.0, 100.0),
                  primitives=(TextPrimitive(Str("up"), (0.5, 0.5),
                                            direction=(0.0, 1.0)),))
    occs = scan_tags(write_eps(scene))
    assert occs[0].rotation == pytest.approx(90.0, abs=1e-9)


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


_COUNTS = [(name.decode("latin-1"), count) for name, (count, _numeric, _handler)
           in sorted(epsio._OPS.items())]


def _suitable_operands(name: str, count: int) -> bytes:
    return {"concat": b"[1 0 0 1 0 0] ", "show": b"(a) "}.get(name, b"1 " * count)


@pytest.mark.parametrize("name, count", [(name, count) for name, count in _COUNTS if count])
def test_one_operand_too_few_is_an_underflow_at_the_operator_before_any_warning(name, count):
    program = b"1 " * (count - 1) + name.encode()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ScanError) as info:
            scan_tags(program)
    assert str(info.value) == (f"stack underflow on {name!r} at bytes "
                               f"{len(program) - len(name)}..{len(program)}")
    assert caught == []


@pytest.mark.parametrize("name, count", _COUNTS)
def test_each_operator_pops_exactly_its_count(name, count):
    program = (b"/sentinel " + (b"gsave " if name == "grestore" else b"")
               + _suitable_operands(name, count) + name.encode())
    interp = epsio._Interpreter(program)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ScanWarning)
        interp.run(tokenize(program))
    assert interp.stack[0] == "sentinel"
    pushed = interp.stack[1:]
    if name in ("findfont", "scalefont"):
        assert [type(font) for font in pushed] == [epsio._Font]
    else:
        assert pushed == []


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


@pytest.mark.parametrize("data, span", [
    (b"moveto 1 2", (0, 6)),  # the first word of its run
    (b"1 moveto 2 3", (2, 8)),  # a middle word
    (b"(a) pop 1 2 moveto 3 moveto", (21, 27)),  # the last word, and its name's second time
    (b"1 2 moveto 3 moveto\n", (13, 19)),  # the last word of the last token
    (b"1\x00moveto 2", (2, 8)),
    (b"1\fmoveto\f", (2, 8)),
    (b"1\r\nmoveto\r\n2", (3, 9)),
    (b"1_0\x0b 1_0 moveto", (9, 15)),  # a run that float() alone would misread
    pytest.param(b"1 2 lineto " * 5000 + b"moveto", (55000, 55006), id="long-run-last-word"),
])
def test_a_scan_error_in_a_run_spans_its_own_word(data, span):
    with pytest.raises(ScanError, match="stack underflow on 'moveto'") as info:
        scan_tags(data)
    assert info.value.span == span and data[span[0]:span[1]] == b"moveto"


def test_scan_occurrences_in_byte_order(export):
    eps, _tex, _reg = export("ex_auto")
    occs = scan_tags(eps)
    spans = [occ.byte_span for occ in occs]
    assert spans == sorted(spans)


@pytest.mark.parametrize("data", [b"", b"(t) show", b"% showpage\n", b"/showpage",
                                  b"(showpage) pop", b"{ showpage } pop"])
def test_scan_showpage_is_none_when_no_showpage_runs(data):
    assert scan_tags(data).showpage is None


@pytest.mark.parametrize("data", [b"10 10 moveto (t) show showpage\n", b"showpage",
                                  b"(t) show\r\n\t showpage \f%%EOF",
                                  b"1 2 moveto\x00showpage"])
def test_scan_showpage_is_the_words_own_start(data):
    assert scan_tags(data).showpage == data.index(b"showpage")


@pytest.mark.parametrize("later", [b"(\nshowpage) pop", b"% showpage", b"{\nshowpage\n} pop",
                                   b"<73686f7770616765> pop"])
def test_scan_showpage_ignores_a_later_showpage_that_is_not_run(later):
    data = b"(t) show\nshowpage\n" + later + b"\n%%EOF\n"
    assert scan_tags(data).showpage == 9


def test_scan_showpage_is_the_last_one_run():
    data = b"showpage showpage\nshowpage (showpage) pop\n"
    assert scan_tags(data).showpage == 18


@pytest.mark.parametrize("name", [p.stem for p in sorted(FIXTURES.glob("*.scene"))])
def test_scan_showpage_of_each_export_starts_its_showpage_line(export, name):
    eps, _tex, _reg = export(name)
    assert scan_tags(eps).showpage == eps.rindex(b"\nshowpage") + 1


@pytest.mark.parametrize("name", [p.stem for p in sorted(FIXTURES.glob("*.scene"))])
def test_scanning_each_export_and_its_preview_warns_of_nothing(export, name):
    eps, _tex, registry = export(name)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        scan_tags(substitute_preview(eps, registry).eps)  # which scans `eps` too
    assert caught == []


@pytest.mark.parametrize("data, trailer", [
    (b"", None), (b"(t) show\n", None), (b"%%EOF", 0), (b"%%EOF\n%%EOF\n", 6),
    (b"(t) show\n%%Trailer\nend\n%%EOF\n", 9), (b"x\n%%Trailer\n%%Trailer\n%%EOF", 12),
    (b"x\n%%EOF\n%%Trailer: end\n", 8), (b"x\r%%EOF", 2), (b"x\r\n%%EOF\r\n", 3),
    (b"x %%EOF\n", None), (b"x\n %%EOF\n", None), (b"x\n\f%%Trailer\n", None),
    (b"x\n% %%EOF\n", None), (b"x\n%%Trailer\n%%EOF junk %%Trailer\n", 2),
    (b"{\n%%Trailer\n} pop\n", None), (b"{\n%%Trailer\n} pop\n%%EOF\n", 18),
    (b"(\n%%EOF) pop\n", None),
])
def test_scan_trailer_is_the_last_dsc_trailer_line_else_the_last_eof_line(data, trailer):
    assert scan_tags(data).trailer == trailer


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
    data = write_eps(scene)
    assert data.startswith(b"%!PS-Adobe-3.0 EPSF-3.0\n%%BoundingBox: 0 0 360 223\n")
    assert b"%%Creator: labelforge" in data
    assert b"%%EndComments" in data
    assert b" show" not in data
    assert scan_tags(data) == []


def test_write_requires_expanded_scene(scene_of):
    with pytest.raises(ValueError):
        write_eps(scene_of("ex_auto"))


def test_write_rot_fixture_rotations(scene_of):
    scene = expand_decorations(scene_of("ex_rot"))
    occs = scan_tags(write_eps(scene))
    assert len(occs) == 12
    for k, occ in enumerate(occs):
        want = k * 30.0
        if want > 180.0:
            want -= 360.0
        assert occ.rotation == pytest.approx(want, abs=0.1)


def test_write_auto_fixture_show_count(scene_of):
    scene = expand_decorations(scene_of("ex_auto"))
    data = write_eps(scene)
    assert len(scan_tags(data)) == 13


def test_write_is_deterministic(scene_of):
    scene = expand_decorations(scene_of("ex_auto"))
    first = write_eps(scene)
    second = write_eps(scene)
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
        check_shows(write_eps(scene, tags), scene, tags)


def test_write_rejects_non_finite():
    from labelforge import Polyline
    with pytest.raises(ValueError):
        write_eps(Scene(plot_range=((0.0, 1.0), (0.0, 1.0)),
                        target_size=(100.0, 100.0),
                        primitives=(Polyline(((0.0, 0.0), (math.nan, 1.0))),)))


@pytest.mark.parametrize("kind", ["polyline", "circle", "arrow", "text"])
def test_write_refuses_a_device_coordinate_that_overflows(kind):
    from labelforge.scene import Arrow, CircleArc, Polyline, SceneFormatError
    far = (1e307, 0.5)  # finite, but 90 pt per unit puts it past the largest float
    primitive = {"polyline": lambda: Polyline(((0.0, 0.0), far)),
                 "circle": lambda: CircleArc(far, 0.1),
                 "arrow": lambda: Arrow((0.5, 0.5), far),
                 "text": lambda: TextPrimitive(Str("t"), far)}[kind]()
    scene = Scene(plot_range=((0.0, 1.0), (0.0, 1.0)), target_size=(100.0, 100.0),
                  primitives=(primitive,))
    with pytest.raises(SceneFormatError, match="device coordinates must be finite"):
        write_eps(scene)


def test_write_shows_a_string_that_says_nan_or_inf():
    scene = Scene(plot_range=((0.0, 1.0), (0.0, 1.0)), target_size=(100.0, 100.0),
                  primitives=(TextPrimitive(Str("(nan) inf"), (0.5, 0.5)),))
    data = write_eps(scene)
    assert [occ.tag for occ in scan_tags(data)] == ["(nan) inf"]


@pytest.mark.parametrize("text", ["\u03c0 (a)", "\U0001f600 (a)", "\ud800 (a)"],
                         ids=["pi", "emoji", "lone-surrogate"])
def test_write_shows_a_character_outside_latin_1_as_a_question_mark(text):
    scene = Scene(plot_range=((0.0, 1.0), (0.0, 1.0)), target_size=(100.0, 100.0),
                  primitives=(TextPrimitive(Str(text), (0.5, 0.5)),))
    data = write_eps(scene)
    assert b" (? \\(a\\)) show grestore\n" in data
    assert [occ.tag for occ in scan_tags(data)] == ["? (a)"]


# ----------------------------------------------------------- rewrite_tags

def test_rewrite_to_a_tag_outside_latin_1_writes_question_marks(export):
    eps, _tex, _reg = export("ex_auto")
    occ = next(o for o in scan_tags(eps) if o.tag == "Sinx")
    out = rewrite_tags(eps, {"Sinx": "\u03c0\U0001f600\xe9"})
    start, end = occ.byte_span
    assert out == eps[:start] + b"(??\xe9)" + eps[end:]


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
    eps = write_eps(scene, {i: text for i, (text, tagged) in enumerate(shows) if tagged})
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
    """A program scans alike however its tokens are separated; each literal's span, and each
    warning's, moves by exactly the bytes inserted before it."""
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
    spread = spread.encode("latin-1")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        before = scan_tags(base)
        warned = [str(w.message) for w in caught]
        after = scan_tags(spread)

    def moved_span(m):  # a warning's `start..end`, moved as its word is
        return f"{moved[int(m[1])]}..{moved[int(m[1])] + int(m[2]) - int(m[1])}"
    assert [str(w.message) for w in caught[len(warned):]] == [
        re.sub(r"(\d+)\.\.(\d+)", moved_span, message) for message in warned]
    assert [(o.tag, o.device_position, o.rotation, o.scale, o.font_size) for o in after] == [
        (o.tag, o.device_position, o.rotation, o.scale, o.font_size) for o in before]
    for old, new in zip(before, after):
        start, end = old.byte_span
        assert new.byte_span == (moved[start], moved[start] + end - start)

    def own_bytes(data):  # each word and other token but the comments, where its bytes begin
        return [(kind, value, end - len(data[start:end].lstrip(b" \t\r\n\f\x00")))
                for kind, value, start, end, _lit in _per_word_tokenize(data) if kind != COMMENT]
    assert len(own_bytes(base)) == len(tokens)
    assert own_bytes(spread) == [(kind, value, moved[at]) for kind, value, at in own_bytes(base)]
