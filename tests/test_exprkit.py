from __future__ import annotations

import random
import re
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labelforge.exprkit import (MAX_NESTING, Call, Expr, ExprSyntaxError, Hold, HookSet,
                                LabelClass, Num, Str, Sym, UnknownHeadWarning, _fold_division,
                                _negate, classify, expand_negations, guess_tex, hold_transform,
                                num, numeric_q, parse_expr, plain_text, print_source, to_tex)
from labelforge.records import record


def test_parse_simple_call():
    assert parse_expr("Sin[x]") == Call("Sin", (Sym("x"),))


def test_parse_f2_tree():
    tree = parse_expr("3*((Cos[2*Sqrt[x]])^2)^(1/3)")
    expected = Call("Times", (
        Num(Fraction(3)),
        Call("Power", (
            Call("Power", (
                Call("Cos", (Call("Times", (Num(Fraction(2)),
                                            Call("Sqrt", (Sym("x"),)))),)),
                Num(Fraction(2)))),
            Num(Fraction(1, 3)))),
    ))
    assert tree == expected


def test_parse_holdform_cube():
    tree = parse_expr("HoldForm[(3*x - 1)^3]")
    expected = Hold(Call("Power", (
        Call("Plus", (Call("Times", (Num(Fraction(3)), Sym("x"))),
                      Num(Fraction(-1)))),
        Num(Fraction(3)))))
    assert tree == expected


def test_parse_subtraction_folds_into_literal():
    tree = parse_expr("3*x - 1")
    assert tree == Call("Plus", (Call("Times", (Num(Fraction(3)), Sym("x"))),
                                 Num(Fraction(-1))))


def test_parse_integer_division_folds_to_rational():
    assert parse_expr("1/2") == Num(Fraction(1, 2))
    assert parse_expr("1/2*Pi") == Call("Times", (Num(Fraction(1, 2)), Sym("Pi")))


def test_parse_decimal_keeps_literal():
    assert parse_expr("0.50") == Num(Fraction(1, 2), "0.50")
    assert parse_expr("1.0") == Num(Fraction(1), "1.0")


def test_parse_nested_hold_normalizes():
    assert parse_expr("HoldForm[HoldForm[x]]") == Hold(Sym("x"))


def test_parse_empty_call():
    assert parse_expr("Foo[]") == Call("Foo", ())


@pytest.mark.parametrize("head", ["", "1x", "Sin x", "f-g"])
def test_a_call_head_must_be_an_identifier(head):
    with pytest.raises(ValueError, match="call head must be a nonempty identifier"):
        Call(head, ())


@pytest.mark.parametrize("source, offset_text", [
    ("Sin[x", "unbalanced bracket"),
    ("(1 + 2", "unbalanced bracket"),
    ("1 +", "expected expression"),
    ("Sin[x] y", "unexpected trailing input"),
    ('"abc', "unterminated string"),
    ("", "empty expression"),
    ("@", "unexpected character"),
    ("2²", "unexpected character '²'"),
    ("1.5²", "unexpected character '²'"),
    ("x²[1]", "call head 'x²' is not an identifier"),
])
def test_parse_errors(source, offset_text):
    with pytest.raises(ExprSyntaxError) as info:
        parse_expr(source)
    assert offset_text in str(info.value)
    assert "offset" in str(info.value)
    assert info.value.offset >= 0


def test_parse_error_offset_points_at_problem():
    with pytest.raises(ExprSyntaxError) as info:
        parse_expr("Sin[x] @")
    assert info.value.offset == 7


@pytest.mark.parametrize("opener, closer", [("(", ")"), ("Sin[", "]"), ("x^", "")])
def test_parse_nesting_limit(opener, closer):
    deepest = parse_expr(opener * MAX_NESTING + "y" + closer * MAX_NESTING)
    assert print_source(deepest) and guess_tex(deepest)
    with pytest.raises(ExprSyntaxError, match=f"nested deeper than {MAX_NESTING} levels") as info:
        parse_expr(opener * (MAX_NESTING + 1) + "y" + closer * (MAX_NESTING + 1))
    # the offset is that of the bracket or caret opening the extra level
    assert info.value.offset == len(opener) * (MAX_NESTING + 1) - 1


def test_parse_long_unary_minus_chain_is_not_nesting():
    assert parse_expr("-" * 5000 + "x") == parse_expr("--x")
    assert parse_expr("-" * 5001 + "x") == parse_expr("-x")


ROUNDTRIP_SOURCES = [
    "Sin[x]",
    "3*((Cos[2*Sqrt[x]])^2)^(1/3)",
    "HoldForm[(3*x - 1)^3]",
    "1/2*Pi",
    "3/2*Pi",
    "2*Pi",
    '"local maximum"',
    "x - 2*y",
    "-x*y",
    "x^(-2)",
    "Divide[1, 2]",
    "a/b*c",
    "a/(b*c)",
    "(a + b) + c",
    "2*3",
    "Rational[1, 3]",
    "Abs[x]",
    "1.50",
    "-0.5",
    "x^y^z",
    "Log[E]",
    "(x + 1)*(y + 2)",
]


@pytest.mark.parametrize("source", ROUNDTRIP_SOURCES)
def test_print_source_roundtrip(source):
    tree = parse_expr(source)
    assert parse_expr(print_source(tree)) == tree


def _random_expr(rng: random.Random, depth: int):
    if depth <= 0 or rng.random() < 0.3:
        kind = rng.randrange(5)
        if kind == 0:
            return Num(Fraction(rng.randrange(-20, 21)))
        if kind == 1:
            literal = f"{rng.randrange(0, 30)}.{rng.randrange(0, 100):02d}"
            return Num(Fraction(literal), literal)
        if kind == 2:
            return Num(Fraction(rng.randrange(1, 9), rng.randrange(2, 9)))
        if kind == 3:
            return Sym(rng.choice(["x", "y", "z", "Pi", "E", "alpha"]))
        return Str(rng.choice(["a b", "q", "50%", r"up\down"]))
    head = rng.choice(["Plus", "Times", "Power", "Sqrt", "Sin", "Cos", "Abs",
                       "Divide", "Rational", "Hold", "Foo"])
    if head == "Hold":
        return Hold(_random_expr(rng, depth - 1))
    if head in ("Sqrt", "Sin", "Cos", "Abs"):
        return Call(head, (_random_expr(rng, depth - 1),))
    if head in ("Power", "Divide", "Rational"):
        return Call(head, (_random_expr(rng, depth - 1),
                           _random_expr(rng, depth - 1)))
    n = rng.randrange(2, 4)
    return Call(head, tuple(_random_expr(rng, depth - 1) for _ in range(n)))


@pytest.mark.parametrize("source, printed", [
    ("0-1*0", "0 + -1*0"), ("x-1*2", "x + -1*2"), ("x-1*y*z", "x + -1*y*z"),
    ("x-1*(2*y)", "x + -1*(2*y)"), ("x-1*y", "x - y"), ("x-2", "x - 2"), ("x-y*z", "x - y*z"),
])
def test_print_source_writes_a_unit_coefficient_the_reader_needs(source, printed):
    assert print_source(parse_expr(source)) == printed
    assert parse_expr(printed) == parse_expr(source)


def test_print_source_roundtrip_random_trees():
    rng = random.Random(1357)
    for _ in range(300):
        tree = _random_expr(rng, 4)
        printed = print_source(tree)
        assert parse_expr(printed) == tree, printed


# The grammar's ASCII characters, a few letters, and ² ١ é Ⅻ ½ and a no-break
# space: characters that str.isdigit, isdecimal, isalpha, isnumeric or isspace
# accept but the grammar treats otherwise.
_SOURCE_CHARS = "0123456789.xyPSin_+-*/^()[],\"\\ \u00b2\u0661\u00e9\u216b\u00bd\u00a0"


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet=_SOURCE_CHARS, max_size=40))
def test_parse_property_syntax_error_or_roundtrip(source):
    try:
        tree = parse_expr(source)
    except ExprSyntaxError:
        return
    assert parse_expr(print_source(tree)) == tree
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UnknownHeadWarning)
        to_tex(tree)
        guess_tex(tree)



# ---------------------------------------------------------------------------
# The lexer and parser as they were before tokens became plain tuples: one `_Token`
# record per token and `at_punct(*chars)`. Kept verbatim as the oracle for `parse_expr`.

@record
class _Token:
    kind: str  # number | ident | string | punct | eof
    text: str
    offset: int


_REFERENCE_TOKEN = re.compile(r"""\s*(?:
    (?P<number>\d+(?:\.\d*)?)
  | (?P<ident>\w+)
  | (?P<string>"(?P<body>(?:[^"\\]|\\["\\])*)(?P<close>"|\\.|))
  | (?P<punct>[-+*/^()\[\],])
  | (?P<other>\S))""", re.VERBOSE | re.DOTALL)
_REFERENCE_ESCAPE = re.compile(r"\\(.)", re.DOTALL)


def _lex(source: str) -> list[_Token]:
    tokens = []
    pos = 0
    while (m := _REFERENCE_TOKEN.match(source, pos)) is not None:
        kind, start, pos = m.lastgroup, m.start(m.lastgroup), m.end()
        text = m[kind]
        if kind == "other" or (kind == "ident" and not (text[0].isalpha() or text[0] == "_")):
            raise ExprSyntaxError(f"unexpected character {text[0]!r}", start)
        if kind == "string":
            close = m["close"]
            if close.startswith("\\"):
                raise ExprSyntaxError(f"invalid string escape '{close}'", m.start("close"))
            if not close:
                raise ExprSyntaxError("unterminated string", start)
            text = _REFERENCE_ESCAPE.sub(r"\1", m["body"])
        tokens.append(_Token(kind, text, start))
    tokens.append(_Token("eof", "", len(source)))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def enter(self, offset: int) -> None:
        """Open one level of nesting; the caller closes it with depth -= 1."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ExprSyntaxError(f"nested deeper than {MAX_NESTING} levels", offset)

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_punct(self, ch: str, opened_at: int | None = None) -> None:
        tok = self.peek()
        if tok.kind == "punct" and tok.text == ch:
            self.advance()
            return
        found = tok.text if tok.kind != "eof" else "end of input"
        if ch in ("]", ")") and tok.kind == "eof" and opened_at is not None:
            raise ExprSyntaxError(
                f"unbalanced bracket: {'[' if ch == ']' else '('} opened", opened_at)
        raise ExprSyntaxError(f"expected {ch!r}, found {found!r}", tok.offset)

    def at_punct(self, *chars: str) -> str | None:
        tok = self.peek()
        if tok.kind == "punct" and tok.text in chars:
            return tok.text
        return None

    def parse_expr(self) -> Expr:
        terms = [self.parse_term()]
        while (op := self.at_punct("+", "-")) is not None:
            self.advance()
            rhs = self.parse_term()
            terms.append(rhs if op == "+" else _negate(rhs))
        if len(terms) == 1:
            return terms[0]
        return Call("Plus", tuple(terms))

    def parse_term(self) -> Expr:
        factors = [self.parse_factor()]
        while (op := self.at_punct("*", "/")) is not None:
            self.advance()
            rhs = self.parse_factor()
            if op == "*":
                factors.append(rhs)
            else:
                lhs = factors[0] if len(factors) == 1 else Call("Times", tuple(factors))
                factors = [_fold_division(lhs, rhs)]
        if len(factors) == 1:
            return factors[0]
        return Call("Times", tuple(factors))

    def parse_factor(self) -> Expr:
        signs = 0
        while self.at_punct("-"):
            self.advance()
            signs += 1
        factor = self.parse_power()
        for _ in range(signs):
            factor = _negate(factor)
        return factor

    def parse_power(self) -> Expr:
        base = self.parse_atom()
        if self.at_punct("^"):
            self.enter(self.advance().offset)
            exponent = self.parse_factor()
            self.depth -= 1
            return Call("Power", (base, exponent))
        return base

    def parse_atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            if "." in tok.text:
                return Num(Fraction(tok.text), tok.text)
            return Num(Fraction(int(tok.text)))
        if tok.kind == "string":
            self.advance()
            return Str(tok.text)
        if tok.kind == "ident":
            self.advance()
            if self.at_punct("["):
                opened = self.advance().offset
                self.enter(opened)
                args: list[Expr] = []
                if not self.at_punct("]"):
                    args.append(self.parse_expr())
                    while self.at_punct(","):
                        self.advance()
                        args.append(self.parse_expr())
                self.expect_punct("]", opened_at=opened)
                self.depth -= 1
                if tok.text == "HoldForm":
                    if len(args) != 1:
                        raise ExprSyntaxError("HoldForm takes exactly one argument", tok.offset)
                    return Hold(args[0])
                if not tok.text.isidentifier():
                    raise ExprSyntaxError(f"call head {tok.text!r} is not an identifier",
                                          tok.offset)
                return Call(tok.text, tuple(args))
            return Sym(tok.text)
        if self.at_punct("("):
            opened = self.advance().offset
            self.enter(opened)
            inner = self.parse_expr()
            self.expect_punct(")", opened_at=opened)
            self.depth -= 1
            return inner
        found = tok.text if tok.kind != "eof" else "end of input"
        raise ExprSyntaxError(f"expected expression, found {found!r}", tok.offset)


def _reference_parse(source: str) -> Expr:
    if not source.strip():
        raise ExprSyntaxError("empty expression", 0)
    parser = _Parser(_lex(source))
    result = parser.parse_expr()
    trailing = parser.peek()
    if trailing.kind != "eof":
        raise ExprSyntaxError(f"unexpected trailing input {trailing.text!r}", trailing.offset)
    return result


def _parse_outcome(parse, source: str):
    """The tree, or the error's class, message and offset."""
    try:
        return parse(source)
    except ExprSyntaxError as exc:
        return type(exc), str(exc), exc.offset


# Fragments of sources: identifiers, numbers, strings with good and bad escapes, every
# punctuation mark, whitespace, HoldForm, non-ASCII letters and digits, stray characters,
# and runs of openers that nest past MAX_NESTING when a few are joined.
_FRAGMENTS = ("x", "Sin", "y2", "_a", "HoldForm[", "Zeta[", "0", "12", "3.", "1.5", ".",
              '"a b"', '"q\\"t"', '"\\\\"', '"bad\\n"', '"open', "+", "-", "*", "/", "^",
              "(", ")", "[", "]", ",", " ", "\t", "\n", "é", "²", "١", "½",
              " ", "$", "@", "\x00", "f[" * 40, "(" * 40, "x^" * 40, "-" * 30)


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.sampled_from(_FRAGMENTS) | st.characters(), max_size=14).map("".join))
def test_parse_expr_matches_the_token_record_oracle(source):
    assert _parse_outcome(parse_expr, source) == _parse_outcome(_reference_parse, source)


@pytest.mark.parametrize("source", [
    "f[" * MAX_NESTING + "x" + "]" * MAX_NESTING,
    "f[" * (MAX_NESTING + 1) + "x" + "]" * (MAX_NESTING + 1),
    "(" * (MAX_NESTING + 1) + "x",
    "x^" * (MAX_NESTING + 1) + "2",
    "HoldForm[" * MAX_NESTING + "x" + "]" * MAX_NESTING,
    "f[x", "(x", "f[x)", "(x]", "HoldForm[x, y]", "x y", "", " \t", '"a\\q"', "x +",
])
def test_parse_expr_matches_the_oracle_at_the_edges(source):
    assert _parse_outcome(parse_expr, source) == _parse_outcome(_reference_parse, source)

def test_numeric_q_cases():
    assert numeric_q(Num(Fraction(3, 2), "1.5"))
    assert numeric_q(parse_expr("1/2*Pi"))
    assert not numeric_q(parse_expr("Sin[x]"))
    assert numeric_q(parse_expr("Sin[2]"))
    assert numeric_q(Sym("Pi"))
    assert numeric_q(Sym("E"))
    assert not numeric_q(Sym("x"))
    assert not numeric_q(Str("1"))
    assert numeric_q(Hold(parse_expr("2 + 3")))
    assert numeric_q(parse_expr("Rational[1, 3]"))
    assert not numeric_q(parse_expr("Divide[x, 2]"))


def test_classify_cases():
    assert classify(Str("local maximum")) is LabelClass.TEXT
    assert classify(Num(Fraction(0))) is LabelClass.NUMERIC
    assert classify(parse_expr("Sin[x]")) is LabelClass.MATH
    assert classify(Hold(Str("t"))) is LabelClass.TEXT
    assert classify(Hold(parse_expr("(3*x - 1)^3"))) is LabelClass.MATH


def test_to_tex_f2():
    assert to_tex(parse_expr("3*((Cos[2*Sqrt[x]])^2)^(1/3)")) == \
        "3 \\sqrt[3]{\\cos ^2(2 \\sqrt{x})}"


def test_to_tex_hold_preserves_order():
    assert to_tex(parse_expr("HoldForm[(3*x - 1)^3]")) == "(3 x-1)^3"


def test_to_tex_canonical_order_without_hold():
    assert to_tex(parse_expr("(3*x - 1)^3")) == "(-1+3 x)^3"


@pytest.mark.parametrize("source, expected", [
    ("0", "0"),
    ("1/2*Pi", "\\frac{\\pi}{2}"),
    ("3/2*Pi", "\\frac{3 \\pi}{2}"),
    ("2*Pi", "2 \\pi"),
    ("-1", "-1"),
    ("Sqrt[x]", "\\sqrt{x}"),
    ("x^(1/2)", "\\sqrt{x}"),
    ("x^(1/4)", "\\sqrt[4]{x}"),
    ("x^(1/3)", "\\sqrt[3]{x}"),
    ("x^(2/3)", "x^{\\frac{2}{3}}"),
    ("x^(-1/2)", "x^{-\\frac{1}{2}}"),
    ("-x", "-x"),
    ("-2*x", "-2 x"),
    ("-1.0*x", "-1.0 x"),
    ("Times[-1, 2]", "-2"),
    ("-1/2*Pi", "-\\frac{\\pi}{2}"),
    ("-3/2*Pi*x", "-\\frac{3 \\pi x}{2}"),
    ("Times[-1, Times[b, a]]", "-a b"),  # the one factor left is written in its own order
    ("-1*-1*x", "-(-1) x"),  # the factors after the sign are written as they stand
    ("-2*-1*x", "-2 (-1) x"),
    ("HoldForm[Times[1/2, -1, x]]", "\\frac{1}{2} (-1) x"),
    ("Abs[x]", "\\left| x\\right|"),
    ("Rational[2, 3]", "\\frac{2}{3}"),
    ("Divide[x, y]", "\\frac{x}{y}"),
    ("Sin[x]^2", "\\sin ^2(x)"),
    ("Log[x]^12", "\\log ^{12}(x)"),
    ("Exp[x]", "\\exp (x)"),
    ("x^10", "x^{10}"),
    ("(x + 1)^2", "(1+x)^2"),
    ("1.0", "1.0"),
    ("0.5", "0.5"),
    ("2*3", "2\\,3"),
    ("E^x", "e^x"),
    ("Plus[x]", "x"),
])
def test_to_tex_forms(source, expected):
    assert to_tex(parse_expr(source)) == expected


def test_to_tex_string_escapes():
    out = to_tex(Str("50% of $x_1 {a} #~^"))
    assert "\\%" in out and "\\$" in out and "\\_" in out
    assert "\\{" in out and "\\}" in out and "\\#" in out
    assert "\\textasciitilde{}" in out and "\\textasciicircum{}" in out


def test_to_tex_unknown_head_degrades_with_warning():
    with pytest.warns(UnknownHeadWarning):
        out = to_tex(parse_expr("BesselJ[0, x]"))
    assert out == "\\text{BesselJ}(0, x)"


def _balanced(out: str) -> bool:
    depth = 0
    for ch in out:
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth < 0:
                return False
    return depth == 0 and out.count("\\left") == out.count("\\right")


def test_to_tex_balanced_braces_random_trees():
    rng = random.Random(97531)
    for _ in range(300):
        tree = _random_expr(rng, 4)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UnknownHeadWarning)
            out = to_tex(tree)
        assert _balanced(out), out


def test_guess_tex_text_template():
    out = guess_tex(Str("local maximum"))
    assert out == "\\psfragtextstyle{\\psfragscaletext local maximum}"


def test_guess_tex_math_template():
    out = guess_tex(parse_expr("Sin[x]"))
    assert out == "\\psfragmathstyle{$\\psfragscalemath \\sin (x)$}"


def test_guess_tex_numeric_template():
    out = guess_tex(num(0))
    assert out == "\\psfragnumericstyle{$\\psfragscalenumeric 0$}"


def test_guess_tex_without_scale_hook():
    out = guess_tex(num(0), include_scale_hook=False)
    assert out == "\\psfragnumericstyle{$0$}"
    assert "psfragscale" not in out


def test_guess_tex_dollar_counts():
    numeric = guess_tex(parse_expr("1/2*Pi"))
    assert numeric.count("$") == 2
    text = guess_tex(Str("has $5 in it"))
    assert text.count("$") == text.count("\\$")


def test_guess_tex_identity_post_replace():
    hooks = HookSet(post_replace={LabelClass.NUMERIC: (("1.0", "1.0"),)})
    assert guess_tex(num("1.0"), hooks) == guess_tex(num("1.0"))


def test_guess_tex_post_replace_is_literal():
    hooks = HookSet(post_replace={LabelClass.NUMERIC: (("\\sqrt", "\\surd"),)})
    out = guess_tex(parse_expr("Sqrt[2]"), hooks)
    assert "\\sqrt" not in out
    assert "\\surd{2}" in out


def test_guess_tex_pre_apply_hold_is_noop_on_canonical_tree():
    hooks = HookSet(pre_apply={LabelClass.MATH: (hold_transform,)})
    expr = parse_expr("Sin[x]")
    assert guess_tex(expr, hooks) == guess_tex(expr)


def test_guess_tex_pre_apply_applies_in_order():
    hooks = HookSet(pre_apply={LabelClass.MATH: (expand_negations, hold_transform)})
    expr = parse_expr("-1*(a + b)")
    out = guess_tex(expr, hooks)
    assert "-a-b" in out


def test_expand_negations():
    tree = expand_negations(parse_expr("-1*(a + b)"))
    assert to_tex(tree) == "-a-b"


def test_expand_negations_reaches_inside_a_hold():
    assert print_source(expand_negations(parse_expr("HoldForm[-(a+b)]"))) == "HoldForm[-1*a - b]"


def test_plain_text_forms():
    assert plain_text(Str("Example 0")) == "Example 0"
    assert plain_text(num("1.0")) == "1.0"
    assert plain_text(num(3)) == "3"
    assert plain_text(Sym("x")) == "x"
    assert plain_text(parse_expr("Sin[x]")) == "Sin[x]"
    assert plain_text(Hold(Str("q"))) == "q"
