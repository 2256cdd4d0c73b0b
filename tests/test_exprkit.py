from __future__ import annotations

import random
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labelforge.exprkit import (MAX_NESTING, Call, ExprSyntaxError, Hold, HookSet,
                                LabelClass, Num, Str, Sym, UnknownHeadWarning, classify,
                                expand_negations, guess_tex, hold_transform, num,
                                numeric_q, parse_expr, plain_text, print_source,
                                to_tex)


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


def test_plain_text_forms():
    assert plain_text(Str("Example 0")) == "Example 0"
    assert plain_text(num("1.0")) == "1.0"
    assert plain_text(num(3)) == "3"
    assert plain_text(Sym("x")) == "x"
    assert plain_text(parse_expr("Sin[x]")) == "Sin[x]"
    assert plain_text(Hold(Str("q"))) == "q"
