"""Symbolic expression trees and their LaTeX rendering.

The AST is a small tagged union (numbers, symbols, strings, calls, and a
hold wrapper that suppresses canonical reordering). Expressions are
written in a bracketed source syntax (`Sin[x]`, `3*(x+1)^2`) which this
module parses and prints back; the canonical source form is also what tag
derivation works from.

Rendering to LaTeX is precedence-aware and deliberately minimal: products
are juxtaposed, rational powers become roots, known function heads map to
their math operators, and everything unknown degrades to \\text{...} with
a warning instead of failing.
"""

from __future__ import annotations

import re
import warnings
from enum import Enum
from fractions import Fraction
from types import MappingProxyType
from typing import Callable, Mapping, Union

from .records import record


class ExprSyntaxError(ValueError):
    """Parse failure, carrying the byte offset of the offending input."""
    exit_code = 1

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


class UnknownHeadWarning(UserWarning):
    """A call head with no LaTeX mapping was rendered as \\text{...}."""


# ---------------------------------------------------------------------------
# AST

@record
class Num:
    """Exact rational, or a decimal literal whose spelling is preserved."""

    value: Fraction
    literal: str | None = None

    def is_integer(self) -> bool:
        return self.literal is None and self.value.denominator == 1

    def is_exact(self) -> bool:
        return self.literal is None


@record
class Sym:
    name: str


@record
class Str:
    text: str


@record
class Call:
    head: str
    args: tuple["Expr", ...]

    def __post_init__(self):
        if not self.head or not self.head.isidentifier():
            raise ValueError(f"call head must be a nonempty identifier: {self.head!r}")
        object.__setattr__(self, "args", tuple(self.args))


@record
class Hold:
    """Barrier against canonical reordering, collapsing nested holds."""

    inner: "Expr"

    def __post_init__(self):
        if isinstance(self.inner, Hold):
            object.__setattr__(self, "inner", self.inner.inner)


Expr = Union[Num, Sym, Str, Call, Hold]


def num(value: int | str | Fraction) -> Num:
    """Build a Num from an int, an exact Fraction, or a decimal literal."""
    if isinstance(value, str):
        return Num(Fraction(value), value)
    return Num(Fraction(value))


def _negate(e: Expr) -> Expr:
    if isinstance(e, Num):
        if e.literal is not None:
            lit = e.literal[1:] if e.literal.startswith("-") else "-" + e.literal
            return Num(-e.value, lit)
        return Num(-e.value)
    if isinstance(e, Call) and e.head == "Times" and e.args and isinstance(e.args[0], Num):
        return Call("Times", (_negate(e.args[0]),) + e.args[1:])
    return Call("Times", (Num(Fraction(-1)), e))


# ---------------------------------------------------------------------------
# Parser

MAX_NESTING = 100  # brackets, parentheses and exponents; keeps recursion bounded


# One alternative per token kind after optional whitespace. Numbers are
# decimal digits only (what int() reads); a word that does not start with
# a letter or `_` (say `½x`) is rejected in _lex. A string ends at its
# closing quote, at a bad escape, or at the end of the input.
_TOKEN = re.compile(r"""\s*(?:
    (?P<number>\d+(?:\.\d*)?)
  | (?P<ident>\w+)
  | (?P<string>"(?P<body>(?:[^"\\]|\\["\\])*)(?P<close>"|\\.|))
  | (?P<punct>[-+*/^()\[\],])
  | (?P<other>\S))""", re.VERBOSE | re.DOTALL)
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)


def _lex(source: str) -> list[tuple[str, str, int]]:
    """The tokens of `source` as (kind, text, offset) tuples, kind one of number, ident,
    string and punct, then ("eof", "", len(source))."""
    tokens = []
    for m in _TOKEN.finditer(source):
        kind = m.lastgroup
        text, start = m[kind], m.start(kind)
        if kind == "other" or (kind == "ident" and not (text[0].isalpha() or text[0] == "_")):
            raise ExprSyntaxError(f"unexpected character {text[0]!r}", start)
        if kind == "string":
            close = m["close"]
            if close.startswith("\\"):
                raise ExprSyntaxError(f"invalid string escape '{close}'", m.start("close"))
            if not close:
                raise ExprSyntaxError("unterminated string", start)
            text = _ESCAPE.sub(r"\1", m["body"])
        tokens.append((kind, text, start))
    tokens.append(("eof", "", len(source)))
    return tokens


def _found(token: tuple[str, str, int]) -> str:
    """How a syntax error names the token it found."""
    return token[1] if token[0] != "eof" else "end of input"


class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int]]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def enter(self, offset: int) -> None:
        """Open one level of nesting; the caller closes it with depth -= 1."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ExprSyntaxError(f"nested deeper than {MAX_NESTING} levels", offset)

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_punct(self, ch: str, opened_at: int) -> None:
        if self.at_punct(ch):
            self.pos += 1
            return
        kind, _, offset = tok = self.tokens[self.pos]
        if kind == "eof":
            raise ExprSyntaxError(
                f"unbalanced bracket: {'[' if ch == ']' else '('} opened", opened_at)
        raise ExprSyntaxError(f"expected {ch!r}, found {_found(tok)!r}", offset)

    def at_punct(self, chars: str) -> str | None:
        """The current token's text if it is one of the punctuation marks in `chars`."""
        kind, text, _ = self.tokens[self.pos]
        return text if kind == "punct" and text in chars else None

    def parse_expr(self) -> Expr:
        terms = [self.parse_term()]
        while (op := self.at_punct("+-")) is not None:
            self.pos += 1
            rhs = self.parse_term()
            terms.append(rhs if op == "+" else _negate(rhs))
        if len(terms) == 1:
            return terms[0]
        return Call("Plus", tuple(terms))

    def parse_term(self) -> Expr:
        factors = [self.parse_factor()]
        while (op := self.at_punct("*/")) is not None:
            self.pos += 1
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
            self.pos += 1
            signs += 1
        factor = self.parse_power()
        for _ in range(signs):
            factor = _negate(factor)
        return factor

    def parse_power(self) -> Expr:
        base = self.parse_atom()
        if self.at_punct("^"):
            self.enter(self.advance()[2])
            exponent = self.parse_factor()
            self.depth -= 1
            return Call("Power", (base, exponent))
        return base

    def parse_atom(self) -> Expr:
        kind, text, offset = tok = self.advance()
        if kind == "number":
            if "." in text:
                return Num(Fraction(text), text)
            return Num(Fraction(int(text)))
        if kind == "string":
            return Str(text)
        if kind == "ident":
            if not self.at_punct("["):
                return Sym(text)
            opened = self.advance()[2]
            self.enter(opened)
            args: list[Expr] = []
            if not self.at_punct("]"):
                args.append(self.parse_expr())
                while self.at_punct(","):
                    self.pos += 1
                    args.append(self.parse_expr())
            self.expect_punct("]", opened)
            self.depth -= 1
            if text == "HoldForm":
                if len(args) != 1:
                    raise ExprSyntaxError("HoldForm takes exactly one argument", offset)
                return Hold(args[0])
            if not text.isidentifier():
                raise ExprSyntaxError(f"call head {text!r} is not an identifier", offset)
            return Call(text, tuple(args))
        if kind == "punct" and text == "(":
            self.enter(offset)
            inner = self.parse_expr()
            self.expect_punct(")", offset)
            self.depth -= 1
            return inner
        raise ExprSyntaxError(f"expected expression, found {_found(tok)!r}", offset)


def _folds(lhs: Expr, rhs: Expr) -> bool:
    """Whether `lhs/rhs` parses to one rational literal: exact over nonzero exact. The
    printer writes a Divide call whose arguments fold in bracket form for this reason."""
    return (isinstance(lhs, Num) and lhs.is_exact()
            and isinstance(rhs, Num) and rhs.is_exact() and rhs.value != 0)


def _fold_division(lhs: Expr, rhs: Expr) -> Expr:
    # Integer quotients become exact rationals, mirroring how evaluated
    # tick values arrive as Times[1/2, Pi] rather than a division call.
    return Num(lhs.value / rhs.value) if _folds(lhs, rhs) else Call("Divide", (lhs, rhs))


def parse_expr(source: str) -> Expr:
    """Parse the bracketed expression syntax into an AST.

    Grammar: identifiers, decimal numbers, double-quoted strings,
    `Head[arg, ...]` calls, infix `+ - * / ^` with the usual precedence
    (`^` right-associative), parentheses, `HoldForm[e]`. Multiplication
    must be written explicitly with `*`.
    """
    if not source.strip():
        raise ExprSyntaxError("empty expression", 0)
    parser = _Parser(_lex(source))
    result = parser.parse_expr()
    kind, text, offset = parser.tokens[parser.pos]
    if kind != "eof":
        raise ExprSyntaxError(f"unexpected trailing input {text!r}", offset)
    return result


# ---------------------------------------------------------------------------
# Canonical source printing (used for tag derivation and round-trips)

def _frac_source(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _paren(printed: tuple[str, int], ctx: int) -> str:
    # Precedence: 1 = additive, 2 = multiplicative, 3 = power, 4 = atom.
    text, prec = printed
    return f"({text})" if prec < ctx else text


# A bracket form such as Plus[x] keeps the precedence of its infix form.
_BRACKET_PREC = {"Plus": 1, "Times": 2, "Divide": 2, "Power": 3}


def _is_negative_term(e: Expr) -> bool:
    if isinstance(e, Num):  # a Fraction's sign is its numerator's, which is cheaper to read
        return e.value.numerator < 0 or (e.literal or "").startswith("-")
    return (isinstance(e, Call) and e.head == "Times" and bool(e.args)
            and _is_negative_term(e.args[0]))


def _positive_term(e: Expr) -> Expr:
    if isinstance(e, Num):
        return _negate(e)
    assert isinstance(e, Call) and e.head == "Times"
    head = _negate(e.args[0])
    if isinstance(head, Num) and head.is_exact() and head.value == 1 and len(e.args) > 1:
        rest = e.args[1:]
        return rest[0] if len(rest) == 1 else Call("Times", rest)
    return Call("Times", (head,) + e.args[1:])


def _src(e: Expr) -> tuple[str, int]:
    if isinstance(e, Num):
        text = e.literal if e.literal is not None else _frac_source(e.value)
        if _is_negative_term(e):
            return text, 1
        return text, (2 if e.is_exact() and e.value.denominator != 1 else 4)
    if isinstance(e, Sym):
        return e.name, 4
    if isinstance(e, Str):
        escaped = e.text.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"', 4
    if isinstance(e, Hold):
        return f"HoldForm[{_src(e.inner)[0]}]", 4
    assert isinstance(e, Call)
    if e.head == "Plus" and len(e.args) >= 2:
        first = e.args[0]
        parts = [_src(first)[0] if isinstance(first, Num) else _paren(_src(first), 2)]
        for term in e.args[1:]:
            # The reader negates what follows " - ", so a term goes there only if negating
            # its positive form rebuilds it: not -1*0, which 0-1*0 parses to.
            if _is_negative_term(term) and _negate(positive := _positive_term(term)) == term:
                parts.append(" - " + _paren(_src(positive), 2))
            else:
                parts.append(" + " + _paren(_src(term), 2))
        return "".join(parts), 1
    if e.head == "Times" and len(e.args) >= 2:
        first = e.args[0]
        if isinstance(first, Num):
            head_s = _src(first)[0]
        elif isinstance(first, Call) and first.head in ("Plus", "Times"):
            head_s = f"({_src(first)[0]})"
        else:
            head_s = _paren(_src(first), 2)
        return head_s + "".join("*" + _paren(_src(a), 3) for a in e.args[1:]), 2
    if e.head == "Divide" and len(e.args) == 2 and not _folds(*e.args):
        return _paren(_src(e.args[0]), 2) + "/" + _paren(_src(e.args[1]), 3), 2
    if e.head == "Power" and len(e.args) == 2:
        return _paren(_src(e.args[0]), 4) + "^" + _paren(_src(e.args[1]), 3), 3
    # A quotient that would fold on reparse keeps its brackets and binds as an atom.
    prec = 4 if e.head == "Divide" and len(e.args) == 2 else _BRACKET_PREC.get(e.head, 4)
    return e.head + "[" + ", ".join(_src(a)[0] for a in e.args) + "]", prec


def print_source(e: Expr) -> str:
    """Render the AST back to its canonical source form.

    parse_expr(print_source(e)) == e for every tree the parser produces.
    """
    return _src(e)[0]


def plain_text(e: Expr) -> str:
    """The string shown for an expression drawn as plain PostScript text."""
    if isinstance(e, Str):
        return e.text
    if isinstance(e, Hold):
        return plain_text(e.inner)
    return print_source(e)


# ---------------------------------------------------------------------------
# Classification

class LabelClass(Enum):
    TEXT = "Text"
    MATH = "Math"
    NUMERIC = "Numeric"

    # Members are singletons, so identity hashing agrees with equality, and it runs in C
    # where Enum's own __hash__ (a hash of the name) runs in Python on every dict lookup.
    __hash__ = object.__hash__


_NUMERIC_HEADS = frozenset({
    "Plus", "Times", "Power", "Sqrt", "Sin", "Cos", "Tan",
    "Log", "Exp", "Abs", "Rational",
})


def numeric_q(e: Expr) -> bool:
    """True for closed numeric expressions (constants under known heads)."""
    if isinstance(e, Num):
        return True
    if isinstance(e, Sym):
        return e.name in ("Pi", "E")
    if isinstance(e, Hold):
        return numeric_q(e.inner)
    if isinstance(e, Call):
        return e.head in _NUMERIC_HEADS and all(numeric_q(a) for a in e.args)
    return False


def classify(e: Expr) -> LabelClass:
    inner = e.inner if isinstance(e, Hold) else e
    if isinstance(inner, Str):
        return LabelClass.TEXT
    if numeric_q(inner):
        return LabelClass.NUMERIC
    return LabelClass.MATH


# ---------------------------------------------------------------------------
# LaTeX rendering

_FUNC_TEX = {
    "Sin": "\\sin", "Cos": "\\cos", "Tan": "\\tan",
    "Log": "\\log", "Exp": "\\exp",
}

_TEXT_ESCAPES = {
    "\\": "\\textbackslash{}",
    "#": "\\#", "$": "\\$", "%": "\\%", "&": "\\&", "_": "\\_",
    "{": "\\{", "}": "\\}",
    "~": "\\textasciitilde{}", "^": "\\textasciicircum{}",
}


def escape_text(text: str) -> str:
    """Escape a plain string for LaTeX text mode."""
    return "".join(_TEXT_ESCAPES.get(ch, ch) for ch in text)


def _rational_value(e: Expr) -> Fraction | None:
    if isinstance(e, Num) and e.is_exact():
        return e.value
    if isinstance(e, Call) and e.head in ("Rational", "Divide") and len(e.args) == 2:
        p, q = e.args
        if (isinstance(p, Num) and p.is_integer()
                and isinstance(q, Num) and q.is_integer() and q.value != 0):
            return Fraction(p.value, q.value)
    return None


def _canonical(args: tuple[Expr, ...]) -> tuple[Expr, ...]:
    # Numbers first (by value), then symbols lexicographically, everything
    # else after in stored order.
    def key(e: Expr):
        if isinstance(e, Num):
            return (0, float(e.value), "")
        if isinstance(e, Sym):
            return (1, 0.0, e.name)
        return (2, 0.0, "")
    return tuple(sorted(args, key=key))


def _frac_tex(p: int | str, q: int | str) -> str:
    return f"\\frac{{{p}}}{{{q}}}"


def _tex(e: Expr, ctx: int, held: bool) -> str:
    text, prec = _tex_raw(e, held)
    return f"({text})" if prec < ctx else text  # _paren, inlined on this hot path


def _tex_num(e: Num) -> tuple[str, int]:
    negative = _is_negative_term(e)
    prec = 1 if negative else 4
    v = e.value
    if e.literal is not None:
        return e.literal, prec
    if v.denominator == 1:
        return str(v.numerator), prec
    return ("-" if negative else "") + _frac_tex(abs(v.numerator), v.denominator), prec


def _tex_exponent(e: Expr, held: bool) -> str:
    s = _tex(e, 0, held)
    return s if len(s) == 1 else f"{{{s}}}"


def _tex_times(factors: tuple[Expr, ...], held: bool) -> tuple[str, int]:
    """Two or more factors in the order given. A negative leading number makes a minus
    before `_positive_term`'s product, whose factors are written as they stand."""
    if isinstance(factors[0], Num) and _is_negative_term(factors[0]):
        positive = _positive_term(Call("Times", factors))
        text = (_tex(positive, 2, held) if positive is factors[1]  # all but a leading -1
                else _tex_product(positive.args, held)[0])
        return "-" + text, 1
    return _tex_product(factors, held)


def _tex_product(factors: tuple[Expr, ...], held: bool) -> tuple[str, int]:
    head = factors[0]
    if (not held and isinstance(head, Num) and head.is_exact()
            and head.value.denominator != 1 and head.value > 0):
        # One rational factor folds into a fraction: 1/2*Pi -> \frac{\pi}{2}
        numer_parts = list(factors[1:])
        if head.value.numerator != 1:
            numer_parts.insert(0, Num(Fraction(head.value.numerator)))
        numer = (_tex(numer_parts[0], 0, held) if len(numer_parts) == 1
                 else _tex_times(tuple(numer_parts), held)[0])
        return _frac_tex(numer, head.value.denominator), 4
    rendered = [_tex(f, 2, held) for f in factors]
    joined = rendered[0]
    for part in rendered[1:]:
        joined += ("\\," if part[:1].isdigit() else " ") + part
    return joined, 2


def _tex_raw(e: Expr, held: bool) -> tuple[str, int]:
    if isinstance(e, Num):
        return _tex_num(e)
    if isinstance(e, Sym):
        if e.name == "Pi":
            return "\\pi", 4
        if e.name == "E":
            return "e", 4
        return e.name, 4
    if isinstance(e, Str):
        return f"\\text{{{escape_text(e.text)}}}", 4
    if isinstance(e, Hold):
        return _tex_raw(e.inner, True)
    assert isinstance(e, Call)
    args = e.args
    if e.head in ("Plus", "Times") and len(args) == 1:
        return _tex_raw(args[0], held)
    if e.head == "Plus" and len(args) >= 2:
        ordered = args if held else _canonical(args)
        first = ordered[0]
        first_ctx = 0 if isinstance(first, Num) or _is_negative_term(first) else 2
        parts = [_tex(first, first_ctx, held)]
        for term in ordered[1:]:
            if _is_negative_term(term):
                parts.append("-" + _tex(_positive_term(term), 2, held))
            else:
                parts.append("+" + _tex(term, 2, held))
        return "".join(parts), 1
    if e.head == "Times" and len(args) >= 2:
        ordered = args if held else _canonical(args)
        return _tex_times(ordered, held)
    if e.head == "Power" and len(args) == 2:
        base, exponent = args
        rv = _rational_value(exponent)
        if rv is not None and rv.numerator == 1 and rv.denominator >= 2:  # an n-th root
            index = f"[{rv.denominator}]" if rv.denominator > 2 else ""  # a square root has none
            return f"\\sqrt{index}{{{_tex(base, 0, held)}}}", 4
        if (isinstance(base, Call) and base.head in _FUNC_TEX and len(base.args) >= 1
                and isinstance(exponent, Num) and exponent.is_integer()
                and exponent.value >= 1):
            inner = ", ".join(_tex(a, 0, held) for a in base.args)
            k = _tex_exponent(exponent, held)
            return f"{_FUNC_TEX[base.head]} ^{k}({inner})", 4
        base_s = _tex(base, 4, held)
        return f"{base_s}^{_tex_exponent(exponent, held)}", 3
    if e.head == "Sqrt" and len(args) == 1:
        return f"\\sqrt{{{_tex(args[0], 0, held)}}}", 4
    if e.head == "Abs" and len(args) == 1:
        return f"\\left| {_tex(args[0], 0, held)}\\right|", 4
    if e.head in ("Rational", "Divide") and len(args) == 2:
        rv = _rational_value(e)
        if rv is not None:
            sign = "-" if rv < 0 else ""
            return sign + _frac_tex(abs(rv.numerator), rv.denominator), (1 if sign else 4)
        return _frac_tex(_tex(args[0], 0, held), _tex(args[1], 0, held)), 4
    if e.head in _FUNC_TEX:
        inner = ", ".join(_tex(a, 0, held) for a in args)
        return f"{_FUNC_TEX[e.head]} ({inner})", 4
    warnings.warn(f"no LaTeX mapping for head {e.head!r}", UnknownHeadWarning,
                  stacklevel=2)
    inner = ", ".join(_tex(a, 0, held) for a in args)
    return f"\\text{{{e.head}}}({inner})", 4


def to_tex(e: Expr) -> str:
    """Render an expression as LaTeX math (without surrounding dollars).

    Outside a Hold barrier the operands of Plus/Times are put in canonical
    order (numbers first, then symbols lexicographically); under Hold the
    stored order is kept verbatim.
    """
    return _tex(e, 0, False)


# ---------------------------------------------------------------------------
# GuessTeX: class-dependent wrapping with hooks

TransformFn = Callable[[Expr], Expr]
_NO_HOOKS: Mapping = MappingProxyType({})  # the default of both maps, shared and read-only


@record
class HookSet:
    """Per-class expression transforms and literal string replacements.

    pre_apply transforms run on the expression before rendering;
    post_replace pairs are applied literally to the finished output.
    Both apply in list order.
    """

    pre_apply: Mapping[LabelClass, tuple[TransformFn, ...]] = _NO_HOOKS
    post_replace: Mapping[LabelClass, tuple[tuple[str, str], ...]] = _NO_HOOKS


EMPTY_HOOKS = HookSet()

_WRAP = {
    LabelClass.TEXT: ("\\psfragtextstyle{", "\\psfragscaletext ", "", "}"),
    LabelClass.MATH: ("\\psfragmathstyle{$", "\\psfragscalemath ", "$", "}"),
    LabelClass.NUMERIC: ("\\psfragnumericstyle{$", "\\psfragscalenumeric ", "$", "}"),
}


def guess_tex(e: Expr, hooks: HookSet = EMPTY_HOOKS, *, include_scale_hook: bool = True) -> str:
    """Render an expression into its final replacement body.

    The class (text/math/numeric) picks the style-hook template and, for
    math and numeric labels, adds the surrounding dollars. The scale hook
    is included only for automatic scaling; explicit numeric scaling goes
    into the psfrag scale slot instead.
    """
    cls = classify(e)
    for transform in hooks.pre_apply.get(cls, ()):
        e = transform(e)
    inner = e.inner if isinstance(e, Hold) else e  # one level: a Hold holds no Hold
    is_text = cls is LabelClass.TEXT and isinstance(inner, Str)
    body = escape_text(inner.text) if is_text else to_tex(e)
    open_s, scale_s, dollar, close_s = _WRAP[cls]
    out = open_s + (scale_s if include_scale_hook else "") + body + dollar + close_s
    for find, replace in hooks.post_replace.get(cls, ()):
        out = out.replace(find, replace)
    return out


# ---------------------------------------------------------------------------
# Built-in named transforms for hook files

def hold_transform(e: Expr) -> Expr:
    return Hold(e)


def expand_negations(e: Expr) -> Expr:
    """Distribute a leading -1 factor over sums: -(a+b) -> (-a)+(-b)."""
    if isinstance(e, Hold):
        return Hold(expand_negations(e.inner))
    if isinstance(e, Call):
        args = tuple(expand_negations(a) for a in e.args)
        if (e.head == "Times" and len(args) == 2
                and isinstance(args[0], Num) and args[0].is_exact()
                and args[0].value == -1
                and isinstance(args[1], Call) and args[1].head == "Plus"):
            return Call("Plus", tuple(_negate(t) for t in args[1].args))
        return Call(e.head, args)
    return e


BUILTIN_TRANSFORMS: dict[str, TransformFn] = {
    "hold": hold_transform,
    "expand_negations": expand_negations,
}
