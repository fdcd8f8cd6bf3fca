"""Problem files: a small LL(1) grammar for ideals with named variables.

    vars x, y, z, w;
    gens: x*z - y^2, y*w - z^2, x*w - y*z;

Optional statements between the two: ``affine;`` marks the generators as
affine (homogeneity is then not enforced), and ``homvar x0;`` designates an
already-declared variable as the homogenizing one.  Expressions use
+ - * ^ with parentheses and integer literals; multiplication is always
explicit.  ``#`` starts a comment.  The Unicode minus sign is accepted as
``-``.  Serialization round-trips through parse_problem.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field

from .errors import DomainError, ParseError
from .ideals import Ideal
from .poly import _SLOTMAX, FieldSpec, Polynomial, Ring, change_field

_TOKEN = re.compile(
    r"""(?P<ws>[ \t\r]+)
      | (?P<comment>\#[^\n]*)
      | (?P<nl>\n)
      | (?P<ident>[A-Za-z][A-Za-z0-9_]*)
      | (?P<int>[0-9]+)
      | (?P<sym>[+\-*^(),;:])
    """,
    re.VERBOSE,
)

_KEYWORDS = {"vars", "gens", "affine", "homvar"}


@dataclass(frozen=True)
class _Token:
    kind: str  # ident | int | sym | end
    text: str
    line: int
    column: int


def _tokenize(text: str):
    text = text.replace("−", "-")  # unicode minus
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        raw = m.group()
        if kind == "nl":
            line += 1
            col = 1
        else:
            if kind not in ("ws", "comment"):
                tokens.append(_Token(kind, raw, line, col))
            col += len(raw)
        pos = m.end()
    tokens.append(_Token("end", "", line, col))
    return tokens


@dataclass(frozen=True)
class ProblemFile:
    """Parsed problem: variables, generators over Q, and mode flags."""

    variables: tuple
    generators: tuple  # Polynomial over the rationals
    affine: bool = False
    homvar: str | None = None
    source: str = ""

    def serialize(self) -> str:
        lines = [f"vars {', '.join(self.variables)};"]
        if self.affine:
            lines.append("affine;")
        if self.homvar:
            lines.append(f"homvar {self.homvar};")
        lines.append("gens: " + ", ".join(str(g) for g in self.generators) + ";")
        return "\n".join(lines) + "\n"

    def digest(self) -> str:
        return hashlib.sha256(self.serialize().encode()).hexdigest()[:16]

    def ring(self, characteristic: int = 0) -> Ring:
        return Ring(self.variables, FieldSpec(characteristic))

    def ideal(self, characteristic: int) -> Ideal:
        """The generators over GF(p) (or Q), as a homogeneous Ideal (see change_field)."""
        if self.affine:
            raise DomainError("affine problems do not define a projective ideal")
        ring = self.ring(characteristic)
        return Ideal(ring, [change_field(g, ring) for g in self.generators])

    def affine_generators(self, characteristic: int):
        ring = self.ring(characteristic)
        return [change_field(g, ring) for g in self.generators], ring


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.source = text

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind, text=None) -> _Token:
        tok = self.next()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text or kind
            raise ParseError(f"expected {want!r}, found {tok.text!r}", tok.line, tok.column)
        return tok

    def parse(self) -> ProblemFile:
        tok = self.peek()
        if tok.kind != "ident" or tok.text != "vars":
            raise ParseError("problem must start with a 'vars' statement", tok.line, tok.column)
        self.next()
        variables = [self.expect("ident").text]
        while self.peek().text == ",":
            self.next()
            variables.append(self.expect("ident").text)
        self.expect("sym", ";")
        for v in variables:
            if v in _KEYWORDS:
                raise ParseError(f"{v!r} is a keyword, not a variable name")
        if len(set(variables)) != len(variables):
            raise ParseError("duplicate variable names")
        affine = False
        homvar = None
        while self.peek().kind == "ident" and self.peek().text in ("affine", "homvar"):
            stmt = self.next()
            if stmt.text == "affine":
                affine = True
            else:
                hv = self.expect("ident")
                if hv.text not in variables:
                    raise ParseError(f"homvar {hv.text!r} is not a declared variable",
                                     hv.line, hv.column)
                homvar = hv.text
            self.expect("sym", ";")
        gkw = self.expect("ident")
        if gkw.text != "gens":
            raise ParseError(f"expected 'gens', found {gkw.text!r}", gkw.line, gkw.column)
        self.expect("sym", ":")
        ring = Ring(tuple(variables), FieldSpec(0))
        gens = [self.expr(ring)]
        while self.peek().text == ",":
            self.next()
            gens.append(self.expr(ring))
        self.expect("sym", ";")
        end = self.peek()
        if end.kind != "end":
            raise ParseError(f"trailing input {end.text!r}", end.line, end.column)
        if not affine:
            for i, g in enumerate(gens):
                if not g.is_homogeneous():
                    raise ParseError(
                        f"generator {i + 1} ({g}) is not homogeneous "
                        "(use 'affine;' for affine problems)"
                    )
        return ProblemFile(tuple(variables), tuple(gens), affine, homvar, self.source)

    # expr := ['-'] term (('+'|'-') term)*
    def expr(self, ring) -> Polynomial:
        negate = False
        if self.peek().text == "-":
            self.next()
            negate = True
        total = self.term(ring)
        if negate:
            total = -total
        while self.peek().text in ("+", "-"):
            op = self.next().text
            rhs = self.term(ring)
            total = total + rhs if op == "+" else total - rhs
        return total

    # term := factor ('*' factor)*
    def term(self, ring) -> Polynomial:
        total = self.factor(ring)
        while self.peek().text == "*":
            tok = self.next()
            rhs = self.factor(ring)
            _check_degree(total.total_degree() + rhs.total_degree(), tok)
            total = total * rhs
        return total

    # factor := base ['^' int]
    def factor(self, ring) -> Polynomial:
        base = self.base(ring)
        if self.peek().text == "^":
            self.next()
            e = self.expect("int")
            _check_degree(base.total_degree() * int(e.text), e)
            return base ** int(e.text)
        return base

    # base := ident | int | '(' expr ')'
    def base(self, ring) -> Polynomial:
        tok = self.next()
        if tok.kind == "ident":
            if tok.text not in ring.names:
                raise ParseError(f"undeclared variable {tok.text!r}", tok.line, tok.column)
            return ring.var(ring.names.index(tok.text))
        if tok.kind == "int":
            return ring.const(int(tok.text))
        if tok.text == "(":
            inner = self.expr(ring)
            self.expect("sym", ")")
            return inner
        raise ParseError(f"unexpected token {tok.text!r}", tok.line, tok.column)


def _check_degree(degree: int, tok: _Token):
    """Refuse a degree the packed monomial keys cannot hold."""
    if degree > _SLOTMAX:
        raise ParseError(f"degree {degree} above the supported maximum {_SLOTMAX}",
                         tok.line, tok.column)


def parse_problem(text: str) -> ProblemFile:
    """Parse problem text; raises ParseError with line/column on bad input."""
    return _Parser(text).parse()


def parse_expression(text: str, ring: Ring) -> Polynomial:
    """Parse a single polynomial expression in an existing ring."""
    parser = _Parser(text)
    result = parser.expr(ring)
    tok = parser.peek()
    if tok.kind != "end":
        raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.column)
    return result
