"""Parser for the ASP surface syntax.

The grammar accepted is a practical subset of the clingo input language,
covering everything the paper's fragment needs:

.. code-block:: none

    program     := { statement }
    statement   := rule | constraint | choice
    rule        := atom [ ":-" body ] "."
    constraint  := ":-" body "."
    choice      := [ INT ] "{" atom { ";" atom } "}" [ INT ] [ ":-" body ] "."
    body        := bodyelem { "," bodyelem }
    bodyelem    := [ "not" ] atom | term CMP term
    atom        := IDENT [ "(" term { "," term } ")" ] [ "@" annotation ]
    annotation  := INT | "(" INT { "," INT } ")"
    term        := arith
    arith       := product { ("+"|"-") product }
    product     := primary { ("*"|"/"|"\\") primary }
    primary     := INT | STRING | VAR | IDENT [ "(" terms ")" ]
                 | "(" term { "," term } ")" | "-" primary
    CMP         := "=" | "==" | "!=" | "<" | "<=" | ">" | ">="

Extras: ``%`` line comments; interval facts ``p(1..5).`` expand to five
facts; the anonymous variable ``_`` becomes a fresh variable per
occurrence.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from repro.asp.atoms import Atom, Comparison, Literal
from repro.asp.rules import (
    BodyElement,
    ChoiceRule,
    NormalRule,
    Program,
    Rule,
    WeakConstraint,
)
from repro.asp.terms import (
    ArithTerm,
    Constant,
    Function,
    Integer,
    Term,
    Variable,
    make_tuple,
)
from repro.errors import ASPSyntaxError, Span

__all__ = ["parse_program", "parse_rule", "parse_atom", "parse_term", "Tokenizer"]

_TOKEN_RE = re.compile(
    r"""
    (?P<WS>\s+)
  | (?P<COMMENT>%[^\n]*)
  | (?P<STRING>"(?:[^"\\]|\\.)*")
  | (?P<INT>\d+)
  | (?P<IDENT>[a-z][A-Za-z0-9_]*)
  | (?P<VAR>[A-Z_][A-Za-z0-9_]*)
  | (?P<OP>:-|:~|\.\.|==|!=|<=|>=|\*\*|[(){};,.@=<>+\-*/\\\[\]])
    """,
    re.VERBOSE,
)

Token = Tuple[str, str, int, int]  # kind, text, line, column


class Tokenizer:
    """Convert ASP source text into a token list."""

    def __init__(self, text: str):
        self.text = text
        self.tokens: List[Token] = []
        self._tokenize()

    def _tokenize(self) -> None:
        pos = 0
        line = 1
        line_start = 0
        text = self.text
        while pos < len(text):
            match = _TOKEN_RE.match(text, pos)
            if match is None:
                col = pos - line_start + 1
                raise ASPSyntaxError(f"unexpected character {text[pos]!r}", line, col)
            kind = match.lastgroup or ""
            value = match.group()
            if kind not in ("WS", "COMMENT"):
                col = match.start() - line_start + 1
                self.tokens.append((kind, value, line, col))
            newlines = value.count("\n")
            if newlines:
                line += newlines
                line_start = match.start() + value.rfind("\n") + 1
            pos = match.end()


class _Parser:
    def __init__(self, text: str):
        self.tokens = Tokenizer(text).tokens
        self.pos = 0
        self._fresh = 0

    # -- token helpers ---------------------------------------------------

    def _peek(self, offset: int = 0) -> Optional[Token]:
        index = self.pos + offset
        return self.tokens[index] if index < len(self.tokens) else None

    def _next(self) -> Token:
        token = self._peek()
        if token is None:
            last = self.tokens[-1] if self.tokens else ("", "", 1, 1)
            raise ASPSyntaxError("unexpected end of input", last[2], last[3])
        self.pos += 1
        return token

    def _expect(self, text: str) -> Token:
        token = self._next()
        if token[1] != text:
            raise ASPSyntaxError(f"expected {text!r}, found {token[1]!r}", token[2], token[3])
        return token

    def _at(self, text: str, offset: int = 0) -> bool:
        token = self._peek(offset)
        return token is not None and token[1] == text

    def _at_kind(self, kind: str, offset: int = 0) -> bool:
        token = self._peek(offset)
        return token is not None and token[0] == kind

    def _fresh_var(self) -> Variable:
        self._fresh += 1
        return Variable(f"_Anon{self._fresh}")

    # -- grammar ---------------------------------------------------------

    def parse_program(self) -> Program:
        program = Program()
        while self._peek() is not None:
            program.extend(self._statement())
        return program

    def _statement(self) -> List[Rule]:
        """Parse one statement and stamp every produced rule with the
        source span from its first token through its terminating token."""
        start = self._peek()
        rules = self._statement_inner()
        end = self.tokens[self.pos - 1]
        span = Span(start[2], start[3], end[2], end[3] + len(end[1]))
        for rule in rules:
            rule.span = span
        return rules

    def _statement_inner(self) -> List[Rule]:
        if self._at(":-"):
            self._next()
            body = self._body()
            self._expect(".")
            return [NormalRule(None, body)]
        if self._at(":~"):
            self._next()
            body = self._body()
            self._expect(".")
            self._expect("[")
            weight = self._term()
            priority = 0
            if self._at("@"):
                self._next()
                token = self._next()
                if token[0] != "INT":
                    raise ASPSyntaxError(
                        f"expected integer priority, found {token[1]!r}",
                        token[2],
                        token[3],
                    )
                priority = int(token[1])
            self._expect("]")
            return [WeakConstraint(body, weight, priority)]
        if self._at("{") or (self._at_kind("INT") and self._at("{", 1)):
            return [self._choice()]
        head, intervals = self._atom(allow_interval=True)
        if self._at(":-"):
            self._next()
            body = self._body()
        else:
            body = []
        self._expect(".")
        if intervals:
            return [NormalRule(h, body) for h in _expand_intervals(head, intervals)]
        return [NormalRule(head, body)]

    def _choice(self) -> ChoiceRule:
        lower = None
        if self._at_kind("INT"):
            lower = int(self._next()[1])
        self._expect("{")
        elements = []
        if not self._at("}"):
            first, __ = self._atom()
            elements.append(first)
            while self._at(";"):
                self._next()
                atom, __ = self._atom()
                elements.append(atom)
        self._expect("}")
        upper = None
        if self._at_kind("INT"):
            upper = int(self._next()[1])
        body: List[BodyElement] = []
        if self._at(":-"):
            self._next()
            body = self._body()
        self._expect(".")
        return ChoiceRule(elements, body, lower, upper)

    def _body(self) -> List[BodyElement]:
        elems = [self._body_element()]
        while self._at(","):
            self._next()
            elems.append(self._body_element())
        return elems

    _CMP_OPS = ("=", "==", "!=", "<", "<=", ">", ">=")

    def _body_element(self) -> BodyElement:
        if self._at("not"):
            self._next()
            atom, __ = self._atom()
            return Literal(atom, positive=False)
        # Could be an atom or a comparison; parse a term, then look ahead.
        checkpoint = self.pos
        if self._at_kind("IDENT") and not self._is_comparison_ahead():
            atom, __ = self._atom()
            return Literal(atom, positive=True)
        self.pos = checkpoint
        first = self._peek()
        left = self._term()
        token = self._peek()
        if token is None or token[1] not in self._CMP_OPS:
            atom_span = (
                Span(first[2], first[3], first[2], first[3] + len(first[1]))
                if first is not None
                else None
            )
            if isinstance(left, (Constant, Function)) and not isinstance(left, ArithTerm):
                # a bare atom-like term: treat as atom
                if isinstance(left, Constant):
                    return Literal(Atom(left.name, span=atom_span), positive=True)
                if isinstance(left, Function) and left.functor:
                    return Literal(
                        Atom(left.functor, left.args, span=atom_span), positive=True
                    )
            where = token or ("", "", 0, 0)
            raise ASPSyntaxError("expected comparison operator", where[2], where[3])
        op_token = self._next()
        op_span = Span(
            op_token[2], op_token[3], op_token[2], op_token[3] + len(op_token[1])
        )
        right = self._term()
        return Comparison(op_token[1], left, right, op_span)

    def _is_comparison_ahead(self) -> bool:
        """Heuristic look-ahead: does an IDENT-led body element continue
        with a comparison operator (making it a term, not an atom)?

        Scans past one balanced parenthesis group.
        """
        offset = 1  # past the IDENT
        if self._at("(", offset):
            depth = 0
            while True:
                token = self._peek(offset)
                if token is None:
                    return False
                if token[1] == "(":
                    depth += 1
                elif token[1] == ")":
                    depth -= 1
                    if depth == 0:
                        offset += 1
                        break
                offset += 1
        token = self._peek(offset)
        return token is not None and token[1] in self._CMP_OPS + ("+", "-", "*", "/", "\\")

    def _atom(self, allow_interval: bool = False):
        token = self._next()
        if token[0] != "IDENT":
            raise ASPSyntaxError(f"expected predicate name, found {token[1]!r}", token[2], token[3])
        predicate = token[1]
        span = Span(token[2], token[3], token[2], token[3] + len(predicate))
        args: List[Term] = []
        intervals: List[Tuple[int, int, int]] = []  # (arg index, lo, hi)
        if self._at("("):
            self._next()
            index = 0
            while True:
                if allow_interval and self._at_kind("INT") and self._at("..", 1):
                    lo = int(self._next()[1])
                    self._next()  # ".."
                    hi_tok = self._next()
                    if hi_tok[0] != "INT":
                        raise ASPSyntaxError("expected integer after '..'", hi_tok[2], hi_tok[3])
                    intervals.append((index, lo, int(hi_tok[1])))
                    args.append(Integer(lo))  # placeholder, replaced on expansion
                else:
                    args.append(self._term())
                index += 1
                if self._at(","):
                    self._next()
                    continue
                break
            self._expect(")")
        annotation = None
        if self._at("@"):
            self._next()
            annotation = self._annotation()
        return Atom(predicate, args, annotation, span), intervals

    def _annotation(self) -> Tuple[int, ...]:
        if self._at("("):
            self._next()
            parts = [self._annotation_int()]
            while self._at(","):
                self._next()
                parts.append(self._annotation_int())
            self._expect(")")
            return tuple(parts)
        return (self._annotation_int(),)

    def _annotation_int(self) -> int:
        token = self._next()
        if token[0] != "INT":
            raise ASPSyntaxError(f"expected integer annotation, found {token[1]!r}", token[2], token[3])
        return int(token[1])

    # -- terms -----------------------------------------------------------

    def _term(self) -> Term:
        return self._arith()

    def _arith(self) -> Term:
        left = self._product()
        while self._at("+") or self._at("-"):
            op = self._next()[1]
            right = self._product()
            left = ArithTerm(op, left, right)
        return left

    def _product(self) -> Term:
        left = self._primary()
        while self._at("*") or self._at("/") or self._at("\\") or self._at("**"):
            op = self._next()[1]
            right = self._primary()
            left = ArithTerm(op, left, right)
        return left

    def _primary(self) -> Term:
        token = self._next()
        kind, text = token[0], token[1]
        if kind == "INT":
            return Integer(int(text))
        if kind == "STRING":
            return Constant(text)
        if kind == "VAR":
            if text == "_":
                return self._fresh_var()
            return Variable(text)
        if kind == "IDENT":
            if self._at("("):
                self._next()
                args = [self._term()]
                while self._at(","):
                    self._next()
                    args.append(self._term())
                self._expect(")")
                return Function(text, args)
            return Constant(text)
        if text == "(":
            items = [self._term()]
            while self._at(","):
                self._next()
                items.append(self._term())
            self._expect(")")
            if len(items) == 1:
                return items[0]
            return make_tuple(items)
        if text == "-":
            inner = self._primary()
            if isinstance(inner, Integer):
                return Integer(-inner.value)
            return ArithTerm("-", Integer(0), inner)
        raise ASPSyntaxError(f"unexpected token {text!r}", token[2], token[3])


def _expand_intervals(head: Atom, intervals) -> List[Atom]:
    """Expand interval placeholders in a fact head into concrete atoms."""
    atoms = [list(head.args)]
    for index, lo, hi in intervals:
        expanded = []
        for args in atoms:
            for value in range(lo, hi + 1):
                new_args = list(args)
                new_args[index] = Integer(value)
                expanded.append(new_args)
        atoms = expanded
    return [Atom(head.predicate, args, head.annotation, head.span) for args in atoms]


def parse_program(text: str) -> Program:
    """Parse a full ASP program from source text."""
    return _Parser(text).parse_program()


def parse_rule(text: str) -> Rule:
    """Parse a single rule (must end with ``.``)."""
    rules = _Parser(text).parse_program()
    if len(rules) != 1:
        raise ASPSyntaxError(f"expected exactly one rule, found {len(rules)}")
    return rules.rules[0]


def parse_atom(text: str) -> Atom:
    """Parse a single (possibly annotated) atom."""
    parser = _Parser(text)
    atom, __ = parser._atom()
    if parser._peek() is not None:
        token = parser._peek()
        raise ASPSyntaxError(f"trailing input after atom: {token[1]!r}", token[2], token[3])
    return atom


def parse_term(text: str) -> Term:
    """Parse a single term."""
    parser = _Parser(text)
    term = parser._term()
    if parser._peek() is not None:
        token = parser._peek()
        raise ASPSyntaxError(f"trailing input after term: {token[1]!r}", token[2], token[3])
    return term
