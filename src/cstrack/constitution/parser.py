r"""Recursive-descent parser for the constitution DSL.

Grammar (comments run from ``%`` to end of line)::

    program    : clause*
    clause     : 'query' '(' atom ')' '.'
               | 'domain' '(' VARIABLE ',' '[' constant (',' constant)* ']' ')' '.'
               | NUMBER '::' atom rule_tail
               | atom '~' distribution rule_tail
               | atom rule_tail
    rule_tail  : ':-' literal (',' literal)* '.' | '.'
    distribution : 'normal' '(' NUMBER ',' NUMBER ')'
                 | 'bernoulli' '(' NUMBER ')'
    literal    : '\+' atom
               | atom comparison?
    comparison : ('<' | '<=' | '>' | '>=') NUMBER
               | 'between' '[' NUMBER ',' NUMBER ']'
    atom       : IDENTIFIER ('(' term (',' term)* ')')?
    term       : IDENTIFIER | VARIABLE | NUMBER

Identifiers start with a lowercase letter; variables with an uppercase
letter or underscore. A clause without an explicit probability is
deterministic (probability 1), and ``atom ~ bernoulli(p)`` parses as
``p :: atom``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..errors import DslSyntaxError
from .terms import (
    Atom,
    AtomLiteral,
    CategoricalClause,
    Comparison,
    Constant,
    ContinuousClause,
    NormalSpec,
    Program,
    Variable,
)

_TOKEN_RE = re.compile(
    r"""
    (?P<WS>\s+)
  | (?P<COMMENT>%[^\n]*)
  | (?P<NUMBER>-?(?:\d+\.\d+([eE][+-]?\d+)?|\.\d+([eE][+-]?\d+)?|\d+([eE][+-]?\d+)?))
  | (?P<IDENT>[a-z][A-Za-z0-9_]*)
  | (?P<VAR>[A-Z_][A-Za-z0-9_]*)
  | (?P<PROB>::)
  | (?P<IF>:-)
  | (?P<NAF>\\\+)
  | (?P<LE><=)
  | (?P<GE>>=)
  | (?P<LT><)
  | (?P<GT>>)
  | (?P<TILDE>~)
  | (?P<LPAREN>\()
  | (?P<RPAREN>\))
  | (?P<LBRACKET>\[)
  | (?P<RBRACKET>\])
  | (?P<COMMA>,)
  | (?P<DOT>\.)
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise DslSyntaxError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        raw = m.group()
        if kind not in ("WS", "COMMENT"):
            tokens.append(_Token(kind, raw, line, col))
        newlines = raw.count("\n")
        if newlines:
            line += newlines
            col = len(raw) - raw.rfind("\n")
        else:
            col += len(raw)
        pos = m.end()
    tokens.append(_Token("EOF", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self, offset: int = 0) -> _Token:
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def expect(self, kind: str, what: str | None = None) -> _Token:
        tok = self.next()
        if tok.kind != kind:
            want = what or kind.lower()
            raise DslSyntaxError(f"expected {want}, found {tok.text or 'end of input'!r}",
                                 tok.line, tok.col)
        return tok

    def error(self, message: str) -> DslSyntaxError:
        tok = self.peek()
        return DslSyntaxError(message, tok.line, tok.col)

    # -- productions ------------------------------------------------------

    def parse_program(self) -> Program:
        clauses = []
        query = None
        domains: list[tuple[str, tuple[str, ...]]] = []
        while self.peek().kind != "EOF":
            item = self.parse_clause()
            if isinstance(item, tuple) and item and item[0] == "query":
                if query is not None:
                    raise self.error("duplicate query directive")
                query = item[1]
            elif isinstance(item, tuple) and item and item[0] == "domain":
                domains.append(item[1])
            else:
                clauses.append(item)
        kwargs = {"clauses": tuple(clauses), "domains": tuple(domains)}
        if query is not None:
            kwargs["query"] = query
        return Program(**kwargs)

    def parse_clause(self):
        tok = self.peek()
        if tok.kind == "IDENT" and tok.text == "query" and self.peek(1).kind == "LPAREN":
            return self.parse_query_directive()
        if tok.kind == "IDENT" and tok.text == "domain" and self.peek(1).kind == "LPAREN":
            return self.parse_domain_directive()
        if tok.kind == "NUMBER":
            return self.parse_categorical()
        if tok.kind == "IDENT":
            return self.parse_headed_clause()
        raise self.error(f"expected a clause, found {tok.text or 'end of input'!r}")

    def parse_query_directive(self):
        self.next()  # query
        self.expect("LPAREN")
        atom = self.parse_atom()
        self.expect("RPAREN")
        self.expect("DOT", "'.'")
        return ("query", atom)

    def parse_domain_directive(self):
        self.next()  # domain
        self.expect("LPAREN")
        var = self.expect("VAR", "a variable")
        self.expect("COMMA", "','")
        self.expect("LBRACKET", "'['")
        consts = [self.parse_domain_constant()]
        while self.peek().kind == "COMMA":
            self.next()
            consts.append(self.parse_domain_constant())
        self.expect("RBRACKET", "']'")
        self.expect("RPAREN")
        self.expect("DOT", "'.'")
        return ("domain", (var.text, tuple(consts)))

    def parse_domain_constant(self) -> str:
        tok = self.next()
        if tok.kind not in ("IDENT", "NUMBER"):
            raise DslSyntaxError("expected a constant", tok.line, tok.col)
        return tok.text

    def parse_categorical(self) -> CategoricalClause:
        tok = self.expect("NUMBER")
        prob = float(tok.text)
        if not 0.0 <= prob <= 1.0:
            raise DslSyntaxError(f"probability {tok.text} outside [0, 1]", tok.line, tok.col)
        self.expect("PROB", "'::'")
        head = self.parse_atom()
        body = self.parse_rule_tail()
        return CategoricalClause(prob=prob, head=head, body=body, line=tok.line)

    def parse_headed_clause(self):
        line = self.peek().line
        head = self.parse_atom()
        if self.peek().kind == "TILDE":
            self.next()
            dist = self.parse_distribution()
            body = self.parse_rule_tail()
            if isinstance(dist, float):  # bernoulli(p) is sugar for p ::
                return CategoricalClause(prob=dist, head=head, body=body, line=line)
            return ContinuousClause(head=head, dist=dist, body=body, line=line)
        body = self.parse_rule_tail()
        return CategoricalClause(prob=1.0, head=head, body=body, line=line)

    def parse_distribution(self) -> NormalSpec | float:
        """A normal's NormalSpec, or a bernoulli's probability."""
        tok = self.expect("IDENT", "a distribution name")
        if tok.text == "normal":
            self.expect("LPAREN")
            mean = float(self.expect("NUMBER").text)
            self.expect("COMMA", "','")
            std_tok = self.expect("NUMBER")
            std = float(std_tok.text)
            if std <= 0:
                raise DslSyntaxError("normal std must be positive",
                                     std_tok.line, std_tok.col)
            self.expect("RPAREN")
            return NormalSpec(mean=mean, std=std)
        if tok.text == "bernoulli":
            self.expect("LPAREN")
            p_tok = self.expect("NUMBER")
            p = float(p_tok.text)
            if not 0.0 <= p <= 1.0:
                raise DslSyntaxError(f"probability {p_tok.text} outside [0, 1]",
                                     p_tok.line, p_tok.col)
            self.expect("RPAREN")
            return p
        raise DslSyntaxError(f"unknown distribution {tok.text!r} "
                             "(expected normal or bernoulli)", tok.line, tok.col)

    def parse_rule_tail(self):
        tok = self.next()
        if tok.kind == "DOT":
            return ()
        if tok.kind != "IF":
            raise DslSyntaxError(f"expected ':-' or '.', found {tok.text!r}",
                                 tok.line, tok.col)
        body = [self.parse_literal()]
        while self.peek().kind == "COMMA":
            self.next()
            body.append(self.parse_literal())
        self.expect("DOT", "'.'")
        return tuple(body)

    def parse_literal(self):
        if self.peek().kind == "NAF":
            self.next()
            return AtomLiteral(atom=self.parse_atom(), negated=True)
        atom = self.parse_atom()
        kind = self.peek().kind
        if kind in ("LT", "LE", "GT", "GE"):
            op = self.next().text
            bound = float(self.expect("NUMBER").text)
            return Comparison(atom=atom, op=op, bounds=(bound,))
        if kind == "IDENT" and self.peek().text == "between":
            self.next()
            self.expect("LBRACKET", "'['")
            lo_tok = self.expect("NUMBER")
            self.expect("COMMA", "','")
            hi_tok = self.expect("NUMBER")
            self.expect("RBRACKET", "']'")
            lo, hi = float(lo_tok.text), float(hi_tok.text)
            if lo > hi:
                raise DslSyntaxError("between bounds must be ordered low, high",
                                     lo_tok.line, lo_tok.col)
            return Comparison(atom=atom, op="between", bounds=(lo, hi))
        return AtomLiteral(atom=atom)

    def parse_atom(self) -> Atom:
        tok = self.expect("IDENT", "a predicate name")
        if self.peek().kind != "LPAREN":
            return Atom(tok.text)
        self.next()
        args = [self.parse_term()]
        while self.peek().kind == "COMMA":
            self.next()
            args.append(self.parse_term())
        self.expect("RPAREN")
        return Atom(tok.text, tuple(args))

    def parse_term(self):
        tok = self.next()
        if tok.kind == "IDENT":
            return Constant(tok.text)
        if tok.kind == "NUMBER":
            return Constant(repr(float(tok.text)))
        if tok.kind == "VAR":
            return Variable(tok.text)
        raise DslSyntaxError(f"expected a term, found {tok.text!r}", tok.line, tok.col)


def parse(text: str) -> Program:
    """Parse DSL source text into a Program."""
    return _Parser(text).parse_program()


def parse_file(path) -> Program:
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())
