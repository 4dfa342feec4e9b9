"""AST for the constitution DSL and its normative pretty-printer.

A program is a list of clauses over atoms. Two clause forms exist:

* categorical: ``P :: head :- body.`` — the head holds with probability P
  when the body holds; a bare ``head :- body.`` is sugar for P = 1.
* continuous: ``head ~ normal(M, S) :- body.`` — the head denotes a random
  quantity; it may only be consumed through comparison literals such as
  ``depth(X, water) > 5`` or ``distance(X, way) between [50, 200]``.

Bodies are conjunctions of literals: plain atoms, negated atoms (``\\+ a``),
or comparisons. Variables are uppercase, constants lowercase or numeric.
Variable names act as program-wide sorts: every occurrence of the same name
ranges over the same finite constant domain when grounding.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Variable:
    name: str

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class Constant:
    text: str

    def __str__(self):
        return self.text


Term = Variable | Constant


@dataclass(frozen=True)
class Atom:
    predicate: str
    args: tuple[Term, ...] = ()

    def is_ground(self) -> bool:
        return all(isinstance(a, Constant) for a in self.args)

    def variables(self) -> list[str]:
        return [a.name for a in self.args if isinstance(a, Variable)]

    def substitute(self, binding: dict[str, str]) -> "Atom":
        args = tuple(
            Constant(binding[a.name])
            if isinstance(a, Variable) and a.name in binding
            else a
            for a in self.args
        )
        return Atom(self.predicate, args)

    def key(self) -> str:
        """Canonical name of a ground atom."""
        if not self.args:
            return self.predicate
        return f"{self.predicate}({','.join(str(a) for a in self.args)})"


@dataclass(frozen=True)
class AtomLiteral:
    atom: Atom
    negated: bool = False


COMPARISON_OPS = ("<", "<=", ">", ">=", "between")


@dataclass(frozen=True)
class Comparison:
    """A threshold test against a continuous atom's value."""

    atom: Atom
    op: str
    bounds: tuple[float, ...]

    def __post_init__(self):
        if self.op not in COMPARISON_OPS:
            raise ValueError(f"unknown comparison operator {self.op!r}")
        want = 2 if self.op == "between" else 1
        if len(self.bounds) != want:
            raise ValueError(f"{self.op!r} takes {want} bound(s), got {len(self.bounds)}")
        if self.op == "between" and not self.bounds[0] <= self.bounds[1]:
            raise ValueError("between bounds must be ordered low, high")


Literal = AtomLiteral | Comparison


@dataclass(frozen=True)
class NormalSpec:
    mean: float
    std: float


@dataclass(frozen=True)
class CategoricalClause:
    prob: float
    head: Atom
    body: tuple[Literal, ...] = ()
    line: int = field(default=0, compare=False)
    # Environment slot key when this fact's probability is supplied per
    # query point by a starmap binding rather than by the program text.
    slot: str | None = field(default=None, compare=False)


@dataclass(frozen=True)
class ContinuousClause:
    head: Atom
    dist: NormalSpec
    body: tuple[Literal, ...] = ()
    line: int = field(default=0, compare=False)
    slot: str | None = field(default=None, compare=False)


Clause = CategoricalClause | ContinuousClause

DEFAULT_QUERY = Atom("constitution", (Variable("X"), Variable("Z")))


@dataclass(frozen=True)
class Program:
    clauses: tuple[Clause, ...]
    query: Atom = DEFAULT_QUERY
    domains: tuple[tuple[str, tuple[str, ...]], ...] = ()

    def domain_map(self) -> dict[str, tuple[str, ...]]:
        return dict(self.domains)

    def constants(self) -> list[str]:
        """All constant texts appearing in clauses and query, sorted."""
        out: set[str] = set()

        def from_atom(atom: Atom):
            for a in atom.args:
                if isinstance(a, Constant):
                    out.add(a.text)

        for clause in self.clauses:
            from_atom(clause.head)
            for lit in clause.body:
                from_atom(lit.atom)
        from_atom(self.query)
        for _, consts in self.domains:
            out.update(consts)
        return sorted(out)


# ---------------------------------------------------------------------------
# Pretty printing (the normative formatter: its output reparses to an
# equal AST)


def _format_number(x: float) -> str:
    return repr(float(x))


def format_atom(atom: Atom) -> str:
    if not atom.args:
        return atom.predicate
    return f"{atom.predicate}({', '.join(str(a) for a in atom.args)})"


def _format_literal(lit: Literal) -> str:
    if isinstance(lit, AtomLiteral):
        text = format_atom(lit.atom)
        return f"\\+ {text}" if lit.negated else text
    if lit.op == "between":
        lo, hi = lit.bounds
        return f"{format_atom(lit.atom)} between [{_format_number(lo)}, {_format_number(hi)}]"
    return f"{format_atom(lit.atom)} {lit.op} {_format_number(lit.bounds[0])}"


def _format_body(body) -> str:
    return ", ".join(_format_literal(lit) for lit in body)


def format_clause(clause: Clause) -> str:
    if isinstance(clause, CategoricalClause):
        head = f"{_format_number(clause.prob)} :: {format_atom(clause.head)}"
    else:
        dist = f"normal({_format_number(clause.dist.mean)}, {_format_number(clause.dist.std)})"
        head = f"{format_atom(clause.head)} ~ {dist}"
    if clause.body:
        return f"{head} :- {_format_body(clause.body)}."
    return f"{head}."


def format_program(program: Program) -> str:
    lines = [format_clause(c) for c in program.clauses]
    for var, consts in program.domains:
        lines.append(f"domain({var}, [{', '.join(consts)}]).")
    if program.query != DEFAULT_QUERY:
        lines.append(f"query({format_atom(program.query)}).")
    return "\n".join(lines) + "\n"
