"""Grounding: from first-order programs to propositional ground programs.

Variables are replaced by the constants of their domains (an explicit
``domain(V, [...])`` directive, else every constant occurring in the
program). The result is a propositional program over three atom classes:

* probabilistic atoms, each the head of exactly one independent Bernoulli
  fact (program facts with p < 1, auxiliary choice atoms of probabilistic
  rules, and interval-selection atoms compiled from comparisons);
* derived atoms defined by deterministic rules;
* undefined atoms (mentioned only in bodies), which are always false.

Comparisons on a normally distributed quantity are compiled exactly: the
union of all bounds mentioned anywhere in the program splits the real line
into intervals, a chain of Bernoulli selectors realizes the categorical
choice among them, and every comparison becomes a disjunction over the
intervals it covers. Multiple comparisons on the same quantity therefore
stay mutually consistent (e.g. v > 100 implies v > 50).

The dependency graph of ground atoms must be acyclic, which also makes
negation stratified: every probabilistic-fact assignment induces a unique
two-valued model, computed by one bottom-up pass in topological order.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from ..errors import GroundingError, UnsupportedProgramError
from .terms import (
    AtomLiteral,
    BernoulliSpec,
    CategoricalClause,
    Comparison,
    ContinuousClause,
    Program,
    format_atom,
)

MAX_INSTANTIATIONS = 200_000


# -- parameter specifications for probabilistic atoms -----------------------


@dataclass(frozen=True)
class StaticParam:
    value: float


@dataclass(frozen=True)
class SlotParam:
    """Bernoulli parameter read from an environment slot (clamped mean)."""

    slot: str


@dataclass(frozen=True)
class ChainParam:
    """Interval-chain parameter derived from an environment slot's (mean, std)."""

    slot: str
    thresholds: tuple[float, ...]
    index: int  # which chain selector, 0-based


ParamSpec = StaticParam | SlotParam | ChainParam


@dataclass(frozen=True)
class GroundRule:
    head: int
    body: tuple[int, ...]  # signed literals: +(idx + 1) / -(idx + 1)


@dataclass(frozen=True)
class GroundProgram:
    atom_names: tuple[str, ...]
    fact_atoms: tuple[int, ...]  # probabilistic atoms, ascending
    fact_params: tuple[ParamSpec, ...]
    rules: tuple[GroundRule, ...]
    topo_order: tuple[int, ...]  # derived atoms in evaluation order
    query: int

    @property
    def n_probabilistic(self) -> int:
        return len(self.fact_atoms)


def interval_probabilities(mean, std, thresholds: tuple[float, ...]) -> np.ndarray:
    """Probabilities of the m+1 intervals cut by m sorted thresholds.

    Accepts scalar or (N,) mean/std; returns (m+1,) or (m+1, N).
    """
    mean = np.asarray(mean, dtype=float)
    std = np.asarray(std, dtype=float)
    cdf = np.stack([ndtr((b - mean) / std) for b in thresholds])
    first = cdf[0:1]
    mids = np.diff(cdf, axis=0)
    last = 1.0 - cdf[-1:]
    return np.concatenate([first, mids, last], axis=0)


def chain_parameters(q: np.ndarray) -> np.ndarray:
    """Chain selector probabilities realizing a categorical over intervals.

    Selector j (1-based) fires with probability q[j-1] / remaining mass;
    interval j is selected iff selectors 1..j stay off and j+1 fires (the
    last interval iff all stay off). q has shape (m+1,) or (m+1, N); the
    result drops the last row: shape (m,) or (m, N).
    """
    q = np.asarray(q, dtype=float)
    rem = 1.0 - np.concatenate([np.zeros_like(q[:1]), np.cumsum(q[:-1], axis=0)])
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.where(rem > 1e-15, q / np.where(rem > 1e-15, rem, 1.0), 0.0)
    return np.clip(r[:-1], 0.0, 1.0)


def comparison_interval_range(op: str, bounds: tuple[float, ...],
                              thresholds: tuple[float, ...]) -> tuple[int, int]:
    """Inclusive interval-index range [lo, hi] satisfying the comparison.

    Intervals are 0..m where interval j lies between thresholds j-1 and j.
    Boundary inclusion is immaterial for continuous distributions.
    """
    m = len(thresholds)
    if op in (">", ">="):
        i = thresholds.index(bounds[0])
        return (i + 1, m)
    if op in ("<", "<="):
        i = thresholds.index(bounds[0])
        return (0, i)
    lo = thresholds.index(bounds[0])
    hi = thresholds.index(bounds[1])
    return (lo + 1, hi)


# -- grounding ---------------------------------------------------------------


def _clause_variables(clause) -> list[str]:
    seen: list[str] = []
    for atom in [clause.head] + [lit.atom for lit in clause.body]:
        for name in atom.variables():
            if name not in seen:
                seen.append(name)
    return sorted(seen)


def _substitute_literal(lit, binding):
    if isinstance(lit, AtomLiteral):
        return AtomLiteral(atom=lit.atom.substitute(binding), negated=lit.negated)
    return Comparison(atom=lit.atom.substitute(binding), op=lit.op, bounds=lit.bounds)


def _instantiate(program: Program) -> list:
    explicit = program.domain_map()
    herbrand = tuple(program.constants())
    ground_clauses = []
    total = 0
    for clause in program.clauses:
        names = _clause_variables(clause)
        domains = []
        for name in names:
            dom = explicit.get(name, herbrand)
            if not dom:
                raise GroundingError(
                    f"variable {name} has an empty domain and no constants occur "
                    "in the program"
                )
            domains.append(dom)
        combos = 1
        for dom in domains:
            combos *= len(dom)
        total += combos
        if total > MAX_INSTANTIATIONS:
            raise GroundingError(
                f"grounding exceeds {MAX_INSTANTIATIONS} clause instances; "
                "declare tighter domain(...) directives"
            )
        for values in itertools.product(*domains):
            binding = dict(zip(names, values))
            head = clause.head.substitute(binding)
            body = tuple(_substitute_literal(lit, binding) for lit in clause.body)
            if isinstance(clause, CategoricalClause):
                ground_clauses.append(
                    CategoricalClause(prob=clause.prob, head=head, body=body,
                                      line=clause.line, slot=clause.slot)
                )
            else:
                ground_clauses.append(
                    ContinuousClause(head=head, dist=clause.dist, body=body,
                                     line=clause.line, slot=clause.slot)
                )
    return ground_clauses


class _Builder:
    def __init__(self):
        self.names: list[str] = []
        self.index: dict[str, int] = {}
        self.rules: list[GroundRule] = []
        self.fact_params: dict[int, ParamSpec] = {}

    def atom(self, name: str) -> int:
        if name not in self.index:
            self.index[name] = len(self.names)
            self.names.append(name)
        return self.index[name]

    def fact(self, name: str, spec: ParamSpec) -> int:
        idx = self.atom(name)
        if idx in self.fact_params:
            raise UnsupportedProgramError(
                f"probabilistic atom {name} defined more than once"
            )
        self.fact_params[idx] = spec
        return idx

    def rule(self, head: int, body: list[int]):
        self.rules.append(GroundRule(head=head, body=tuple(body)))


def ground(program: Program) -> GroundProgram:
    """Ground a program into the propositional form that inference compiles to a BDD.

    The program's query must be ground; only clauses backward-reachable
    from it are kept.
    """
    query = program.query
    if not query.is_ground():
        raise GroundingError(
            f"query {format_atom(query)} has unbound variables; bind the "
            "environment first"
        )
    clauses = _instantiate(program)

    # Bernoulli-distributed "continuous" heads are plain categorical facts.
    normalized = []
    for clause in clauses:
        if isinstance(clause, ContinuousClause) and isinstance(clause.dist, BernoulliSpec):
            normalized.append(
                CategoricalClause(prob=clause.dist.p, head=clause.head,
                                  body=clause.body, line=clause.line, slot=clause.slot)
            )
        else:
            normalized.append(clause)
    clauses = normalized

    continuous: dict[str, ContinuousClause] = {}
    categorical: list[CategoricalClause] = []
    for clause in clauses:
        if isinstance(clause, ContinuousClause):
            key = clause.head.key()
            if key in continuous:
                raise UnsupportedProgramError(
                    f"continuous quantity {key} has more than one defining clause"
                )
            if key in (c.head.key() for c in categorical):
                raise UnsupportedProgramError(
                    f"{key} is defined both as continuous and categorical"
                )
            continuous[key] = clause
        else:
            categorical.append(clause)
    for clause in categorical:
        if clause.head.key() in continuous:
            raise UnsupportedProgramError(
                f"{clause.head.key()} is defined both as continuous and categorical"
            )

    # Collect comparison thresholds per continuous quantity (from every
    # clause body, including guards of continuous clauses); reject plain
    # literals over continuous atoms (they have no truth value).
    thresholds: dict[str, set[float]] = {key: set() for key in continuous}
    for clause in categorical + list(continuous.values()):
        for lit in clause.body:
            key = lit.atom.key()
            if isinstance(lit, AtomLiteral):
                if key in continuous:
                    raise UnsupportedProgramError(
                        f"continuous quantity {key} used as a plain literal; "
                        "only comparisons (<, <=, >, >=, between) are allowed"
                    )
            else:
                if key not in continuous:
                    raise GroundingError(
                        f"comparison references {key}, which no continuous "
                        "clause defines"
                    )
                thresholds[key].update(lit.bounds)

    builder = _Builder()
    sorted_thresholds = {key: tuple(sorted(vals)) for key, vals in thresholds.items()}

    # Interval-selection chains for compared continuous quantities.
    chain_atoms: dict[str, list[int]] = {}
    for key, clause in continuous.items():
        cuts = sorted_thresholds[key]
        if not cuts:
            continue  # never compared; contributes nothing
        if clause.slot is None:
            q = interval_probabilities(clause.dist.mean, clause.dist.std, cuts)
            r = chain_parameters(q)
            specs = [StaticParam(float(v)) for v in r]
        else:
            specs = [
                ChainParam(slot=clause.slot, thresholds=cuts, index=j)
                for j in range(len(cuts))
            ]
        chain_atoms[key] = [
            builder.fact(f"{key}#c{j + 1}", spec) for j, spec in enumerate(specs)
        ]

    expanding: list[str] = []

    def continuous_body_literals(key: str) -> list[int]:
        if key in expanding:
            raise UnsupportedProgramError(
                f"continuous quantity {key} guards itself through its own body"
            )
        expanding.append(key)
        try:
            out = []
            for lit in continuous[key].body:
                out.extend(_literal_codes(lit))
            return out
        finally:
            expanding.pop()

    cmp_atom_cache: dict[tuple, int] = {}

    def _comparison_atom(lit: Comparison) -> int:
        key = lit.atom.key()
        cache_key = (key, lit.op, lit.bounds)
        if cache_key in cmp_atom_cache:
            return cmp_atom_cache[cache_key]
        cuts = sorted_thresholds[key]
        chain = chain_atoms[key]
        name = f"{key}#cmp[{lit.op}{','.join(repr(b) for b in lit.bounds)}]"
        idx = builder.atom(name)
        lo, hi = comparison_interval_range(lit.op, lit.bounds, cuts)
        guard = continuous_body_literals(key)
        m = len(cuts)
        for j in range(lo, hi + 1):
            body = list(guard)
            body.extend(-(chain[i] + 1) for i in range(j))  # selectors 1..j off
            if j < m:
                body.append(chain[j] + 1)  # selector j+1 fires
            builder.rule(idx, body)
        cmp_atom_cache[cache_key] = idx
        return idx

    def _literal_codes(lit) -> list[int]:
        if isinstance(lit, Comparison):
            return [_comparison_atom(lit) + 1]
        idx = builder.atom(lit.atom.key())
        return [-(idx + 1) if lit.negated else idx + 1]

    aux_counter: dict[str, int] = {}
    for clause in categorical:
        head_key = clause.head.key()
        head_idx = builder.atom(head_key)
        body = []
        for lit in clause.body:
            body.extend(_literal_codes(lit))
        if clause.slot is None and clause.prob == 1.0:
            builder.rule(head_idx, body)
            continue
        n = aux_counter.get(head_key, 0)
        aux_counter[head_key] = n + 1
        spec = StaticParam(clause.prob) if clause.slot is None else SlotParam(clause.slot)
        aux = builder.fact(f"{head_key}#p{n}", spec)
        builder.rule(head_idx, body + [aux + 1])

    query_idx = builder.index.get(query.key())
    rule_heads = {r.head for r in builder.rules}
    if query_idx is None or query_idx not in rule_heads:
        raise GroundingError(f"query atom {query.key()} is not defined by any clause")

    # Backward closure from the query: drop unreachable rules and facts.
    reachable = {query_idx}
    changed = True
    while changed:
        changed = False
        for rule in builder.rules:
            if rule.head in reachable:
                for code in rule.body:
                    atom = abs(code) - 1
                    if atom not in reachable:
                        reachable.add(atom)
                        changed = True
    rules = [r for r in builder.rules if r.head in reachable]
    fact_atoms = sorted(a for a in builder.fact_params if a in reachable)

    # Acyclicity over the kept ground atoms (positive and negative edges
    # alike), which yields the bottom-up evaluation order.
    derived = sorted({r.head for r in rules})
    derived_set = set(derived)
    pending: dict[int, set[int]] = {h: set() for h in derived}
    dependents: dict[int, list[int]] = {h: [] for h in derived}
    for rule in rules:
        for code in rule.body:
            dep = abs(code) - 1
            if dep in derived_set and dep not in pending[rule.head]:
                pending[rule.head].add(dep)
                dependents[dep].append(rule.head)
    ready = [h for h in derived if not pending[h]]
    heapq.heapify(ready)
    order: list[int] = []
    while ready:
        atom = heapq.heappop(ready)
        order.append(atom)
        for h in dependents[atom]:
            pending[h].discard(atom)
            if not pending[h]:
                heapq.heappush(ready, h)
    if len(order) != len(derived):
        cyclic = sorted(derived_set - set(order))
        names = ", ".join(builder.names[a] for a in cyclic[:5])
        raise UnsupportedProgramError(
            f"cyclic dependencies among ground atoms (e.g. {names}); "
            "only acyclic (stratified) programs are supported"
        )

    return GroundProgram(
        atom_names=tuple(builder.names),
        fact_atoms=tuple(fact_atoms),
        fact_params=tuple(builder.fact_params[a] for a in fact_atoms),
        rules=tuple(rules),
        topo_order=tuple(order),
        query=query_idx,
    )
