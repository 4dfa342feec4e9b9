"""Binding environment relations in a program to starmap layers.

Occurrences of the predicates over/distance/depth with a query variable as
location and a constant tag are "environment atoms"; the first query
variable is the state and the second the measurement. Each environment
atom becomes an independent ground fact whose parameters come from the
matching starmap layer, interpolated at its variable's point:

* over(X, g)            -> Bernoulli fact with p = clamp(mean, 0, 1)
* distance/depth(X, g)  -> Normal(mean, max(std, 1e-3 m)) quantity

and the query variables themselves are bound to fresh constants (x, z).
A program that already defines such a ground fact keeps its own (user
override).

The ConstitutionEvaluator binds each environment atom to an open
(layer, point) parameter slot, so one compiled query is re-weighted for
thousands of (state, measurement) rows at once. Program structure never
depends on the interpolated values, only on the program text and on which
layers exist, so all rows share one compiled structure. A row that reads a
flagged layer cell is NaN. Each layer is read through grids.bilinear,
which clamps a point outside the layer's bbox onto its edge, exactly as
field mode reads the field.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from ..relations import RelationKind
from ..starmap import StaRMapLayer, find_layer, interpolate_many
from .grounder import (
    SlotParam,
    StaticParam,
    chain_parameters,
    ground,
    interval_probabilities,
)
from .inference import CompiledQuery
from .terms import (
    Atom,
    CategoricalClause,
    Constant,
    ContinuousClause,
    NormalSpec,
    Program,
    Variable,
    format_atom,
)

SIGMA_FLOOR_M = 1e-3
_ROLES = (("state", "x"), ("measurement", "z"))

_ENV_PREDICATES = {
    "over": RelationKind.OVER,
    "distance": RelationKind.DISTANCE,
    "depth": RelationKind.DEPTH,
}


def _query_roles(program: Program) -> dict[str, tuple[str, str]]:
    """Query variable -> (role, constant): the first query variable is the
    state, the second the measurement."""
    names = [a.name for a in program.query.args if isinstance(a, Variable)]
    return dict(zip(names, _ROLES))


def environment_atoms(program: Program) -> list[tuple[str, str, str]]:
    """Distinct (predicate, variable, tag) environment occurrences, in order."""
    seen: list[tuple[str, str, str]] = []

    def visit(atom: Atom):
        if atom.predicate not in _ENV_PREDICATES or len(atom.args) != 2:
            return
        loc, tag = atom.args
        if not isinstance(loc, Variable) or not isinstance(tag, Constant):
            return
        entry = (atom.predicate, loc.name, tag.text)
        if entry not in seen:
            seen.append(entry)

    for clause in program.clauses:
        visit(clause.head)
        for lit in clause.body:
            visit(lit.atom)
    return seen


def program_relations(program: Program) -> list[tuple[RelationKind, str]]:
    """The sorted, distinct (relation, tag) layers the program reads."""
    return sorted({(RelationKind(p), tag) for p, _, tag in environment_atoms(program)})


def _slot_plan(program: Program, layers: list[StaRMapLayer]):
    """Resolve environment occurrences to layers and query-point roles."""
    roles = _query_roles(program)
    plan = []
    for predicate, var, tag in environment_atoms(program):
        if var not in roles:
            raise ConfigurationError(
                f"environment atom {predicate}({var}, {tag}) uses variable {var}, "
                f"which is not a query variable of {format_atom(program.query)}"
            )
        at, const = roles[var]
        plan.append(
            {
                "predicate": predicate,
                "at": at,
                "layer": find_layer(layers, _ENV_PREDICATES[predicate], tag),
                "head": Atom(predicate, (Constant(const), Constant(tag))),
                "slot": f"{predicate}:{tag}@{at}",
            }
        )
    return plan


def _bind(program: Program, plan, clause_for) -> Program:
    """The program with clause_for(entry) added for each plan entry whose
    ground head the program does not define itself (user override), and
    with the query variables bound to their constants."""
    existing = {c.head.key() for c in program.clauses if c.head.is_ground()}
    env_clauses = tuple(
        clause_for(entry) for entry in plan if entry["head"].key() not in existing
    )
    binding = {var: const for var, (_, const) in _query_roles(program).items()}
    domains = tuple(d for d in program.domains if d[0] not in binding)
    return Program(
        clauses=program.clauses + env_clauses,
        query=program.query.substitute(binding),
        domains=domains + tuple((var, (const,)) for var, const in binding.items()),
    )


def _template_clause(entry):
    """An environment fact whose parameters are read from entry's slot."""
    if entry["predicate"] == "over":
        return CategoricalClause(prob=0.5, head=entry["head"], slot=entry["slot"])
    return ContinuousClause(
        head=entry["head"], dist=NormalSpec(mean=0.0, std=1.0), slot=entry["slot"]
    )


class ConstitutionEvaluator:
    """Compiled constitution query with per-point environment parameters."""

    def __init__(self, program: Program, layers: list[StaRMapLayer]):
        plan = _slot_plan(program, layers)
        self._slots = {entry["slot"]: entry for entry in plan}
        self.ground_program = ground(_bind(program, plan, _template_clause))
        self.compiled = CompiledQuery(self.ground_program)

    def parameter_rows(self, n: int, moments) -> np.ndarray:
        """(n, k) Bernoulli parameters from moments(layer, at), the (m,)
        mean and std arrays of a slot's layer at its query points (at is
        "state" or "measurement"). The m points fill the n = m * r rows in
        order, r consecutive rows each, with the bits of r equal rows;
        NaN entries where those are NaN."""
        gp = self.ground_program
        params = np.empty((n, gp.n_probabilistic))
        moment_cache: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        chain_cache: dict[tuple[str, tuple[float, ...]], np.ndarray] = {}

        def slot_moments(slot):
            if slot not in moment_cache:
                entry = self._slots[slot]
                moment_cache[slot] = moments(entry["layer"], entry["at"])
            return moment_cache[slot]

        def fill(i, values):
            params.reshape(len(values), -1, params.shape[1])[:, :, i] = values[:, None]

        for i, spec in enumerate(gp.fact_params):
            if isinstance(spec, StaticParam):
                params[:, i] = spec.value
            elif isinstance(spec, SlotParam):
                mean, _ = slot_moments(spec.slot)
                fill(i, np.clip(mean, 0.0, 1.0))
            else:
                key = (spec.slot, spec.thresholds)
                if key not in chain_cache:
                    mean, std = slot_moments(spec.slot)
                    sigma = np.maximum(std, SIGMA_FLOOR_M)
                    q = interval_probabilities(mean, sigma, spec.thresholds)
                    chain_cache[key] = chain_parameters(q)
                fill(i, chain_cache[key][spec.index])
        return params

    def parameter_matrix(self, states: np.ndarray, measurements: np.ndarray) -> np.ndarray:
        """(N, k) Bernoulli parameters for (N, 2) states and (m, 2)
        measurements that fill the rows as in parameter_rows; NaN entries
        where a slot's interpolation reads a flagged cell."""
        points = {"state": states, "measurement": measurements}
        return self.parameter_rows(
            len(states), lambda layer, at: interpolate_many(layer, points[at]))

    def probabilities(self, states: np.ndarray, measurements: np.ndarray) -> np.ndarray:
        """P(constitution | state, measurement) per row, measurements as in
        parameter_matrix; NaN where a row reads a flagged layer cell."""
        return self.row_probabilities(self.parameter_matrix(states, measurements))

    def row_probabilities(self, params: np.ndarray) -> np.ndarray:
        """P(constitution) per row of an (N, k) parameter matrix; NaN where
        a row has a NaN parameter."""
        defined = np.isfinite(params).all(axis=1)
        out = np.full(len(params), np.nan)
        # Rows are evaluated independently, so evaluating the defined rows
        # alone gives them the same bits as a full batch.
        out[defined] = self.compiled.evaluate(params[defined])
        if ((out < -1e-9) | (out > 1 + 1e-9)).any():
            raise AssertionError("query probability escaped [0, 1]")
        return np.clip(out, 0.0, 1.0)

    def particle_probabilities(self, positions, z) -> np.ndarray:
        """(A, N) compliance (direct mode) of the (A, N, 2) positions of A
        arms, each arm's (2,) row of z read once for its N particles; NaN
        where undefined."""
        positions = np.asarray(positions, dtype=float)
        return self.probabilities(positions.reshape(-1, 2),
                                  np.reshape(z, (-1, 2))).reshape(positions.shape[:-1])
