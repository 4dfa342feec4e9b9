"""Binding environment relations in a program to starmap layers.

Occurrences of the predicates over/distance/depth with a query variable as
location and a constant tag are "environment atoms". Binding rewrites each
as an independent ground fact whose parameters come from the matching
starmap layer, interpolated at the state (first query variable) or
measurement (second query variable) location:

* over(X, g)            -> Bernoulli fact with p = clamp(mean, 0, 1)
* distance/depth(X, g)  -> Normal(mean, max(std, 1e-3 m)) quantity

and the query variables themselves are bound to fresh constants (x, z).

The ConstitutionEvaluator performs the same binding symbolically, keeping
(layer, point) parameter slots open so one compiled query can be
re-weighted for thousands of particle positions at once. Program structure
never depends on the interpolated values, only on the program text and on
which layers exist, so all points share one compiled structure.

bind_environment, the reference path, raises on a flagged or out-of-bbox
point. The evaluator instead returns NaN for such a row, and its
particle_probabilities (direct mode) first clamps positions and the
measurement into the layers' common bbox, exactly as field mode clamps
into the field's bbox.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError, OutOfBoundsError
from ..grids import clamp_to_bbox
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
STATE_CONSTANT = "x"
MEASUREMENT_CONSTANT = "z"

_ENV_PREDICATES = {
    "over": RelationKind.OVER,
    "distance": RelationKind.DISTANCE,
    "depth": RelationKind.DEPTH,
}


def _query_variables(program: Program) -> list[str]:
    return [a.name for a in program.query.args if isinstance(a, Variable)]


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


def _slot_plan(program: Program, layers: list[StaRMapLayer]):
    """Resolve environment occurrences to layers and query-point roles."""
    qvars = _query_variables(program)
    roles = {}
    if qvars:
        roles[qvars[0]] = "state"
    if len(qvars) > 1:
        roles[qvars[1]] = "measurement"
    plan = []
    for predicate, var, tag in environment_atoms(program):
        if var not in roles:
            raise ConfigurationError(
                f"environment atom {predicate}({var}, {tag}) uses variable {var}, "
                f"which is not a query variable of {format_atom(program.query)}"
            )
        layer = find_layer(layers, _ENV_PREDICATES[predicate], tag)
        at = roles[var]
        const = STATE_CONSTANT if at == "state" else MEASUREMENT_CONSTANT
        head = Atom(predicate, (Constant(const), Constant(tag)))
        slot = f"{predicate}:{tag}@{at}"
        plan.append(
            {
                "predicate": predicate,
                "tag": tag,
                "at": at,
                "layer": layer,
                "head": head,
                "slot": slot,
            }
        )
    return plan


def _existing_heads(program: Program) -> set[str]:
    return {c.head.key() for c in program.clauses if c.head.is_ground()}


def _bound_query(program: Program) -> Atom:
    qvars = _query_variables(program)
    binding = {}
    if qvars:
        binding[qvars[0]] = STATE_CONSTANT
    if len(qvars) > 1:
        binding[qvars[1]] = MEASUREMENT_CONSTANT
    return program.query.substitute(binding)


def _bound_domains(program: Program) -> tuple:
    qvars = _query_variables(program)
    extra = []
    if qvars:
        extra.append((qvars[0], (STATE_CONSTANT,)))
    if len(qvars) > 1:
        extra.append((qvars[1], (MEASUREMENT_CONSTANT,)))
    kept = [d for d in program.domains if d[0] not in {e[0] for e in extra}]
    return tuple(kept + extra)


def bind_environment(program: Program, layers: list[StaRMapLayer], state,
                     measurement) -> Program:
    """Concrete binding: environment facts with interpolated parameters.

    The returned program is self-contained (no open slots); grounding and
    querying it is the reference path against which the slotted evaluator
    is checked. Facts whose ground head already appears as a clause head in
    the program are left to the program text (user override).
    """
    state = np.asarray(state, dtype=float)
    measurement = np.asarray(measurement, dtype=float)
    plan = _slot_plan(program, layers)
    existing = _existing_heads(program)
    env_clauses = []
    for entry in plan:
        if entry["head"].key() in existing:
            continue
        point = state if entry["at"] == "state" else measurement
        grid = entry["layer"].grid
        if not grid.contains(point)[0]:
            raise OutOfBoundsError(
                f"point ({point[0]}, {point[1]}) outside grid bbox {grid.bbox}"
            )
        mean, std = interpolate_many(entry["layer"], point.reshape(1, 2))
        mean, std = float(mean[0]), float(std[0])
        if not (np.isfinite(mean) and np.isfinite(std)):
            raise ConfigurationError(
                f"layer {entry['predicate']}:{entry['tag']} is flagged around "
                f"({point[0]:.1f}, {point[1]:.1f}); cannot bind {entry['slot']}"
            )
        if entry["predicate"] == "over":
            env_clauses.append(
                CategoricalClause(prob=min(max(mean, 0.0), 1.0), head=entry["head"])
            )
        else:
            env_clauses.append(
                ContinuousClause(
                    head=entry["head"],
                    dist=NormalSpec(mean=mean, std=max(std, SIGMA_FLOOR_M)),
                )
            )
    return Program(
        clauses=program.clauses + tuple(env_clauses),
        query=_bound_query(program),
        domains=_bound_domains(program),
    )


def _template_program(program: Program, plan) -> Program:
    existing = _existing_heads(program)
    env_clauses = []
    for entry in plan:
        if entry["head"].key() in existing:
            continue
        if entry["predicate"] == "over":
            env_clauses.append(
                CategoricalClause(prob=0.5, head=entry["head"], slot=entry["slot"])
            )
        else:
            env_clauses.append(
                ContinuousClause(
                    head=entry["head"],
                    dist=NormalSpec(mean=0.0, std=1.0),
                    slot=entry["slot"],
                )
            )
    return Program(
        clauses=program.clauses + tuple(env_clauses),
        query=_bound_query(program),
        domains=_bound_domains(program),
    )


class ConstitutionEvaluator:
    """Compiled constitution query with per-point environment parameters."""

    def __init__(self, program: Program, layers: list[StaRMapLayer]):
        self.program = program
        self.layers = layers
        plan = _slot_plan(program, layers)
        self._slots = {entry["slot"]: entry for entry in plan}
        # Intersection of the slot layers' bboxes (unbounded without slots).
        bboxes = [entry["layer"].grid.bbox for entry in plan]
        self._bbox = (
            max((b[0] for b in bboxes), default=-np.inf),
            max((b[1] for b in bboxes), default=-np.inf),
            min((b[2] for b in bboxes), default=np.inf),
            min((b[3] for b in bboxes), default=np.inf),
        )
        template = _template_program(program, plan)
        self.ground_program = ground(template)
        self.compiled = CompiledQuery(self.ground_program)

    def _slot_moments(self, slot: str, states: np.ndarray, measurements: np.ndarray):
        entry = self._slots[slot]
        points = states if entry["at"] == "state" else measurements
        mean, std = interpolate_many(entry["layer"], points)
        return np.atleast_1d(mean), np.atleast_1d(std)

    def parameter_matrix(self, states: np.ndarray, measurements: np.ndarray) -> np.ndarray:
        """(N, k) Bernoulli parameters for each (state, measurement) row;
        NaN entries where a slot's point is flagged or outside its layer."""
        states = np.atleast_2d(np.asarray(states, dtype=float))
        measurements = np.atleast_2d(np.asarray(measurements, dtype=float))
        if measurements.shape[0] == 1 and states.shape[0] > 1:
            measurements = np.broadcast_to(measurements, states.shape)
        n = states.shape[0]
        gp = self.ground_program
        params = np.empty((n, gp.n_probabilistic))
        moment_cache: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        chain_cache: dict[tuple[str, tuple[float, ...]], np.ndarray] = {}

        def moments(slot):
            if slot not in moment_cache:
                moment_cache[slot] = self._slot_moments(slot, states, measurements)
            return moment_cache[slot]

        for i, spec in enumerate(gp.fact_params):
            if isinstance(spec, StaticParam):
                params[:, i] = spec.value
            elif isinstance(spec, SlotParam):
                mean, _ = moments(spec.slot)
                params[:, i] = np.clip(mean, 0.0, 1.0)
            else:
                key = (spec.slot, spec.thresholds)
                if key not in chain_cache:
                    mean, std = moments(spec.slot)
                    sigma = np.maximum(std, SIGMA_FLOOR_M)
                    q = interval_probabilities(mean, sigma, spec.thresholds)
                    chain_cache[key] = chain_parameters(q)
                params[:, i] = chain_cache[key][spec.index]
        return params

    def probabilities(self, states: np.ndarray, measurements: np.ndarray) -> np.ndarray:
        """P(constitution | state, measurement) per row; NaN where a row
        reads a flagged layer cell or a point outside a layer."""
        params = self.parameter_matrix(states, measurements)
        defined = np.isfinite(params).all(axis=1)
        out = np.full(len(params), np.nan)
        # Rows are evaluated independently, so evaluating the defined rows
        # alone gives them the same bits as a full batch.
        out[defined] = self.compiled.evaluate(params[defined])
        if ((out < -1e-9) | (out > 1 + 1e-9)).any():
            raise AssertionError("query probability escaped [0, 1]")
        return np.clip(out, 0.0, 1.0)

    def particle_probabilities(self, positions, z) -> np.ndarray:
        """Per-particle compliance (direct mode); NaN where undefined.

        Positions and the measurement z, one shared (2,) point or one
        (N, 2) row per position, are clamped into the layers' common bbox
        (constant extrapolation at the map edge).
        """
        states = clamp_to_bbox(positions, self._bbox)
        meas = clamp_to_bbox(
            np.broadcast_to(np.asarray(z, dtype=float), states.shape), self._bbox
        )
        return self.probabilities(states, meas)
