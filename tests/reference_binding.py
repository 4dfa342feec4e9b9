"""Reference path for the constitution evaluator: one point at a time.

bind_environment writes each environment atom of a program as a ground
fact with the layer's parameters interpolated at one (state, measurement)
pair, and exact_probability enumerates a ground program under its own
parameters. Tests compare ConstitutionEvaluator, which reads the same
parameters from (layer, point) slots for a whole batch of rows, with
exact_probability(ground(bind_environment(...))).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from cstrack.constitution import CompiledQuery
from cstrack.constitution.environment import SIGMA_FLOOR_M, _bind, _slot_plan
from cstrack.constitution.grounder import StaticParam
from cstrack.constitution.terms import CategoricalClause, ContinuousClause, NormalSpec
from cstrack.errors import ConfigurationError
from cstrack.starmap import interpolate_many


def bind_environment(program, layers, state, measurement):
    """Concrete binding: environment facts with interpolated parameters.

    A point outside a layer's bbox binds the parameters of the layer's
    edge. Raises ConfigurationError for a point whose interpolation reads
    a flagged cell. Facts whose ground head the program already defines
    are left to the program text (user override).
    """
    points = {
        "state": np.asarray(state, dtype=float),
        "measurement": np.asarray(measurement, dtype=float),
    }

    def clause_for(entry):
        point = points[entry["at"]]
        mean, std = interpolate_many(entry["layer"], point.reshape(1, 2))
        mean, std = float(mean[0]), float(std[0])
        if not (np.isfinite(mean) and np.isfinite(std)):
            raise ConfigurationError(
                f"layer of {entry['slot']} is flagged around "
                f"({point[0]:.1f}, {point[1]:.1f})"
            )
        if entry["predicate"] == "over":
            return CategoricalClause(prob=min(max(mean, 0.0), 1.0), head=entry["head"])
        return ContinuousClause(
            head=entry["head"], dist=NormalSpec(mean=mean, std=max(std, SIGMA_FLOOR_M))
        )

    return _bind(program, _slot_plan(program, layers), clause_for)


def static_params(gp) -> np.ndarray:
    """(k,) parameters of a ground program without environment slots."""
    assert all(isinstance(spec, StaticParam) for spec in gp.fact_params)
    return np.array([spec.value for spec in gp.fact_params], dtype=float)


def exact_probability(gp, query=None) -> float:
    """P(query) of a ground program under its own parameters; the query
    defaults to the program's and must be an atom of the ground program."""
    if query is not None:
        gp = dataclasses.replace(gp, query=gp.atom_names.index(query.key()))
    return float(CompiledQuery(gp).evaluate(static_params(gp)[None, :])[0])
