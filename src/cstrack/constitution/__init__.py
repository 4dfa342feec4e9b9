"""Probabilistic rule programs: DSL, grounding, and exact inference.

One path evaluates a constitution: ConstitutionEvaluator binds the
program's environment atoms to starmap layers, ground() grounds the
program's own query, and CompiledQuery.evaluate maps an (N, k) batch of
parameter vectors to (N,) probabilities. precompute_field runs that path
once per grid node for field mode.
"""

from .terms import (
    Atom,
    AtomLiteral,
    BernoulliSpec,
    CategoricalClause,
    Comparison,
    Constant,
    ContinuousClause,
    NormalSpec,
    Program,
    Variable,
    format_atom,
    format_clause,
    format_program,
)
from .parser import parse, parse_file
from .grounder import GroundProgram, GroundRule, ground
from .inference import CompiledQuery
from .environment import ConstitutionEvaluator, environment_atoms, program_relations
from .field import ConstitutionField, precompute_field

__all__ = [
    "Atom",
    "AtomLiteral",
    "BernoulliSpec",
    "CategoricalClause",
    "Comparison",
    "CompiledQuery",
    "Constant",
    "ConstitutionEvaluator",
    "ConstitutionField",
    "ContinuousClause",
    "GroundProgram",
    "GroundRule",
    "NormalSpec",
    "Program",
    "Variable",
    "environment_atoms",
    "format_atom",
    "format_clause",
    "format_program",
    "ground",
    "parse",
    "parse_file",
    "precompute_field",
    "program_relations",
]
