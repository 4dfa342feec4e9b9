"""Probabilistic rule programs: DSL, grounding, and exact inference."""

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
from .inference import CompiledQuery, query_probability
from .environment import (
    ConstitutionEvaluator,
    bind_environment,
    environment_atoms,
)
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
    "bind_environment",
    "environment_atoms",
    "format_atom",
    "format_clause",
    "format_program",
    "ground",
    "parse",
    "parse_file",
    "precompute_field",
    "query_probability",
]
