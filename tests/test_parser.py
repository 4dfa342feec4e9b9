import pathlib
import re

import pytest
from hypothesis import given, strategies as st

from cstrack.constitution import (
    Atom,
    AtomLiteral,
    CategoricalClause,
    Comparison,
    Constant,
    ContinuousClause,
    NormalSpec,
    Program,
    Variable,
    format_program,
    parse,
)
from cstrack.errors import DslSyntaxError


class TestBasicClauses:
    def test_categorical_fact(self):
        program = parse("0.95 :: over(x, park).")
        (clause,) = program.clauses
        assert clause == CategoricalClause(
            prob=0.95,
            head=Atom("over", (Constant("x"), Constant("park"))),
        )

    def test_continuous_fact(self):
        program = parse("distance(x, road) ~ normal(100, 1).")
        (clause,) = program.clauses
        assert isinstance(clause, ContinuousClause)
        assert clause.dist == NormalSpec(mean=100.0, std=1.0)
        assert clause.head.predicate == "distance"

    def test_bernoulli_fact(self):
        program = parse("busy ~ bernoulli(0.3).")
        (clause,) = program.clauses
        assert clause == CategoricalClause(prob=0.3, head=Atom("busy"))

    def test_rule_with_negation(self):
        program = parse(r"1.0 :: a :- b, \+ c.")
        (clause,) = program.clauses
        assert clause.body == (
            AtomLiteral(Atom("b")),
            AtomLiteral(Atom("c"), negated=True),
        )

    def test_bare_clause_is_probability_one(self):
        program = parse("safe(X) :- ok(X).")
        (clause,) = program.clauses
        assert clause.prob == 1.0

    def test_comparisons(self):
        program = parse(
            "q :- distance(x, land) > 50, depth(x, water) between [5, 20].\n"
            "distance(x, land) ~ normal(60, 5).\n"
            "depth(x, water) ~ normal(10, 2).\n"
        )
        body = program.clauses[0].body
        assert body[0] == Comparison(
            Atom("distance", (Constant("x"), Constant("land"))), ">", (50.0,)
        )
        assert body[1] == Comparison(
            Atom("depth", (Constant("x"), Constant("water"))), "between", (5.0, 20.0)
        )

    def test_variables_and_constants(self):
        program = parse("lane_ok(X) :- near(X, way_1).")
        head = program.clauses[0].head
        assert head.args == (Variable("X"),)
        body_atom = program.clauses[0].body[0].atom
        assert body_atom.args == (Variable("X"), Constant("way_1"))

    def test_comments_and_whitespace(self):
        program = parse(
            """
            % the background rules
            1.0 :: a.   % trailing comment
            0.5 :: b.
            """
        )
        assert len(program.clauses) == 2


class TestDirectives:
    def test_query_directive(self):
        program = parse("ok(x). query(ok(x)).")
        assert program.query == Atom("ok", (Constant("x"),))

    def test_domain_directive(self):
        program = parse("near(X) :- at(X). domain(X, [a, b, c]).")
        assert program.domain_map() == {"X": ("a", "b", "c")}

    def test_default_query(self):
        program = parse("1.0 :: a.")
        assert program.query == Atom("constitution", (Variable("X"), Variable("Z")))


class TestErrors:
    def test_probability_out_of_range(self):
        with pytest.raises(DslSyntaxError) as err:
            parse("1.5 :: a.")
        assert err.value.line == 1

    def test_syntax_error_position(self):
        with pytest.raises(DslSyntaxError) as err:
            parse("1.0 :: a.\n0.5 ::: b.")
        assert err.value.line == 2

    def test_missing_dot(self):
        with pytest.raises(DslSyntaxError):
            parse("0.5 :: a")

    def test_nonpositive_std(self):
        with pytest.raises(DslSyntaxError):
            parse("d ~ normal(10, 0).")

    def test_bad_between_order(self):
        with pytest.raises(DslSyntaxError):
            parse("q :- d between [5, 2]. d ~ normal(0, 1).")

    def test_unknown_distribution(self):
        with pytest.raises(DslSyntaxError):
            parse("d ~ uniform(0, 1).")


MARINE_EXAMPLE = r"""
% perception
1.0 :: purpose(cargo).
0.95 :: anchored.
% background
1.0 :: afloat(X) :- \+ over(X, land).
1.0 :: clearance_ok(X) :- depth(X, water) > 10.2.
1.0 :: lane_bound :- purpose(cargo).
1.0 :: near_lane(X) :- distance(X, way) < 250.
1.0 :: lane_ok(X) :- lane_bound, near_lane(X).
1.0 :: lane_ok(X) :- \+ lane_bound.
1.0 :: conduct_ok(X) :- anchored, over(X, anchorage).
1.0 :: conduct_ok(X) :- \+ anchored, lane_ok(X).
1.0 :: constitution(X, Z) :- afloat(X), clearance_ok(X), conduct_ok(X).
"""


class TestRoundTrip:
    def test_pretty_print_reparses_to_equal_ast(self):
        program = parse(MARINE_EXAMPLE)
        again = parse(format_program(program))
        assert again == program

    def test_readme_dsl_example_round_trips(self):
        readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
        block = re.search(r"## The constitution DSL \(`\.cst`\)\n+```\n(.*?)```", readme,
                          re.DOTALL)
        assert block, "README has no DSL example block"
        program = parse(block.group(1))
        assert len(program.clauses) == 5
        assert parse(format_program(program)) == program

    def test_round_trip_simple_rule(self):
        program = parse(r"1.0 :: a :- b, \+ c.")
        assert parse(format_program(program)) == program

    def test_round_trip_preserves_query_and_domains(self):
        program = parse("ok(a). query(ok(a)). domain(Y, [a, b]).")
        again = parse(format_program(program))
        assert again.query == program.query
        assert again.domains == program.domains

    def test_numeric_constants_normalize_stably(self):
        program = parse("deep(5).")
        once = format_program(program)
        assert parse(once) == program
        assert format_program(parse(once)) == once


_idents = st.from_regex(r"[a-z][a-z0-9_]{0,6}", fullmatch=True)
_vars = st.from_regex(r"[A-Z][a-z0-9]{0,3}", fullmatch=True)
_terms = st.one_of(
    _idents.map(Constant),
    _vars.map(Variable),
)
_atoms = st.builds(
    Atom,
    predicate=_idents,
    args=st.tuples() | st.tuples(_terms) | st.tuples(_terms, _terms),
)
_literals = st.one_of(
    st.builds(AtomLiteral, atom=_atoms, negated=st.booleans()),
    st.builds(
        Comparison,
        atom=_atoms,
        op=st.just(">"),
        bounds=st.tuples(st.floats(-1e6, 1e6, allow_nan=False)),
    ),
)
_clauses = st.one_of(
    st.builds(
        CategoricalClause,
        prob=st.floats(0, 1, allow_nan=False),
        head=_atoms,
        body=st.lists(_literals, max_size=3).map(tuple),
    ),
    st.builds(
        ContinuousClause,
        head=_atoms,
        dist=st.builds(
            NormalSpec,
            mean=st.floats(-1e6, 1e6, allow_nan=False),
            std=st.floats(0.001, 1e3, allow_nan=False),
        ),
        body=st.lists(_literals, max_size=2).map(tuple),
    ),
)


@given(st.lists(_clauses, max_size=6))
def test_generated_programs_round_trip(clauses):
    program = Program(clauses=tuple(clauses))
    assert parse(format_program(program)) == program


@given(st.text(max_size=80))
def test_parser_never_crashes_on_garbage(text):
    # Arbitrary input either parses or raises a positioned syntax error.
    try:
        parse(text)
    except DslSyntaxError as err:
        assert err.line >= 1 and err.column >= 1
