import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cstrack.constitution import (
    Atom,
    AtomLiteral,
    CategoricalClause,
    CompiledQuery,
    Program,
    ground,
    parse,
)
from cstrack.errors import CapacityError

from brute_force import satisfying_count
from reference_binding import exact_probability, static_params
from wmc_oracle import oracle_probability, random_program


def ground_text(text, query):
    """The ground program of text with query atom `query` (no arguments)."""
    return ground(dataclasses.replace(parse(text), query=Atom(query)))


def prob(text, query):
    return exact_probability(ground_text(text, query))


def normal_quadrature(mean, std, lo, hi, n=400_001):
    """Trapezoid integration of the normal density: the comparison oracle."""
    xs = np.linspace(lo, hi, n)
    pdf = np.exp(-0.5 * ((xs - mean) / std) ** 2) / (std * math.sqrt(2 * math.pi))
    return float(np.trapezoid(pdf, xs))


class TestBasicQueries:
    def test_single_fact(self):
        assert prob("0.95 :: a.", "a") == pytest.approx(0.95, abs=1e-12)

    def test_independent_conjunction(self):
        assert prob("0.5 :: a. 0.4 :: b. q :- a, b.", "q") == pytest.approx(
            0.20, abs=1e-12
        )

    def test_disjunction_brute_force_value(self):
        # Brute force over the 4 assignments of (a, b):
        #   a=1        : 0.3 * 0.6 + 0.3 * 0.4 = 0.30
        #   a=0, b=1   : 0.7 * 0.6            = 0.42
        # total = 0.72 = 1 - 0.7 * 0.4
        assert prob("0.3 :: a. 0.6 :: b. q :- a. q :- b.", "q") == pytest.approx(
            0.72, abs=1e-12
        )

    def test_negation(self):
        assert prob(r"0.3 :: a. q :- \+ a.", "q") == pytest.approx(0.7, abs=1e-12)

    def test_deterministic_chain(self):
        assert prob("a. b :- a. c :- b.", "c") == 1.0

    def test_probabilistic_rule(self):
        # 0.8 :: q :- a. with P(a) = 0.5 -> 0.4
        assert prob("0.5 :: a. 0.8 :: q :- a.", "q") == pytest.approx(0.4, abs=1e-12)

    def test_noisy_or_of_two_facts_for_same_atom(self):
        # two independent causes for a: 1 - 0.5 * 0.7
        assert prob("0.5 :: a. 0.3 :: a. q :- a.", "q") == pytest.approx(
            0.65, abs=1e-12
        )

    def test_undefined_body_atom_is_false(self):
        assert prob("0.5 :: a. q :- a, ghost.", "q") == 0.0
        assert prob(r"0.5 :: a. q :- a, \+ ghost.", "q") == pytest.approx(0.5)


class TestComparisonQueries:
    def test_normal_above_mean_is_half(self):
        p = prob("d ~ normal(100, 1). q :- d > 100.", "q")
        assert p == pytest.approx(0.5, abs=1e-9)

    def test_between_matches_quadrature(self):
        # Oracle: numeric integration of the N(100, 1) density over [99, 101].
        p = prob("d ~ normal(100, 1). q :- d between [99, 101].", "q")
        oracle = normal_quadrature(100.0, 1.0, 99.0, 101.0)
        assert p == pytest.approx(oracle, abs=1e-7)
        assert p == pytest.approx(0.6826894921370859, abs=1e-9)

    def test_depth_above_threshold_erf_value(self):
        # 1 - Phi((5 - 10) / 2) = Phi(2.5), frozen from the erf series.
        p = prob("depth ~ normal(10, 2). q :- depth > 5.", "q")
        assert p == pytest.approx(0.9937903346742238, abs=1e-9)

    def test_correlated_comparisons_same_quantity(self):
        # d > 50 and d > 100 refer to one quantity: the joint equals the
        # stricter marginal, not the independent product.
        p_and = prob("d ~ normal(80, 30). q :- d > 50, d > 100.", "q")
        p_100 = prob("d ~ normal(80, 30). q :- d > 100.", "q")
        assert p_and == pytest.approx(p_100, abs=1e-12)

    def test_correlated_disjunction(self):
        p_or = prob("d ~ normal(80, 30). q :- d > 50. q :- d > 100.", "q")
        p_50 = prob("d ~ normal(80, 30). q :- d > 50.", "q")
        assert p_or == pytest.approx(p_50, abs=1e-12)

    def test_exclusive_intervals_sum(self):
        text = "d ~ normal(0, 1). lo :- d < 0. hi :- d >= 0. q :- lo. q :- hi."
        assert prob(text, "q") == pytest.approx(1.0, abs=1e-12)

    def test_between_subsumed_by_shared_threshold(self):
        # between [50, 100] implies d > 50 when both share the cut at 50.
        text = "d ~ normal(70, 25). a :- d between [50, 100]. q :- a, d > 50."
        p_between = prob("d ~ normal(70, 25). q :- d between [50, 100].", "q")
        assert prob(text, "q") == pytest.approx(p_between, abs=1e-12)

    def test_guarded_comparison(self):
        # P(g) * P(d > 0) with d ~ N(0, 1) conditioned on the guard.
        p = prob("0.4 :: g. d ~ normal(0, 1) :- g. q :- d > 0.", "q")
        assert p == pytest.approx(0.2, abs=1e-12)


class TestInvariants:
    def test_capacity_error(self):
        # q :- a_i, b_i with every a before every b: under the fact order
        # the BDD must remember which a_i hold before it reads any b_i, so
        # it has about 2**n nodes. At n = 20 that exceeds the node limit,
        # which is checked as nodes are made, so the test stays fast.
        n = 20
        text = "\n".join(f"0.5 :: a{i}." for i in range(n))
        text += "\n" + "\n".join(f"0.5 :: b{i}." for i in range(n))
        text += "\n" + "\n".join(f"q :- a{i}, b{i}." for i in range(n))
        gp = ground_text(text, "q")
        assert gp.n_probabilistic == 2 * n
        with pytest.raises(CapacityError):
            CompiledQuery(gp)

    def test_too_deep_a_diagram_is_a_capacity_error(self):
        # Negating a 1500-fact conjunction recurses once per variable,
        # beyond the interpreter's recursion limit; that is a capacity
        # error (exit 2), not an internal one.
        n = 1500
        text = "\n".join(f"0.5 :: a{i}." for i in range(n))
        text += "\np :- " + ", ".join(f"a{i}" for i in reversed(range(n))) + "."
        text += "\nq :- \\+ p."
        with pytest.raises(CapacityError, match="too deep"):
            CompiledQuery(ground_text(text, "q"))

    @pytest.mark.parametrize("k", [24, 30, 900])
    def test_long_chain_compiles_linearly(self, k):
        # q :- a_i for each i: one node per fact, beyond what enumeration
        # over 2**k assignments could reach. Folding the rules highest
        # variable first keeps the compilation linear too: at k = 900 a
        # lowest-first fold would make about k**2 / 2 nodes, over the limit.
        probs = np.random.default_rng(k).uniform(0.05, 0.95, size=k)
        text = "\n".join(f"{float(p)!r} :: a{i}." for i, p in enumerate(probs))
        text += "\n" + "\n".join(f"q :- a{i}." for i in range(k))
        compiled = CompiledQuery(ground_text(text, "q"))
        assert (compiled.k, compiled.size, compiled.n_satisfying) == (k, k, 2**k - 1)
        rows = np.random.default_rng(k + 1).uniform(0.0, 1.0, size=(50, k))
        rows[0] = probs
        np.testing.assert_allclose(
            compiled.evaluate(rows), 1.0 - np.prod(1.0 - rows, axis=1), rtol=0, atol=1e-12
        )

    def test_total_mass_is_one(self):
        # nq :- \+ q. splits every model between q and nq, so the two
        # query probabilities partition the total mass.
        rng = np.random.default_rng(3)
        nq = Atom("nq")
        for _ in range(10):
            program, _ = random_program(rng, max_facts=6, max_rules=6)
            extended = Program(
                clauses=program.clauses + (
                    CategoricalClause(
                        prob=1.0, head=nq,
                        body=(AtomLiteral(program.query, negated=True),),
                    ),
                ),
                query=nq,
            )
            gp = ground(extended)
            total = exact_probability(gp, query=program.query) + exact_probability(gp)
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_determinism_across_calls(self):
        program, _ = random_program(np.random.default_rng(5), 8, 8)
        gp1 = ground(program)
        gp2 = ground(program)
        assert exact_probability(gp1) == exact_probability(gp2)

    @settings(deadline=None, max_examples=30)
    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_monotone_in_positive_fact(self, p_low, p_high):
        lo, hi = sorted((p_low, p_high))
        text = "{} :: a. 0.6 :: b. q :- a, b. q :- b."
        p1 = prob(text.format(lo), "q")
        p2 = prob(text.format(hi), "q")
        assert p2 >= p1 - 1e-12

    def test_query_probability_of_other_atom(self):
        gp = ground_text("0.25 :: a. b :- a. q :- b.", "q")
        assert exact_probability(gp, query=Atom("b")) == pytest.approx(0.25)

    def test_monotone_on_random_positive_programs(self):
        # Raising any fact probability cannot lower the query probability
        # when every literal is positive.
        rng = np.random.default_rng(31)
        for _ in range(15):
            n_facts = int(rng.integers(2, 6))
            facts = {f"f{i}": float(rng.uniform(0.1, 0.8)) for i in range(n_facts)}
            lines = [f"{p} :: {name}." for name, p in facts.items()]
            pool = list(facts)
            for j in range(int(rng.integers(1, 5))):
                body = rng.choice(pool, size=int(rng.integers(1, 3)), replace=False)
                lines.append(f"d{j} :- {', '.join(str(b) for b in body)}.")
                pool.append(f"d{j}")
            lines.append(f"goal :- {pool[-1]}.")
            bumped = str(rng.choice(list(facts)))
            text = "\n".join(lines)
            low = prob(text, "goal")
            text_hi = text.replace(
                f"{facts[bumped]} :: {bumped}.", f"{min(facts[bumped] + 0.15, 1.0)} :: {bumped}."
            )
            high = prob(text_hi, "goal")
            assert high >= low - 1e-12


class TestAgainstBruteForceOracle:
    def test_forty_random_programs(self):
        rng = np.random.default_rng(2024)
        for _ in range(40):
            program, op = random_program(rng, max_facts=8, max_rules=8)
            engine = exact_probability(ground(program))
            oracle = oracle_probability(op)
            assert engine == pytest.approx(oracle, abs=1e-9)


class TestAgainstGenerativeMonteCarlo:
    def test_guarded_chain_with_negation(self):
        # A guarded quantity with three thresholds across four rules,
        # negation, and an independent probabilistic rule. The oracle
        # simulates the generative semantics directly.
        text = r"""
        0.6 :: windy.
        0.3 :: night.
        d ~ normal(80, 30) :- windy.
        close :- d < 50.
        mid :- d between [50, 120].
        far :- d > 120.
        w1 :- mid, \+ night.
        w2 :- far.
        0.7 :: w3 :- close, night.
        goal :- w1.
        goal :- w2.
        goal :- w3.
        """
        engine = prob(text, "goal")
        rng = np.random.default_rng(0)
        n = 1_000_000
        windy = rng.uniform(size=n) < 0.6
        night = rng.uniform(size=n) < 0.3
        d = rng.normal(80, 30, size=n)
        close = windy & (d < 50)
        mid = windy & (d >= 50) & (d <= 120)
        far = windy & (d > 120)
        goal = (mid & ~night) | far | (close & night & (rng.uniform(size=n) < 0.7))
        mc = goal.mean()
        se = math.sqrt(mc * (1 - mc) / n)
        assert abs(engine - mc) < 4 * se


# Programs the random generator does not produce: a query that is a fact,
# an underivable query and a tautology, with their exact probabilities.
EDGE_PROGRAMS = [
    ("0.3 :: a. 0.6 :: b. q :- b.", "a", 0.3),
    (r"0.3 :: a. 0.6 :: b. q :- a, \+ a. q :- b, ghost.", "q", 0.0),
    (r"0.3 :: a. 0.6 :: b. q :- a. q :- \+ a, b. q :- \+ a, \+ b.", "q", 1.0),
]


class TestCircuitProperties:
    """The compiled circuit against enumeration, on random and edge programs."""

    @staticmethod
    def check(gp, expected):
        compiled = CompiledQuery(gp)
        value = compiled.evaluate(static_params(gp)[None, :])[0]
        assert value == pytest.approx(expected, abs=1e-12)
        assert compiled.n_satisfying == satisfying_count(gp)
        assert 0 <= compiled.size <= 2**gp.n_probabilistic
        rows = np.random.default_rng(compiled.size).uniform(0.0, 1.0, size=(9, gp.n_probabilistic))
        rows[0] = 0.0
        rows[1] = 1.0
        batched = compiled.evaluate(rows)
        for i in range(len(rows)):
            assert compiled.evaluate(rows[i : i + 1])[0] == batched[i]

    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 2**32 - 1))
    def test_random_program(self, seed):
        program, op = random_program(np.random.default_rng(seed), max_facts=6, max_rules=8)
        self.check(ground(program), oracle_probability(op))

    @pytest.mark.parametrize("text,query,expected", EDGE_PROGRAMS)
    def test_edge_program(self, text, query, expected):
        self.check(ground_text(text, query), expected)

    def test_constant_queries_are_terminals(self):
        for text, query, expected in EDGE_PROGRAMS[1:]:
            compiled = CompiledQuery(ground_text(text, query))
            assert compiled.size == 0
            assert compiled.n_satisfying == int(expected) * 2**compiled.k
            np.testing.assert_array_equal(
                compiled.evaluate(np.full((3, compiled.k), 0.5)), [expected] * 3
            )


class TestCompiledQuery:
    def test_matches_oracle(self):
        rng = np.random.default_rng(77)
        for _ in range(10):
            program, op = random_program(rng, 8, 8)
            gp = ground(program)
            compiled = CompiledQuery(gp)
            (value,) = compiled.evaluate(static_params(gp)[None, :])
            assert value == pytest.approx(oracle_probability(op), abs=1e-12)

    def test_batch_rows_equal_scalar_calls_bitwise(self):
        program, _ = random_program(np.random.default_rng(8), 8, 8)
        gp = ground(program)
        compiled = CompiledQuery(gp)
        k = gp.n_probabilistic
        rng = np.random.default_rng(1)
        batch = rng.uniform(0.0, 1.0, size=(57, k))
        batched = compiled.evaluate(batch)
        for i in range(batch.shape[0]):
            assert compiled.evaluate(batch[i : i + 1])[0] == batched[i]

    def test_zero_and_one_parameters(self):
        compiled = CompiledQuery(ground_text("0.5 :: a. q :- a.", "q"))
        np.testing.assert_array_equal(
            compiled.evaluate(np.array([[0.0], [1.0]])), [0.0, 1.0]
        )

    @pytest.mark.parametrize("shape", [(1,), (2,), (3, 2), (0,)])
    def test_rejects_anything_but_an_n_by_k_batch(self, shape):
        compiled = CompiledQuery(ground_text("0.5 :: a. q :- a.", "q"))
        with pytest.raises(ValueError):
            compiled.evaluate(np.zeros(shape))
