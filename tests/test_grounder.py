import dataclasses

import numpy as np
import pytest

from cstrack.constitution import Atom, ground, parse
from cstrack.constitution.grounder import (
    StaticParam,
    chain_parameters,
    comparison_interval_range,
    interval_probabilities,
)
from cstrack.errors import GroundingError, UnsupportedProgramError


def q(text, query):
    return ground(dataclasses.replace(parse(text), query=Atom(query)))


class TestGrounding:
    def test_fact_and_rule(self):
        gp = q("0.5 :: a. b :- a.", "b")
        assert gp.n_probabilistic == 1
        assert len(gp.rules) == 2  # a :- aux, b :- a

    def test_variables_over_herbrand_constants(self):
        gp = q("0.5 :: edge(m). 0.5 :: edge(n). ok(X) :- edge(X). all :- ok(m), ok(n).",
               "all")
        names = set(gp.atom_names)
        assert "ok(m)" in names and "ok(n)" in names

    def test_domain_directive_restricts(self):
        text = ("0.5 :: edge(m). 0.5 :: edge(n). ok(X) :- edge(X). domain(X, [m]). "
                "query(ok(m)).")
        gp = ground(parse(text))
        assert "ok(n)" not in gp.atom_names

    def test_relevance_reduction_drops_unreachable(self):
        gp = q("0.5 :: a. 0.5 :: junk. b :- a.", "b")
        assert gp.n_probabilistic == 1
        assert all("junk" not in gp.atom_names[a] for a in gp.fact_atoms)

    def test_unground_query_rejected(self):
        with pytest.raises(GroundingError):
            ground(parse("0.5 :: a."))  # default query has variables

    def test_undefined_query_rejected(self):
        with pytest.raises(GroundingError):
            q("0.5 :: a.", "nope")

    def test_cycle_rejected(self):
        with pytest.raises(UnsupportedProgramError):
            q("a :- b. b :- a. q :- a.", "q")

    def test_negative_cycle_rejected(self):
        with pytest.raises(UnsupportedProgramError):
            q(r"a :- \+ b. b :- \+ a. q :- a.", "q")

    def test_continuous_as_plain_literal_rejected(self):
        with pytest.raises(UnsupportedProgramError):
            q("d ~ normal(0, 1). q :- d.", "q")

    def test_duplicate_continuous_head_rejected(self):
        with pytest.raises(UnsupportedProgramError):
            q("d ~ normal(0, 1). d ~ normal(1, 1). q :- d > 0.", "q")

    @pytest.mark.parametrize("text", ["d ~ normal(0, 1). 0.5 :: d. q :- d > 0.",
                                      "0.5 :: d. d ~ normal(0, 1). q :- d > 0."])
    def test_continuous_and_categorical_head_rejected(self, text):
        with pytest.raises(UnsupportedProgramError,
                           match="both as continuous and categorical"):
            q(text, "q")

    def test_comparison_on_undefined_quantity_rejected(self):
        with pytest.raises(GroundingError):
            q("q :- d > 0.", "q")

    def test_bernoulli_continuous_is_categorical_sugar(self):
        gp = q("a ~ bernoulli(0.3). q :- a.", "q")
        assert gp.n_probabilistic == 1
        spec = gp.fact_params[0]
        assert isinstance(spec, StaticParam) and spec.value == 0.3

    @pytest.mark.parametrize("p", ["0.0", "0.3", "1.0"])
    def test_bernoulli_rule_grounds_as_its_categorical_rule(self, p):
        facts = "0.5 :: b. q :- a."
        assert (q(f"a ~ bernoulli({p}) :- b. {facts}", "q")
                == q(f"{p} :: a :- b. {facts}", "q"))


class TestComparisonCompilation:
    def test_single_threshold_makes_one_chain_atom(self):
        gp = q("d ~ normal(100, 1). q :- d > 100.", "q")
        assert gp.n_probabilistic == 1
        assert isinstance(gp.fact_params[0], StaticParam)
        # P(d <= 100) = 0.5, so the selector for the low interval fires
        # with probability exactly 0.5.
        assert gp.fact_params[0].value == pytest.approx(0.5, abs=1e-12)

    def test_shared_thresholds_one_chain(self):
        gp = q("d ~ normal(0, 1). q :- d > 1. r :- d > 2. s :- q, r.", "s")
        # two thresholds -> two chain atoms, no independent duplicates
        assert gp.n_probabilistic == 2

    def test_interval_probabilities_sum_to_one(self):
        qv = interval_probabilities(3.0, 2.0, (-1.0, 0.0, 5.0))
        assert qv.shape == (4,)
        assert qv.sum() == pytest.approx(1.0, abs=1e-12)
        assert (qv >= 0).all()

    def test_chain_parameters_recover_interval_probs(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            raw = rng.uniform(0.01, 1.0, size=4)
            probs = raw / raw.sum()
            r = chain_parameters(probs)
            # Reconstruct interval probabilities from the chain.
            stay_off = 1.0
            rebuilt = []
            for rj in r:
                rebuilt.append(stay_off * rj)
                stay_off *= 1.0 - rj
            rebuilt.append(stay_off)
            np.testing.assert_allclose(rebuilt, probs, atol=1e-12)

    def test_chain_handles_exhausted_mass(self):
        r = chain_parameters(np.array([1.0, 0.0, 0.0]))
        assert r[0] == 1.0 and r[1] == 0.0

    def test_interval_range_mapping(self):
        cuts = (1.0, 2.0, 5.0)
        assert comparison_interval_range(">", (2.0,), cuts) == (2, 3)
        assert comparison_interval_range(">=", (1.0,), cuts) == (1, 3)
        assert comparison_interval_range("<", (5.0,), cuts) == (0, 2)
        assert comparison_interval_range("between", (1.0, 5.0), cuts) == (1, 2)

    def test_guarded_continuous_clause_body_carries_over(self):
        gp = q("0.5 :: g. d ~ normal(0, 1) :- g. q :- d > 0.", "q")
        # the comparison only holds when the guard g does
        assert gp.n_probabilistic == 2

    def test_self_guarding_continuous_rejected(self):
        with pytest.raises(UnsupportedProgramError):
            q("d ~ normal(0, 1) :- d > 1. q :- d > 0.", "q")
