import dataclasses
import itertools
import time
from operator import attrgetter

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
from cstrack.constitution.grounder import (
    StaticParam,
    chain_parameters,
    comparison_interval_range,
    interval_probabilities,
)
from cstrack.errors import GroundingError, UnsupportedProgramError

from brute_force import satisfying_count
from reference_binding import exact_probability
from wmc_oracle import oracle_probability, random_program


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
        with pytest.raises(UnsupportedProgramError, match=r"\(a -> b -> a\)"):
            q("a :- b. b :- a. q :- a.", "q")

    def test_negative_cycle_rejected(self):
        with pytest.raises(UnsupportedProgramError, match=r"\(a -> b -> a\)"):
            q(r"a :- \+ b. b :- \+ a. q :- a.", "q")

    def test_unreached_cycles_are_dropped(self):
        # A rule cycle and a self-guarding quantity that only an unreached
        # clause reads are dropped with that clause.
        gp = q("a :- b. b :- a. d ~ normal(0, 1) :- d > 1. r :- d > 0. r :- a. "
               "0.5 :: f. q :- f.", "q")
        assert gp.n_probabilistic == 1
        assert {gp.atom_names[rule.head] for rule in gp.rules} == {"f", "q"}

    def test_deep_chain_declared_bottom_up_grounds_fast(self):
        n = 20_000
        clauses = [CategoricalClause(prob=0.5, head=Atom("a0"))]
        clauses += [CategoricalClause(prob=1.0, head=Atom(f"a{i}"),
                                      body=(AtomLiteral(Atom(f"a{i - 1}")),))
                    for i in range(1, n + 1)]
        program = Program(clauses=tuple(clauses), query=Atom(f"a{n}"))
        t0 = time.perf_counter()
        gp = ground(program)
        assert time.perf_counter() - t0 < 5.0
        assert gp.n_probabilistic == 1 and len(gp.rules) == n + 1
        assert [gp.atom_names[rule.head] for rule in gp.rules[:2]] == ["a0", "a1"]

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
        with pytest.raises(UnsupportedProgramError,
                           match=r"\(d#guard -> d#cmp\[>1\.0\] -> d#guard\)"):
            q("d ~ normal(0, 1) :- d > 1. q :- d > 0.", "q")

    def test_guard_is_one_atom_read_by_every_comparison(self):
        gp = q("0.5 :: g. d ~ normal(0, 1) :- g. q :- d > 0. q :- d < -1.", "q")
        guard = gp.atom_names.index("d#guard")
        readers = {gp.atom_names[r.head] for r in gp.rules if guard + 1 in r.body}
        assert readers == {"d#cmp[>0.0]", "d#cmp[<-1.0]"}
        assert [r.body for r in gp.rules if r.head == guard] == [
            (gp.atom_names.index("g") + 1,)]


THRESHOLDS = ("-0.5", "0.0", "1.0")


def random_guarded_clauses(rng, max_choices: int = 10) -> list[str]:
    """Clauses of a random acyclic program, the query directive last:
    probabilistic facts, deterministic and probabilistic rules with
    negation, and normal quantities whose guards read facts, derived atoms
    and comparisons on other quantities. Each clause reads only what was
    defined before it (a rule for an existing head, only what was defined
    before that head), so the program has no cycle. At most max_choices
    independent Bernoulli atoms: each quantity may add three."""
    defined = [f"f{i}" for i in range(int(rng.integers(1, 4)))]
    clauses = [f"{rng.uniform(0.05, 0.95):.3f} :: {name}." for name in defined]
    choices = len(defined)
    derived: dict[str, int] = {}  # head -> how many defined names it may read

    def body(visible: int, n: int) -> list[str]:
        lits = []
        # Half the bodies read only the last three names: deep chains.
        lo = max(0, visible - 3) if rng.random() < 0.5 else 0
        for i in rng.choice(np.arange(lo, visible), size=min(n, visible - lo), replace=False):
            name = defined[i]
            if name.startswith("x"):
                a, b = sorted(rng.choice(THRESHOLDS, size=2, replace=False), key=float)
                lits.append(str(rng.choice([f"{name} > {a}", f"{name} < {b}",
                                            f"{name} between [{a}, {b}]"])))
            elif rng.random() < 0.05:
                lits.append("ghost")  # undefined, so always false
            else:
                lits.append(("\\+ " if rng.random() < 0.3 else "") + name)
        return lits

    for j in range(int(rng.integers(3, 10))):
        if choices + 3 <= max_choices and rng.random() < 0.4:
            name = f"x{j}"
            guard = body(len(defined), int(rng.integers(0, 3)))
            clauses.append(f"{name} ~ normal({rng.uniform(-1, 2):.3f}, "
                           f"{rng.uniform(0.3, 2):.3f})"
                           + (f" :- {', '.join(guard)}." if guard else "."))
            defined.append(name)
            choices += 3
            continue
        if derived and rng.random() < 0.3:
            head = str(rng.choice(sorted(derived)))
        else:
            head = f"d{j}"
            derived[head] = len(defined)
            defined.append(head)
        lits = body(derived[head], int(rng.integers(1, 4)))
        prob = ""
        if choices < max_choices and rng.random() < 0.3:
            prob = f"{rng.uniform(0.1, 0.9):.3f} :: "
            choices += 1
        clauses.append(f"{prob}{head} :- {', '.join(lits)}.")
    if not derived:
        clauses.append(f"d_last :- {defined[-1]} > 0.0." if defined[-1].startswith("x")
                       else f"d_last :- {defined[-1]}.")
        derived["d_last"] = len(defined)
    clauses.append(f"query({max(derived, key=derived.get)}).")  # the last new head
    return clauses


def assert_evaluation_order(gp):
    """Each head's rules stand together, after the rules of every derived
    atom their bodies read."""
    derived = {rule.head for rule in gp.rules}
    finished: set[int] = set()
    for head, rules in itertools.groupby(gp.rules, key=attrgetter("head")):
        assert head not in finished, f"rules of {gp.atom_names[head]} are split"
        for rule in rules:
            for code in rule.body:
                atom = abs(code) - 1
                assert atom not in derived or atom in finished, (
                    f"{gp.atom_names[head]} reads {gp.atom_names[atom]} before its rules")
        finished.add(head)
    assert gp.query in finished


class TestWalk:
    """The grounder's one walk from the query on shuffled random programs."""

    @settings(deadline=None, max_examples=80)
    @given(st.integers(0, 2**32 - 1))
    def test_guarded_program_order_and_count(self, seed):
        rng = np.random.default_rng(seed)
        clauses = random_guarded_clauses(rng)
        gp = ground(parse("\n".join(rng.permutation(clauses))))
        assert_evaluation_order(gp)
        assert CompiledQuery(gp).n_satisfying == satisfying_count(gp)

    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 2**32 - 1))
    def test_shuffled_oracle_program_probability(self, seed):
        rng = np.random.default_rng(seed)
        program, op = random_program(rng, max_facts=6, max_rules=8)
        shuffled = dataclasses.replace(
            program, clauses=tuple(program.clauses[i]
                                   for i in rng.permutation(len(program.clauses))))
        gp = ground(shuffled)
        assert_evaluation_order(gp)
        assert exact_probability(gp) == pytest.approx(oracle_probability(op), abs=1e-12)
