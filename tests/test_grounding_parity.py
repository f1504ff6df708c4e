"""Parity of the planned grounding join with the nested-loop reference.

:class:`repro.mln.Grounder` joins each rule through a compiled plan that
treats ``equals`` atoms as relations over candidate pairs;
:class:`repro.reference.ReferenceGrounder` is the nested-loop join it
replaced.  The two must give identical grounding *sets* on arbitrary rule
sets and stores, and identical match sets through every scheme, store
backend and executor.  The plan's cost is checked by counting bindings, not
by timing.

``REPRO_PARITY_EXAMPLES`` raises the Hypothesis example budget (CI runs this
module with a larger one than the default tier-1 run).
"""

import os
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import EMFramework
from repro.datamodel import EntityPair
from repro.datasets import dblp_like
from repro.exceptions import InferenceError
from repro.matchers import MLNMatcher
from repro.mln import (
    EvidenceDatabase,
    Grounder,
    MarkovLogicNetwork,
    Rule,
    RuleSet,
    atom,
    const,
    database_from_store,
    paper_author_rules,
    section2_example_rules,
)
from repro.obs import registry as obs_registry
from repro.reference import ReferenceGrounder

EXAMPLES = int(os.environ.get("REPRO_PARITY_EXAMPLES", "150"))

# "3" is an entity id that prints like the integer fact value 3.
ENTITIES = ["a", "b", "c", "3"]
FACT_VALUES = ENTITIES + [2, 3]
SIGNATURES = [("similar", 2), ("similar", 3), ("coauthor", 2)]
VARIABLES = ["x", "y", "z", "w"]
CONSTANTS = [const("a"), const("3"), const(2), const(3)]


def assert_same_groundings(rules, database):
    planned = Grounder(rules).ground(database)
    expected = ReferenceGrounder(rules).ground(database)
    assert len(planned) == len(set(planned)), "the plan emitted a duplicate"
    assert set(planned) == set(expected)
    return planned


# ------------------------------------------------------------- strategies
@st.composite
def databases(draw):
    database = EvidenceDatabase()
    for predicate, arity in SIGNATURES:
        facts = draw(st.lists(
            st.tuples(*[st.sampled_from(FACT_VALUES)] * arity),
            min_size=2, max_size=12))
        for fact in facts:
            database.add_fact(predicate, *fact)
    candidates = draw(st.lists(
        st.sampled_from(list(combinations(ENTITIES, 2))), min_size=1, max_size=6))
    for first, second in candidates:
        database.add_candidate(EntityPair.of(first, second))
    return database


# Mostly variables: a constant rarely matches a random fact.
terms = st.sampled_from(VARIABLES * 3 + CONSTANTS)


@st.composite
def rules(draw, name):
    evidence = [atom(predicate, *draw(st.lists(terms, min_size=arity,
                                               max_size=arity)))
                for predicate, arity in draw(st.lists(
                    st.sampled_from(SIGNATURES), min_size=1, max_size=3))]
    queries = [atom("equals", *draw(st.lists(terms, min_size=2, max_size=2)))
               for _ in range(draw(st.integers(0, 2)))]
    body = evidence + queries
    variables = sorted({t.name for body_atom in body
                        for t in body_atom.variables()})
    head_terms = st.sampled_from(variables * 3 + CONSTANTS)
    head = atom("equals", *draw(st.lists(head_terms, min_size=2, max_size=2,
                                         unique=True)))
    return Rule(name, tuple(body), head, draw(st.sampled_from([-1.5, 2.0])))


@st.composite
def rule_sets(draw):
    count = draw(st.integers(1, 3))
    return RuleSet(draw(rules(f"r{index}")) for index in range(count))


# ------------------------------------------------------- grounding parity
class TestGroundingSetParity:
    @settings(max_examples=EXAMPLES, deadline=None)
    @given(rule_set=rule_sets(), database=databases())
    def test_random_rules_random_stores(self, rule_set, database):
        assert_same_groundings(rule_set, database)

    @settings(max_examples=max(1, EXAMPLES // 3), deadline=None)
    @given(database=databases())
    def test_builtin_rule_sets_random_stores(self, database):
        assert_same_groundings(paper_author_rules(), database)
        assert_same_groundings(section2_example_rules(), database)

    # Each shape the random rules may hit only by chance, pinned down.
    SHAPES = {
        "constants": ((atom("similar", "x", "y", 3), atom("coauthor", "x", const("a"))),
                      atom("equals", "x", "y")),
        "constant_in_equals": ((atom("coauthor", "x", "y"), atom("equals", "y", const("b"))),
                               atom("equals", "x", const("3"))),
        "reflexive_equals": ((atom("coauthor", "x", "c"), atom("coauthor", "y", "c"),
                              atom("equals", "c", "c")),
                             atom("equals", "x", "y")),
        "int_arguments": ((atom("similar", "x", "y", "l"), atom("equals", "l", "z")),
                          atom("equals", "x", "z")),
        "repeated_variables": ((atom("similar", "x", "y", "x"), atom("coauthor", "y", "y")),
                               atom("equals", "x", "y")),
        "head_bound_through_body_equals": ((atom("similar", "x", "y"), atom("equals", "y", "z")),
                                           atom("equals", "x", "z")),
        "two_arities": ((atom("similar", "x", "y"), atom("similar", "x", "y", "l")),
                        atom("equals", "x", "y")),
        "equals_only_body": ((atom("equals", "x", "y"), atom("equals", "y", "z")),
                             atom("equals", "x", "z")),
    }

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_rule_shapes(self, shape):
        body, head = self.SHAPES[shape]
        rule_set = RuleSet([Rule(shape, body, head, 1.0)])
        database = EvidenceDatabase()
        for fact in [("a", "b"), ("b", "a"), ("b", "c"), ("c", "3"), ("3", "3"), ("d", "a")]:
            database.add_fact("coauthor", *fact)
            database.add_fact("similar", *fact)
        for fact in [("a", "b", 3), ("b", "a", 3), ("c", "3", 2), ("3", "c", 3),
                     ("a", "d", "a"), ("a", "3", "a"), (3, "b", 3), ("b", "b", "b")]:
            database.add_fact("similar", *fact)
        for first, second in [("a", "b"), ("b", "c"), ("c", "3"), ("a", "3"), ("a", "d")]:
            database.add_candidate(EntityPair.of(first, second))
        assert assert_same_groundings(rule_set, database)

    def test_int_fact_value_joined_twice_through_equals(self):
        # The head binds x and l as strings; similar(x, y, l) must still
        # match the integer level 3 at l's position (entity "3").
        rule_set = RuleSet([Rule("r", (atom("similar", "x", "y", "l"),),
                                 atom("equals", "x", "l"), 1.0)])
        database = EvidenceDatabase()
        database.add_fact("similar", "a", "b", 3)
        database.add_candidate(EntityPair.of("a", "3"))
        assert len(assert_same_groundings(rule_set, database)) == 1

    def test_int_fact_value_matched_again_for_each_outer_binding(self):
        # l is bound by the head and matched inside the loop over y; the
        # integer 3 it matches once must not replace "3" for the next y.
        rule_set = RuleSet([Rule("r", (
            atom("coauthor", "x", "y"), atom("similar", "l", "w"),
            atom("equals", "y", "w")), atom("equals", "x", "l"), 1.0)])
        database = EvidenceDatabase()
        for fact in [("c", "a"), ("c", "b")]:
            database.add_fact("coauthor", *fact)
        for fact in [("3", "d"), (3, "e")]:
            database.add_fact("similar", *fact)
        for first, second in [("c", "3"), ("a", "d"), ("b", "d"), ("a", "e"), ("b", "e")]:
            database.add_candidate(EntityPair.of(first, second))
        assert len(assert_same_groundings(rule_set, database)) == 4

    def test_non_binary_query_atom_raises_the_same_error(self):
        rule_set = RuleSet([Rule("ternary", (atom("coauthor", "x", "y"),),
                                 atom("equals", "x", "y", "x"), 1.0)])
        database = EvidenceDatabase()
        database.add_fact("coauthor", "a", "b")
        with pytest.raises(InferenceError) as planned:
            Grounder(rule_set).ground(database)
        with pytest.raises(InferenceError) as expected:
            ReferenceGrounder(rule_set).ground(database)
        assert str(planned.value) == str(expected.value)

    def test_output_is_sorted_and_repeatable(self):
        database = database_from_store(dblp_like(0.125, seed=4).store)
        grounder = Grounder(paper_author_rules())
        first = grounder.ground(database)
        assert first == grounder.ground(database)
        for name in paper_author_rules().names():
            keys = [(g.head_pair, sorted(g.body_pairs))
                    for g in first if g.rule_name == name]
            assert keys == sorted(keys)


# ------------------------------------------------------- evidence built
class TestEvidenceBuild:
    def test_only_the_signatures_the_rules_read(self):
        store = dblp_like(0.125, seed=2).store
        full = database_from_store(store)
        paper = MarkovLogicNetwork(rules=paper_author_rules()).build_database(store)
        section2 = MarkovLogicNetwork(rules=section2_example_rules()).build_database(store)
        for database, kept, dropped in ((paper, 3, 2), (section2, 2, 3)):
            assert database.relation("similar", kept) == full.relation("similar", kept)
            assert not database.relation("similar", dropped)
            assert database.relation("coauthor", 2) == full.relation("coauthor", 2)
            assert database.candidates() == full.candidates()

    def test_grounding_unchanged_by_the_narrower_database(self):
        store = dblp_like(0.125, seed=2).store
        mln = MarkovLogicNetwork()
        narrow = Grounder(mln.rules).ground(mln.build_database(store))
        full = Grounder(mln.rules).ground(database_from_store(store))
        assert narrow == full


# ---------------------------------------------------------- cost guard
class TestJoinCost:
    def test_coauthor_rule_explores_under_one_percent_of_the_cross_product(self):
        store = dblp_like(1.0, seed=1).store
        mln = MarkovLogicNetwork()
        database = mln.build_database(store)
        coauthor_facts = len(database.relation("coauthor", 2))
        assert coauthor_facts == 1582
        bindings = obs_registry.registry().get("mln_bindings_total")
        kept = obs_registry.registry().get("mln_groundings_total")
        bindings_before = bindings.value(rule="coauthor")
        kept_before = kept.value(rule="coauthor")
        groundings = Grounder(mln.rules).ground(database)
        explored = bindings.value(rule="coauthor") - bindings_before
        produced = kept.value(rule="coauthor") - kept_before
        # The reference join builds the whole (2·|coauthor|)² cross product.
        assert explored < 0.01 * coauthor_facts ** 2
        assert produced == sum(1 for g in groundings if g.rule_name == "coauthor")
        assert 0 < produced <= explored

    def test_counters_tick_once_per_rule_per_call(self):
        database = database_from_store(dblp_like(0.125, seed=3).store)
        grounder = Grounder(section2_example_rules())
        kept = obs_registry.registry().get("mln_groundings_total")
        before = {name: kept.value(rule=name) for name in ("R1", "R2")}
        groundings = grounder.ground(database)
        for name in ("R1", "R2"):
            assert kept.value(rule=name) - before[name] == \
                sum(1 for g in groundings if g.rule_name == name)


# ------------------------------------------------------- match-set parity
def reference_matcher() -> MLNMatcher:
    """An MLN matcher whose networks come from the nested-loop reference."""
    matcher = MLNMatcher()
    matcher.mln._grounder = ReferenceGrounder(matcher.mln.rules)
    return matcher


@pytest.mark.parametrize("dataset_name", ["dblp_dataset", "hepth_dataset"])
@pytest.mark.parametrize("scheme", ["no-mp", "smp", "mmp"])
def test_match_sets_identical_across_backends_and_executors(
        request, dataset_name, scheme):
    dataset = request.getfixturevalue(dataset_name)
    cover_name = dataset_name.replace("dataset", "cover")
    cover = request.getfixturevalue(cover_name)
    expected = EMFramework(reference_matcher(), dataset.store,
                           cover=cover).run(scheme).matches
    assert expected
    for backend in ("dict", "compact"):
        framework = EMFramework(MLNMatcher(), dataset.store, cover=cover,
                                store_backend=backend)
        assert framework.run(scheme).matches == expected
        grid = framework.run_grid(scheme, executor="processes", workers=2)
        assert grid.matches == expected
    reference_grid = EMFramework(reference_matcher(), dataset.store, cover=cover,
                                 store_backend="compact").run_grid(
        scheme, executor="processes", workers=2)
    assert reference_grid.matches == expected
