"""Markov Logic Network facade.

:class:`MarkovLogicNetwork` ties together the rule language, the evidence
database builder, the grounder, the ground network and MAP inference behind a
small API:

* :meth:`ground` — build the ground network for an entity store,
* :meth:`map_state` — MAP match set given evidence,
* :meth:`score` / :meth:`score_delta` — world scoring for MMP step 7.

This is the object the :class:`repro.matchers.mln_matcher.MLNMatcher` wraps
into the framework's black-box matcher protocol.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Optional, Sequence

from ..datamodel import EntityPair, EntityStore
from .database import EvidenceDatabase, database_from_store
from .grounding import Grounder, GroundRule
from .inference import GreedyCollectiveInference, InferenceResult, exhaustive_map
from .logic import RuleSet, paper_author_rules
from .network import GroundNetwork


class MarkovLogicNetwork:
    """A weighted first-order rule program with grounding and MAP inference."""

    def __init__(self, rules: Optional[RuleSet] = None,
                 inference: Optional[GreedyCollectiveInference] = None,
                 coauthor_relation: str = "coauthor",
                 extra_relations: Sequence[str] = ()):
        self.rules = rules if rules is not None else paper_author_rules()
        self.inference = inference if inference is not None else GreedyCollectiveInference()
        self.coauthor_relation = coauthor_relation
        self.extra_relations = tuple(extra_relations)
        self._grounder = Grounder(self.rules)

    # ------------------------------------------------------------- grounding
    def build_database(self, store: EntityStore) -> EvidenceDatabase:
        """The evidence database for ``store``: only the facts the rules read."""
        return database_from_store(
            store,
            coauthor_relation=self.coauthor_relation,
            extra_relations=self.extra_relations,
            signatures=self._grounder.signatures,
        )

    def ground(self, store: EntityStore) -> GroundNetwork:
        """Ground the rule program against ``store``."""
        database = self.build_database(store)
        groundings = self._grounder.ground(database)
        return GroundNetwork(groundings, database.candidates())

    # ------------------------------------------------------------- inference
    def map_state(self, store: EntityStore,
                  positive: Iterable[EntityPair] = (),
                  negative: Iterable[EntityPair] = (),
                  network: Optional[GroundNetwork] = None) -> InferenceResult:
        """MAP match set of ``store`` under the given evidence."""
        net = network if network is not None else self.ground(store)
        return self.inference.infer(net, fixed_true=positive, fixed_false=negative)

    def exhaustive_map_state(self, store: EntityStore,
                             positive: Iterable[EntityPair] = (),
                             negative: Iterable[EntityPair] = (),
                             max_candidates: int = 18) -> InferenceResult:
        """Exact MAP by enumeration — only for tiny instances (tests, examples)."""
        net = self.ground(store)
        return exhaustive_map(net, fixed_true=positive, fixed_false=negative,
                              max_candidates=max_candidates)

    # --------------------------------------------------------------- scoring
    def score(self, store: EntityStore, matches: Iterable[EntityPair],
              network: Optional[GroundNetwork] = None) -> float:
        """Score (unnormalised log-probability) of a match set over ``store``."""
        net = network if network is not None else self.ground(store)
        return net.score(matches)

    def score_delta(self, store: EntityStore, base: Iterable[EntityPair],
                    added: Iterable[EntityPair],
                    network: Optional[GroundNetwork] = None) -> float:
        """Score change of adding ``added`` on top of ``base``.

        This is the quantity MMP's step 7 compares against zero:
        ``P(M+ ∪ M) ≥ P(M+)`` holds iff the delta is ≥ 0.
        """
        net = network if network is not None else self.ground(store)
        return net.delta(added, base)

    # ----------------------------------------------------------------- admin
    def weights(self) -> Dict[str, float]:
        return self.rules.weights()

    def with_weights(self, weights: Dict[str, float]) -> "MarkovLogicNetwork":
        """A copy of this MLN with new rule weights (used after learning)."""
        return MarkovLogicNetwork(
            rules=self.rules.with_weights(weights),
            inference=self.inference,
            coauthor_relation=self.coauthor_relation,
            extra_relations=self.extra_relations,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MarkovLogicNetwork(rules={self.rules.names()})"
