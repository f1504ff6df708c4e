"""Grounding: instantiate first-order rules against an evidence database.

A *grounding* of a rule binds every variable to an entity id (or constant)
such that all *evidence* atoms in the body hold in the database.  What is left
of the grounding is its query part:

* ``head_pair`` — the ``equals`` pair the rule concludes,
* ``body_pairs`` — the ``equals`` pairs the body still requires.

Scoring follows the paper's exposition (Section 2.1): a ground rule
*fires* — and contributes its weight — exactly when its remaining body pairs
and its head pair are all in the current match set.  Reflexive ``equals``
atoms (same entity on both sides) are always true and are dropped;
groundings whose head or body requires a pair that is not a candidate match
can never fire and are skipped.  Groundings that map to the same
``(rule, head_pair, body_pairs)`` triple are de-duplicated, which matches the
paper's arithmetic in the worked example (each supporting coauthor pair is
counted once).

This "fires" semantics is supermodular and monotone because all the mass a
match set can gain or lose by adding one more pair comes from groundings in
which that pair participates positively.

**Join plan.**  Since a grounding whose ``equals`` atom is not a candidate
pair (or reflexive) can never fire, the ``equals`` atoms join as relations
over the candidate pairs: the head over the candidates only, a body atom over
the candidates plus the reflexive pairs.  The filter above would discard
every binding outside those relations, so restricting the join to them
leaves the set of groundings unchanged — and for the paper's coauthor rule
it replaces the ``|coauthor|²`` cross product by a walk out from each
candidate pair.  Each rule is compiled once into a
:class:`~repro.mln.plan.RulePlan`; groundings come out sorted, rule by rule.
Each rule's complete bindings (before the filter) and kept groundings are
counted in the registry as ``mln_bindings_total{rule=}`` and
``mln_groundings_total{rule=}``.  The nested-loop join this replaces is kept
as :class:`repro.reference.ReferenceGrounder` for the parity tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List

from ..datamodel import EntityPair
from ..exceptions import InferenceError
from .database import EvidenceDatabase
from .logic import Atom, Constant, Rule, RuleSet


@dataclass(frozen=True)
class GroundRule:
    """A grounded rule: fires when ``body_pairs ⊆ M`` and ``head_pair ∈ M``."""

    rule_name: str
    weight: float
    head_pair: EntityPair
    body_pairs: FrozenSet[EntityPair]

    def fires(self, matches: FrozenSet[EntityPair]) -> bool:
        """Whether the grounding contributes its weight under match set ``matches``."""
        return self.head_pair in matches and self.body_pairs <= matches

    def pairs(self) -> FrozenSet[EntityPair]:
        """All query pairs this grounding depends on."""
        return self.body_pairs | {self.head_pair}


def check_query_atom(atom_: Atom) -> None:
    """Raise :class:`InferenceError` unless ``atom_`` is binary."""
    if len(atom_.terms) != 2:
        raise InferenceError(
            f"query atom {atom_!r} must be binary, got arity {len(atom_.terms)}"
        )


def active_domain(rule: Rule, database: EvidenceDatabase) -> List[str]:
    """What a variable only ``equals`` atoms mention ranges over: every fact
    value, candidate entity and constant of ``rule``, as strings, sorted."""
    constants = {str(term.value) for body_atom in (*rule.body, rule.head)
                 for term in body_atom.terms if isinstance(term, Constant)}
    return sorted(set(database.domain()) | constants)


class Grounder:
    """Grounds a :class:`RuleSet` against an :class:`EvidenceDatabase`.

    Each rule's join plan is compiled once, here; a rule with a non-binary
    ``equals`` atom raises :class:`InferenceError`.  A pickled grounder
    carries only its rules and recompiles the plans when loaded.
    """

    def __init__(self, rules: RuleSet):
        from .plan import RulePlan  # compiled on first use, not on import

        self.rules = rules
        #: The ``(predicate, arity)`` pairs the rules read.
        self.signatures = rules.evidence_signatures()
        self._plans = [RulePlan(rule) for rule in rules]

    def __getstate__(self):
        return {"rules": self.rules}

    def __setstate__(self, state) -> None:
        self.__init__(state["rules"])

    def ground(self, database: EvidenceDatabase) -> List[GroundRule]:
        """Ground every rule of the rule set."""
        groundings: List[GroundRule] = []
        for plan in self._plans:
            groundings.extend(plan.ground(database))
        return groundings
