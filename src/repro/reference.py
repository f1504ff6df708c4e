"""Reference implementations kept only to prove the fast paths equal.

Nothing in the library imports this module; the parity tests do.  Each
reference is the straightforward algorithm a production path replaced, kept
verbatim where possible so that "same output" always has a fixed meaning.

* :class:`ReferenceGrounder` — the nested-loop grounding join that
  :class:`repro.mln.grounding.Grounder`'s join plan replaced.  It extends
  bindings one evidence atom at a time (the full ``|coauthor|²`` cross
  product for the paper's coauthor rule) and only then checks the
  ``equals`` atoms.
"""

from __future__ import annotations

from itertools import product
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from .datamodel import EntityPair
from .mln.database import EvidenceDatabase, GroundValue
from .mln.grounding import GroundRule, active_domain, check_query_atom
from .mln.logic import Atom, Constant, Rule, RuleSet, Variable


class ReferenceGrounder:
    """Nested-loop grounding: join every evidence atom, then filter.

    One extension over the join it preserves: a variable that no evidence
    atom binds (it appears only in ``equals`` atoms) is enumerated over the
    rule's active domain — every fact value, candidate entity and rule
    constant, as strings — where the old loop raised ``KeyError``.
    """

    def __init__(self, rules: RuleSet):
        self.rules = rules
        #: Read by :meth:`MarkovLogicNetwork.build_database`: ``None`` builds
        #: every evidence fact, as before the database kept only what the
        #: rules read.
        self.signatures = None

    # ------------------------------------------------------------- bindings
    @staticmethod
    def _extend_bindings(bindings: List[Dict[Variable, GroundValue]],
                         atom_: Atom,
                         database: EvidenceDatabase) -> List[Dict[Variable, GroundValue]]:
        """Join one evidence atom into the current set of partial bindings."""
        extended: List[Dict[Variable, GroundValue]] = []
        arity = len(atom_.terms)
        for binding in bindings:
            bound_positions: Dict[int, GroundValue] = {}
            for position, term in enumerate(atom_.terms):
                if isinstance(term, Constant):
                    bound_positions[position] = term.value
                elif term in binding:
                    bound_positions[position] = binding[term]
            for fact in database.lookup(atom_.predicate, bound_positions):
                if len(fact) != arity:
                    continue
                new_binding = dict(binding)
                consistent = True
                for position, term in enumerate(atom_.terms):
                    value = fact[position]
                    if isinstance(term, Constant):
                        if term.value != value:
                            consistent = False
                            break
                    else:
                        existing = new_binding.get(term)
                        if existing is None:
                            new_binding[term] = value
                        elif existing != value:
                            consistent = False
                            break
                if consistent:
                    extended.append(new_binding)
        return extended

    @staticmethod
    def _query_pair(atom_: Atom, binding: Dict[Variable, GroundValue]) -> Optional[EntityPair]:
        """Ground a query atom to an :class:`EntityPair`, or ``None`` when reflexive."""
        check_query_atom(atom_)
        values = atom_.substitute(binding)
        first, second = str(values[0]), str(values[1])
        if first == second:
            return None
        return EntityPair.of(first, second)

    def bindings(self, rule: Rule,
                 database: EvidenceDatabase) -> List[Dict[Variable, GroundValue]]:
        """Every complete binding of ``rule``'s variables, before the filter."""
        bindings: List[Dict[Variable, GroundValue]] = [{}]
        for evidence_atom in rule.evidence_atoms():
            bindings = self._extend_bindings(bindings, evidence_atom, database)
            if not bindings:
                return []
        free = sorted(rule.variables() - set(bindings[0]), key=lambda v: v.name)
        if free:
            domain = active_domain(rule, database)
            bindings = [{**binding, **dict(zip(free, values))}
                        for binding in bindings
                        for values in product(domain, repeat=len(free))]
        return bindings

    # ------------------------------------------------------------- grounding
    def ground_rule(self, rule: Rule, database: EvidenceDatabase) -> List[GroundRule]:
        """All groundings of ``rule`` that can possibly fire."""
        groundings: List[GroundRule] = []
        seen: Set[Tuple[EntityPair, FrozenSet[EntityPair]]] = set()
        for binding in self.bindings(rule, database):
            head_pair = self._query_pair(rule.head, binding)
            if head_pair is None:
                # Reflexive head: always satisfied, constant contribution.
                continue
            if not database.is_candidate(head_pair):
                # The head can never be matched: the grounding can never fire.
                continue
            body_pairs: Set[EntityPair] = set()
            possible = True
            for query_atom in rule.query_atoms():
                pair = self._query_pair(query_atom, binding)
                if pair is None:
                    continue  # reflexive equals in the body is always true
                if not database.is_candidate(pair):
                    possible = False
                    break
                if pair == head_pair:
                    continue  # trivially satisfied together with the head
                body_pairs.add(pair)
            if not possible:
                continue
            key = (head_pair, frozenset(body_pairs))
            if key in seen:
                continue
            seen.add(key)
            groundings.append(GroundRule(
                rule_name=rule.name,
                weight=rule.weight,
                head_pair=head_pair,
                body_pairs=frozenset(body_pairs),
            ))
        return groundings

    def ground(self, database: EvidenceDatabase) -> List[GroundRule]:
        """Ground every rule of the rule set."""
        groundings: List[GroundRule] = []
        for rule in self.rules:
            groundings.extend(self.ground_rule(rule, database))
        return groundings
