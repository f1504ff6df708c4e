"""Evidence database: the ground facts a rule set is grounded against.

The database holds, per evidence predicate and arity, the set of ground
tuples that are true (closed-world: everything not listed is false), plus the
set of *candidate query pairs* — the entity pairs for which an ``equals``
ground atom exists at all.  Restricting the query atoms to candidate pairs is
what keeps the ground network small (the paper's "1.3M matching decisions"
are exactly the candidate pairs produced by the cover) and mirrors how
practical MLN matchers are deployed.

Facts are indexed per ``(predicate, arity)`` and argument position (built
the first time a position is probed), and the candidate pairs double as an
adjacency from each entity to its candidate partners; the grounder's join
plan reads both directly.
"""

from __future__ import annotations

from typing import (AbstractSet, Collection, Dict, FrozenSet, List, Mapping, Optional,
                    Sequence, Set, Tuple, Union)

from ..datamodel import COAUTHOR, EntityPair, EntityStore

GroundValue = Union[str, int]
GroundTuple = Tuple[GroundValue, ...]
#: ``(predicate, arity)`` — facts of one predicate may come in several arities.
Signature = Tuple[str, int]

_NO_FACTS: FrozenSet[GroundTuple] = frozenset()


class EvidenceDatabase:
    """Ground evidence facts plus the candidate ``equals`` pairs."""

    def __init__(self) -> None:
        self._facts: Dict[Signature, Set[GroundTuple]] = {}
        # Per-signature, per-position index: position -> value -> tuples.
        # A position is indexed when first probed; most never are.
        self._index: Dict[Signature, Dict[int, Dict[GroundValue, List[GroundTuple]]]] = {}
        # str(value) -> the non-string fact values that print as it.  Query
        # atoms compare their arguments as strings, so an ``equals`` atom
        # relating entity "3" also relates the integer fact value 3.
        self._aliases: Dict[str, Set[GroundValue]] = {}
        self._candidates: Set[EntityPair] = set()
        # entity id -> its candidate partners (built with _candidates).
        self._partners: Dict[str, Set[str]] = {}

    # ----------------------------------------------------------------- facts
    def add_fact(self, predicate: str, *values: GroundValue) -> None:
        """Assert a ground evidence fact."""
        tup = tuple(values)
        signature = (predicate, len(tup))
        facts = self._facts.get(signature)
        if facts is None:
            facts = self._facts[signature] = set()
        elif tup in facts:
            return
        facts.add(tup)
        for value in tup:
            if value.__class__ is not str:
                self._aliases.setdefault(str(value), set()).add(value)
        for position, position_index in self._index.get(signature, {}).items():
            position_index.setdefault(tup[position], []).append(tup)

    def facts(self, predicate: str) -> FrozenSet[GroundTuple]:
        """Every fact of ``predicate``, of any arity."""
        found: Set[GroundTuple] = set()
        for (name, _), facts in self._facts.items():
            if name == predicate:
                found |= facts
        return frozenset(found)

    def holds(self, predicate: str, *values: GroundValue) -> bool:
        return tuple(values) in self._facts.get((predicate, len(values)), _NO_FACTS)

    def predicates(self) -> List[str]:
        return sorted({name for name, _ in self._facts})

    def lookup(self, predicate: str,
               bound: Dict[int, GroundValue]) -> FrozenSet[GroundTuple]:
        """Tuples of ``predicate`` (any arity) matching the bound positions.

        ``bound`` maps argument position → required value.  Returns a fresh
        frozenset; the join plan reads :meth:`relation` and
        :meth:`position_index` instead, which copy nothing.
        """
        found: Set[GroundTuple] = set()
        for (name, arity), facts in self._facts.items():
            if name != predicate or any(position >= arity for position in bound):
                continue
            buckets = [self.position_index(name, arity, position).get(value)
                       for position, value in bound.items()]
            if not all(buckets):
                continue
            if not buckets:
                found |= facts
                continue
            buckets.sort(key=len)
            found |= set(buckets[0]).intersection(*buckets[1:])
        return frozenset(found)

    # ------------------------------------------------- join-plan access paths
    # Shared containers, never copied — callers must not mutate them.
    def relation(self, predicate: str, arity: int) -> AbstractSet[GroundTuple]:
        """The facts of ``predicate`` with exactly ``arity`` arguments."""
        return self._facts.get((predicate, arity), _NO_FACTS)

    def position_index(self, predicate: str, arity: int,
                       position: int) -> Mapping[GroundValue, Sequence[GroundTuple]]:
        """value -> facts of ``(predicate, arity)`` holding it at ``position``."""
        indexes = self._index.setdefault((predicate, arity), {})
        index = indexes.get(position)
        if index is None:
            index = indexes[position] = {}
            for tup in self._facts.get((predicate, arity), ()):
                bucket = index.get(tup[position])
                if bucket is None:
                    index[tup[position]] = [tup]
                else:
                    bucket.append(tup)
        return index

    def aliases(self) -> Mapping[str, AbstractSet[GroundValue]]:
        """str(value) -> the non-string fact values that print as it."""
        return self._aliases

    def partners(self) -> Mapping[str, AbstractSet[str]]:
        """entity id -> ids it forms a candidate pair with."""
        return self._partners

    def domain(self) -> List[str]:
        """The active domain: every fact value and candidate entity, as strings."""
        values = set(self._partners)
        for facts in self._facts.values():
            for tup in facts:
                values.update(str(value) for value in tup)
        return sorted(values)

    # ------------------------------------------------------------ candidates
    def add_candidate(self, pair: EntityPair) -> None:
        """Register an entity pair as a possible match decision."""
        self._candidates.add(pair)
        self._partners.setdefault(pair.first, set()).add(pair.second)
        self._partners.setdefault(pair.second, set()).add(pair.first)

    def candidates(self) -> FrozenSet[EntityPair]:
        return frozenset(self._candidates)

    def is_candidate(self, pair: EntityPair) -> bool:
        return pair in self._candidates

    # ----------------------------------------------------------------- stats
    def stats(self) -> Dict[str, int]:
        return {
            "predicates": len(self.predicates()),
            "facts": sum(len(f) for f in self._facts.values()),
            "candidate_pairs": len(self._candidates),
        }


def database_from_store(store: EntityStore,
                        coauthor_relation: str = COAUTHOR,
                        extra_relations: Sequence[str] = (),
                        signatures: Optional[Collection[Signature]] = None
                        ) -> EvidenceDatabase:
    """Build an :class:`EvidenceDatabase` from an :class:`EntityStore`.

    * Every similarity edge of the store with level ``s`` produces the facts
      ``similar(a, b, s)`` and ``similar(b, a, s)`` (rules treat the predicate
      as symmetric by grounding both orders), plus a level-free
      ``similar(a, b)`` fact in both orders, used by the Section-2 example
      rules.
    * The coauthor relation (and any ``extra_relations``) produce symmetric
      binary facts under their relation name.
    * Every similarity edge also registers its pair as a candidate match.

    ``signatures`` limits the facts to those ``(predicate, arity)`` pairs —
    the ones a rule set reads (:meth:`RuleSet.evidence_signatures`).  The
    candidate pairs are always registered.
    """
    def wanted(predicate: str, arity: int) -> bool:
        return signatures is None or (predicate, arity) in signatures

    leveled, levelless = wanted("similar", 3), wanted("similar", 2)
    db = EvidenceDatabase()
    for edge in store.similarity_edges():
        a, b = edge.pair.first, edge.pair.second
        if leveled:
            db.add_fact("similar", a, b, edge.level)
            db.add_fact("similar", b, a, edge.level)
        if levelless:
            db.add_fact("similar", a, b)
            db.add_fact("similar", b, a)
        db.add_candidate(edge.pair)

    relation_names = [coauthor_relation, *extra_relations]
    for name in relation_names:
        if not store.has_relation(name):
            continue
        relation = store.relation(name)
        if not wanted(name, relation.arity):
            continue
        for tup in relation:
            db.add_fact(name, *tup)
            if relation.arity == 2:
                db.add_fact(name, tup[1], tup[0])
    return db
