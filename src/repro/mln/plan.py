"""Join plans: the compiled form of one rule's grounding.

:class:`RulePlan` turns a rule into an ordered join over the evidence
database (see :mod:`repro.mln.grounding` for why the ``equals`` atoms may
join as relations over candidate pairs).  Atoms are ordered greedily: most
arguments already bound first (constants count as bound), then the smallest
relation, estimated by kind since no database is known at compile time.
Variables get fixed slots in one list, and each step reads the database's
index buckets and candidate adjacency directly.

Query atoms compare their arguments as strings, so a variable an ``equals``
atom binds matches any fact value that prints the same (entity ``"3"`` and
the integer level ``3``).  A variable only ``equals`` atoms mention, with
nothing bound on the other side, ranges over the active domain: every fact
value, candidate entity and rule constant.

:class:`~repro.mln.grounding.Grounder` imports this module when it is first
constructed, which keeps compiling it out of ``import repro``.
"""

from __future__ import annotations

from itertools import product
from typing import Dict, FrozenSet, List, Set, Tuple

from ..datamodel import EntityPair
from ..obs import registry as obs_registry
from .database import EvidenceDatabase
from .grounding import GroundRule, active_domain, check_query_atom
from .logic import Atom, Constant, Rule, Variable

_BINDINGS = obs_registry.counter(
    "mln_bindings_total",
    "Complete bindings the grounding join produced, before the filter",
    labels=("rule",))
_GROUNDINGS = obs_registry.counter(
    "mln_groundings_total",
    "Groundings kept after the filter and de-duplication", labels=("rule",))

# How a step reads one argument.  CONST: a rule constant.  BOUND: a slot an
# earlier step filled with a fact value (exact match).  LOOSE: a slot an
# equals step filled with a string; the fact value must print as it and
# replaces it.  NEW: first sight of a variable, written into its slot.  SAME:
# a later argument of the same step repeating a variable written by it.
_CONST, _BOUND, _LOOSE, _NEW, _SAME = range(5)

# The tie-break after bound arguments: the smaller relation, estimated by
# kind.  The head relation holds the candidate pairs and a body equals
# relation the same pairs plus one reflexive pair per domain value.
# Evidence relations go between them: walking one binds exact fact values,
# not strings.
_HEAD, _EVIDENCE, _BODY_EQUALS = range(3)


class _EvidenceStep:
    """Join one evidence atom.

    ``member``: ``(kind, arg)`` per position when every argument is known
    before the step (a membership test), else ``None``.  ``probe``:
    ``(position, kind, arg)`` whose index bucket the step walks, or ``None``
    to walk every fact.  ``checks``: ``(position, kind, arg)`` for every
    other position, in order.  ``loose``: ``(position, slot)`` of the LOOSE
    arguments; the step turns their slots BOUND and restores them after it.
    """

    __slots__ = ("predicate", "arity", "member", "probe", "checks", "loose")

    def __init__(self, predicate, arity, member, probe, checks, loose):
        self.predicate, self.arity = predicate, arity
        self.member, self.probe, self.checks, self.loose = member, probe, checks, loose


class _EqualsStep:
    """Join one ``equals`` atom; each side is ``(kind, arg)`` with kind
    CONST (a string), BOUND (a slot) or NEW (a slot)."""

    __slots__ = ("head", "left", "right")

    def __init__(self, head, left, right):
        self.head, self.left, self.right = head, left, right


def _bound_arguments(atom_: Atom, slots: Dict[Variable, int]) -> int:
    return sum(1 for term in atom_.terms
               if isinstance(term, Constant) or term in slots)


class RulePlan:
    """One rule compiled to an ordered join over fixed variable slots."""

    def __init__(self, rule: Rule):
        check_query_atom(rule.head)
        for query_atom in rule.query_atoms():
            check_query_atom(query_atom)
        self.rule = rule
        slots: Dict[Variable, int] = {}
        loose: Set[Variable] = set()
        atoms = [(_EVIDENCE, position, body_atom)
                 for position, body_atom in enumerate(rule.evidence_atoms())]
        atoms += [(_BODY_EQUALS, position, query_atom)
                  for position, query_atom in enumerate(rule.query_atoms())]
        atoms.append((_HEAD, 0, rule.head))
        steps = []
        while atoms:
            pick = min(atoms, key=lambda entry: (
                -_bound_arguments(entry[2], slots), entry[0], entry[1]))
            atoms.remove(pick)
            kind, _, atom_ = pick
            if kind == _EVIDENCE:
                steps.append(self._evidence_step(atom_, slots, loose))
            else:
                steps.append(self._equals_step(atom_, kind == _HEAD, slots, loose))
        self.steps: Tuple[object, ...] = tuple(steps)
        self.slot_count = len(slots)
        self.head_terms = self._leaf_terms(rule.head, slots)
        self.body_terms = tuple(self._leaf_terms(query_atom, slots)
                                for query_atom in rule.query_atoms())

    # ------------------------------------------------------------ compiling
    @staticmethod
    def _evidence_step(atom_: Atom, slots: Dict[Variable, int],
                       loose: Set[Variable]) -> _EvidenceStep:
        descriptors: List[Tuple[int, object]] = []
        seen: Set[Variable] = set()
        for term in atom_.terms:
            if isinstance(term, Constant):
                descriptors.append((_CONST, term.value))
                continue
            if term in seen:
                descriptors.append((_SAME, slots[term]))
            elif term in loose:
                descriptors.append((_LOOSE, slots[term]))
            elif term in slots:
                descriptors.append((_BOUND, slots[term]))
            else:
                slots[term] = len(slots)
                descriptors.append((_NEW, slots[term]))
            seen.add(term)
        loose -= seen
        known = all(kind in (_CONST, _BOUND, _LOOSE) for kind, _ in descriptors)
        probe = None
        for wanted in (_BOUND, _LOOSE, _CONST):
            probe = next(((position, kind, arg)
                          for position, (kind, arg) in enumerate(descriptors)
                          if kind == wanted), None)
            if probe is not None:
                break
        return _EvidenceStep(
            atom_.predicate, len(atom_.terms),
            member=tuple(descriptors) if known else None,
            probe=probe,
            checks=tuple((position, kind, arg)
                         for position, (kind, arg) in enumerate(descriptors)
                         if probe is None or position != probe[0]),
            loose=tuple((position, arg)
                        for position, (kind, arg) in enumerate(descriptors)
                        if kind == _LOOSE))

    @staticmethod
    def _equals_step(atom_: Atom, head: bool, slots: Dict[Variable, int],
                     loose: Set[Variable]) -> _EqualsStep:
        sides = []
        fresh: Set[Variable] = set()
        for term in atom_.terms:
            if isinstance(term, Constant):
                sides.append((_CONST, str(term.value)))
            elif term in slots and term not in fresh:
                sides.append((_BOUND, slots[term]))
            else:
                slots.setdefault(term, len(slots))
                fresh.add(term)
                loose.add(term)
                sides.append((_NEW, slots[term]))
        return _EqualsStep(head, sides[0], sides[1])

    @staticmethod
    def _leaf_terms(atom_: Atom, slots: Dict[Variable, int]):
        """Per argument: ``(CONST, string)`` or ``(BOUND, slot)``."""
        return tuple((_CONST, str(term.value)) if isinstance(term, Constant)
                     else (_BOUND, slots[term]) for term in atom_.terms)

    # -------------------------------------------------------------- running
    def ground(self, database: EvidenceDatabase) -> List[GroundRule]:
        """All groundings of the rule that can possibly fire, sorted."""
        steps = self.steps
        last = len(steps)
        slots: List[object] = [None] * self.slot_count
        partners = database.partners()
        aliases = database.aliases()
        no_partners: FrozenSet[str] = frozenset()
        # Access paths resolved once per call: facts and probed index.
        facts_at = [None] * last
        index_at = [None] * last
        for depth, step in enumerate(steps):
            if step.__class__ is _EvidenceStep:
                facts_at[depth] = database.relation(step.predicate, step.arity)
                if step.probe is not None:
                    index_at[depth] = database.position_index(
                        step.predicate, step.arity, step.probe[0])
        domain: List[str] = []  # filled on first use; most rules never need it
        head_terms, body_terms = self.head_terms, self.body_terms
        keys: Set[Tuple[Tuple[str, str], Tuple[Tuple[str, str], ...]]] = set()
        bindings = 0

        def text(side) -> str:
            kind, arg = side
            return arg if kind == _CONST else str(slots[arg])

        def emit() -> None:
            # The post-join filter: drop reflexive heads and non-candidate
            # pairs, then de-duplicate on (head, body).
            nonlocal bindings
            bindings += 1
            first, second = text(head_terms[0]), text(head_terms[1])
            if first == second or second not in partners.get(first, no_partners):
                return
            head = (first, second) if first < second else (second, first)
            body = set()
            for left_term, right_term in body_terms:
                left, right = text(left_term), text(right_term)
                if left == right:
                    continue
                if right not in partners.get(left, no_partners):
                    return
                pair = (left, right) if left < right else (right, left)
                if pair != head:
                    body.add(pair)
            keys.add((head, tuple(sorted(body))))

        def equals(step: _EqualsStep, down: int) -> None:
            (left_kind, left_arg), (right_kind, right_arg) = step.left, step.right
            if left_kind != _NEW and right_kind != _NEW:
                left, right = text(step.left), text(step.right)
                if (right in partners.get(left, no_partners)
                        or (not step.head and left == right)):
                    extend(down)
                return
            if left_kind == _NEW and right_kind == _NEW:
                if not step.head and not domain:
                    domain.extend(active_domain(self.rule, database))
                pairs = [] if left_arg == right_arg else [
                    (first, second) for first, seconds in partners.items()
                    for second in seconds]
                if not step.head:
                    pairs.extend((v, v) for v in domain)
                for slots[left_arg], slots[right_arg] in pairs:
                    extend(down)
                return
            if left_kind == _NEW:
                known, target = text(step.right), left_arg
            else:
                known, target = text(step.left), right_arg
            for slots[target] in partners.get(known, no_partners):
                extend(down)
            if not step.head:
                slots[target] = known
                extend(down)

        def member(step: _EvidenceStep, facts, down: int) -> None:
            wanted = tuple(arg if kind == _CONST else slots[arg]
                           for kind, arg in step.member)
            if wanted in facts:
                extend(down)
            if not step.loose or not any(wanted[position] in aliases
                                         for position, _ in step.loose):
                return
            # Non-string fact values that print as a LOOSE argument.
            options = [(v,) for v in wanted]
            for position, _ in step.loose:
                options[position] += tuple(aliases.get(wanted[position], ()))
            for fact in product(*options):
                if fact != wanted and fact in facts:
                    for position, slot in step.loose:
                        slots[slot] = fact[position]
                    extend(down)
            for position, slot in step.loose:
                slots[slot] = wanted[position]

        def walk(step: _EvidenceStep, facts, index, down: int) -> None:
            loose_texts = {slot: slots[slot] for _, slot in step.loose}
            probe = step.probe
            if probe is None:
                buckets = (facts,)
            else:
                position, kind, arg = probe
                if kind == _CONST:
                    probe_values = (arg,)
                elif kind == _BOUND:
                    probe_values = (slots[arg],)
                else:
                    probe_values = (loose_texts[arg], *aliases.get(loose_texts[arg], ()))
                buckets = [index[key] for key in probe_values if key in index]
            tighten = probe is not None and probe[1] == _LOOSE
            checks = step.checks
            for bucket in buckets:
                for fact in bucket:
                    if tighten:
                        slots[probe[2]] = fact[probe[0]]
                    for position, kind, arg in checks:
                        found = fact[position]
                        if kind == _NEW:
                            slots[arg] = found
                        elif kind == _LOOSE:
                            if str(found) != loose_texts[arg]:
                                break
                            slots[arg] = found
                        elif found != (arg if kind == _CONST else slots[arg]):
                            break
                    else:
                        extend(down)
            for slot, loose_text in loose_texts.items():
                slots[slot] = loose_text

        def extend(depth: int) -> None:
            if depth == last:
                emit()
                return
            step = steps[depth]
            if step.__class__ is _EqualsStep:
                equals(step, depth + 1)
                return
            facts = facts_at[depth]
            if not facts:
                return
            if step.member is not None:
                member(step, facts, depth + 1)
            else:
                walk(step, facts, index_at[depth], depth + 1)

        extend(0)
        rule = self.rule
        groundings = [
            GroundRule(
                rule_name=rule.name,
                weight=rule.weight,
                head_pair=EntityPair(*head),
                body_pairs=frozenset(EntityPair(*pair) for pair in body),
            )
            for head, body in sorted(keys)
        ]
        _BINDINGS.inc(bindings, rule=rule.name)
        _GROUNDINGS.inc(len(groundings), rule=rule.name)
        return groundings
