"""Global sections and the contextuality hierarchy.

A global section is a total 0/1 assignment whose restriction to every cover
context is one of that context's events.  Classification then splits three
ways: every event is realized by some section (NonContextual), some event is
realized by no section (Contextual), or no section exists at all
(StronglyContextual).

Both search strategies run on the model's bitmask form
(:attr:`PossibilisticModel.compiled`), where ascending integers enumerate
assignments in lexicographic order, so both emit sections in the same order.
Sections are decoded to :class:`Assignment` only on the way out.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .core import (
    DEADLINE_STRIDE,
    EXHAUSTIVE_BOUND_DEFAULT,
    Assignment,
    Context,
    Event,
    PossibilisticModel,
    _Compiled,
    _scan_masks,
    past_deadline,
)
from .errors import DomainMismatch, TimeBudgetExceeded, TooLarge


class Kind(enum.Enum):
    NONCONTEXTUAL = "NonContextual"
    CONTEXTUAL = "Contextual"
    STRONGLY_CONTEXTUAL = "StronglyContextual"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Classification:
    """Outcome of ``classify``: the kind, one unrealizable event if any
    exists (the canonically first one), and the total section count."""

    kind: Kind
    witness_event: tuple[Context, Event] | None
    section_count: int

    @property
    def is_contextual(self) -> bool:
        return self.kind is not Kind.NONCONTEXTUAL

    def to_doc(self) -> dict:
        witness = None
        if self.witness_event is not None:
            context, event = self.witness_event
            witness = {"context": list(context), "event": sorted(event)}
        return {
            "kind": self.kind.value,
            "witness_event": witness,
            "section_count": self.section_count,
        }


def is_global_section(assignment: Assignment, model: PossibilisticModel) -> bool:
    """Whether a total assignment restricts into the support of every context."""
    scenario = model.scenario
    if assignment.domain != frozenset(scenario.variables):
        missing = sorted(frozenset(scenario.variables) - assignment.domain)
        extra = sorted(assignment.domain - frozenset(scenario.variables))
        parts = []
        if missing:
            parts.append(f"unbound variables {missing}")
        if extra:
            parts.append(f"extraneous variables {extra}")
        raise DomainMismatch("assignment is not total on the scenario: " + "; ".join(parts))
    compiled = model.compiled
    code = compiled.mask(assignment.support())
    return all(code & cmask in allowed for cmask, allowed in compiled.contexts)


def _search_masks(compiled: _Compiled, deadline: float | None) -> list[int]:
    found: list[int] = []
    nodes = 0
    bits = list(compiled.bit.values())

    def extend(depth: int, acc: int) -> None:
        nonlocal nodes
        if deadline is not None:
            nodes += 1
            if past_deadline(nodes, deadline):
                raise TimeBudgetExceeded(partial_sections=map(compiled.decode, found))
        if depth == compiled.n:
            found.append(acc)
            return
        for bit in (0, bits[depth]):
            candidate = acc | bit
            if all(
                candidate & cmask in masks
                for cmask, masks in compiled.completed_at[depth]
            ):
                extend(depth + 1, candidate)

    extend(0, 0)
    return found


def global_sections_bruteforce(
    model: PossibilisticModel, bound: int = EXHAUSTIVE_BOUND_DEFAULT
) -> list[Assignment]:
    """Enumerate all global sections by scanning every total assignment.

    Refuses scenarios with more than ``bound`` variables; kept deliberately
    naive so it can referee the backtracking search.
    """
    compiled = model.compiled
    if compiled.n > bound:
        raise TooLarge(
            f"{compiled.n} variables exceed the exhaustive bound of {bound}"
        )
    return list(map(compiled.decode, _scan_masks(compiled.n, compiled.contexts)))


def global_sections_backtracking(
    model: PossibilisticModel, deadline: float | None = None
) -> list[Assignment]:
    """Enumerate all global sections by depth-first search.

    Variables are assigned in scenario order and a branch is pruned as soon
    as a fully assigned context falls outside its support.  Emits sections
    in the same lexicographic order as the brute-force scan.  ``deadline``
    is a ``time.monotonic`` value; exceeding it raises
    :class:`TimeBudgetExceeded` carrying the sections found so far.
    """
    compiled = model.compiled
    return [compiled.decode(code) for code in _search_masks(compiled, deadline)]


def classify(
    model: PossibilisticModel, deadline: float | None = None
) -> Classification:
    """Place a model in the hierarchy, with a witness for contextuality.

    The witness is the canonically first unrealized event: contexts are
    taken in cover order and events in shortlex order.  ``deadline`` covers
    both the search and the pass that finds the witness.
    """
    compiled = model.compiled
    sections = _search_masks(compiled, deadline)
    if not sections:
        return Classification(Kind.STRONGLY_CONTEXTUAL, None, 0)
    for context, (cmask, _) in zip(model.scenario.cover, compiled.contexts):
        realized: set[int] = set()
        for start in range(0, len(sections), DEADLINE_STRIDE):
            if past_deadline(start, deadline):
                raise TimeBudgetExceeded(partial_sections=map(compiled.decode, sections))
            realized.update(map(cmask.__and__, sections[start : start + DEADLINE_STRIDE]))
        for event in model.events_sorted(context):
            if compiled.mask(event) not in realized:
                return Classification(
                    Kind.CONTEXTUAL, (context, event), len(sections)
                )
    return Classification(Kind.NONCONTEXTUAL, None, len(sections))
