"""Global sections and the contextuality hierarchy.

A global section is a total 0/1 assignment whose restriction to every cover
context is one of that context's events.  Classification then splits three
ways: every event is realized by some section (NonContextual), some event is
realized by no section (Contextual), or no section exists at all
(StronglyContextual).

Every search strategy runs on codes in the :attr:`Scenario.bit` layout,
where ascending integers enumerate assignments in lexicographic order.
The brute-force referee scans every code in that order against the
cover's masks and supports.  The section search of ``core`` takes one of
two kernels on :attr:`PossibilisticModel.compiled`: a bit-parallel scan,
which ANDs one 2^n-bit table per context into the set of all sections,
when a cost estimate favours it; otherwise the level-wise search, which
assigns variables in the compiled greedy order and also decides the Bell
route's contradictions.  The scan runs over at most 24 variables.
Listed sections are sorted, so every strategy emits them in the same
order.  :func:`classify` never lists the scan's sections: it counts them
and finds its witness on the ANDed set itself, and takes the level-wise
search's sections in search order.
Sections are decoded to :class:`Assignment` only on the way out.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import repeat
from operator import and_

from .core import (
    DEADLINE_STRIDE,
    EXHAUSTIVE_BOUND_DEFAULT,
    Assignment,
    Context,
    Event,
    PossibilisticModel,
    _check_bound,
    _decoder,
    _levelwise_masks,
    _mask,
    _scan_bits,
    _search_masks,
    _SetCodes,
    _shortlex_key,
    _takes_scan,
    past_deadline,
)
from .errors import DomainMismatch, TimeBudgetExceeded


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
    # every cover context is resolved before any is tested, so a missing
    # support entry or an undeclared cover variable raises whatever the
    # assignment; the search order of ``model.compiled`` is not needed
    supports = [model._codes[model._key(context)] for context in scenario.cover]
    code = _mask(scenario.bit, assignment.support())
    return all(code & cmask in allowed for cmask, allowed in zip(scenario._masks, supports))


def global_sections_bruteforce(
    model: PossibilisticModel, bound: int = EXHAUSTIVE_BOUND_DEFAULT
) -> list[Assignment]:
    """Enumerate all global sections by scanning every total assignment.

    Refuses scenarios with more than ``bound`` variables; kept deliberately
    naive so it can referee both kernels of
    :func:`global_sections_backtracking`.
    """
    # the supports, then the layout, then the bound, as ``model.compiled`` refuses them
    scenario = model.scenario
    supports = [model._codes[model._key(context)] for context in scenario.cover]
    contexts = list(zip(scenario._masks, supports))
    n = len(scenario.bit)
    _check_bound(n, bound)
    decode = _decoder(scenario.bit, scenario.bit)
    return [
        decode(code)
        for code in range(1 << n)
        if all(code & cmask in allowed for cmask, allowed in contexts)
    ]


def global_sections_backtracking(
    model: PossibilisticModel, deadline: float | None = None
) -> list[Assignment]:
    """Enumerate all global sections by the section search of ``core``.

    Over at most 24 variables (:data:`core.SCAN_ROWS_LIMIT`), when its
    cost estimate favours it, the search is a bit-parallel scan: each
    context becomes a 2^n-bit table of the assignments it allows, and the
    tables are ANDed.  Otherwise it is a pruned level-wise search:
    variables are assigned in greedy completion order (the variable that
    completes the most contexts first), a whole block of partial
    assignments at a time, and a partial assignment is dropped as soon as
    a fully assigned context falls outside its support.  Either search
    refuses more than :data:`core.TABLE_ROWS_LIMIT` sections with
    :class:`TooLarge`, the scan by its count before listing any.  The
    sections are sorted at the end, so they come in the same
    lexicographic order as from the brute-force scan.  ``deadline`` is a
    ``time.monotonic`` value; exceeding it raises
    :class:`TimeBudgetExceeded` carrying the sections found so far, in the
    same order: the scan carries none while it builds its tables.
    """
    compiled = model.compiled
    return [compiled.decode(code) for code in sorted(_search_masks(compiled, deadline))]


def classify(
    model: PossibilisticModel, deadline: float | None = None
) -> Classification:
    """Place a model in the hierarchy, with a witness for contextuality.

    The witness is the canonically first unrealized event: contexts are
    taken in cover order and events in shortlex order, which on codes in
    the :attr:`Scenario.bit` layout is the key ``(code.bit_count(), -code)``;
    only the least unrealized code is decoded.  ``deadline`` covers both
    the search and the pass that finds the witness.

    When the section search takes the bit-parallel scan (over at most 24
    variables, :data:`core.SCAN_ROWS_LIMIT`), the count and the witness
    are read off its bitset of sections (:func:`_classify_bits`), so no
    section is listed or limited in number.  Otherwise the level-wise
    search lists the sections, at most :data:`core.TABLE_ROWS_LIMIT`, and
    each context collects their restrictions in runs of at most
    :data:`DEADLINE_STRIDE` sections, reading the clock before each.
    """
    compiled = model.compiled
    if _takes_scan(compiled):
        return _classify_bits(model, _scan_bits(compiled, deadline), deadline)
    sections = _levelwise_masks(compiled, deadline)
    if not sections:
        return Classification(Kind.STRONGLY_CONTEXTUAL, None, 0)
    for context, (cmask, allowed) in zip(model.scenario.cover, compiled.contexts):
        realized: set[int] = set()
        for start in range(0, len(sections), DEADLINE_STRIDE):
            if past_deadline(deadline):
                raise TimeBudgetExceeded(partial_codes=sections, decode=compiled.decode)
            realized.update(map(and_, sections[start : start + DEADLINE_STRIDE], repeat(cmask)))
            # realized <= allowed, so equal sizes mean every event is realized
            if len(realized) == len(allowed):
                break
        unrealized = allowed - realized
        if unrealized:
            event = frozenset(model.scenario._names(min(unrealized, key=_shortlex_key)))
            return Classification(Kind.CONTEXTUAL, (context, event), len(sections))
    return Classification(Kind.NONCONTEXTUAL, None, len(sections))


def _classify_bits(
    model: PossibilisticModel, sections: int, deadline: float | None
) -> Classification:
    """:func:`classify` on the scan's bitset ``sections``, whose bit ``r``
    is set when code ``r`` is a section.

    The count is the bitset's ``bit_count()``.  A context's realized codes
    are the bitset folded over every variable the context lacks, so that
    bit ``r`` is set when some section agrees with ``r`` off them, kept on
    the rows with no bit outside the context; a code-built event outside
    its context lands on no such row and stays unrealized.  The clock is
    read before each context's fold; an expiry carries the sections as
    :class:`core._SetCodes`, counted without reading them out.
    """
    if not sections:
        return Classification(Kind.STRONGLY_CONTEXTUAL, None, 0)
    compiled = model.compiled
    n = compiled.n
    for context, (cmask, allowed) in zip(model.scenario.cover, compiled.contexts):
        if past_deadline(deadline):
            raise TimeBudgetExceeded(
                partial_codes=_SetCodes(sections, compiled), decode=compiled.decode
            )
        realized, inside = sections, 1
        for j in range(n):
            if cmask >> j & 1:
                inside |= inside << (1 << j)
            else:
                realized |= realized >> (1 << j)
        realized &= inside
        # realized holds only allowed codes, so equal sizes mean all are realized
        if realized.bit_count() != len(allowed):
            flags = realized.to_bytes(((1 << n) + 7) >> 3, "little")
            unrealized = [code for code in allowed if not flags[code >> 3] >> (code & 7) & 1]
            event = frozenset(model.scenario._names(min(unrealized, key=_shortlex_key)))
            return Classification(Kind.CONTEXTUAL, (context, event), sections.bit_count())
    return Classification(Kind.NONCONTEXTUAL, None, sections.bit_count())
