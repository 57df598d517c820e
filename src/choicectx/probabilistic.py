"""Probabilistic models and logical Bell inequalities.

A probabilistic model attaches to each cover context a distribution over
total assignments of that context.  Support reduction forgets the numbers
and keeps the events with probability above a threshold, which is how the
possibilistic machinery applies to probabilistic data.

For jointly contradictory formulas ``phi_1 .. phi_N`` (no total assignment
satisfies all of them), any collection of context distributions arising
from a global probability measure obeys ``sum_i P(phi_i) <= N - 1``.
``bell_violation`` reports the excess over that bound; an excess over
``N * SUPPORT_EPSILON`` certifies contextuality
(``certifies_contextuality``), and the maximum excess of ``1`` is reached
exactly by strongly contextual models when each formula asserts membership
in its context's support.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from typing import Iterable, Mapping

from .core import (
    EXHAUSTIVE_BOUND_DEFAULT,
    Assignment,
    Context,
    PossibilisticModel,
    Scenario,
    Verdict,
    _Compiled,
    _decoder,
    _failing,
    _in_shortlex,
    _passing,
    _search_masks,
    _structure_fault,
    canonical_context,
)
from .errors import NotContradictory, UnknownContext

# the functions that take formulas import proplang, their compiler, where
# they use it, so reading a document does not load the parser; annotations
# name its Proposition and _ContextTable unimported

# probabilities this close to zero are treated as zero
SUPPORT_EPSILON = 1e-9

# a context's distribution: (code, p) pairs in ascending code order
Entries = tuple[tuple[int, float], ...]


@dataclass(frozen=True, init=False)
class ProbabilisticModel:
    """Per-context distributions over total context assignments.

    Each distribution is stored once, as ``(code, p)`` pairs in ascending
    code order (the :class:`Assignment` order), a code being the OR of the
    :attr:`Scenario.bit` bits its assignment sets to 1; ``distributions``
    and :meth:`distribution` decode them.  :meth:`make` encodes name-keyed
    entries and notes the first, in cover then entry order, that sets an
    outcome other than 0 or 1, is not total on its context or repeats one;
    :func:`validate_probabilistic` reports it."""

    scenario: Scenario
    _codes: Mapping[Context, Entries] = field(init=False, repr=False, hash=False)
    _fault: Verdict | None = field(init=False, repr=False, hash=False)

    @classmethod
    def _from_codes(
        cls, scenario: Scenario, codes: Mapping[Context, Entries], fault: Verdict | None = None
    ) -> "ProbabilisticModel":
        """A model over entries already encoded in the scenario's layout."""
        model = cls.__new__(cls)
        model.__dict__.update(scenario=scenario, _codes=codes, _fault=fault)
        return model

    @classmethod
    def make(
        cls,
        scenario: Scenario,
        distributions: Mapping[
            Iterable[str], Iterable[tuple[Mapping[str, int] | Assignment, float]]
        ],
    ) -> "ProbabilisticModel":
        bit = scenario.bit
        codes: dict[Context, Entries] = {}
        fault = None
        for context, entries in _in_shortlex(distributions).items():
            pairs: dict[int, float] = {}
            for entry, p in entries:
                binding = dict(entry.bindings if isinstance(entry, Assignment) else entry)
                # an undeclared variable has no bit; the structural check reports it
                code = sum(bit.get(v, 0) for v, b in binding.items() if b == 1)
                if fault is None:
                    fault = _entry_fault(context, binding, code in pairs)
                pairs[code] = float(p)
            codes[context] = tuple(sorted(pairs.items()))
        return cls._from_codes(scenario, codes, fault)

    def __repr__(self) -> str:
        scenario, distributions = self.scenario, self.distributions
        return f"ProbabilisticModel({scenario=}, {distributions=})"

    @property
    def distributions(self) -> dict[Context, tuple[tuple[Assignment, float], ...]]:
        """Each context's ``(assignment, p)`` pairs, decoded."""
        return {context: self.distribution(context) for context in self._codes}

    def _key(self, context: Iterable[str]) -> Context:
        """The canonical form of one of the model's contexts."""
        key = canonical_context(context)
        if key not in self._codes:
            raise UnknownContext(f"context {list(key)} has no distribution")
        return key

    def distribution(self, context: Iterable[str]) -> tuple[tuple[Assignment, float], ...]:
        key = self._key(context)
        decode = _decoder(self.scenario.bit, key)
        return tuple([(decode(code), p) for code, p in self._codes[key]])


def _entry_fault(context: Context, binding: dict, repeated: bool) -> Verdict | None:
    """The fault of an entry that sets an outcome other than 0 or 1, binds
    other variables than ``context``'s or repeats an earlier entry's code,
    if it has one."""
    outcomes = all(b in (0, 1) for b in binding.values())
    total = binding.keys() == set(context)
    if outcomes and total and not repeated:
        return None
    assignment = {v: int(b) if outcomes else b for v, b in sorted(binding.items())}
    if not outcomes:
        reason = "bad-outcome"
        message = f"assignment {assignment} sets an outcome other than 0 or 1"
    elif total:
        reason = "duplicate-assignment"
        message = f"context {list(context)} lists assignment {assignment} twice"
    else:
        reason = "partial-assignment"
        message = f"assignment {assignment} is not total on context {list(context)}"
    witness = {"reason": reason, "context": list(context), "assignment": assignment}
    return _failing(message, witness)


def _total(ps: Iterable[float]) -> float:
    """``math.fsum`` of finite nonnegative ``ps``, or ``inf`` where their
    sum passes the float range (where ``math.fsum`` raises)."""
    try:
        return math.fsum(ps)
    except OverflowError:
        return math.inf


def validate_probabilistic(model: ProbabilisticModel) -> Verdict:
    """Check the numeric invariants on top of the structural ones, for a
    model built in code: ``parse_model`` refuses every document whose model
    would fail here.

    Every cover context needs exactly one distribution; entries must set
    outcomes 0 or 1, be total on their context, pairwise distinct, finite
    and nonnegative; each distribution must sum to one within
    :data:`SUPPORT_EPSILON`.  The first faulty entry was noted by
    :meth:`ProbabilisticModel.make`.
    """
    scenario = model.scenario
    fault = _structure_fault(scenario, model._codes)
    if fault is not None:
        return fault
    if model._fault is not None:
        return model._fault

    for context in scenario.cover:
        entries = model._codes[context]
        for code, p in entries:
            if not math.isfinite(p) or p < 0.0:
                # NaN passes both p < 0 and the total check, so test it first
                kind = "negative" if math.isfinite(p) else "non-finite"
                return _failing(
                    f"{kind} probability {p!r} in context {list(context)}",
                    {
                        "reason": f"{kind}-probability",
                        "context": list(context),
                        "assignment": {v: 1 if code & scenario.bit[v] else 0 for v in context},
                        "p": p,
                    },
                )
        total = _total(p for _, p in entries)
        if abs(total - 1.0) > SUPPORT_EPSILON:
            return _failing(
                f"context {list(context)} sums to {total!r}, not 1",
                {
                    "reason": "bad-total",
                    "context": list(context),
                    "total": total,
                },
            )
    return _passing("all context distributions are valid")


def support_reduction(
    model: ProbabilisticModel, threshold: float = SUPPORT_EPSILON
) -> PossibilisticModel:
    """Forget probabilities, keeping the events with ``p > threshold``."""
    supports = {
        context: frozenset([code for code, p in entries if p > threshold])
        for context, entries in model._codes.items()
    }
    return PossibilisticModel._from_codes(model.scenario, supports)


def uniform_over_support(model: PossibilisticModel) -> ProbabilisticModel:
    """Equip a possibilistic model with the uniform distribution over each
    context's events.  Contexts with empty support are rejected."""
    codes: dict[Context, Entries] = {}
    for context in model.scenario.cover:
        events = sorted(model._codes[model._key(context)])
        if not events:
            raise ValueError(
                f"context {list(context)} has no events to distribute over"
            )
        p = 1.0 / len(events)
        codes[context] = tuple([(code, p) for code in events])
    return ProbabilisticModel._from_codes(model.scenario, codes)


def _probability(table: tuple[int, frozenset[int]], entries: Entries) -> float:
    cmask, satisfying = table
    return math.fsum([p for code, p in entries if code & cmask in satisfying])


def _satisfiable(
    tables: list[tuple[int, frozenset[int]]], bit: Mapping[str, int], deadline: float | None
) -> bool:
    """Whether some code in the layout ``bit`` meets every truth table: not
    if a table has no satisfying row, else as the section search, stopped
    at its first complete code, finds."""
    return all(satisfying for _, satisfying in tables) and bool(
        _search_masks(_Compiled(bit, tables), deadline, first=True)
    )


def _violation(
    compiled: list[_ContextTable], model: ProbabilisticModel, deadline: float | None
) -> float:
    """:func:`bell_violation` of formulas already compiled: unless the
    tables are :func:`_satisfiable`, the excess over ``N - 1`` of the
    ``math.fsum`` of the formulas' probabilities under ``model``."""
    if _satisfiable([table for _, table in compiled], model.scenario.bit, deadline):
        raise NotContradictory(
            "the formulas are jointly satisfiable, so no bound applies"
        )
    total = math.fsum(
        _probability(table, model._codes[model._key(context)]) for context, table in compiled
    )
    return total - (len(compiled) - 1)


def eval_probability(prop: Proposition, model: ProbabilisticModel) -> float:
    """Probability of a formula under its measurement context.

    The formula is evaluated against the canonically first cover context
    containing its variables; raises :class:`NotMeasurable` if none does.
    It is compiled to its truth table, and the ``p`` of the context's
    entries whose masked code satisfies it are summed with ``math.fsum``.
    """
    from .proplang import _truth_tables, measurement_context

    context = measurement_context(prop, model.scenario)
    (table,) = _truth_tables([prop], model.scenario.bit, None)
    return _probability(table, model._codes[model._key(context)])


def jointly_contradictory(
    props: Iterable[Proposition],
    scenario: Scenario,
    bound: int = EXHAUSTIVE_BOUND_DEFAULT,
    deadline: float | None = None,
) -> bool:
    """Whether no total assignment of the scenario satisfies every formula.

    Each formula compiles to its truth table, read as its variable mask and
    satisfying masked codes, and the section search of ``classify``
    looks for one code that every table allows.  Sharing that search, the
    route is refereed by ``tests/test_oracle.py`` against the independent
    ``tools/oracle.py``.  Scenarios with more than ``bound`` variables are
    refused; ``deadline`` covers the compile and the search.
    """
    from .proplang import _compile

    compiled = _compile(list(props), scenario, bound, deadline)
    return not _satisfiable([table for _, table in compiled], scenario.bit, deadline)


def bell_violation(
    props: Iterable[Proposition],
    model: ProbabilisticModel,
    bound: int = EXHAUSTIVE_BOUND_DEFAULT,
    deadline: float | None = None,
) -> float:
    """Excess of ``sum_i P(phi_i)`` over ``N - 1``.

    Requires the formulas to be jointly contradictory, decided as by
    :func:`jointly_contradictory` (otherwise the bound carries no
    information and :class:`NotContradictory` is raised).  Only an excess
    over ``N * SUPPORT_EPSILON`` certifies that the model is contextual
    (:func:`certifies_contextuality`).  ``proplang`` compiles each formula
    once to its truth table, which serves both the contradiction search and
    its probability in :func:`_violation`; the CLI's ``bell`` runs that on
    the tables ``proplang`` reads from its file.
    """
    from .proplang import _compile

    return _violation(_compile(list(props), model.scenario, bound, deadline), model, deadline)


def certifies_contextuality(violation: float, formulas: int) -> bool:
    """Whether ``violation``, the excess :func:`bell_violation` returns for
    ``formulas`` formulas, certifies contextuality: it must pass
    ``formulas * SUPPORT_EPSILON``.  Each distribution's total may be off 1
    by :data:`SUPPORT_EPSILON`, so the sum of the probabilities is known
    only to that margin, and a smaller excess cannot be told apart from
    rounding in the input."""
    return violation > formulas * SUPPORT_EPSILON


def support_propositions(model: PossibilisticModel) -> list[Proposition]:
    """One formula per cover context asserting the outcome lies in that
    context's support, as a disjunction of full conjunctions (one per
    event).  Empty supports yield the constant false."""
    from .proplang import And, Const, Not, Or, Var

    props: list[Proposition] = []
    for context in model.scenario.cover:
        terms = [
            reduce(And, [Var(v) if v in event else Not(Var(v)) for v in context])
            for event in model.events_sorted(context)
        ]
        props.append(reduce(Or, terms) if terms else Const(False))
    return props


def strong_contextuality_via_bell(
    model: PossibilisticModel,
    bound: int = EXHAUSTIVE_BOUND_DEFAULT,
    deadline: float | None = None,
) -> bool:
    """Strong contextuality, decided through the inequality route: the
    model is strongly contextual iff its support propositions are jointly
    contradictory."""
    return jointly_contradictory(
        support_propositions(model), model.scenario, bound, deadline
    )
