"""Probabilistic models and logical Bell inequalities.

A probabilistic model attaches to each cover context a distribution over
total assignments of that context.  Support reduction forgets the numbers
and keeps the events with probability above a threshold, which is how the
possibilistic machinery applies to probabilistic data.

For jointly contradictory formulas ``phi_1 .. phi_N`` (no total assignment
satisfies all of them), any collection of context distributions arising
from a global probability measure obeys ``sum_i P(phi_i) <= N - 1``.
``bell_violation`` reports the excess over that bound; a positive value
certifies contextuality and the maximum excess of ``1`` is reached exactly
by strongly contextual models when each formula asserts membership in its
context's support.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from typing import Iterable, Iterator, Mapping

from .core import (
    DEADLINE_STRIDE,
    EXHAUSTIVE_BOUND_DEFAULT,
    TABLE_ROWS_LIMIT,
    Assignment,
    Context,
    PossibilisticModel,
    Scenario,
    Verdict,
    _Compiled,
    _failing,
    _in_shortlex,
    _mask,
    _passing,
    _search_masks,
    _set_rows,
    canonical_context,
    past_deadline,
    validate_model,
)
from .errors import NotContradictory, TimeBudgetExceeded, TooLarge, UnknownContext
from .proplang import And, Const, Not, Or, Proposition, Var, measurement_context

# probabilities this close to zero are treated as zero
SUPPORT_EPSILON = 1e-9

DistributionEntry = tuple[Assignment, float]


@dataclass(frozen=True)
class ProbabilisticModel:
    """Per-context distributions over total context assignments.

    ``distributions`` maps each cover context to ``(assignment, p)`` pairs;
    construction canonicalizes order, numeric validity is checked separately
    by :func:`validate_probabilistic`.
    """

    scenario: Scenario
    distributions: Mapping[Context, tuple[DistributionEntry, ...]] = field(hash=False)

    @classmethod
    def make(
        cls,
        scenario: Scenario,
        distributions: Mapping[
            Iterable[str], Iterable[tuple[Mapping[str, int] | Assignment, float]]
        ],
    ) -> "ProbabilisticModel":
        canonical: dict[Iterable[str], tuple[DistributionEntry, ...]] = {}
        for context, entries in distributions.items():
            rows = [
                (
                    entry if isinstance(entry, Assignment) else Assignment.make(entry),
                    float(p),
                )
                for entry, p in entries
            ]
            canonical[context] = tuple(sorted(rows, key=lambda row: row[0]))
        return cls(scenario=scenario, distributions=_in_shortlex(canonical))

    def distribution(self, context: Iterable[str]) -> tuple[DistributionEntry, ...]:
        key = canonical_context(context)
        try:
            return self.distributions[key]
        except KeyError:
            raise UnknownContext(
                f"context {list(key)} has no distribution"
            ) from None


def validate_probabilistic(
    model: ProbabilisticModel, tolerance: float = SUPPORT_EPSILON
) -> Verdict:
    """Check the numeric invariants on top of the structural ones.

    Every cover context needs exactly one distribution; entries must be
    total on their context, pairwise distinct, finite and nonnegative; each
    distribution must sum to one within ``tolerance``.
    """
    scenario = model.scenario
    skeleton = PossibilisticModel.make(
        scenario, {context: [] for context in model.distributions}
    )
    structural = validate_model(skeleton)
    if not structural.holds:
        return structural

    for context in scenario.cover:
        domain = frozenset(context)
        seen: set[Assignment] = set()
        for assignment, p in model.distributions[context]:
            if assignment.domain != domain:
                return _failing(
                    f"assignment {assignment.as_dict()} is not total on "
                    f"context {list(context)}",
                    {
                        "reason": "partial-assignment",
                        "context": list(context),
                        "assignment": assignment.as_dict(),
                    },
                )
            if assignment in seen:
                return _failing(
                    f"context {list(context)} lists assignment "
                    f"{assignment.as_dict()} twice",
                    {
                        "reason": "duplicate-assignment",
                        "context": list(context),
                        "assignment": assignment.as_dict(),
                    },
                )
            seen.add(assignment)
            if not math.isfinite(p) or p < 0.0:
                # NaN passes both p < 0 and the total check, so test it first
                kind = "negative" if math.isfinite(p) else "non-finite"
                return _failing(
                    f"{kind} probability {p!r} in context {list(context)}",
                    {
                        "reason": f"{kind}-probability",
                        "context": list(context),
                        "assignment": assignment.as_dict(),
                        "p": p,
                    },
                )
        total = math.fsum(p for _, p in model.distributions[context])
        if abs(total - 1.0) > tolerance:
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
    bit = model.scenario.bit
    supports = {
        context: frozenset(
            _mask(bit, assignment.support()) for assignment, p in entries if p > threshold
        )
        for context, entries in model.distributions.items()
    }
    return PossibilisticModel._from_codes(model.scenario, _in_shortlex(supports))


def uniform_over_support(model: PossibilisticModel) -> ProbabilisticModel:
    """Equip a possibilistic model with the uniform distribution over each
    context's events.  Contexts with empty support are rejected."""
    distributions: dict[Context, list[tuple[Assignment, float]]] = {}
    for context in model.scenario.cover:
        events = model.events_sorted(context)
        if not events:
            raise ValueError(
                f"context {list(context)} has no events to distribute over"
            )
        p = 1.0 / len(events)
        distributions[context] = [
            (Assignment.make({v: 1 if v in event else 0 for v in context}), p)
            for event in events
        ]
    return ProbabilisticModel.make(model.scenario, distributions)


# "0"/"1" characters of a printed truth table to the bytes 0/1
_ROW_FLAGS = bytes.maketrans(b"01", b"\0\1")


def _truth_tables(
    props: list[Proposition], bit: Mapping[str, int], deadline: float | None
) -> Iterator[tuple[int, frozenset[int]]]:
    """Compile each formula to its variable mask and satisfying masked codes.

    A formula over ``k`` variables becomes its whole truth table as one
    ``2^k``-bit integer: row ``i`` binds the formula's ``j``-th variable (in
    ascending scenario bit) to bit ``j`` of ``i``, so ascending rows are
    ascending submasks.  The prefix form is read backwards on a stack of
    values, ``&``/``|``/``!`` acting on whole tables, and the set rows are
    decoded to codes.  Tables over :data:`TABLE_ROWS_LIMIT` rows in all are
    refused with :class:`TooLarge` before any is built.  ``deadline`` is
    read once every :data:`DEADLINE_STRIDE` steps over all the formulas, a
    step being a node, a connective's operator or a block of decoded rows.
    """
    rows_in_all = sum(1 << len(prop.variables()) for prop in props)
    if rows_in_all > TABLE_ROWS_LIMIT:
        raise TooLarge(
            f"the formulas' truth tables would hold {rows_in_all:,} rows, "
            f"over the limit of {TABLE_ROWS_LIMIT:,}"
        )
    steps = 0
    for prop in props:
        names = sorted(prop.variables(), key=bit.__getitem__)
        rows = 1 << len(names)
        full = (1 << rows) - 1
        table_of: dict[str, int] = {}
        for j, name in enumerate(names):
            # 2^j unset rows, then 2^j set ones, repeated over all the rows
            half = 1 << j
            pattern, width = ((1 << half) - 1) << half, 2 * half
            while width < rows:
                pattern |= pattern << width
                width *= 2
            table_of[name] = pattern

        values: list = []
        for item in reversed(prop._items):
            if not isinstance(item, type):
                values.append(item)  # a field: a variable's name or a constant
                continue
            # a connective is a node and an operator, two steps
            work = 1 if item is Var or item is Const else 2
            steps += work
            if steps % DEADLINE_STRIDE < work and past_deadline(deadline):
                raise TimeBudgetExceeded()
            if item is Var:
                values[-1] = table_of[values[-1]]
            elif item is And:
                values.append(values.pop() & values.pop())
            elif item is Not:
                values[-1] ^= full
            elif item is Or:
                values.append(values.pop() | values.pop())
            elif item is Const:
                values[-1] = full if values[-1] else 0
            else:
                raise TypeError(f"cannot compile a {item.__qualname__} node")

        (table,) = values
        flags = format(table, f"0{rows}b")[::-1].encode().translate(_ROW_FLAGS)
        satisfying: list[int] = []
        for block in _set_rows(names, bit, flags):
            steps += 1
            if not steps % DEADLINE_STRIDE and past_deadline(deadline):
                raise TimeBudgetExceeded()
            satisfying += block
        yield _mask(bit, names), frozenset(satisfying)


def _probability(
    table: tuple[int, frozenset[int]],
    entries: tuple[DistributionEntry, ...],
    bit: Mapping[str, int],
) -> float:
    cmask, satisfying = table
    return math.fsum(
        p
        for assignment, p in entries
        if sum(bit[v] for v, b in assignment.bindings if b) & cmask in satisfying
    )


def _contradiction(
    props: list[Proposition], scenario: Scenario, bound: int, deadline: float | None
) -> tuple[list[Context], list[tuple[int, frozenset[int]]], bool]:
    """Measurement context and truth table of each formula, and whether no
    code meets every table: at once if one has no satisfying row, else by
    the section search stopped at its first complete code."""
    n = len(scenario.variables)
    if n > bound:
        raise TooLarge(f"{n} variables exceed the exhaustive bound of {bound}")
    contexts = [measurement_context(prop, scenario) for prop in props]
    tables = list(_truth_tables(props, scenario.bit, deadline))
    contradictory = not all(satisfying for _, satisfying in tables) or not (
        _search_masks(_Compiled(scenario.bit, tables), deadline, first=True)
    )
    return contexts, tables, contradictory


def eval_probability(prop: Proposition, model: ProbabilisticModel) -> float:
    """Probability of a formula under its measurement context.

    The formula is evaluated against the canonically first cover context
    containing its variables; raises :class:`NotMeasurable` if none does.
    It is compiled to its truth table, and the ``p`` of the context's
    entries whose masked code satisfies it are summed with ``math.fsum``.
    """
    context = measurement_context(prop, model.scenario)
    bit = model.scenario.bit
    (table,) = _truth_tables([prop], bit, None)
    return _probability(table, model.distribution(context), bit)


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
    return _contradiction(list(props), scenario, bound, deadline)[2]


def bell_violation(
    props: Iterable[Proposition],
    model: ProbabilisticModel,
    bound: int = EXHAUSTIVE_BOUND_DEFAULT,
    deadline: float | None = None,
) -> float:
    """Excess of ``sum_i P(phi_i)`` over ``N - 1``.

    Requires the formulas to be jointly contradictory, decided as by
    :func:`jointly_contradictory` (otherwise the bound carries no
    information and :class:`NotContradictory` is raised).  Any positive
    return value certifies the model is contextual.  Each formula is
    compiled once, for both the contradiction search and its probability.
    """
    scenario = model.scenario
    contexts, tables, contradictory = _contradiction(list(props), scenario, bound, deadline)
    if not contradictory:
        raise NotContradictory(
            "the formulas are jointly satisfiable, so no bound applies"
        )
    total = math.fsum(
        _probability(table, model.distribution(context), scenario.bit)
        for table, context in zip(tables, contexts)
    )
    return total - (len(tables) - 1)


def support_propositions(model: PossibilisticModel) -> list[Proposition]:
    """One formula per cover context asserting the outcome lies in that
    context's support, as a disjunction of full conjunctions (one per
    event).  Empty supports yield the constant false."""
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
