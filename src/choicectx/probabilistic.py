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
from typing import Iterable, Mapping

from .core import (
    EXHAUSTIVE_BOUND_DEFAULT,
    Assignment,
    Context,
    PossibilisticModel,
    Scenario,
    Verdict,
    _failing,
    _passing,
    _scan_masks,
    canonical_context,
    past_deadline,
    shortlex,
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
        canonical: dict[Context, tuple[DistributionEntry, ...]] = {}
        for context, entries in distributions.items():
            rows = [
                (
                    entry if isinstance(entry, Assignment) else Assignment.make(entry),
                    float(p),
                )
                for entry, p in entries
            ]
            rows.sort(key=lambda row: row[0])
            canonical[canonical_context(context)] = tuple(rows)
        ordered = {
            context: canonical[context]
            for context in sorted(canonical, key=shortlex)
        }
        return cls(scenario=scenario, distributions=ordered)

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
    supports = {
        context: {
            assignment.support()
            for assignment, p in entries
            if p > threshold
        }
        for context, entries in model.distributions.items()
    }
    return PossibilisticModel.make(model.scenario, supports)


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


def eval_probability(prop: Proposition, model: ProbabilisticModel) -> float:
    """Probability of a formula under its measurement context.

    The formula is evaluated against the canonically first cover context
    containing its variables; raises :class:`NotMeasurable` if none does.
    """
    context = measurement_context(prop, model.scenario)
    return math.fsum(
        p
        for assignment, p in model.distribution(context)
        if prop.evaluate(assignment.as_dict())
    )


def jointly_contradictory(
    props: Iterable[Proposition],
    scenario: Scenario,
    bound: int = EXHAUSTIVE_BOUND_DEFAULT,
    deadline: float | None = None,
) -> bool:
    """Whether no total assignment of the scenario satisfies every formula.

    Each formula compiles to its variable mask and satisfying masked codes,
    which the scan kernel of :func:`global_sections_bruteforce` filters all
    ``2^n`` codes by.  Sharing that kernel, the route is refereed by
    ``tests/test_oracle.py`` against the independent ``tools/oracle.py``.
    Scenarios with more than ``bound`` variables are refused; ``deadline``
    covers the compile and the scan.
    """
    props = list(props)
    n = len(scenario.variables)
    if n > bound:
        raise TooLarge(f"{n} variables exceed the exhaustive bound of {bound}")
    for prop in props:
        measurement_context(prop, scenario)

    bit = scenario.bit
    compiled: list[tuple[int, frozenset[int]]] = []
    evaluated = 0
    for prop in props:
        used = [(v, bit[v]) for v in prop.variables()]
        cmask = sum(b for _, b in used)
        satisfying = set()
        code = 0
        while True:  # every submask of cmask, ascending
            evaluated += 1
            if past_deadline(evaluated, deadline):
                raise TimeBudgetExceeded()
            if prop.evaluate({v: 1 if code & b else 0 for v, b in used}):
                satisfying.add(code)
            if code == cmask:
                break
            code = (code - cmask) & cmask
        if not satisfying:
            return True
        compiled.append((cmask, frozenset(satisfying)))

    return next(_scan_masks(n, compiled, deadline), None) is None


def bell_violation(
    props: Iterable[Proposition],
    model: ProbabilisticModel,
    bound: int = EXHAUSTIVE_BOUND_DEFAULT,
    deadline: float | None = None,
) -> float:
    """Excess of ``sum_i P(phi_i)`` over ``N - 1``.

    Requires the formulas to be jointly contradictory (otherwise the bound
    carries no information and :class:`NotContradictory` is raised).  Any
    positive return value certifies the model is contextual.
    """
    props = list(props)
    if not jointly_contradictory(props, model.scenario, bound, deadline):
        raise NotContradictory(
            "the formulas are jointly satisfiable, so no bound applies"
        )
    total = math.fsum(eval_probability(prop, model) for prop in props)
    return total - (len(props) - 1)


def support_propositions(model: PossibilisticModel) -> list[Proposition]:
    """One formula per cover context asserting the outcome lies in that
    context's support, as a disjunction of full conjunctions (one per
    event).  Empty supports yield the constant false."""
    props: list[Proposition] = []
    for context in model.scenario.cover:
        disjunction: Proposition | None = None
        for event in model.events_sorted(context):
            conjunction: Proposition | None = None
            for name in context:
                literal: Proposition = (
                    Var(name) if name in event else Not(Var(name))
                )
                conjunction = (
                    literal if conjunction is None else And(conjunction, literal)
                )
            disjunction = (
                conjunction if disjunction is None else Or(disjunction, conjunction)
            )
        props.append(Const(False) if disjunction is None else disjunction)
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
