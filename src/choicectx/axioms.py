"""Choice axioms, cover-shape properties, and the combined audit.

Throughout, the choice function of a context is read off its support:
``chosen(x, U) = 1`` iff ``x`` belongs to at least one event of ``C(U)``.
Each check returns a :class:`Verdict` whose witness, when the property
fails, is the canonically first counterexample under cover order.

The checks are set algebra on context bitmasks in the :attr:`Scenario.bit`
layout (variable ``j`` on bit ``n - 1 - j``): each cover context gives its
variable mask and the mask of its chosen variables, a pair of contexts
shares ``ma & mb``, and a witness variable is the one at the highest set
bit of a mask, which is the least name in it.  Names are decoded only for
the witness.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from itertools import combinations

from .core import Context, PossibilisticModel, Scenario, Verdict, _failing, _passing

# only audit() runs the section search, so contextuality is imported there,
# and the region names are keyed by the value of each Kind
_REGION_KIND = {
    "NonContextual": "non-contextual",
    "Contextual": "contextual",
    "StronglyContextual": "strongly contextual",
}


def _rows(model: PossibilisticModel) -> list[tuple[Context, int, int]]:
    """One row per cover context: the context, its variable mask and the
    mask of its chosen variables, the OR of its event codes within it."""
    scenario = model.scenario
    return [
        (context, mask, model._chosen[model._key(context)])
        for context, mask in zip(scenario.cover, scenario._masks)
    ]


def check_weak_axiom(model: PossibilisticModel) -> Verdict:
    """Weak axiom of revealed preference.

    For contexts A, B and variables x, y in both: if x is chosen in A and
    y is chosen in B, then x must be chosen in B.  A violation witness is
    the canonically first (A, B, x, y): context pairs in cover order, then
    x and y each minimal.
    """
    rows = _rows(model)
    for a, ma, ca in rows:
        for b, mb, cb in rows:
            shared = ma & mb
            # a context never reverses itself (ca == cb leaves no x)
            reversal = shared & ca & ~cb
            if reversal and shared & cb:
                x = model.scenario._names(reversal)[0]
                y = model.scenario._names(shared & cb)[0]
                return _failing(
                    f"{x!r} is chosen from {list(a)} and rejected from "
                    f"{list(b)} even though {y!r} is chosen there",
                    {"context_a": list(a), "context_b": list(b), "x": x, "y": y},
                )
    return _passing("no pair of contexts reveals a preference reversal")


def check_no_signalling(model: PossibilisticModel) -> Verdict:
    """Whether overlapping contexts agree on their shared choice functions.

    A violation witness is the canonically first (A, B, z) with z in both
    contexts but chosen in exactly one of them.
    """
    for (a, ma, ca), (b, mb, cb) in combinations(_rows(model), 2):
        differ = ma & mb & (ca ^ cb)
        if differ:
            z = model.scenario._names(differ)[0]
            in_a, not_in = (a, b) if ca & model.scenario.bit[z] else (b, a)
            return _failing(
                f"{z!r} is chosen from {list(in_a)} but not from {list(not_in)}",
                {"context_a": list(a), "context_b": list(b), "variable": z},
            )
    return _passing("overlapping contexts agree on every shared variable")


def intersection_closed(scenario: Scenario) -> Verdict:
    """Whether every nonempty intersection of two distinct cover contexts
    is itself a cover context."""
    masks = scenario._masks
    present = set(masks)
    for (a, ma), (b, mb) in combinations(zip(scenario.cover, masks), 2):
        meet = ma & mb
        if meet and meet not in present:
            names = scenario._names(meet)
            return _failing(
                f"{names} is the intersection of {list(a)} and {list(b)} "
                "but is not a context",
                {"context_a": list(a), "context_b": list(b), "intersection": names},
            )
    return _passing("the cover is closed under nonempty intersections")


def overlap_property(model: PossibilisticModel) -> Verdict:
    """Whether every overlapping pair of distinct contexts has a chosen
    variable inside the overlap, on both sides.

    Disjoint pairs are skipped; the quantifier runs over distinct contexts
    with nonempty intersection.
    """
    for (a, ma, ca), (b, mb, cb) in combinations(_rows(model), 2):
        shared = ma & mb
        if not shared:
            continue
        for side, chosen in ((a, ca), (b, cb)):
            if not shared & chosen:
                overlap = model.scenario._names(shared)
                return _failing(
                    f"nothing in the overlap {overlap} is chosen from {list(side)}",
                    {
                        "context_a": list(a),
                        "context_b": list(b),
                        "overlap": overlap,
                        "empty_side": list(side),
                    },
                )
    return _passing("every overlapping context pair chooses inside the overlap")


def is_choice_structure(model: PossibilisticModel) -> Verdict:
    """Whether every context has exactly one event, i.e. the model is a
    single-valued choice structure rather than a multi-valued one."""
    model.scenario._masks  # an undeclared variable raises, as in every check
    for context in model.scenario.cover:
        count = len(model._codes[model._key(context)])
        if count != 1:
            return _failing(
                f"context {list(context)} has {count} events instead of 1",
                {"context": list(context), "event_count": count},
            )
    return _passing("every context has exactly one event")


# the five checks by name, in report order; the names are also the
# AuditReport fields
CHECKS = {
    "weak_axiom": check_weak_axiom,
    "no_signalling": check_no_signalling,
    "intersection_closed": lambda model: intersection_closed(model.scenario),
    "overlap_property": overlap_property,
    "choice_structure": is_choice_structure,
}


def verdicts(model: PossibilisticModel) -> dict[str, Verdict]:
    """The verdicts of the five checks, keyed as :data:`CHECKS`."""
    return {name: check(model) for name, check in CHECKS.items()}


@dataclass(frozen=True)
class TheoremCheck:
    """One structural implication, instantiated on a concrete model.

    ``applicable`` is whether the hypothesis holds here; ``consistent`` is
    whether the conclusion then holds too (vacuously true when not
    applicable).  An inconsistent check would falsify the implication.
    """

    id: str
    applicable: bool
    consistent: bool
    detail: str

    def to_doc(self) -> dict:
        return asdict(self)


def _implication(
    check_id: str,
    hypotheses: list[tuple[bool, str]],
    conclusion: bool,
    detail: str,
    note: str = "",
) -> TheoremCheck:
    """The check of "hypotheses imply conclusion" on one model.

    ``hypotheses`` are ``(holds, reason)`` pairs in report order.  The check
    applies exactly when every hypothesis holds; otherwise its detail names
    the reason of the first one that fails.  ``note`` ends the detail either
    way.
    """
    failed = [reason for holds, reason in hypotheses if not holds]
    return TheoremCheck(
        id=check_id,
        applicable=not failed,
        consistent=bool(failed) or conclusion,
        detail=(f"not applicable: {failed[0]}" if failed else detail) + note,
    )


@dataclass(frozen=True)
class AuditReport:
    """Every axiom verdict, the classification, and the implication checks
    for one model."""

    weak_axiom: Verdict
    no_signalling: Verdict
    intersection_closed: Verdict
    overlap_property: Verdict
    choice_structure: Verdict
    classification: Classification
    theorem_checks: tuple[TheoremCheck, ...]

    def region(self) -> str:
        """Human-readable cell of the axiom/contextuality landscape."""
        warp = "weak axiom holds" if self.weak_axiom.holds else "weak axiom fails"
        signal = "no-signalling" if self.no_signalling.holds else "signalling"
        return f"{warp}; {signal}; {_REGION_KIND[self.classification.kind.value]}"

    def to_doc(self) -> dict:
        return {
            **{name: getattr(self, name).to_doc() for name in CHECKS},
            "classification": self.classification.to_doc(),
            "theorems": [check.to_doc() for check in self.theorem_checks],
        }


def audit(model: PossibilisticModel, deadline: float | None = None) -> AuditReport:
    """Run every axiom check, classify, and test each implication on the
    result.

    An implication check applies exactly when its hypotheses hold; when
    one fails, the check's detail names the first that fails.
    """
    from .contextuality import Kind, classify

    found = verdicts(model)
    warp, signalling, closed, overlap, _ = found.values()
    classification = classify(model, deadline)
    kind = classification.kind
    disjoint = any(not ma & mb for ma, mb in combinations(model.scenario._masks, 2))
    separated = warp.holds and not signalling.holds

    checks = (
        _implication(
            "warp-failure-implies-contextual",
            [
                (closed.holds, "the cover is not intersection-closed"),
                (not warp.holds, "the weak axiom holds"),
            ],
            kind is not Kind.NONCONTEXTUAL,
            f"weak axiom fails on an intersection-closed cover; classified {kind}",
        ),
        _implication(
            "no-signalling-implies-warp",
            [(signalling.holds, "the model signals")],
            warp.holds,
            f"no-signalling holds; weak axiom {warp.status}",
        ),
        _implication(
            "warp-and-overlap-imply-no-signalling",
            [
                (warp.holds, "the weak axiom fails"),
                (overlap.holds, "the overlap property fails"),
            ],
            signalling.holds,
            f"weak axiom and overlap property hold; no-signalling {signalling.status}",
            " (cover has disjoint context pairs, skipped by the overlap quantifier)"
            if disjoint
            else "",
        ),
        # a separation, not an implication: it can only be realized or not
        TheoremCheck(
            id="warp-strictly-weaker-than-no-signalling",
            applicable=separated,
            consistent=True,
            detail="model realizes the weak-axiom-without-no-signalling region"
            if separated
            else "this model does not separate the weak axiom from no-signalling",
        ),
    )
    return AuditReport(**found, classification=classification, theorem_checks=checks)
