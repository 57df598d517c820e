"""Reference answers for the benchmark, computed from the definitions.

This module shares no code with ``choicectx``: it reads model documents as
plain JSON and recomputes every verdict the benchmark checks.  Global
sections are found by a vectorised scan over all ``2^n`` codes, so the
reference stays fast at the sizes the benchmark uses.  ``random_model``
re-implements the documented random-model generator, draw
for draw, so that ``gen`` output can be checked on any seed.

Conventions, as documented by the package: variables sort by name; the cover
and each context's events sort shortlex (size, then the sorted names); in a
global section's code, bit ``n - 1 - j`` holds variable ``j``, so ascending
codes are assignments in lexicographic order.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from itertools import chain, combinations

import numpy as np

SUPPORT_EPSILON = 1e-9


def shortlex(names):
    ordered = tuple(sorted(names))
    return (len(ordered), ordered)


class Model:
    """A possibilistic model read from a document: the cover in shortlex
    order and, per context, the set of its events as codes, bit ``k`` set
    when the context's ``k``-th variable (in name order) is 1."""

    def __init__(self, variables, supports):
        self.variables = sorted(variables)
        self.index = {v: j for j, v in enumerate(self.variables)}
        self.events = {}
        for context, events in supports.items():
            context = tuple(sorted(context))
            self.events[context] = _encode(context, events)
        self.cover = sorted(self.events, key=shortlex)
        self._chosen = {}
        for context, codes in self.events.items():
            union = 0
            for code in codes:
                union |= code
            self._chosen[context] = set(names(context, union))

    @property
    def n(self) -> int:
        return len(self.variables)

    def chosen(self, context) -> set:
        return self._chosen[context]


def _encode(context, events) -> set[int]:
    bit = {v: 1 << k for k, v in enumerate(context)}
    sizes = np.fromiter(map(len, events), dtype=np.int64, count=len(events))
    flat = np.fromiter(
        map(bit.__getitem__, chain.from_iterable(events)), dtype=np.int64,
        count=int(sizes.sum()),
    )
    sums = np.concatenate(([0], np.cumsum(flat)))
    ends = np.cumsum(sizes)
    return set((sums[ends] - sums[ends - sizes]).tolist())


def names(context, code: int) -> tuple:
    """The variables an event code sets to 1, in name order."""
    return tuple(v for k, v in enumerate(context) if (code >> k) & 1)


def model_from_doc(doc: dict) -> Model:
    """Read a possibilistic document, or the support of a probabilistic one
    (entries with ``p`` above ``SUPPORT_EPSILON``)."""
    supports = {}
    if "possibilistic" in doc:
        for entry in doc["possibilistic"]:
            supports[tuple(entry["context"])] = entry["events"]
    else:
        for entry in doc["probabilistic"]:
            supports[tuple(entry["context"])] = [
                [v for v, bit in row["assignment"].items() if bit]
                for row in entry["distribution"]
                if row["p"] > SUPPORT_EPSILON
            ]
    return Model(doc["variables"], supports)


def _local_codes(model: Model, context, codes: np.ndarray) -> np.ndarray:
    """Each code's outcome on ``context``, packed with bit ``k`` for the
    context's ``k``-th variable."""
    local = np.zeros(len(codes), dtype=np.int64)
    for k, v in enumerate(context):
        local |= ((codes >> (model.n - 1 - model.index[v])) & 1) << k
    return local


def section_codes(model: Model) -> np.ndarray:
    """All global sections, as ascending codes."""
    codes = np.arange(1 << model.n, dtype=np.int64)
    # the most restrictive contexts first, so the candidate set shrinks fast
    order = sorted(
        model.cover, key=lambda c: len(model.events[c]) / float(1 << len(c))
    )
    for context in order:
        allowed = np.zeros(1 << len(context), dtype=bool)
        allowed[list(model.events[context])] = True
        codes = codes[allowed[_local_codes(model, context, codes)]]
        if not len(codes):
            break
    return codes


def sections_digest(codes) -> str:
    return hashlib.sha256(np.asarray(codes, dtype=">u8").tobytes()).hexdigest()


def classification(model: Model, codes: np.ndarray) -> dict:
    """Kind, the first unrealized event (cover order, then shortlex), and
    the section count, in the CLI's ``--machine`` form."""
    if not len(codes):
        return {"kind": "StronglyContextual", "witness_event": None, "section_count": 0}
    for context in model.cover:
        realized = set(np.unique(_local_codes(model, context, codes)).tolist())
        missing = model.events[context] - realized
        if missing:
            event = min((names(context, code) for code in missing), key=shortlex)
            return {
                "kind": "Contextual",
                "witness_event": {"context": list(context), "event": list(event)},
                "section_count": len(codes),
            }
    return {"kind": "NonContextual", "witness_event": None, "section_count": len(codes)}


def _verdict(witness) -> dict:
    return {"status": "Holds" if witness is None else "Fails", "witness": witness}


def weak_axiom(model: Model) -> dict:
    """If x is chosen in A and y in B, with x and y in both, then x is chosen
    in B.  First violation: pairs (A, B) in cover order, then x, then y."""
    for a in model.cover:
        for b in model.cover:
            if a == b:
                continue
            shared = sorted(set(a) & set(b))
            ch_a, ch_b = model.chosen(a), model.chosen(b)
            for x in shared:
                for y in shared:
                    if x in ch_a and y in ch_b and x not in ch_b:
                        return _verdict(
                            {"context_a": list(a), "context_b": list(b), "x": x, "y": y}
                        )
    return _verdict(None)


def no_signalling(model: Model) -> dict:
    """Every variable shared by two contexts is chosen in both or neither."""
    for a, b in combinations(model.cover, 2):
        ch_a, ch_b = model.chosen(a), model.chosen(b)
        for z in sorted(set(a) & set(b)):
            if (z in ch_a) != (z in ch_b):
                return _verdict(
                    {"context_a": list(a), "context_b": list(b), "variable": z}
                )
    return _verdict(None)


def intersection_closed(model: Model) -> dict:
    present = set(model.cover)
    for a, b in combinations(model.cover, 2):
        meet = tuple(sorted(set(a) & set(b)))
        if meet and meet not in present:
            return _verdict(
                {"context_a": list(a), "context_b": list(b), "intersection": list(meet)}
            )
    return _verdict(None)


def overlap_property(model: Model) -> dict:
    """Every overlapping pair chooses something inside the overlap, on
    both sides (side A checked first)."""
    for a, b in combinations(model.cover, 2):
        shared = set(a) & set(b)
        if not shared:
            continue
        for side in (a, b):
            if not shared & model.chosen(side):
                return _verdict(
                    {
                        "context_a": list(a),
                        "context_b": list(b),
                        "overlap": sorted(shared),
                        "empty_side": list(side),
                    }
                )
    return _verdict(None)


def choice_structure(model: Model) -> dict:
    for context in model.cover:
        count = len(model.events[context])
        if count != 1:
            return _verdict({"context": list(context), "event_count": count})
    return _verdict(None)


def axioms(model: Model) -> dict:
    return {
        "weak_axiom": weak_axiom(model),
        "no_signalling": no_signalling(model),
        "intersection_closed": intersection_closed(model),
        "overlap_property": overlap_property(model),
        "choice_structure": choice_structure(model),
    }


def theorems(verdicts: dict, kind: str) -> list:
    """The four implication checks: whether each hypothesis holds and
    whether its conclusion then holds too."""
    holds = {name: v["status"] == "Holds" for name, v in verdicts.items()}
    warp, ns = holds["weak_axiom"], holds["no_signalling"]
    closed, overlap = holds["intersection_closed"], holds["overlap_property"]
    rows = [
        ("warp-failure-implies-contextual", closed and not warp, kind != "NonContextual"),
        ("no-signalling-implies-warp", ns, warp),
        ("warp-and-overlap-imply-no-signalling", warp and overlap, ns),
        ("warp-strictly-weaker-than-no-signalling", warp and not ns, True),
    ]
    return [
        {"id": name, "applicable": applicable, "consistent": not applicable or conclusion}
        for name, applicable, conclusion in rows
    ]


def bell_violation(doc: dict, codes: np.ndarray) -> Fraction | None:
    """Excess of the summed support-formula probabilities over ``N - 1``,
    in exact arithmetic; ``None`` when the formulas are jointly satisfiable
    (some global section exists), so no bound applies.

    Each formula asserts that its own context's outcome lies in that
    context's support, so its probability is the mass of the support.
    """
    if len(codes):
        return None
    total = Fraction(0)
    for entry in doc["probabilistic"]:
        total += sum(
            (Fraction(row["p"]) for row in entry["distribution"] if row["p"] > SUPPORT_EPSILON),
            Fraction(0),
        )
    return total - (len(doc["probabilistic"]) - 1)


def _draw_cover(rng, names, n_contexts, closed):
    contexts = []
    for _ in range(n_contexts):
        for _attempt in range(64):
            keep = rng.random(len(names)) < 0.5
            candidate = tuple(name for name, k in zip(names, keep) if k)
            if candidate and candidate not in contexts:
                contexts.append(candidate)
                break
    covered = {v for c in contexts for v in c}
    leftover = tuple(v for v in names if v not in covered)
    if leftover:
        contexts.append(leftover)
    cover = {frozenset(c) for c in contexts}
    if closed:
        grown = True
        while grown:
            meets = {a & b for a in cover for b in cover if a != b and a & b}
            grown = not meets <= cover
            cover |= meets
    return sorted((tuple(sorted(c)) for c in cover), key=shortlex)


def _names(n_variables):
    width = len(str(n_variables - 1))
    return [f"x{i:0{width}d}" for i in range(n_variables)]


def table_mass(n_variables, n_contexts, seed, closed=False) -> int:
    """Total outcome-table size, the sum of ``2^|U|`` over the cover, of the
    seeded random model; it fixes the expected event count (times the
    density) and so the document size.  Cheap: draws only the cover."""
    rng = np.random.default_rng(seed)
    cover = _draw_cover(rng, _names(n_variables), n_contexts, closed)
    return sum(1 << len(c) for c in cover)


def summary(model: Model) -> dict:
    """Variables and per-context event codes: what two documents of the same
    model agree on, whatever their formatting and order."""
    return {
        "variables": model.variables,
        "events": {"|".join(c): sorted(model.events[c]) for c in model.cover},
    }


def random_model(n_variables, n_contexts, density, seed, closed=False) -> dict:
    """``summary`` of the seeded random model the package's generator is
    documented to draw: random nonempty contexts (64 tries each, duplicates
    dropped), a catch-all for uncovered variables, the optional intersection
    closure, then one inclusion draw per subset of each context in cover
    order, bit ``j`` of a subset standing for the context's ``j``-th
    variable."""
    rng = np.random.default_rng(seed)
    names = _names(n_variables)
    cover = _draw_cover(rng, names, n_contexts, closed)
    events = {}
    for context in cover:
        draws = rng.random(1 << len(context)) < density
        events["|".join(context)] = np.flatnonzero(draws).tolist()
    return {"variables": names, "events": events}
