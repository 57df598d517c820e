"""Independent oracle for the fixture ground truths frozen into the tests.

Deliberately shares no code with the package: models are plain dicts,
assignments are dicts built with itertools.product, probabilities are exact
fractions.  Run it to print the table of expected values; the test suite
freezes these outputs as literals.
"""

from fractions import Fraction
from itertools import product

FIXTURES = {
    "double_headed_coin": {
        ("a", "b"): [{"a"}, {"a", "b"}],
        ("a", "b'"): [{"a"}, {"a", "b'"}],
        ("a'", "b"): [set(), {"a'"}, {"b"}, {"a'", "b"}],
        ("a'", "b'"): [set(), {"a'"}, {"b'"}, {"a'", "b'"}],
    },
    "hardy_table": {
        ("a", "b"): [set(), {"a"}, {"b"}, {"a", "b"}],
        ("a", "b'"): [{"a"}, {"b'"}, {"a", "b'"}],
        ("a'", "b"): [{"a'"}, {"b"}, {"a'", "b"}],
        ("a'", "b'"): [set(), {"a'"}, {"b'"}],
    },
    "hardy_relabeled": {
        ("a", "b"): [set(), {"a"}, {"b"}, {"a", "b"}],
        ("a", "b'"): [set(), {"a"}, {"b'"}],
        ("a'", "b"): [set(), {"a'"}, {"b"}],
        ("a'", "b'"): [{"a'"}, {"b'"}, {"a'", "b'"}],
    },
    "pr_box": {
        ("a", "b"): [set(), {"a", "b"}],
        ("a", "b'"): [set(), {"a", "b'"}],
        ("a'", "b"): [set(), {"a'", "b"}],
        ("a'", "b'"): [{"a'"}, {"b'"}],
    },
    "luce_raiffa": {
        ("Salmon", "Steak"): [{"Salmon"}],
        ("FrogLegs", "Salmon", "Steak"): [{"Steak"}],
    },
    "warp_noncontextual": {
        ("a", "b"): [{"a"}],
        ("a", "c"): [{"a"}],
    },
    "warp_contextual": {
        ("a", "b"): [{"a"}],
        ("b", "c"): [{"b"}],
    },
    "warp_signalling": {
        ("x", "y"): [{"x"}],
        ("x", "y", "z"): [{"z"}],
    },
}


def variables_of(supports):
    return sorted({v for context in supports for v in context})


def shortlex(names):
    ordered = tuple(sorted(names))
    return (len(ordered), ordered)


def sections_of(supports):
    names = variables_of(supports)
    found = []
    for bits in product((0, 1), repeat=len(names)):
        s = dict(zip(names, bits))
        if all(
            {v for v in context if s[v]} in [set(e) for e in events]
            for context, events in supports.items()
        ):
            found.append(s)
    return found


def classify(supports):
    sections = sections_of(supports)
    if not sections:
        return "StronglyContextual", None, 0
    for context in sorted(supports, key=shortlex):
        realized = [{v for v in context if s[v]} for s in sections]
        for event in sorted(supports[context], key=shortlex):
            if set(event) not in realized:
                return "Contextual", (context, tuple(sorted(event))), len(sections)
    return "NonContextual", None, len(sections)


def chosen(supports, context):
    return set().union(*supports[context]) if supports[context] else set()


def warp_holds(supports):
    # direct quantifier over all context pairs and all shared x, y
    for a in supports:
        for b in supports:
            for x in set(a) & set(b):
                for y in set(a) & set(b):
                    if (
                        x in chosen(supports, a)
                        and y in chosen(supports, b)
                        and x not in chosen(supports, b)
                    ):
                        return False
    return True


def no_signalling_holds(supports):
    return all(
        (z in chosen(supports, a)) == (z in chosen(supports, b))
        for a in supports
        for b in supports
        for z in set(a) & set(b)
    )


def closed_holds(supports):
    cover = [set(c) for c in supports]
    return all(
        (not (a & b)) or (a & b) in cover
        for i, a in enumerate(cover)
        for j, b in enumerate(cover)
        if i < j
    )


def overlap_holds(supports):
    contexts = list(supports)
    return all(
        (not (set(a) & set(b)))
        or (
            set(a) & set(b) & chosen(supports, a)
            and set(a) & set(b) & chosen(supports, b)
        )
        for i, a in enumerate(contexts)
        for j, b in enumerate(contexts)
        if i < j
    )


# The canonically first counterexample of each check, or None when it holds:
# context pairs in cover order, then the least variable names.


def cover_of(supports):
    return sorted(supports, key=shortlex)


def pairs_of(supports):
    contexts = cover_of(supports)
    return [(a, b) for i, a in enumerate(contexts) for b in contexts[i + 1 :]]


def warp_witness(supports):
    for a in cover_of(supports):
        for b in cover_of(supports):
            shared = set(a) & set(b)
            xs = [
                x
                for x in shared
                if x in chosen(supports, a) and x not in chosen(supports, b)
            ]
            ys = [y for y in shared if y in chosen(supports, b)]
            if xs and ys:
                return {
                    "context_a": list(a),
                    "context_b": list(b),
                    "x": min(xs),
                    "y": min(ys),
                }
    return None


def no_signalling_witness(supports):
    for a, b in pairs_of(supports):
        differ = [
            z
            for z in set(a) & set(b)
            if (z in chosen(supports, a)) != (z in chosen(supports, b))
        ]
        if differ:
            return {"context_a": list(a), "context_b": list(b), "variable": min(differ)}
    return None


def closed_witness(supports):
    contexts = [set(c) for c in supports]
    for a, b in pairs_of(supports):
        meet = set(a) & set(b)
        if meet and meet not in contexts:
            return {
                "context_a": list(a),
                "context_b": list(b),
                "intersection": sorted(meet),
            }
    return None


def overlap_witness(supports):
    for a, b in pairs_of(supports):
        shared = set(a) & set(b)
        for side in (a, b):
            if shared and not shared & chosen(supports, side):
                return {
                    "context_a": list(a),
                    "context_b": list(b),
                    "overlap": sorted(shared),
                    "empty_side": list(side),
                }
    return None


def choice_structure_witness(supports):
    for context in cover_of(supports):
        if len(supports[context]) != 1:
            return {"context": list(context), "event_count": len(supports[context])}
    return None


def uniform_bell_sum(supports):
    # sum over contexts of P(outcome in support) under the per-context
    # uniform distribution; exact arithmetic
    total = Fraction(0)
    for context, events in supports.items():
        allowed = [set(e) for e in events]
        hits = Fraction(0)
        for bits in product((0, 1), repeat=len(context)):
            outcome = {v for v, bit in zip(sorted(context), bits) if bit}
            if outcome in allowed:
                hits += Fraction(1, len(allowed))
        total += hits
    return total


def main():
    for name, supports in FIXTURES.items():
        kind, witness, count = classify(supports)
        print(f"{name}:")
        print(f"  kind={kind} sections={count} witness={witness}")
        print(
            f"  warp={warp_holds(supports)}"
            f" no_signalling={no_signalling_holds(supports)}"
            f" closed={closed_holds(supports)}"
            f" overlap={overlap_holds(supports)}"
            f" choice_structure={all(len(e) == 1 for e in supports.values())}"
        )
        total = uniform_bell_sum(supports)
        excess = total - (len(supports) - 1)
        print(f"  uniform support-formula sum={total} excess={excess}")


if __name__ == "__main__":
    main()
