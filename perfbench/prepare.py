"""Build one workload's inputs and reference answers.

Usage: python3 perfbench/prepare.py --workload NAME --seed N --scale full|tiny --out DIR

Runs in its own process so that neither the input generation nor the
reference computation counts toward the measured process's peak memory.
Inputs come from the package's own generators (``gen_random_model``,
``uniform_over_support``, the catalog) and are written as files; the
reference answers are computed from those files by ``reference.py``, which
shares no code with the package.  Writes ``DIR/ops.json``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import random
import sys

import reference as ref

ORACLE_MAX_VARS = 10  # tools/oracle.py scans 2^n dict assignments; keep it small

# Model groups per scale: how many models, the generator's (n_variables,
# n_contexts, density, intersection_closed) and a band on the outcome-table
# mass (the sum of 2^|U| over the cover; see reference.table_mass).  Every
# seed draws fresh generator seeds, and the band states the input size, so
# that one run's figures do not hinge on a few unusually wide covers.
# Search-dense covers are dense enough that section search, not parsing,
# holds most of a classify op; docs-io documents are 0.3-0.6 MB; bell-route
# stays at n = 10, where one op takes tens of milliseconds.  The search-dense
# band is narrow because its p90 rests on the widest of those covers.
# Each band is cut into STRATA equal parts and a group's models are spread
# evenly over them, so that every seed gets the same mix of input sizes and
# the figures of two seeds differ by the program's speed, not by their draws.
GRIDS = {
    "full": {
        "search_open": (120, (17, 12, 0.7, False), (7000, 9000)),
        "search_closed": (8, (14, 6, 0.9, True), (1000, 2450)),
        "search_backtracking": (20, (15, 12, 0.7, False), (3400, 6400)),
        "search_bruteforce": (12, (12, 10, 0.7, False), (880, 1580)),
        "docs_read": (40, (18, 11, 0.6, False), (10000, 16000)),
        "docs_gen": (30, (18, 11, 0.6, False), (10000, 16000)),
        "bell": (200, (10, 7, 0.35, False), (254, 500)),
    },
    "tiny": {
        "search_open": (3, (9, 6, 0.6, False), (0, 1 << 20)),
        "search_closed": (1, (8, 4, 0.85, True), (0, 1 << 20)),
        "search_backtracking": (1, (8, 5, 0.6, False), (0, 1 << 20)),
        "search_bruteforce": (1, (8, 5, 0.6, False), (0, 1 << 20)),
        "docs_read": (2, (9, 6, 0.6, False), (0, 1 << 20)),
        "docs_gen": (2, (9, 6, 0.6, False), (0, 1 << 20)),
        "bell": (4, (7, 5, 0.35, False), (0, 1 << 20)),
    },
}
STRATA = {"full": 8, "tiny": 1}  # tiny bands are open: one part
AUDITED_SHARE = 3  # every third open search-dense model goes through audit

# A generated bell model whose widest context holds over a thousand events;
# its support formula nests deeper than the interpreter's recursion limit.
RECURSION_MODEL = (16, 10, 0.3, 2)
DEEP_NESTING = 3000


class Builder:
    """Writes input files and accumulates ops for one workload."""

    def __init__(self, out: str, seed: int, scale: str):
        self.out = out
        self.rng = random.Random(seed)
        self.grid = GRIDS[scale]
        self.strata = STRATA[scale]
        self.ops: list[dict] = []
        self.files = 0
        self.oracle = _load_oracle()

    def draw(self, group: str):
        """(n, k, density, closed, gen_seed) tuples for one model group.
        The i-th model comes from part ``i % strata`` of the group's band:
        generator seeds are taken in turn until the cover's table mass falls
        in that part."""
        count, (n, k, d, closed), (low, high) = self.grid[group]
        width = (high - low) / self.strata
        for i in range(count):
            while True:
                s = self.rng.randrange(1 << 30)
                mass = ref.table_mass(n, k, s, closed)
                if low <= mass <= high and min(
                    int((mass - low) // width), self.strata - 1
                ) == i % self.strata:
                    break
            yield n, k, d, closed, s

    def write(self, text: str, suffix: str) -> str:
        path = os.path.join(self.out, f"f{self.files:03d}{suffix}")
        self.files += 1
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return path

    def add(self, op_id: str, command: str, expect: dict, counters: dict, *,
            argv=None, func=None, model=None, probe=None) -> None:
        op = {
            "id": op_id,
            "command": command,
            "expect": expect,
            "counters": counters,
            "probe": probe,
        }
        if argv is not None:
            op["argv"] = argv
        if func is not None:
            op["func"], op["model"] = func, model
        self.ops.append(op)

    def checked(self, text: str, search: bool = True) -> dict:
        """Reference facts for one model document; with ``search``, also its
        sections and classification, cross-checked against tools/oracle.py
        where the oracle is fast enough."""
        doc = json.loads(text)
        model = ref.model_from_doc(doc)
        facts = {"doc": doc, "model": model, "counters": counters_of(doc, text)}
        if search:
            facts["codes"] = ref.section_codes(model)
            facts["classification"] = ref.classification(model, facts["codes"])
            if model.n <= ORACLE_MAX_VARS:
                self.cross_check(model, facts["classification"])
        return facts

    def cross_check(self, model: "ref.Model", classification: dict) -> None:
        supports = {
            c: [set(ref.names(c, code)) for code in model.events[c]] for c in model.cover
        }
        kind, witness, count = self.oracle.classify(supports)
        mine = classification["witness_event"]
        theirs = None
        if witness is not None:
            theirs = {"context": list(witness[0]), "event": list(witness[1])}
        statuses = {k: v["status"] == "Holds" for k, v in ref.axioms(model).items()}
        oracle_statuses = {
            "weak_axiom": self.oracle.warp_holds(supports),
            "no_signalling": self.oracle.no_signalling_holds(supports),
            "intersection_closed": self.oracle.closed_holds(supports),
            "overlap_property": bool(self.oracle.overlap_holds(supports)),
            "choice_structure": all(len(e) == 1 for e in supports.values()),
        }
        if (kind, theirs, count) != (
            classification["kind"], mine, classification["section_count"]
        ) or statuses != oracle_statuses:
            raise SystemExit("reference disagrees with tools/oracle.py")


def _load_oracle():
    spec = importlib.util.spec_from_file_location(
        "choicectx_oracle", os.path.join("tools", "oracle.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def counters_of(doc: dict, text: str, formulas: int = 0) -> dict:
    rows = doc.get("possibilistic") or doc.get("probabilistic")
    events = sum(len(r.get("events", r.get("distribution", []))) for r in rows)
    return {
        "variables": len(doc["variables"]),
        "contexts": len(doc["contexts"]),
        "events": events,
        "doc_bytes": len(text.encode("utf-8")),
        "formulas": formulas,
    }


def classification_expect(facts: dict) -> dict:
    return {"exit": 0, "json": facts["classification"]}


def axioms_expect(facts: dict) -> dict:
    return {"exit": 0, "json": ref.axioms(facts["model"])}


def audit_expect(facts: dict) -> dict:
    verdicts = ref.axioms(facts["model"])
    classification = facts["classification"]
    return {
        "exit": 0,
        "json": {
            **verdicts,
            "classification": classification,
            "theorems": ref.theorems(verdicts, classification["kind"]),
        },
    }


def support_formulas(model: "ref.Model") -> list[str]:
    """One formula per context, in cover order: the outcome is one of the
    context's events (a disjunction of full conjunctions), or ``0``."""
    lines = []
    for context in model.cover:
        terms = [
            " & ".join(v if (code >> k) & 1 else "!" + v for k, v in enumerate(context))
            for code in sorted(model.events[context])
        ]
        lines.append(" | ".join(terms) if terms else "0")
    return lines


NAN_DOCUMENT = (
    '{"variables": ["a"], "contexts": [["a"]], "probabilistic": '
    '[{"context": ["a"], "distribution": [{"assignment": {"a": 1}, "p": NaN}]}]}\n'
)


def document(model) -> str:
    """A model's document in compact JSON.  The package's own writer
    indents through the pure-Python JSON encoder, which would dominate
    set-up; input order does not matter to the parser."""
    import choicectx

    scenario = model.scenario
    doc = {"variables": list(scenario.variables), "contexts": [list(c) for c in scenario.cover]}
    if isinstance(model, choicectx.PossibilisticModel):
        doc["possibilistic"] = [
            {"context": list(c), "events": [list(e) for e in model.events(c)]}
            for c in scenario.cover
        ]
    else:
        doc["probabilistic"] = [
            {"context": list(c), "distribution": [
                {"assignment": a.as_dict(), "p": p} for a, p in model.distribution(c)
            ]}
            for c in scenario.cover
        ]
    return json.dumps(doc) + "\n"


def catalog_model(name: str) -> str:
    import choicectx

    return document(getattr(choicectx, name)())


def gen_doc(n, k, d, closed, seed) -> str:
    import choicectx

    return document(choicectx.gen_random_model(n, k, d, seed, intersection_closed=closed))


def build_search_dense(b: Builder) -> None:
    for i, (n, k, d, closed, s) in enumerate(
        list(b.draw("search_open")) + list(b.draw("search_closed"))
    ):
        text = gen_doc(n, k, d, closed, s)
        facts = b.checked(text)
        path = b.write(text, ".json")
        counters = dict(facts["counters"], sections=facts["classification"]["section_count"])
        if closed or i % AUDITED_SHARE:
            b.add(f"classify-{i}", "classify", classification_expect(facts),
                  counters, argv=["classify", "--machine", path])
        else:
            b.add(f"audit-{i}", "audit", audit_expect(facts),
                  counters, argv=["audit", "--machine", path])
    for func, grid in (
        ("global_sections_backtracking", "search_backtracking"),
        ("global_sections_bruteforce", "search_bruteforce"),
    ):
        for i, (n, k, d, closed, s) in enumerate(b.draw(grid)):
            text = gen_doc(n, k, d, closed, s)
            facts = b.checked(text)
            path = b.write(text, ".json")
            codes = facts["codes"]
            counters = dict(facts["counters"], codes=1 << n, sections=len(codes))
            b.add(f"{func}-{i}", "lib",
                  {"sections": len(codes), "digest": ref.sections_digest(codes)},
                  counters, func=func, model=path)
    for name in ("double_headed_coin", "hardy_table", "pr_box", "luce_raiffa"):
        text = catalog_model(name)
        facts = b.checked(text)
        path = b.write(text, ".json")
        counters = dict(facts["counters"], sections=facts["classification"]["section_count"])
        b.add(f"audit-{name}", "audit", audit_expect(facts), counters,
              argv=["audit", "--machine", path])
    nan_path = b.write(NAN_DOCUMENT, ".json")
    b.add("classify-nan", "classify", {"exit": 2}, counters_of(
        json.loads(NAN_DOCUMENT), NAN_DOCUMENT),
        argv=["classify", "--machine", nan_path], probe="5a")
    first = next(op for op in b.ops if op["command"] == "classify")
    b.add("classify-negative-budget", "classify", {"exit": 2}, first["counters"],
          argv=["classify", "--machine", "--budget", "-1", first["argv"][-1]],
          probe="5d")


def build_docs_io(b: Builder) -> None:
    for i, (n, k, d, closed, s) in enumerate(b.draw("docs_read")):
        text = gen_doc(n, k, d, closed, s)
        facts = b.checked(text, search=False)
        path = b.write(text, ".json")
        b.add(f"axioms-{i}", "axioms", axioms_expect(facts), facts["counters"],
              argv=["axioms", "--machine", path])
    for i, (n, k, d, closed, s) in enumerate(b.draw("docs_gen")):
        model = ref.random_model(n, k, d, s, closed)
        counters = {
            "variables": n,
            "contexts": len(model["events"]),
            "events": sum(map(len, model["events"].values())),
            "doc_bytes": 0,  # known only once gen has written it
            "formulas": 0,
        }
        b.add(f"gen-{i}", "gen", {"exit": 0, "model": model}, counters,
              argv=["gen", "--vars", str(n), "--contexts", str(k),
                    "--density", str(d), "--seed", str(s)])
    for name in ("luce_raiffa", "warp_signalling"):
        text = catalog_model(name)
        facts = b.checked(text, search=False)
        path = b.write(text, ".json")
        b.add(f"axioms-{name}", "axioms", axioms_expect(facts), facts["counters"],
              argv=["axioms", "--machine", path])
    nan_path = b.write(NAN_DOCUMENT, ".json")
    b.add("axioms-nan", "axioms", {"exit": 2}, counters_of(
        json.loads(NAN_DOCUMENT), NAN_DOCUMENT),
        argv=["axioms", "--machine", nan_path], probe="5a")


def bell_op(b: Builder, op_id: str, prob_text: str, probe=None) -> None:
    facts = b.checked(prob_text)
    formulas = support_formulas(facts["model"])
    props_text = "\n".join(formulas) + "\n"
    model_path = b.write(prob_text, ".json")
    props_path = b.write(props_text, ".txt")
    violation = ref.bell_violation(facts["doc"], facts["codes"])
    if violation is None:
        # merely contextual: the CLI exits 2 with NotContradictory, and no
        # other rejection of the input may pass for it
        expect = {"exit": 2, "error": "NotContradictory", "stderr": "jointly satisfiable"}
    else:
        expect = {"exit": 0, "json": {"formulas": len(formulas)},
                  "violation": float(violation)}
    rows = sum(1 << len(c) if facts["model"].events[c] else 1
               for c in facts["model"].cover)
    counters = dict(
        counters_of(facts["doc"], prob_text, len(formulas)),
        props_bytes=len(props_text.encode("utf-8")),
        truth_table_rows=rows,
    )
    b.add(op_id, "bell", expect, counters,
          argv=["bell", "--machine", model_path, "--props", props_path], probe=probe)


def build_bell_route(b: Builder) -> None:
    import choicectx

    made = 0
    for n, k, d, closed, s in b.draw("bell"):
        model = choicectx.gen_random_model(n, k, d, s)
        try:
            prob = choicectx.uniform_over_support(model)
        except ValueError:
            continue  # a context with no events has no uniform distribution
        bell_op(b, f"bell-{made}", document(prob))
        made += 1
    for name in ("pr_box_distribution", "hardy_distribution"):
        bell_op(b, f"bell-{name}", catalog_model(name))
    n, k, d, s = RECURSION_MODEL
    prob = choicectx.uniform_over_support(choicectx.gen_random_model(n, k, d, s))
    bell_op(b, "bell-wide-contexts", document(prob), probe="5b")

    pr_text = catalog_model("pr_box_distribution")
    pr_path = b.write(pr_text, ".json")
    deep = "(" * DEEP_NESTING + "a" + ")" * DEEP_NESTING + "\n"
    deep_path = b.write(deep, ".txt")
    b.add("bell-deep-nesting", "bell", {"exit": 2},
          counters_of(json.loads(pr_text), pr_text, 1),
          argv=["bell", "--machine", pr_path, "--props", deep_path], probe="5b")
    nan_path = b.write(NAN_DOCUMENT, ".json")
    props_path = b.write("a\n!a\n", ".txt")
    b.add("bell-nan", "bell", {"exit": 2}, counters_of(
        json.loads(NAN_DOCUMENT), NAN_DOCUMENT, 2),
        argv=["bell", "--machine", nan_path, "--props", props_path], probe="5a")


BUILDERS = {
    "search-dense": build_search_dense,
    "docs-io": build_docs_io,
    "bell-route": build_bell_route,
}


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", choices=sorted(GRIDS), default="full")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    builder = Builder(args.out, args.seed, args.scale)
    BUILDERS[args.workload](builder)
    builder.rng.shuffle(builder.ops)
    with open(os.path.join(args.out, "ops.json"), "w", encoding="utf-8") as handle:
        json.dump(builder.ops, handle)


if __name__ == "__main__":
    main()
