import copy
import json
import math
import random
from itertools import chain, combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choicectx import (
    ModelSemanticError,
    ModelSyntaxError,
    PossibilisticModel,
    ProbabilisticModel,
    SUPPORT_EPSILON,
    Scenario,
    TooLarge,
    catalog,
    double_headed_coin,
    gen_random_model,
    parse_model,
    pr_box_distribution,
    serialize_model,
    uniform_over_support,
    validate_model,
    validate_probabilistic,
)
from choicectx.core import VARIABLES_LIMIT, canonical_context, shortlex
from choicectx.modelio import _checked_distribution


def power_set(names):
    sizes = range(len(names) + 1)
    return [set(c) for c in chain.from_iterable(combinations(names, r) for r in sizes)]


def doc_of(model):
    return json.loads(serialize_model(model))


class TestRoundTrip:
    def test_possibilistic_identity(self):
        m = double_headed_coin()
        text = serialize_model(m)
        assert parse_model(text) == m
        assert serialize_model(parse_model(text)) == text

    def test_probabilistic_identity(self):
        m = pr_box_distribution()
        text = serialize_model(m)
        again = parse_model(text)
        assert isinstance(again, ProbabilisticModel)
        assert serialize_model(again) == text

    def test_serialization_is_canonical(self):
        # scrambled input orders must serialize to the same bytes
        m = double_headed_coin()
        doc = doc_of(m)
        doc["variables"].reverse()
        doc["contexts"].reverse()
        for entry in doc["possibilistic"]:
            entry["context"].reverse()
            entry["events"].reverse()
            for event in entry["events"]:
                event.reverse()
        doc["possibilistic"].reverse()
        scrambled = parse_model(json.dumps(doc))
        assert serialize_model(scrambled) == serialize_model(m)

    def test_trailing_newline(self):
        assert serialize_model(double_headed_coin()).endswith("}\n")

    def test_unicode_names_not_escaped(self):
        text = serialize_model(double_headed_coin())
        assert "a'" in text

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 10),
        k=st.integers(1, 6),
        density=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
        closed=st.booleans(),
    )
    def test_random_model_identity(self, n, k, density, seed, closed):
        m = gen_random_model(n, k, density, seed, intersection_closed=closed)
        again = parse_model(serialize_model(m))
        assert again == m
        assert list(again.supports) == list(m.scenario.cover)
        for events in again.supports.values():
            assert type(events) is frozenset
            assert all(type(event) is frozenset for event in events)


class TestSyntaxErrors:
    def test_invalid_json_carries_location(self):
        with pytest.raises(ModelSyntaxError) as err:
            parse_model("{\n  broken\n}")
        assert err.value.line == 2
        assert err.value.column is not None

    def test_non_object_document(self):
        with pytest.raises(ModelSemanticError) as err:
            parse_model("[1, 2]")
        assert err.value.path == "$"

    def test_deep_nesting(self):
        # json.loads gives up with RecursionError long before 200,000 levels
        with pytest.raises(ModelSyntaxError) as err:
            parse_model("[" * 200_000)
        assert str(err.value) == "document nests too deeply"


def base_doc():
    return {
        "variables": ["a", "b"],
        "contexts": [["a", "b"]],
        "possibilistic": [{"context": ["a", "b"], "events": [["a"]]}],
    }


class TestSemanticErrors:
    def check(self, doc, path_fragment):
        with pytest.raises(ModelSemanticError) as err:
            parse_model(json.dumps(doc))
        assert path_fragment in err.value.path

    def test_unknown_top_level_key(self):
        doc = base_doc()
        doc["extra"] = 1
        self.check(doc, "$")

    def test_missing_variables(self):
        doc = base_doc()
        del doc["variables"]
        self.check(doc, "$")

    def test_both_modes_rejected(self):
        doc = base_doc()
        doc["probabilistic"] = []
        self.check(doc, "$")

    def test_neither_mode_rejected(self):
        doc = base_doc()
        del doc["possibilistic"]
        self.check(doc, "$")

    def test_bad_variable_name(self):
        doc = base_doc()
        doc["variables"] = ["a", "2b"]
        self.check(doc, "variables[1]")

    def test_duplicate_variable(self):
        doc = base_doc()
        doc["variables"] = ["a", "a"]
        self.check(doc, "variables")

    def test_empty_variables(self):
        self.check({"variables": [], "contexts": [], "possibilistic": []}, "variables")

    def test_empty_context(self):
        doc = base_doc()
        doc["contexts"] = [["a", "b"], []]
        self.check(doc, "contexts[1]")

    def test_unknown_variable_in_context(self):
        doc = base_doc()
        doc["contexts"] = [["a", "b"], ["c"]]
        self.check(doc, "contexts[1]")

    def test_duplicate_context_modulo_order(self):
        doc = base_doc()
        doc["contexts"] = [["a", "b"], ["b", "a"]]
        self.check(doc, "contexts[1]")

    def test_uncovered_variable(self):
        doc = base_doc()
        doc["variables"] = ["a", "b", "c"]
        self.check(doc, "contexts")

    def test_support_for_unknown_context(self):
        doc = base_doc()
        doc["possibilistic"].append({"context": ["a"], "events": []})
        self.check(doc, "possibilistic[1].context")

    def test_duplicate_support_entry(self):
        doc = base_doc()
        doc["possibilistic"].append({"context": ["b", "a"], "events": []})
        self.check(doc, "possibilistic[1].context")

    def test_missing_support_entry(self):
        doc = base_doc()
        doc["possibilistic"] = []
        self.check(doc, "possibilistic")

    def test_event_outside_context(self):
        doc = base_doc()
        doc["variables"] = ["a", "b", "c"]
        doc["contexts"] = [["a", "b"], ["c"]]
        doc["possibilistic"] = [
            {"context": ["a", "b"], "events": [["c"]]},
            {"context": ["c"], "events": []},
        ]
        self.check(doc, "possibilistic[0].events[0]")

    def test_duplicate_event(self):
        doc = base_doc()
        doc["possibilistic"][0]["events"] = [["a", "b"], ["b", "a"]]
        self.check(doc, "possibilistic[0].events[1]")

    def test_duplicate_variable_in_event(self):
        doc = base_doc()
        doc["possibilistic"][0]["events"] = [["a", "a"]]
        self.check(doc, "possibilistic[0].events[0]")

    def test_unknown_entry_key(self):
        doc = base_doc()
        doc["possibilistic"][0]["weight"] = 2
        self.check(doc, "possibilistic[0]")


def prob_doc():
    return {
        "variables": ["a", "b"],
        "contexts": [["a", "b"]],
        "probabilistic": [
            {
                "context": ["a", "b"],
                "distribution": [
                    {"assignment": {"a": 0, "b": 0}, "p": 0.5},
                    {"assignment": {"a": 1, "b": 1}, "p": 0.5},
                ],
            }
        ],
    }


class TestVariableLimit:
    """A document declaring over VARIABLES_LIMIT variables is refused as
    soon as its variables are read, so a later fault is not reached."""

    @staticmethod
    def doc(count):
        # well formed but for its "contexts", which is no array
        names = [f"x{i:05d}" for i in range(count)]
        return json.dumps(
            {
                "variables": names,
                "contexts": 5,
                "possibilistic": [{"context": [v], "events": [[v]]} for v in names],
            }
        )

    def test_count_is_named_before_a_later_fault(self):
        with pytest.raises(TooLarge) as err:
            parse_model(self.doc(VARIABLES_LIMIT + 1))
        assert str(err.value) == "16,385 variables are over the limit of 16,384"

    def test_at_the_limit_the_later_fault_is_named(self):
        with pytest.raises(ModelSemanticError) as err:
            parse_model(self.doc(VARIABLES_LIMIT))
        assert str(err.value) == "contexts: expected an array"


class TestProbabilisticDocs:
    def test_parses(self):
        m = parse_model(json.dumps(prob_doc()))
        assert isinstance(m, ProbabilisticModel)
        assert len(m.distribution(["a", "b"])) == 2

    def check(self, doc, path_fragment):
        with pytest.raises(ModelSemanticError) as err:
            parse_model(json.dumps(doc))
        assert path_fragment in err.value.path

    def test_partial_assignment(self):
        doc = prob_doc()
        doc["probabilistic"][0]["distribution"][0]["assignment"] = {"a": 0}
        self.check(doc, "distribution[0].assignment")

    def test_foreign_variable_in_assignment(self):
        doc = prob_doc()
        doc["probabilistic"][0]["distribution"][0]["assignment"] = {
            "a": 0,
            "b": 0,
            "c": 0,
        }
        self.check(doc, "distribution[0].assignment")

    def test_non_bit_outcome(self):
        doc = prob_doc()
        doc["probabilistic"][0]["distribution"][0]["assignment"]["a"] = 2
        self.check(doc, "distribution[0].assignment.a")

    def test_bool_outcome_rejected(self):
        doc = prob_doc()
        doc["probabilistic"][0]["distribution"][0]["assignment"]["a"] = True
        self.check(doc, "distribution[0].assignment.a")

    def test_non_numeric_probability(self):
        doc = prob_doc()
        doc["probabilistic"][0]["distribution"][0]["p"] = "half"
        self.check(doc, "distribution[0].p")

    def test_duplicate_assignment(self):
        doc = prob_doc()
        doc["probabilistic"][0]["distribution"][1]["assignment"] = {"a": 0, "b": 0}
        self.check(doc, "distribution[1].assignment")

    def test_missing_distribution_entry(self):
        doc = prob_doc()
        doc["probabilistic"] = []
        self.check(doc, "probabilistic")

    def test_bad_total_is_refused(self):
        # the reader owns every rule a document must meet, totals included
        doc = prob_doc()
        doc["probabilistic"][0]["distribution"][0]["p"] = 0.9
        with pytest.raises(ModelSemanticError) as err:
            parse_model(json.dumps(doc))
        assert err.value.path == "probabilistic[0].distribution"
        assert str(err.value) == (
            "probabilistic[0].distribution: probabilities sum to 1.4, not 1"
        )

    def test_negative_probability_is_refused(self):
        doc = prob_doc()
        doc["probabilistic"][0]["distribution"][1]["p"] = -0.5
        doc["probabilistic"][0]["distribution"].append(
            {"assignment": {"a": 1, "b": 0}, "p": 1.0}
        )
        with pytest.raises(ModelSemanticError) as err:
            parse_model(json.dumps(doc))
        assert str(err.value) == (
            "probabilistic[0].distribution[1].p: negative probability -0.5"
        )

    @pytest.mark.parametrize("off", [-0.9e-9, 0.9e-9, -1.1e-9, 1.1e-9])
    def test_total_tolerance_is_the_validators(self, off):
        doc = prob_doc()
        doc["probabilistic"][0]["distribution"][0]["p"] = 0.5 + off
        if abs(off) < SUPPORT_EPSILON:
            assert validate_probabilistic(parse_model(json.dumps(doc))).holds
        else:
            with pytest.raises(ModelSemanticError) as err:
                parse_model(json.dumps(doc))
            assert err.value.path == "probabilistic[0].distribution"

    def test_overflowing_total_is_refused(self):
        # math.fsum raises on a sum past the float range; the reader names it
        doc = prob_doc()
        for entry in doc["probabilistic"][0]["distribution"]:
            entry["p"] = 1e308
        with pytest.raises(ModelSemanticError) as err:
            parse_model(json.dumps(doc))
        assert str(err.value) == (
            "probabilistic[0].distribution: probabilities sum to inf, not 1"
        )

    def test_entries_sorted_by_assignment(self):
        doc = prob_doc()
        doc["probabilistic"][0]["distribution"].reverse()
        m = parse_model(json.dumps(doc))
        first, _ = m.distribution(["a", "b"])[0]
        assert first.as_dict() == {"a": 0, "b": 0}


def three_variable_doc(events):
    # "c" is declared and covered, but lies outside the context ["a", "b"]
    return {
        "variables": ["a", "b", "c"],
        "contexts": [["a", "b"], ["c"]],
        "possibilistic": [
            {"context": ["a", "b"], "events": events},
            {"context": ["c"], "events": [[]]},
        ],
    }


EVENTS = "possibilistic[0].events"
DIST = "probabilistic[0].distribution"


class TestFirstError:
    """A malformed event or entry is reported with its exact message and
    path; a later malformed one does not mask it."""

    @pytest.mark.parametrize(
        "event, message, path",
        [
            ("a", "expected an array", f"{EVENTS}[1]"),
            ({}, "expected an array", f"{EVENTS}[1]"),
            (["a", 1], "expected a string", f"{EVENTS}[1][1]"),
            (["a", True], "expected a string", f"{EVENTS}[1][1]"),
            ([None], "expected a string", f"{EVENTS}[1][0]"),
            (["b", ["a"]], "expected a string", f"{EVENTS}[1][1]"),
            ([{}, "a"], "expected a string", f"{EVENTS}[1][0]"),
            (["b", "a", "b"], "duplicate variable in event", f"{EVENTS}[1]"),
            (["a", "c"], "event is not a subset of its context", f"{EVENTS}[1]"),
            (["b"], "duplicate event", f"{EVENTS}[1]"),
            # the same event as the next one, its members in another order
            (["b", "a"], "duplicate event", f"{EVENTS}[2]"),
            # the repeated bit of b carries into the bit of a, which forges the
            # code of ["a"], distinct from the other events' codes
            (["b", "b"], "duplicate variable in event", f"{EVENTS}[1]"),
            # an object keyed by a member reads as that member when iterated
            ({"a": 0}, "expected an array", f"{EVENTS}[1]"),
        ],
    )
    def test_event(self, event, message, path):
        # the bad event is the table's only flaw
        doc = three_variable_doc([["b"], event, ["a", "b"]])
        with pytest.raises(ModelSemanticError) as err:
            parse_model(json.dumps(doc))
        assert err.value.path == path
        assert str(err.value) == f"{path}: {message}"

    def test_first_of_two_bad_events(self):
        doc = three_variable_doc([["b"], ["b", "a", "b"], [], ["c"], "a"])
        with pytest.raises(ModelSemanticError) as err:
            parse_model(json.dumps(doc))
        assert str(err.value) == f"{EVENTS}[1]: duplicate variable in event"

    @pytest.mark.parametrize(
        "index, assignment, message, path",
        [
            (
                0,
                {"a": 0, "b": 0, "c": 0},
                "variable 'c' is not in the context",
                f"{DIST}[0].assignment",
            ),
            (1, {"a": 1, "b": 2}, "outcome must be 0 or 1", f"{DIST}[1].assignment.b"),
            (1, {"a": None, "b": 1}, "outcome must be 0 or 1", f"{DIST}[1].assignment.a"),
            (
                1,
                {"b": 1},
                "assignment must bind every context variable",
                f"{DIST}[1].assignment",
            ),
            (1, {"b": 0, "a": 0}, "duplicate assignment", f"{DIST}[1].assignment"),
        ],
    )
    def test_distribution_entry(self, index, assignment, message, path):
        doc = prob_doc()
        distribution = doc["probabilistic"][0]["distribution"]
        distribution[index]["assignment"] = assignment
        distribution.append({"assignment": {"a": 3}, "p": 0})
        with pytest.raises(ModelSemanticError) as err:
            parse_model(json.dumps(doc))
        assert err.value.path == path
        assert str(err.value) == f"{path}: {message}"

    @pytest.mark.parametrize(
        "p",
        ["1" + "0" * 400, "-1" + "0" * 400, "1e999", "NaN", "Infinity", "-Infinity"],
        ids=["big-int", "big-negative-int", "overflow", "nan", "inf", "-inf"],
    )
    def test_non_finite_probability(self, p):
        doc = prob_doc()
        doc["probabilistic"][0]["distribution"][1]["p"] = "P"
        text = json.dumps(doc).replace('"P"', p)
        with pytest.raises(ModelSemanticError) as err:
            parse_model(text)
        assert str(err.value) == f"{DIST}[1].p: non-finite probability"

    def test_integral_float_outcomes_are_bits(self):
        doc = prob_doc()
        doc["probabilistic"][0]["distribution"][1]["assignment"] = {"a": 1.0, "b": 1}
        assert parse_model(json.dumps(doc)) == parse_model(json.dumps(prob_doc()))


# the second entry of a two-entry distribution over ["a", "b"], once valid
# and then with one flaw each
SECOND_ENTRIES = {
    "valid": '{"assignment": {"a": 1, "b": 1}, "p": 0.5}',
    "outcome-true": '{"assignment": {"a": 1, "b": true}, "p": 0.5}',
    "outcome-2": '{"assignment": {"a": 1, "b": 2}, "p": 0.5}',
    "outcome-float": '{"assignment": {"a": 1, "b": 1.0}, "p": 0.5}',
    "outcome-string": '{"assignment": {"a": 1, "b": "1"}, "p": 0.5}',
    "p-int": '{"assignment": {"a": 1, "b": 1}, "p": 1}',
    "p-true": '{"assignment": {"a": 1, "b": 1}, "p": true}',
    "p-nan": '{"assignment": {"a": 1, "b": 1}, "p": NaN}',
    "p-overflow": '{"assignment": {"a": 1, "b": 1}, "p": 1e999}',
    "p-big-int": '{"assignment": {"a": 1, "b": 1}, "p": 1%s}' % ("0" * 400),
    "extra-key": '{"assignment": {"a": 1, "b": 1}, "p": 0.5, "q": 0}',
    "missing-key": '{"assignment": {"a": 1, "b": 1}}',
    "not-an-object": '[{"a": 1, "b": 1}, 0.5]',
    "assignment-list": '{"assignment": ["a", "b"], "p": 0.5}',
    "partial": '{"assignment": {"a": 1}, "p": 0.5}',
    "extra-variable": '{"assignment": {"a": 1, "b": 1, "c": 0}, "p": 0.5}',
    "duplicate": '{"assignment": {"b": 0, "a": 0}, "p": 0.5}',
    "p-negative": '{"assignment": {"a": 1, "b": 1}, "p": -0.5}',
    "off-total": '{"assignment": {"a": 1, "b": 1}, "p": 0.25}',
}


class TestBulkDistribution:
    """The reader tests a context's distribution in bulk; whatever the
    entries, it gives what the entry-by-entry reader gives."""

    @staticmethod
    def outcome(read):
        try:
            pairs = read()
        except ModelSemanticError as exc:
            return type(exc), str(exc), exc.path
        return [(code, p.hex()) for code, p in pairs]

    @pytest.mark.parametrize("entry", SECOND_ENTRIES.values(), ids=SECOND_ENTRIES.keys())
    def test_matches_the_checked_reader(self, entry):
        text = (
            '{"variables": ["a", "b"], "contexts": [["a", "b"]], "probabilistic": '
            '[{"context": ["a", "b"], "distribution": '
            '[{"assignment": {"a": 0, "b": 0}, "p": 0.5}, %s]}]}' % entry
        )
        raw_entries = json.loads(text)["probabilistic"][0]["distribution"]
        bit = Scenario.make(["a", "b"], [["a", "b"]]).bit
        read = self.outcome(lambda: parse_model(text)._codes[("a", "b")])
        checked = self.outcome(lambda: _checked_distribution(raw_entries, bit, DIST))
        assert read == checked


@st.composite
def valid_documents(draw):
    """A generated model's document, possibilistic or uniform over each
    context's support (where no support is empty), as parsed JSON."""
    model = gen_random_model(
        draw(st.integers(1, 6)),
        draw(st.integers(1, 5)),
        draw(st.sampled_from([0.2, 0.5, 0.9])),
        draw(st.integers(0, 10_000)),
    )
    if draw(st.booleans()) and all(model.events(c) for c in model.scenario.cover):
        model = uniform_over_support(model)
    return doc_of(model)


def one_fault(data, doc):
    """Give ``doc`` one fault: a negative or NaN ``p``, an off total, a
    duplicate or missing item, or an unknown variable."""
    kind, key = ("probabilistic", "distribution")
    if kind not in doc:
        kind, key = ("possibilistic", "events")
    tables = [entry[key] for entry in doc[kind]]
    entries = [entry for table in tables for entry in table] if kind == "probabilistic" else []
    # every array of names, and every array of items
    names = [doc["variables"], *doc["contexts"], *(entry["context"] for entry in doc[kind])]
    if kind == "possibilistic":
        names += [event for table in tables for event in table]
    items = [doc["contexts"], doc[kind], *tables, *names]
    faults = ["duplicate", "missing", "unknown"]
    faults += ["negative", "nan", "off-total"] if entries else []
    fault = data.draw(st.sampled_from(faults))
    if fault in ("negative", "nan", "off-total"):
        entry = data.draw(st.sampled_from(entries))
        if fault == "negative":
            entry["p"] = -data.draw(st.floats(5e-324, 1.0))
        elif fault == "nan":
            entry["p"] = math.nan
        else:  # on either side of the tolerance, and far off
            entry["p"] += data.draw(st.sampled_from([-0.25, -2e-9, -5e-10, 5e-10, 2e-9, 0.25]))
    elif fault == "unknown":
        target = data.draw(st.sampled_from(names + [e["assignment"] for e in entries]))
        if isinstance(target, dict):
            target["ghost"] = 0
        else:
            target.insert(data.draw(st.integers(0, len(target))), "ghost")
    else:
        target = data.draw(st.sampled_from([array for array in items if array]))
        at = data.draw(st.integers(0, len(target) - 1))
        if fault == "duplicate":
            target.insert(at, copy.deepcopy(target[at]))
        else:
            del target[at]
    return json.dumps(doc)


class TestOneValidationPath:
    """A document the reader accepts is a valid model: no validator finds
    a fault in it."""

    @settings(max_examples=400, deadline=None)
    @given(valid_documents(), st.data())
    def test_accepted_documents_pass_validation(self, doc, data):
        text = one_fault(data, doc)
        try:
            model = parse_model(text)
        except ModelSemanticError:
            return
        if isinstance(model, ProbabilisticModel):
            verdict = validate_probabilistic(model)
        else:
            verdict = validate_model(model)
        assert verdict.holds, verdict.narrative


def reference_text(model):
    """The canonical document rendered the way it was before the writer was
    written by hand: the document as a dict through an indented json.dumps.
    Events are sorted on their names here, not on their codes."""
    scenario = model.scenario
    doc = {
        "variables": list(scenario.variables),
        "contexts": [list(c) for c in scenario.cover],
    }
    if isinstance(model, PossibilisticModel):
        doc["possibilistic"] = [
            {
                "context": list(context),
                "events": [
                    sorted(event) for event in sorted(model.events(context), key=shortlex)
                ],
            }
            for context in scenario.cover
        ]
    else:
        doc["probabilistic"] = [
            {
                "context": list(context),
                "distribution": [
                    {"assignment": assignment.as_dict(), "p": float(p)}
                    for assignment, p in model.distribution(context)
                ],
            }
            for context in scenario.cover
        ]
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def assert_same_text(text, expected):
    """Fail unless ``text == expected``, naming the first offset where they
    differ with a short window of each.  pytest's own report of a failed
    ``==`` diffs the two texts, which takes minutes at 100 KB."""
    if text == expected:
        return
    at = next(
        (i for i, (a, b) in enumerate(zip(text, expected)) if a != b),
        min(len(text), len(expected)),
    )
    window = slice(max(at - 40, 0), at + 40)
    pytest.fail(
        f"texts of {len(text)} and {len(expected)} characters differ at offset {at}:\n"
        f"  got      {text[window]!r}\n  expected {expected[window]!r}",
        pytrace=False,
    )


CATALOG = [
    "double_headed_coin",
    "hardy_table",
    "hardy_relabeled",
    "pr_box",
    "luce_raiffa",
    "warp_noncontextual",
    "warp_contextual",
    "warp_signalling",
    "pr_box_distribution",
    "hardy_distribution",
]

ODD_NAMES = ('a"b', "a\\b", "é", "x\x01y", "z")


class TestByteIdentity:
    """``serialize_model`` writes exactly the bytes of the indented
    ``json.dumps`` of the document."""

    @pytest.mark.parametrize("name", CATALOG)
    def test_catalog(self, name):
        model = getattr(catalog, name)()
        assert_same_text(serialize_model(model), reference_text(model))

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 12),
        k=st.integers(1, 6),
        density=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
        seed=st.integers(0, 2**32 - 1),
        closed=st.booleans(),
    )
    def test_random_models(self, n, k, density, seed, closed):
        model = gen_random_model(n, k, density, seed, intersection_closed=closed)
        assert_same_text(serialize_model(model), reference_text(model))
        if all(model.supports.values()):
            uniform = uniform_over_support(model)
            assert_same_text(serialize_model(uniform), reference_text(uniform))

    def test_draws_cover_empty_supports_and_the_empty_event(self):
        empty = gen_random_model(8, 4, 0.0, seed=5)
        full = gen_random_model(8, 4, 1.0, seed=5, intersection_closed=True)
        assert not any(empty.supports.values())
        assert all(frozenset() in events for events in full.supports.values())
        for model in (empty, full):
            assert_same_text(serialize_model(model), reference_text(model))

    def test_wide_context_with_few_events(self):
        # 60 names in one context: the work follows the events, not 2^60
        names = [f"v{i:02d}" for i in range(60)]
        scenario = Scenario.make(names, [names, names[:1]])
        model = PossibilisticModel.make(
            scenario,
            {
                tuple(names): [set(), set(names), set(names[::2]), {"v59"}],
                ("v00",): [{"v00"}],
            },
        )
        assert_same_text(serialize_model(model), reference_text(model))

    def test_names_json_escapes(self):
        scenario = Scenario.make(ODD_NAMES, [ODD_NAMES[:3], ODD_NAMES[2:], ["z"]])
        model = PossibilisticModel.make(
            scenario,
            {
                ODD_NAMES[:3]: [set(), {"é"}, {'a"b', "a\\b"}, set(ODD_NAMES[:3])],
                ODD_NAMES[2:]: [{"x\x01y"}, {"é", "z"}],
                ("z",): [],
            },
        )
        text = serialize_model(model)
        assert_same_text(text, reference_text(model))
        assert '"a\\"b"' in text and '"a\\\\b"' in text and '"x\\u0001y"' in text
        assert '"é"' in text

    def test_probabilities_as_json_writes_floats(self):
        scenario = Scenario.make(["a", "b"], [["a"], ["a", "b"]])
        model = ProbabilisticModel.make(
            scenario,
            {
                ("a",): [({"a": 0}, float("nan")), ({"a": 1}, float("inf"))],
                ("a", "b"): [
                    ({"a": 0, "b": 0}, 1 / 3),
                    ({"a": 0, "b": 1}, 1e-300),
                    ({"a": 1, "b": 0}, -float("inf")),
                    ({"a": 1, "b": 1}, -0.0),
                ],
            },
        )
        text = serialize_model(model)
        assert_same_text(text, reference_text(model))
        for number in ("NaN", "Infinity", "-Infinity", "0.3333333333333333", "1e-300", "-0.0"):
            assert f'"p": {number}\n' in text

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(13, 18),
        k=st.integers(1, 4),
        density=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_docs_io_scale_contexts(self, n, k, density, seed):
        # contexts of 12-16 of 13-18 names, as the benchmark's gen documents
        # have: each event is written from a head and a tail half of 6-8 names
        rng = random.Random(seed)
        names = [f"v{i:02d}" for i in range(n)]
        contexts = [rng.sample(names, rng.randint(12, min(16, n))) for _ in range(k)]
        supports = {}
        for context in map(canonical_context, contexts):
            drawn = [rng.getrandbits(len(context)) for _ in range(rng.randint(0, 300))]
            supports[context] = [
                {v for j, v in enumerate(context) if code >> j & 1}
                for code in drawn
                if rng.random() < density
            ]
        model = PossibilisticModel.make(Scenario.make(names, contexts), supports)
        assert_same_text(serialize_model(model), reference_text(model))

    @pytest.mark.parametrize("size", [1, 2, 3])
    def test_contexts_of_one_to_three_names(self, size):
        # every event of a 1-, 2- and 3-name context: the head half holds
        # 0, 1 and 1 names, so empty heads, empty tails and [] all occur
        names = ["a", "b", "c"][:size]
        scenario = Scenario.make(names, [names])
        model = PossibilisticModel.make(scenario, {tuple(names): power_set(names)})
        assert_same_text(serialize_model(model), reference_text(model))

    def test_events_with_an_empty_half(self):
        # a 7-name context splits into 3 head and 4 tail names
        names = list("abcdefg")
        scenario = Scenario.make(names, [names, ["a"]])
        events = [set(), {"a"}, {"a", "c"}, set("abc"), {"d"}, {"e", "g"}, set("defg")]
        model = PossibilisticModel.make(scenario, {tuple(names): events, ("a",): [set()]})
        assert_same_text(serialize_model(model), reference_text(model))

    def test_only_the_empty_event(self):
        names = list("abcdef")
        scenario = Scenario.make(names, [names])
        model = PossibilisticModel.make(scenario, {tuple(names): [set()]})
        text = serialize_model(model)
        assert_same_text(text, reference_text(model))
        assert '"events": [\n        []\n      ]' in text

    def test_fully_dense_context(self):
        names = [f"v{i}" for i in range(10)]
        scenario = Scenario.make(names, [names, names[3:]])
        model = PossibilisticModel.make(
            scenario, {tuple(names): power_set(names), tuple(names[3:]): power_set(names[3:])}
        )
        assert_same_text(serialize_model(model), reference_text(model))

    def test_work_is_bounded_by_the_events(self):
        # 200 names in one context: a writer that tabulated every half-code
        # (2^100 of them) would never finish
        names = [f"w{i:03d}" for i in range(200)]
        scenario = Scenario.make(names, [names, names[:1]])
        model = PossibilisticModel.make(
            scenario,
            {tuple(names): [set(names[:100]), set(names[100:]), set(names[1::3])],
             ("w000",): [set()]},
        )
        assert_same_text(serialize_model(model), reference_text(model))
