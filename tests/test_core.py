import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choicectx import (
    Assignment,
    ChoiceCtxError,
    PossibilisticModel,
    ProbabilisticModel,
    Scenario,
    TooLarge,
    UnboundVariable,
    UnknownContext,
    VariableNotInContext,
    canonical_context,
    format_event,
    gen_random_model,
    parse_model,
    serialize_model,
    validate_model,
    validate_probabilistic,
)
from choicectx.core import (
    VARIABLES_LIMIT,
    Verdict,
    _count_text,
    _shortlex_key,
    _shortlex_sorted,
    shortlex,
)

names = st.text(alphabet="abcxyz_'", min_size=1, max_size=4).filter(
    lambda s: not s[0].isdigit() and s[0] != "'"
)


class TestScenario:
    def test_variables_sorted(self):
        s = Scenario.make(["c", "a", "b"], [["b", "c"], ["a"]])
        assert s.variables == ("a", "b", "c")

    def test_cover_shortlex(self):
        # shorter contexts first, lexicographic within a length
        s = Scenario.make(
            ["a", "b", "c"], [["a", "b", "c"], ["b", "c"], ["a", "b"], ["c"]]
        )
        assert s.cover == (("c",), ("a", "b"), ("b", "c"), ("a", "b", "c"))

    def test_cover_dedupes(self):
        s = Scenario.make(["a", "b"], [["a", "b"], ["b", "a"]])
        assert s.cover == (("a", "b"),)

    def test_contexts_containing(self):
        s = Scenario.make(["a", "b", "c"], [["a", "b"], ["b", "c"], ["a", "b", "c"]])
        assert s.contexts_containing(["b"]) == [
            ("a", "b"),
            ("b", "c"),
            ("a", "b", "c"),
        ]
        assert s.contexts_containing(["a", "c"]) == [("a", "b", "c")]

    def test_has_context_is_order_insensitive(self):
        s = Scenario.make(["a", "b"], [["a", "b"]])
        assert s.has_context(["b", "a"])
        assert not s.has_context(["a"])

    def test_layout_is_refused_over_the_variable_limit(self):
        names = [f"x{i:05d}" for i in range(VARIABLES_LIMIT + 1)]
        wide = Scenario.make(names, [[v] for v in names])
        with pytest.raises(TooLarge) as err:
            wide.bit
        assert str(err.value) == "16,385 variables are over the limit of 16,384"
        # at the limit the layout is built, its last bit on the first variable
        at_limit = Scenario.make(names[1:], [names[1:]])
        assert at_limit.bit["x00001"] == 1 << (VARIABLES_LIMIT - 1)

    @given(st.lists(names, min_size=1, max_size=6, unique=True))
    def test_make_invariant_under_input_order(self, variables):
        forward = Scenario.make(variables, [variables])
        backward = Scenario.make(list(reversed(variables)), [list(reversed(variables))])
        assert forward == backward


class TestShortlex:
    def test_size_dominates(self):
        assert shortlex(["z"]) < shortlex(["a", "b"])

    def test_lex_within_size(self):
        assert shortlex(["a", "z"]) < shortlex(["b", "c"])

    def test_canonical_context_sorts(self):
        assert canonical_context(["b", "a", "c"]) == ("a", "b", "c")


class TestAssignment:
    def test_make_sorts_bindings(self):
        a = Assignment.make({"b": 1, "a": 0})
        assert a.bindings == (("a", 0), ("b", 1))
        assert a.as_dict() == {"a": 0, "b": 1}

    def test_getitem(self):
        a = Assignment.make({"a": 1})
        assert a["a"] == 1
        with pytest.raises(UnboundVariable):
            a["b"]

    def test_restrict(self):
        a = Assignment.make({"a": 1, "b": 0, "c": 1})
        assert a.restrict(["a", "c"]) == Assignment.make({"a": 1, "c": 1})
        with pytest.raises(UnboundVariable):
            a.restrict(["d"])

    def test_support(self):
        a = Assignment.make({"a": 1, "b": 0, "c": 1})
        assert a.support() == {"a", "c"}

    def test_total_order_is_lexicographic(self):
        low = Assignment.make({"a": 0, "b": 1})
        high = Assignment.make({"a": 1, "b": 0})
        assert low < high

    @given(st.dictionaries(names, st.integers(0, 1), min_size=1, max_size=5))
    def test_roundtrip_dict(self, mapping):
        assert Assignment.make(mapping).as_dict() == mapping


class TestPossibilisticModel:
    @pytest.fixture
    def model(self):
        s = Scenario.make(["a", "b", "c"], [["a", "b"], ["b", "c"]])
        return PossibilisticModel.make(
            s,
            {
                ("a", "b"): [frozenset(), frozenset({"a"})],
                ("b", "c"): [frozenset({"b", "c"})],
            },
        )

    def test_events_keyed_canonically(self, model):
        assert model.events(["b", "a"]) == {frozenset(), frozenset({"a"})}
        with pytest.raises(UnknownContext):
            model.events(["a", "c"])

    def test_events_sorted(self, model):
        assert model.events_sorted(["a", "b"]) == [frozenset(), frozenset({"a"})]

    def test_chosen(self, model):
        assert model.chosen("a", ["a", "b"]) == 1
        assert model.chosen("b", ["a", "b"]) == 0
        assert model.chosen_set(["b", "c"]) == {"b", "c"}
        with pytest.raises(VariableNotInContext):
            model.chosen("c", ["a", "b"])
        with pytest.raises(UnknownContext):
            model.chosen("a", ["a", "c"])

    def test_equality_ignores_input_order(self):
        s = Scenario.make(["a", "b"], [["a", "b"]])
        one = PossibilisticModel.make(s, {("a", "b"): [frozenset({"a"})]})
        two = PossibilisticModel.make(s, {("b", "a"): [frozenset({"a"})]})
        assert one == two

    def test_repr_and_replace_speak_in_supports(self):
        s = Scenario.make(["a", "b"], [["a", "b"]])
        m = PossibilisticModel.make(s, {("a", "b"): [frozenset({"a"})]})
        assert repr(m) == (
            f"PossibilisticModel(scenario={s!r}, "
            "supports={('a', 'b'): frozenset({frozenset({'a'})})})"
        )
        other = dataclasses.replace(m, supports={("a", "b"): [frozenset({"b"})]})
        assert other.events(["a", "b"]) == {frozenset({"b"})}
        assert other != m

    def test_format_event(self):
        assert format_event(frozenset({"b", "a"})) == "{a,b}"
        assert format_event(frozenset()) == "{}"

    @pytest.mark.parametrize("build", ["make", "constructor"])
    def test_undeclared_event_variable_is_refused(self, build):
        # such an event has no code in the scenario's layout
        s = Scenario.make(["a", "b"], [["a"], ["b"]])
        supports = {("a",): [frozenset({"ghost"})], ("b",): []}
        with pytest.raises(ChoiceCtxError, match="'ghost'"):
            if build == "make":
                PossibilisticModel.make(s, supports)
            else:
                PossibilisticModel(scenario=s, supports=supports)


class TestViews:
    """``supports``, ``events``, ``events_sorted`` and ``chosen_set`` are
    decoded from the stored codes; each is checked against its definition
    on names."""

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(1, 9),
        k=st.integers(1, 6),
        density=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
        closed=st.booleans(),
        parsed=st.booleans(),
    )
    def test_views_match_their_definitions(self, n, k, density, seed, closed, parsed):
        model = gen_random_model(n, k, density, seed, intersection_closed=closed)
        if parsed:
            model = parse_model(serialize_model(model))
        supports = model.supports
        assert list(supports) == list(model.scenario.cover)
        for context, events in supports.items():
            assert type(events) is frozenset
            assert all(type(event) is frozenset for event in events)
            assert model.events(context) == events
            assert model.events_sorted(context) == sorted(events, key=shortlex)
            assert model.chosen_set(context) == frozenset().union(*events)
        again = PossibilisticModel.make(model.scenario, supports)
        assert again == model
        assert hash(again) == hash(model)

    def test_unsorted_scenario_keeps_shortlex_order(self):
        # codes order events shortlex because bits follow the sorted names,
        # also for a scenario built without ``Scenario.make``
        s = Scenario(variables=("b", "a"), cover=(("a", "b"),))
        m = PossibilisticModel(s, {("a", "b"): [{"b"}, {"a"}, {"a", "b"}]})
        assert m.events_sorted(["a", "b"]) == [{"a"}, {"b"}, {"a", "b"}]
        doc = json.loads(serialize_model(m))
        assert doc["possibilistic"][0]["events"] == [["a"], ["b"], ["a", "b"]]


class TestCompiled:
    @given(st.integers(0, 2**32 - 1), st.data())
    def test_decode_matches_make(self, seed, data):
        model = gen_random_model(1 + seed % 12, 1 + seed % 4, 0.5, seed=seed)
        compiled = model.compiled
        code = data.draw(st.integers(0, (1 << compiled.n) - 1))
        # the first scenario variable is the code's most significant bit
        digits = format(code, f"0{compiled.n}b")
        expected = Assignment.make(zip(model.scenario.variables, map(int, digits)))
        assert compiled.decode(code) == expected

    @given(st.integers(0, 2**32 - 1))
    def test_order_checks_each_context_at_its_last_variable(self, seed):
        model = gen_random_model(1 + seed % 12, 1 + seed % 6, 0.5, seed=seed)
        compiled = model.compiled
        assert sorted(compiled.order) == sorted(compiled.bit.values())
        assert len(compiled.completed_at) == compiled.n
        assigned = 0
        checked = []
        for bit, completed in zip(compiled.order, compiled.completed_at):
            assigned |= bit
            for cmask, allowed in completed:
                assert cmask & bit and not cmask & ~assigned
                checked.append((cmask, allowed))
        assert sorted(checked, key=lambda c: c[0]) == sorted(
            compiled.contexts, key=lambda c: c[0]
        )


# a scenario and the supports of a model over it whose structure fails,
# and the reason it fails; the constructor is bypassed to hit each defect
STRUCTURAL_FAULTS = [
    (Scenario(variables=(), cover=()), {}, "empty-variables"),
    (
        Scenario(variables=("a", "9bad"), cover=(("9bad", "a"),)),
        {("9bad", "a"): frozenset()},
        "bad-variable-name",
    ),
    (
        Scenario(variables=("a",), cover=((),)),
        {(): frozenset()},
        "empty-context",
    ),
    (
        Scenario(variables=("a",), cover=(("a", "ghost"),)),
        {("a", "ghost"): frozenset()},
        "unknown-variable",
    ),
    (
        Scenario(variables=("a", "b"), cover=(("a",), ("a",), ("b",))),
        {("a",): frozenset(), ("b",): frozenset()},
        "duplicate-context",
    ),
    (
        Scenario(variables=("a", "b"), cover=(("a",),)),
        {("a",): frozenset()},
        "uncovered-variable",
    ),
    (
        Scenario(variables=("a", "b"), cover=(("a",), ("b",))),
        {("a",): frozenset()},
        "missing-support",
    ),
    (
        Scenario(variables=("a",), cover=(("a",),)),
        {("a",): frozenset(), ("a", "b"): frozenset()},
        "unknown-context",
    ),
]


class TestValidateModel:
    def good(self):
        s = Scenario.make(["a", "b"], [["a", "b"], ["a"]])
        return PossibilisticModel.make(
            s, {("a", "b"): [frozenset({"a"})], ("a",): [frozenset({"a"})]}
        )

    def test_valid(self):
        verdict = validate_model(self.good())
        assert verdict.holds
        assert verdict.warnings == ()

    def test_empty_support_warns_but_holds(self):
        s = Scenario.make(["a"], [["a"]])
        m = PossibilisticModel.make(s, {("a",): []})
        verdict = validate_model(m)
        assert verdict.holds
        assert len(verdict.warnings) == 1
        assert "empty support" in verdict.warnings[0]

    @pytest.mark.parametrize(
        "scenario, supports, reason",
        [
            *STRUCTURAL_FAULTS,
            (
                Scenario(variables=("a", "b"), cover=(("a",), ("b",))),
                {
                    ("a",): frozenset({frozenset({"b"})}),
                    ("b",): frozenset(),
                },
                "event-outside-context",
            ),
        ],
    )
    def test_invariant_violations(self, scenario, supports, reason):
        # bypass the canonicalizing constructor to hit each defect
        m = PossibilisticModel(scenario=scenario, supports=supports)
        verdict = validate_model(m)
        assert not verdict.holds
        assert verdict.witness["reason"] == reason

    @pytest.mark.parametrize("scenario, supports, reason", STRUCTURAL_FAULTS)
    def test_probabilistic_models_fail_alike(self, scenario, supports, reason):
        # the same cover and context keys, with no entries and a noted entry
        # fault, which a structural fault outranks
        noted = Verdict(holds=False, witness={"reason": "bad-outcome"}, narrative="noted")
        model = ProbabilisticModel._from_codes(scenario, dict.fromkeys(supports, ()), noted)
        verdict = validate_probabilistic(model)
        assert verdict.witness["reason"] == reason
        assert verdict == validate_model(PossibilisticModel(scenario=scenario, supports=supports))

    def test_entry_faults_come_after_the_structure(self):
        s = Scenario.make(["a", "b"], [["a"], ["b"]])
        bad_outcome = [({"a": 2}, 1.0)]
        missing = ProbabilisticModel.make(s, {("a",): bad_outcome})
        assert validate_probabilistic(missing).witness == {
            "reason": "missing-support",
            "context": ["b"],
        }
        whole = ProbabilisticModel.make(s, {("a",): bad_outcome, ("b",): [({"b": 0}, 1.0)]})
        assert validate_probabilistic(whole).witness == {
            "reason": "bad-outcome",
            "context": ["a"],
            "assignment": {"a": 2},
        }
        # the numeric checks come last
        negative = ProbabilisticModel.make(s, {("a",): [({"a": 0}, -1.0)]})
        assert validate_probabilistic(negative).witness["reason"] == "missing-support"

    def test_verdict_to_doc(self):
        verdict = validate_model(self.good())
        doc = verdict.to_doc()
        assert doc == {
            "status": "Holds",
            "witness": None,
            "narrative": verdict.narrative,
            "warnings": [],
        }


class TestCountText:
    def test_counts_below_2_to_the_64_are_written_out(self):
        assert _count_text(1_048_577) == "1,048,577"
        assert _count_text((1 << 64) - 1) == "18,446,744,073,709,551,615"

    def test_larger_counts_are_the_power_of_two_below(self):
        assert _count_text(1 << 64) == "over 2^63"
        assert _count_text((1 << 64) + 1) == "over 2^64"
        assert _count_text(1 << 14400) == "over 2^14399"


class TestShortlexCodes:
    @given(st.sets(st.integers(0, (1 << 12) - 1), max_size=200))
    def test_sort_agrees_with_key(self, codes):
        assert _shortlex_sorted(codes) == sorted(codes, key=_shortlex_key)


class TestVerdictTruth:
    def test_bool_is_holds(self):
        good = validate_model(PossibilisticModel.make(
            Scenario.make(["a"], [["a"]]), {("a",): [[], ["a"]]}
        ))
        # b lies in no context
        bad = validate_model(PossibilisticModel.make(
            Scenario.make(["a", "b"], [["a"]]), {("a",): [[]]}
        ))
        assert bool(good) is good.holds is True
        assert bool(bad) is bad.holds is False
