import math
import time
from dataclasses import dataclass
from functools import reduce
from types import SimpleNamespace

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from choicectx import (
    And,
    Assignment,
    Const,
    ModelSemanticError,
    Not,
    NotContradictory,
    NotMeasurable,
    Or,
    PossibilisticModel,
    ProbabilisticModel,
    Proposition,
    Scenario,
    TimeBudgetExceeded,
    TooLarge,
    UnknownContext,
    Var,
    bell_scenario,
    bell_violation,
    classify,
    double_headed_coin,
    eval_probability,
    gen_random_model,
    hardy_distribution,
    hardy_table,
    jointly_contradictory,
    measurement_context,
    parse_formula,
    parse_model,
    parse_propositions,
    pr_box,
    pr_box_distribution,
    serialize_model,
    strong_contextuality_via_bell,
    support_propositions,
    support_reduction,
    uniform_over_support,
    validate_probabilistic,
    warp_contextual,
    warp_noncontextual,
    warp_signalling,
)
from choicectx import core
from choicectx.contextuality import Kind
from choicectx.core import DEADLINE_STRIDE, _Compiled
from choicectx.probabilistic import SUPPORT_EPSILON
from choicectx.proplang import _truth_tables


def two_var_model(p00, p01, p10, p11):
    s = Scenario.make(["a", "b"], [["a", "b"]])
    return ProbabilisticModel.make(
        s,
        {
            ("a", "b"): [
                ({"a": 0, "b": 0}, p00),
                ({"a": 0, "b": 1}, p01),
                ({"a": 1, "b": 0}, p10),
                ({"a": 1, "b": 1}, p11),
            ]
        },
    )


class TestValidation:
    def test_valid(self):
        assert validate_probabilistic(pr_box_distribution()).holds
        assert validate_probabilistic(two_var_model(0.25, 0.25, 0.25, 0.25)).holds

    def test_sum_tolerance(self):
        off = two_var_model(0.25, 0.25, 0.25, 0.25 + 5e-10)
        assert validate_probabilistic(off).holds
        way_off = two_var_model(0.3, 0.25, 0.25, 0.25)
        verdict = validate_probabilistic(way_off)
        assert not verdict.holds
        assert verdict.witness["reason"] == "bad-total"

    def test_negative_probability(self):
        verdict = validate_probabilistic(two_var_model(0.5, 0.5, 0.5, -0.5))
        assert verdict.witness["reason"] == "negative-probability"

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_probability(self, bad):
        # NaN slips past both p < 0 and |total - 1| > tol
        verdict = validate_probabilistic(two_var_model(bad, 0.5, 0.5, 0.0))
        assert not verdict.holds
        assert verdict.witness["reason"] == "non-finite-probability"

    def test_partial_assignment(self):
        s = Scenario.make(["a", "b"], [["a", "b"]])
        m = ProbabilisticModel.make(s, {("a", "b"): [({"a": 1}, 1.0)]})
        verdict = validate_probabilistic(m)
        assert verdict.witness["reason"] == "partial-assignment"
        # an outcome other than 0 or 1 is refused as the reader refuses it,
        # even where its code would read as 0; True and False are 1 and 0
        one = Scenario.make(["a"], [["a"]])
        for outcome in (2, -1, 0.5):
            m = ProbabilisticModel.make(one, {("a",): [({"a": outcome}, 1.0)]})
            verdict = validate_probabilistic(m)
            assert verdict.witness == {
                "reason": "bad-outcome",
                "context": ["a"],
                "assignment": {"a": outcome},
            }
        m = ProbabilisticModel.make(s, {("a", "b"): [({"a": True, "b": False}, 1.0)]})
        assert validate_probabilistic(m).holds

    def test_duplicate_assignment(self):
        s = Scenario.make(["a"], [["a"]])
        m = ProbabilisticModel.make(
            s, {("a",): [({"a": 1}, 0.5), ({"a": 1}, 0.5)]}
        )
        verdict = validate_probabilistic(m)
        assert verdict.witness["reason"] == "duplicate-assignment"

    def test_witness_assignments_are_int_outcomes_in_name_order(self):
        s = Scenario.make(["a", "b"], [["a", "b"]])
        m = ProbabilisticModel.make(
            s, {("a", "b"): [({"b": True, "a": 0}, 0.5), ({"b": 1.0, "a": False}, 0.5)]}
        )
        negative = two_var_model(0.5, 0.5, -0.5, 0.5)
        for verdict, assignment in (
            (validate_probabilistic(m), {"a": 0, "b": 1}),
            (validate_probabilistic(negative), {"a": 1, "b": 0}),
        ):
            witness = verdict.witness["assignment"]
            assert list(witness.items()) == list(assignment.items())
            assert {type(b) for b in witness.values()} == {int}

    def test_missing_context(self):
        s = Scenario.make(["a", "b"], [["a"], ["b"]])
        m = ProbabilisticModel.make(s, {("a",): [({"a": 1}, 1.0)]})
        verdict = validate_probabilistic(m)
        assert not verdict.holds
        assert verdict.witness["reason"] == "missing-support"

    def test_unknown_context_lookup(self):
        with pytest.raises(UnknownContext):
            pr_box_distribution().distribution(["a", "c"])


class TestSupportReduction:
    def test_pr_box_roundtrip(self):
        assert support_reduction(pr_box_distribution()) == pr_box()

    def test_threshold_drops_dust(self):
        tiny = 1e-12
        m = two_var_model(0.5 - tiny, tiny, 0.0, 0.5)
        reduced = support_reduction(m)
        assert reduced.events(["a", "b"]) == {
            frozenset(),
            frozenset({"a", "b"}),
        }

    def test_threshold_is_configurable(self):
        m = two_var_model(0.4, 0.1, 0.0, 0.5)
        reduced = support_reduction(m, threshold=0.2)
        assert reduced.events(["a", "b"]) == {
            frozenset(),
            frozenset({"a", "b"}),
        }

    def test_uniform_inverts_reduction(self):
        m = hardy_table()
        assert support_reduction(uniform_over_support(m)) == m

    def test_uniform_rejects_empty_support(self):
        s = Scenario.make(["a"], [["a"]])
        empty = PossibilisticModel.make(s, {("a",): []})
        with pytest.raises(ValueError):
            uniform_over_support(empty)


class TestEvalProbability:
    def test_pr_box_marginals(self):
        d = pr_box_distribution()
        assert eval_probability(parse_formula("a"), d) == 0.5
        assert eval_probability(parse_formula("a & b"), d) == 0.5
        assert eval_probability(parse_formula("a | b"), d) == 0.5
        assert eval_probability(parse_formula("(a & b) | (!a & !b)"), d) == 1.0
        assert eval_probability(parse_formula("(a & !b') | (!a & b')"), d) == 0.0

    def test_uses_first_containing_context(self):
        # P(a) is read from context (a, b), the canonically first with a
        d = pr_box_distribution()
        assert eval_probability(Var("a"), d) == 0.5

    def test_not_measurable(self):
        with pytest.raises(NotMeasurable):
            eval_probability(parse_formula("a & a'"), pr_box_distribution())

    def test_constant(self):
        assert eval_probability(Const(True), pr_box_distribution()) == 1.0


class TestJointlyContradictory:
    def test_empty_family_is_satisfiable(self):
        assert not jointly_contradictory([], bell_scenario())

    def test_single_contradiction(self):
        phi = parse_formula("a & !a")
        assert jointly_contradictory([phi], bell_scenario())

    def test_pairwise_satisfiable_jointly_not(self):
        s = Scenario.make(["a", "b"], [["a", "b"]])
        family = [
            parse_formula("a | b"),
            parse_formula("!a | b"),
            parse_formula("a | !b"),
            parse_formula("!a | !b"),
        ]
        assert jointly_contradictory(family, s)
        assert not jointly_contradictory(family[:3], s)

    def test_bound(self):
        s = Scenario.make([f"v{i}" for i in range(6)], [[f"v{i}" for i in range(6)]])
        with pytest.raises(TooLarge):
            jointly_contradictory([Var("v0")], s, bound=5)

    def test_checks_measurability(self):
        with pytest.raises(NotMeasurable):
            jointly_contradictory([parse_formula("a & a'")], bell_scenario())

    def test_unknown_node_class_is_not_compiled(self):
        @dataclass(frozen=True, eq=False, repr=False)
        class Xor(Proposition):
            left: Proposition
            right: Proposition

        phi = Xor(Var("a"), Not(Var("b")))
        assert phi.variables() == {"a", "b"}
        assert phi == Xor(Var("a"), Not(Var("b"))) != Xor(Var("b"), Not(Var("a")))
        with pytest.raises(TypeError, match="cannot compile a .*Xor node"):
            jointly_contradictory([Var("a") & phi], bell_scenario())

    def test_expired_deadline(self):
        phis = support_propositions(pr_box())
        with pytest.raises(TimeBudgetExceeded):
            jointly_contradictory(
                phis, bell_scenario(), deadline=time.monotonic() - 1.0
            )


class TestTableRowsLimit:
    """Every family's truth tables hold at most 2^20 rows in all; a larger
    family is refused before any table is built."""

    @staticmethod
    def conjunction(k):
        names = [f"v{i:02d}" for i in range(k)]
        scenario = Scenario.make(names, [names])
        prop = Var(names[0])
        for name in names[1:]:
            prop = prop & Var(name)
        return scenario, prop

    def test_twenty_variables_fit(self):
        scenario, prop = self.conjunction(20)
        assert not jointly_contradictory([prop], scenario)
        assert jointly_contradictory([prop & Not(Var("v07"))], scenario)

    def test_twenty_one_variables_are_refused(self):
        scenario, prop = self.conjunction(21)
        with pytest.raises(TooLarge, match="would hold 2,097,152 rows"):
            jointly_contradictory([prop], scenario)
        model = ProbabilisticModel.make(
            scenario, {scenario.cover[0]: [({v: 1 for v in scenario.variables}, 1.0)]}
        )
        with pytest.raises(TooLarge, match="over the limit of 1,048,576"):
            eval_probability(prop, model)

    def test_the_limit_is_on_the_sum(self):
        scenario, prop = self.conjunction(20)
        with pytest.raises(TooLarge, match="would hold 1,048,577 rows"):
            jointly_contradictory([prop, Const(True)], scenario)
        with pytest.raises(TooLarge, match="would hold 2,097,152 rows"):
            jointly_contradictory([prop, prop], scenario)

    def test_counts_too_long_to_print_are_powers_of_two(self):
        # 2^14400 rows: their decimal form passes the interpreter's
        # 4,300-digit limit on converting an integer to text
        names = [f"x{i:05d}" for i in range(14400)]
        scenario = Scenario.make(names, [names])
        props = parse_propositions(" | ".join(names), scenario)
        entries = [(dict.fromkeys(names, 0), 1.0)]
        model = ProbabilisticModel.make(scenario, {tuple(names): entries})
        message = (
            "the formulas' truth tables would hold over 2^14399 rows, "
            "over the limit of 1,048,576"
        )
        for call in (
            lambda: jointly_contradictory(props, scenario, 20000),
            lambda: bell_violation(props, model, 20000),
            lambda: eval_probability(props[0], model),
        ):
            with pytest.raises(TooLarge) as info:
                call()
            assert str(info.value) == message


class TestBellViolation:
    def test_pr_box_saturates(self):
        props = support_propositions(pr_box())
        violation = bell_violation(props, pr_box_distribution())
        assert abs(violation - 1.0) <= 1e-12

    def test_satisfiable_family_rejected(self):
        props = support_propositions(hardy_table())
        with pytest.raises(NotContradictory):
            bell_violation(props, hardy_distribution())

    def test_nontrivial_intermediate_value(self):
        # 7/8 agreement per context: each support formula has probability
        # 7/8, so the sum is 3.5 against the bound of 3
        def pair(u, v, same, diff):
            return [
                ({u: 0, v: 0}, same),
                ({u: 0, v: 1}, diff),
                ({u: 1, v: 0}, diff),
                ({u: 1, v: 1}, same),
            ]

        d = ProbabilisticModel.make(
            bell_scenario(),
            {
                ("a", "b"): pair("a", "b", 0.4375, 0.0625),
                ("a", "b'"): pair("a", "b'", 0.4375, 0.0625),
                ("a'", "b"): pair("a'", "b", 0.4375, 0.0625),
                ("a'", "b'"): pair("a'", "b'", 0.0625, 0.4375),
            },
        )
        assert validate_probabilistic(d).holds
        props = support_propositions(pr_box())
        violation = bell_violation(props, d)
        assert abs(violation - 0.5) <= 1e-12


class TestSupportPropositions:
    def test_one_formula_per_context(self):
        props = support_propositions(pr_box())
        assert len(props) == 4

    def test_formula_matches_membership(self):
        m = hardy_table()
        props = support_propositions(m)
        for context, phi in zip(m.scenario.cover, props):
            for code in range(1 << len(context)):
                binding = {
                    v: (code >> i) & 1 for i, v in enumerate(context)
                }
                inside = frozenset(v for v in context if binding[v]) in m.events(
                    context
                )
                assert phi.evaluate(binding) is inside

    def test_empty_support_becomes_false(self):
        s = Scenario.make(["a"], [["a"]])
        empty = PossibilisticModel.make(s, {("a",): []})
        assert support_propositions(empty) == [Const(False)]


class TestBellRoute:
    @pytest.mark.parametrize(
        "build, strong",
        [
            (double_headed_coin, False),
            (hardy_table, False),
            (pr_box, True),
            (warp_noncontextual, False),
            (warp_contextual, True),
            (warp_signalling, True),
        ],
        ids=lambda v: v.__name__ if callable(v) else str(v),
    )
    def test_agrees_with_classify(self, build, strong):
        m = build()
        assert strong_contextuality_via_bell(m) is strong
        assert (classify(m).kind is Kind.STRONGLY_CONTEXTUAL) is strong

    def test_a_context_with_no_variables(self):
        # its one event, the empty one, is the empty conjunction: true
        s = Scenario.make(["a"], [[], ["a"]])
        m = PossibilisticModel.make(s, {(): [{}], ("a",): [{"a": 1}]})
        assert strong_contextuality_via_bell(m) is False
        verdict = classify(m)
        assert (verdict.kind, verdict.section_count) == (Kind.NONCONTEXTUAL, 1)


class TestFsumDiscipline:
    def test_many_small_terms(self):
        # 2^10 equal slivers must sum to exactly 1.0 through math.fsum
        k = 10
        s = Scenario.make([f"v{i}" for i in range(k)], [[f"v{i}" for i in range(k)]])
        context = s.cover[0]
        p = 1.0 / (1 << k)
        d = ProbabilisticModel.make(
            s,
            {
                context: [
                    (
                        {v: (code >> i) & 1 for i, v in enumerate(context)},
                        p,
                    )
                    for code in range(1 << k)
                ]
            },
        )
        assert validate_probabilistic(d).holds
        assert eval_probability(Const(True), d) == 1.0
        total = math.fsum(
            eval_probability(Var(v), d) for v in s.variables
        )
        assert abs(total - k / 2) <= 1e-12


def formulas_over(names):
    """Formulas over ``names`` with constants, chains of up to four ``!``,
    and variables repeated and mentioned in any order."""
    leaves = st.one_of(st.sampled_from(names).map(Var), st.booleans().map(Const))

    def negated(pair):
        count, node = pair
        for _ in range(count):
            node = Not(node)
        return node

    return st.recursive(
        leaves,
        lambda sub: st.one_of(
            st.tuples(st.integers(1, 4), sub).map(negated),
            st.tuples(sub, sub).map(lambda pair: And(*pair)),
            st.tuples(sub, sub).map(lambda pair: Or(*pair)),
        ),
        max_leaves=16,
    )


def evaluated_table(prop, bit):
    """Variable mask and satisfying masked codes by definition: one
    ``evaluate`` call per submask of the formula's variables."""
    used = [(v, bit[v]) for v in prop.variables()]
    cmask = sum(b for _, b in used)
    satisfying = set()
    code = 0
    while True:
        if prop.evaluate({v: 1 if code & b else 0 for v, b in used}):
            satisfying.add(code)
        if code == cmask:
            return cmask, frozenset(satisfying)
        code = (code - cmask) & cmask


def evaluated_probability(prop, model):
    context = measurement_context(prop, model.scenario)
    return math.fsum(
        p
        for assignment, p in model.distribution(context)
        if prop.evaluate(assignment.as_dict())
    )


def uniform_model(n, k, density, seed):
    try:
        return uniform_over_support(gen_random_model(n, k, density, seed))
    except ValueError:  # a context without events has no uniform distribution
        reject()


# listed out of scenario order, so formulas mention variables in any order
NAMES = ["e", "a'", "c", "a", "b", "d"]
WIDE = Scenario.make(NAMES, [NAMES])
TWELVE = [f"x{i}" for i in (7, 2, 11, 0, 5, 9, 1, 10, 3, 8, 6, 4)]
TWELVE_SCENARIO = Scenario.make(TWELVE, [TWELVE])


@st.composite
def drawn_distributions(draw):
    """A model over contexts of 1-6 of ``NAMES``, each holding random ``p``
    on some of its assignments, and the entries it was made from:
    name-keyed and in shuffled order."""
    contexts = draw(
        st.lists(
            st.lists(st.sampled_from(NAMES), min_size=1, max_size=6, unique=True),
            min_size=1,
            max_size=4,
        )
    )
    scenario = Scenario.make(set().union(*contexts), contexts)
    entries = {}
    for context in scenario.cover:
        codes = st.integers(0, (1 << len(context)) - 1)
        rows = draw(st.lists(codes, min_size=1, max_size=12, unique=True))
        listed = [
            ({v: row >> j & 1 for j, v in enumerate(context)}, draw(st.floats(0.0, 1.0)))
            for row in rows
        ]
        entries[context] = draw(st.permutations(listed))
    return ProbabilisticModel.make(scenario, entries), entries


class TestCodeStorage:
    """A distribution is stored as codes; each view of it matches the
    entries the model was made from."""

    @settings(max_examples=200, deadline=None)
    @given(drawn_distributions())
    def test_views_match_the_entries_by_definition(self, drawn):
        model, entries = drawn
        text = serialize_model(model)
        # entries and the document both list the contexts in cover order
        totals = [math.fsum(p for _, p in listed) for listed in entries.values()]
        off = [i for i, total in enumerate(totals) if abs(total - 1.0) > SUPPORT_EPSILON]
        if off:
            with pytest.raises(ModelSemanticError) as err:
                parse_model(text)
            assert err.value.path == f"probabilistic[{off[0]}].distribution"
        else:
            assert parse_model(text) == model
            assert serialize_model(parse_model(text)) == text
        if all(totals):
            # the same entries scaled to a total of 1 make a document
            scaled = {
                context: [(binding, p / total) for binding, p in listed]
                for (context, listed), total in zip(entries.items(), totals)
            }
            normalized = ProbabilisticModel.make(model.scenario, scaled)
            normalized_text = serialize_model(normalized)
            assert parse_model(normalized_text) == normalized
            assert serialize_model(parse_model(normalized_text)) == normalized_text
        expected = {
            context: sorted(
                [(Assignment.make(binding), p) for binding, p in listed],
                key=lambda entry: entry[0],
            )
            for context, listed in entries.items()
        }
        for context, pairs in expected.items():
            assert model.distribution(context) == tuple(pairs)
        supports = {
            context: [assignment.support() for assignment, p in pairs if p > SUPPORT_EPSILON]
            for context, pairs in expected.items()
        }
        assert support_reduction(model) == PossibilisticModel.make(model.scenario, supports)


class TestTruthTables:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(formulas_over(NAMES), min_size=1, max_size=4))
    def test_compiled_tables_match_evaluate(self, props):
        # the parser builds a parsed formula's tree itself, so each formula
        # is also compiled as read back from its text
        bit = WIDE.bit
        for family in (props, [parse_formula(prop.to_text()) for prop in props]):
            compiled = list(_truth_tables(family, bit, None))
            assert compiled == [evaluated_table(prop, bit) for prop in family]

    @settings(max_examples=150, deadline=None)
    @given(
        st.one_of(
            st.builds(
                uniform_model,
                st.integers(2, 7),
                st.integers(1, 5),
                st.floats(0.2, 1.0),
                st.integers(0, 10**6),
            ),
            drawn_distributions().map(lambda drawn: drawn[0]),
        ),
        st.data(),
    )
    def test_probabilities_match_evaluate_bit_for_bit(self, model, data):
        context = data.draw(st.sampled_from(model.scenario.cover))
        prop = data.draw(formulas_over(list(context)))
        assert eval_probability(prop, model).hex() == (
            evaluated_probability(prop, model).hex()
        )

        props = support_propositions(support_reduction(model)) + [prop]
        if jointly_contradictory(props, model.scenario):
            expected = math.fsum(evaluated_probability(p, model) for p in props)
            assert bell_violation(props, model).hex() == (
                (expected - (len(props) - 1)).hex()
            )
        else:
            with pytest.raises(NotContradictory):
                bell_violation(props, model)

    @settings(max_examples=25, deadline=None)
    @given(formulas_over(TWELVE))
    def test_tables_over_several_row_blocks(self, prop):
        # 12 variables give 2^12 rows, decoded in blocks of 2^10
        every = Var(TWELVE[0])
        for name in TWELVE[1:]:
            every = every & Var(name)
        prop = prop | every
        bit = TWELVE_SCENARIO.bit
        assert list(_truth_tables([prop], bit, None)) == [evaluated_table(prop, bit)]

    def test_expired_deadline_stops_the_compile(self):
        # the constant-false formula settles the family without a scan, so
        # only the compile of the formula before it reads the clock: once
        # before its first step, so a short formula stops as a long one does
        long = Var("a") & Var("b")
        for _ in range(DEADLINE_STRIDE):
            long = long | (Var("a") & Var("b"))
        for first in (long, Var("a")):
            with pytest.raises(TimeBudgetExceeded):
                jointly_contradictory(
                    [first, Const(False)],
                    bell_scenario(),
                    deadline=time.monotonic() - 1.0,
                )
            assert jointly_contradictory([first, Const(False)], bell_scenario())

    @staticmethod
    def clock_reads(prop, monkeypatch):
        """How often compiling ``prop`` reads the clock."""
        reads = []
        clock = SimpleNamespace(monotonic=lambda: reads.append(1) or 0.0)
        monkeypatch.setattr(core, "time", clock)
        bit = bell_scenario().bit
        assert list(_truth_tables([prop], bit, deadline=1.0)) == [evaluated_table(prop, bit)]
        return len(reads)

    def test_compile_reads_the_clock_every_stride(self, monkeypatch):
        # a left chain of 3,000 disjuncts has 8,999 prefix-form items: one
        # read before each of its 9 slices of DEADLINE_STRIDE, and one
        # before its one block of table rows
        prop = reduce(Or, [Var("a")] * 3000)
        assert len(prop._items) == 8999
        assert -(-len(prop._items) // DEADLINE_STRIDE) == 9
        assert self.clock_reads(prop, monkeypatch) == 10

    def test_compile_of_a_parsed_line_reads_the_clock_every_stride(self, monkeypatch):
        # the same chain read from a formula file, its tree built by the
        # parser
        (prop,) = parse_propositions(" | ".join(["a"] * 3000) + "\n", bell_scenario())
        assert prop == reduce(Or, [Var("a")] * 3000)
        assert len(prop._items) == 8999
        assert self.clock_reads(prop, monkeypatch) == 10

    def test_wide_contexts_need_no_recursion(self):
        # the widest context holds 2,057 events, so its support formula is a
        # chain of 2,057 disjuncts, deeper than the interpreter's stack
        model = gen_random_model(18, 8, 0.5, seed=3)
        assert max(len(model.events_sorted(c)) for c in model.scenario.cover) > 2000
        strong = classify(model).kind is Kind.STRONGLY_CONTEXTUAL
        assert strong_contextuality_via_bell(model) is strong


def satisfiable_by_evaluate(props, scenario):
    """Whether some binding of every scenario variable satisfies all the
    formulas, by one ``evaluate`` pass per binding."""
    names = scenario.variables
    bindings = (
        {v: code >> j & 1 for j, v in enumerate(names)} for code in range(1 << len(names))
    )
    return any(all(prop.evaluate(binding) for prop in props) for binding in bindings)


@st.composite
def formula_families(draw):
    """Formulas over overlapping contexts of up to eight variables, some of
    which no context and no formula mentions."""
    n = draw(st.integers(1, 8))
    names = [f"v{i}" for i in range(n)]
    mentioned = names[: draw(st.integers(1, n))]
    contexts = draw(
        st.lists(
            st.lists(st.sampled_from(mentioned), min_size=1, max_size=4, unique=True),
            min_size=1,
            max_size=4,
        )
    )
    scenario = Scenario.make(names, contexts)
    props = draw(
        st.lists(
            st.sampled_from(scenario.cover).flatmap(lambda c: formulas_over(list(c))),
            max_size=5,
        )
    )
    return scenario, props


class TestContradictionSearch:
    @settings(max_examples=250, deadline=None)
    @given(formula_families())
    def test_matches_evaluate_over_every_binding(self, family):
        scenario, props = family
        assert jointly_contradictory(props, scenario) is not (
            satisfiable_by_evaluate(props, scenario)
        )

    @pytest.mark.parametrize("target", [0, 0b10110011100101, (1 << 14) - 1])
    def test_first_section_after_blocks_split(self, target):
        # one formula pins all 14 variables, so every partial code survives
        # until the last variable: blocks pass DEADLINE_STRIDE and split,
        # and the one section lies in the first, a middle or the last part
        names = [f"v{i:02d}" for i in range(14)]
        assert 1 << len(names) > 4 * DEADLINE_STRIDE
        set_in_target = {v for j, v in enumerate(names) if target >> (13 - j) & 1}
        literals = [Var(v) if v in set_in_target else Not(Var(v)) for v in names]
        prop = literals[0]
        for literal in literals[1:]:
            prop = prop & literal
        s = Scenario.make(names, [names])
        assert not jointly_contradictory([prop], s)
        # negating one of its literals rules the section out
        flipped = Not(literals[5])
        assert jointly_contradictory([prop, flipped], s)


def reference_order(layout, contexts):
    """The greedy order and each variable's completed contexts by the
    definition: at every step each free variable is scored over all the
    open contexts, in cover order.  A context with no variables is never
    open, so no list holds it."""
    order, completed_at = [], []
    pending = [[cmask, (cmask, allowed)] for cmask, allowed in contexts if cmask]
    free = list(layout.values())

    def gain(bit):
        completes, spread = 0, 0.0
        for rest, _ in pending:
            if rest & bit:
                completes += rest == bit
                spread += 1 / rest.bit_count()
        return completes, spread

    while free:
        bit = max(free, key=gain)
        free.remove(bit)
        order.append(bit)
        for context in pending:
            context[0] &= ~bit
        completed_at.append([context for rest, context in pending if not rest])
        pending = [context for context in pending if context[0]]
    return order, completed_at


class TestGreedyOrder:
    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 14), st.integers(1, 8), st.floats(0.0, 1.0), st.integers(0, 10**6),
        st.booleans(),
    )
    def test_generated_covers(self, n, k, density, seed, closed):
        model = gen_random_model(n, k, density, seed, intersection_closed=closed)
        compiled = model.compiled
        expected = reference_order(compiled.bit, compiled.contexts)
        assert (compiled.order, compiled.completed_at) == expected

    @settings(max_examples=100, deadline=None)
    @given(formula_families(), st.lists(st.booleans().map(Const), max_size=2), st.randoms())
    def test_formula_families_with_constants(self, family, constants, rng):
        scenario, props = family
        props = props + constants
        rng.shuffle(props)
        tables = list(_truth_tables(props, scenario.bit, None))
        compiled = _Compiled(scenario.bit, tables)
        assert (compiled.order, compiled.completed_at) == reference_order(scenario.bit, tables)


class TestRowBlockExpiry:
    def test_expiry_before_the_rows_of_a_table(self, monkeypatch):
        # a chain of 3,000 disjuncts is read in 9 slices; a clock that
        # expires on its tenth read passes them all and stops at the rows
        reads = []
        clock = SimpleNamespace(monotonic=lambda: reads.append(1) or float(len(reads) > 9))
        monkeypatch.setattr(core, "time", clock)
        prop = reduce(Or, [Var("a")] * 3000)
        with pytest.raises(TimeBudgetExceeded):
            list(_truth_tables([prop], bell_scenario().bit, deadline=0.5))
        assert len(reads) == 10


class TestModelViews:
    def test_repr_and_distributions(self):
        s = Scenario.make(["a", "b"], [["a"], ["b"]])
        m = ProbabilisticModel.make(
            s, {("b",): [({"b": 1}, 1.0)], ("a",): [({"a": 1}, 0.75), ({"a": 0}, 0.25)]}
        )
        a0, a1, b1 = Assignment.make({"a": 0}), Assignment.make({"a": 1}), Assignment.make({"b": 1})
        assert m.distributions == {("a",): ((a0, 0.25), (a1, 0.75)), ("b",): ((b1, 1.0),)}
        assert list(m.distributions) == [("a",), ("b",)]
        assert repr(m) == (
            "ProbabilisticModel(scenario=Scenario(variables=('a', 'b'), "
            "cover=(('a',), ('b',))), distributions={('a',): "
            "((Assignment(bindings=(('a', 0),)), 0.25), "
            "(Assignment(bindings=(('a', 1),)), 0.75)), "
            "('b',): ((Assignment(bindings=(('b', 1),)), 1.0),)})"
        )
