import pytest

from choicectx import (
    ChoiceCtxError,
    Kind,
    PossibilisticModel,
    Scenario,
    audit,
    check_no_signalling,
    check_weak_axiom,
    classify,
    double_headed_coin,
    hardy_relabeled,
    hardy_table,
    intersection_closed,
    is_choice_structure,
    luce_raiffa,
    overlap_property,
    pr_box,
    warp_contextual,
    warp_noncontextual,
    warp_signalling,
)
from choicectx.axioms import CHECKS

# (warp, no_signalling, closed, overlap, choice_structure) frozen from
# tools/oracle.py
EXPECTED = {
    double_headed_coin: (True, True, False, True, False),
    hardy_table: (True, True, False, True, False),
    hardy_relabeled: (True, True, False, True, False),
    pr_box: (True, True, False, True, False),
    luce_raiffa: (False, False, True, True, True),
    warp_noncontextual: (True, True, False, True, True),
    warp_contextual: (True, False, False, False, True),
    warp_signalling: (True, False, True, False, True),
}


class TestAxiomVerdicts:
    @pytest.mark.parametrize("build", EXPECTED, ids=lambda b: b.__name__)
    def test_fixture_verdicts(self, build):
        warp, signalling, closed, overlap, single = EXPECTED[build]
        m = build()
        assert check_weak_axiom(m).holds is warp
        assert check_no_signalling(m).holds is signalling
        assert intersection_closed(m.scenario).holds is closed
        assert overlap_property(m).holds is overlap
        assert is_choice_structure(m).holds is single

    def test_weak_axiom_witness_is_canonical(self):
        verdict = check_weak_axiom(luce_raiffa())
        assert verdict.witness == {
            "context_a": ["Salmon", "Steak"],
            "context_b": ["FrogLegs", "Salmon", "Steak"],
            "x": "Salmon",
            "y": "Steak",
        }

    def test_weak_axiom_witness_takes_least_names(self):
        # x may be a or b, y may be c or d
        s = Scenario.make("abcde", ["abcd", "abcde"])
        m = PossibilisticModel.make(s, {"abcd": ["ab"], "abcde": ["cd"]})
        assert check_weak_axiom(m).witness == {
            "context_a": ["a", "b", "c", "d"],
            "context_b": ["a", "b", "c", "d", "e"],
            "x": "a",
            "y": "c",
        }

    def test_no_signalling_witness(self):
        verdict = check_no_signalling(warp_signalling())
        assert verdict.witness == {
            "context_a": ["x", "y"],
            "context_b": ["x", "y", "z"],
            "variable": "x",
        }

    def test_intersection_witness(self):
        verdict = intersection_closed(pr_box().scenario)
        assert verdict.witness == {
            "context_a": ["a", "b"],
            "context_b": ["a", "b'"],
            "intersection": ["a"],
        }

    def test_overlap_witness(self):
        verdict = overlap_property(warp_signalling())
        assert not verdict.holds
        assert verdict.witness["overlap"] == ["x", "y"]
        assert verdict.witness["empty_side"] == ["x", "y", "z"]

    def test_choice_structure_witness(self):
        verdict = is_choice_structure(pr_box())
        assert verdict.witness == {"context": ["a", "b"], "event_count": 2}

    def test_disjoint_cover_is_trivially_well_behaved(self):
        s = Scenario.make(["a", "b"], [["a"], ["b"]])
        m = PossibilisticModel.make(
            s, {("a",): [frozenset({"a"})], ("b",): [frozenset()]}
        )
        assert check_weak_axiom(m).holds
        assert check_no_signalling(m).holds
        assert intersection_closed(s).holds
        assert overlap_property(m).holds

    def test_empty_support_context_rejects_everything(self):
        # nothing chosen from {a,b}, so the overlap {a} has no chosen element
        s = Scenario.make(["a", "b"], [["a"], ["a", "b"]])
        m = PossibilisticModel.make(
            s, {("a",): [frozenset({"a"})], ("a", "b"): []}
        )
        assert not overlap_property(m).holds
        assert not check_no_signalling(m).holds
        # but no reversal is revealed: nothing is chosen in B at all
        assert check_weak_axiom(m).holds


def _check_by_id(report, check_id):
    matches = [c for c in report.theorem_checks if c.id == check_id]
    assert len(matches) == 1
    return matches[0]


class TestAudit:
    @pytest.mark.parametrize("build", EXPECTED, ids=lambda b: b.__name__)
    def test_every_theorem_check_is_consistent(self, build):
        report = audit(build())
        assert all(check.consistent for check in report.theorem_checks)

    def test_luce_raiffa_report(self):
        report = audit(luce_raiffa())
        assert not report.weak_axiom.holds
        assert report.classification.kind is Kind.STRONGLY_CONTEXTUAL
        failure = _check_by_id(report, "warp-failure-implies-contextual")
        assert failure.applicable
        assert failure.consistent
        assert report.region() == "weak axiom fails; signalling; strongly contextual"

    def test_separating_fixture_realizes_the_gap(self):
        report = audit(warp_signalling())
        gap = _check_by_id(report, "warp-strictly-weaker-than-no-signalling")
        assert gap.applicable
        assert gap.consistent

    def test_gap_not_realized_elsewhere(self):
        report = audit(double_headed_coin())
        gap = _check_by_id(report, "warp-strictly-weaker-than-no-signalling")
        assert not gap.applicable

    def test_no_signalling_check_applicability(self):
        report = audit(pr_box())
        check = _check_by_id(report, "no-signalling-implies-warp")
        assert check.applicable
        assert check.consistent
        report = audit(warp_signalling())
        check = _check_by_id(report, "no-signalling-implies-warp")
        assert not check.applicable

    def test_overlap_check_applicability(self):
        report = audit(pr_box())
        check = _check_by_id(report, "warp-and-overlap-imply-no-signalling")
        assert check.applicable
        assert check.consistent
        report = audit(warp_contextual())
        check = _check_by_id(report, "warp-and-overlap-imply-no-signalling")
        assert not check.applicable

    def test_machine_schema(self):
        doc = audit(luce_raiffa()).to_doc()
        assert sorted(doc) == [
            "choice_structure",
            "classification",
            "intersection_closed",
            "no_signalling",
            "overlap_property",
            "theorems",
            "weak_axiom",
        ]
        for name in (
            "weak_axiom",
            "no_signalling",
            "intersection_closed",
            "overlap_property",
            "choice_structure",
        ):
            assert sorted(doc[name]) == ["narrative", "status", "warnings", "witness"]
        assert sorted(doc["classification"]) == [
            "kind",
            "section_count",
            "witness_event",
        ]
        assert len(doc["theorems"]) == 4
        for entry in doc["theorems"]:
            assert sorted(entry) == ["applicable", "consistent", "detail", "id"]

    def test_regions(self):
        assert audit(double_headed_coin()).region() == (
            "weak axiom holds; no-signalling; non-contextual"
        )
        assert audit(pr_box()).region() == (
            "weak axiom holds; no-signalling; strongly contextual"
        )
        assert audit(warp_signalling()).region() == (
            "weak axiom holds; signalling; strongly contextual"
        )


NOTE = " (cover has disjoint context pairs, skipped by the overlap quantifier)"

# one small model per branch of each check's detail: each context of the
# cover, as a string of single-letter variables, with its events
BRANCHES = {
    # not closed ({b} is no context) and the weak axiom holds: the first
    # failing hypothesis is named
    "closure-fails": (
        "warp-failure-implies-contextual",
        {"ab": ["a"], "bc": ["b"]},
        False,
        "not applicable: the cover is not intersection-closed",
    ),
    "warp-holds": (
        "warp-failure-implies-contextual",
        {"ab": ["a"], "abc": ["c"]},
        False,
        "not applicable: the weak axiom holds",
    ),
    "warp-fails-on-closed-cover": (
        "warp-failure-implies-contextual",
        {"ab": ["a"], "abc": ["b"]},
        True,
        "weak axiom fails on an intersection-closed cover; classified StronglyContextual",
    ),
    "signals": (
        "no-signalling-implies-warp",
        {"ab": ["a"], "abc": ["c"]},
        False,
        "not applicable: the model signals",
    ),
    "no-signalling": (
        "no-signalling-implies-warp",
        {"ab": ["a"], "ac": ["a"]},
        True,
        "no-signalling holds; weak axiom Holds",
    ),
    # the weak axiom and the overlap property ({b} from ab) both fail
    "warp-fails": (
        "warp-and-overlap-imply-no-signalling",
        {"ab": ["a"], "abc": ["b"], "bc": ["c"]},
        False,
        "not applicable: the weak axiom fails",
    ),
    "overlap-fails": (
        "warp-and-overlap-imply-no-signalling",
        {"ab": ["a"], "bc": ["b"]},
        False,
        "not applicable: the overlap property fails",
    ),
    "warp-and-overlap": (
        "warp-and-overlap-imply-no-signalling",
        {"ab": ["a"], "ac": ["a"]},
        True,
        "weak axiom and overlap property hold; no-signalling Holds",
    ),
    "warp-and-overlap-with-disjoint-pair": (
        "warp-and-overlap-imply-no-signalling",
        {"a": ["a"], "b": ["b"]},
        True,
        "weak axiom and overlap property hold; no-signalling Holds" + NOTE,
    ),
    "warp-fails-with-disjoint-pair": (
        "warp-and-overlap-imply-no-signalling",
        {"ab": ["a"], "abc": ["b"], "bc": ["c"], "d": ["d"]},
        False,
        "not applicable: the weak axiom fails" + NOTE,
    ),
    "separated": (
        "warp-strictly-weaker-than-no-signalling",
        {"ab": ["a"], "bc": ["b"]},
        True,
        "model realizes the weak-axiom-without-no-signalling region",
    ),
    "not-separated": (
        "warp-strictly-weaker-than-no-signalling",
        {"ab": ["a"], "ac": ["a"]},
        False,
        "this model does not separate the weak axiom from no-signalling",
    ),
}


class TestTheoremDetails:
    @pytest.mark.parametrize("branch", BRANCHES)
    def test_detail(self, branch):
        check_id, supports, applicable, detail = BRANCHES[branch]
        scenario = Scenario.make(sorted(set("".join(supports))), list(supports))
        check = _check_by_id(audit(PossibilisticModel.make(scenario, supports)), check_id)
        assert (check.applicable, check.consistent, check.detail) == (applicable, True, detail)


class TestUndeclaredVariables:
    """A cover naming a variable the scenario does not declare is refused
    with a package error that names it, never a bare ``KeyError``."""

    @pytest.fixture
    def model(self):
        scenario = Scenario.make(["a"], [["a", "b"]])
        return PossibilisticModel.make(scenario, {("a", "b"): [set(), {"a"}]})

    @pytest.mark.parametrize("name", CHECKS)
    def test_each_check(self, model, name):
        with pytest.raises(ChoiceCtxError, match="'b'"):
            CHECKS[name](model)

    def test_classify(self, model):
        with pytest.raises(ChoiceCtxError, match="'b'"):
            classify(model)
