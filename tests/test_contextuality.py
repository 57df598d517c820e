import itertools
import json
import math
import time
import tracemalloc
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from choicectx import (
    Assignment,
    DomainMismatch,
    Kind,
    PossibilisticModel,
    Scenario,
    TimeBudgetExceeded,
    TooLarge,
    UnknownContext,
    UnknownVariable,
    classify,
    double_headed_coin,
    gen_random_model,
    global_sections_backtracking,
    global_sections_bruteforce,
    hardy_relabeled,
    hardy_table,
    is_global_section,
    luce_raiffa,
    pr_box,
    warp_contextual,
    warp_noncontextual,
    warp_signalling,
)
from choicectx import contextuality, core
from choicectx.cli import main
from choicectx.modelio import serialize_model
from choicectx.probabilistic import _satisfiable

# ground truth frozen from tools/oracle.py (independent brute force)
EXPECTED = {
    double_headed_coin: (Kind.NONCONTEXTUAL, None, 8),
    hardy_table: (Kind.CONTEXTUAL, (("a", "b"), frozenset()), 5),
    hardy_relabeled: (Kind.CONTEXTUAL, (("a", "b"), frozenset({"a", "b"})), 5),
    pr_box: (Kind.STRONGLY_CONTEXTUAL, None, 0),
    luce_raiffa: (Kind.STRONGLY_CONTEXTUAL, None, 0),
    warp_noncontextual: (Kind.NONCONTEXTUAL, None, 1),
    warp_contextual: (Kind.STRONGLY_CONTEXTUAL, None, 0),
    warp_signalling: (Kind.STRONGLY_CONTEXTUAL, None, 0),
}


class TestClassify:
    @pytest.mark.parametrize("build", EXPECTED, ids=lambda b: b.__name__)
    def test_fixture_classification(self, build):
        kind, witness, count = EXPECTED[build]
        result = classify(build())
        assert result.kind is kind
        assert result.witness_event == witness
        assert result.section_count == count

    def test_model_missing_a_cover_context(self):
        s = Scenario.make(["a", "b"], [["a"], ["b"]])
        model = PossibilisticModel.make(s, {("a",): [frozenset()]})
        with pytest.raises(UnknownContext):
            classify(model)

    def test_is_contextual_property(self):
        assert not classify(double_headed_coin()).is_contextual
        assert classify(hardy_table()).is_contextual
        assert classify(pr_box()).is_contextual

    def test_witness_is_canonically_first(self):
        # two unrealizable events in the same context: the shortlex-smaller wins
        s = Scenario.make(["a", "b"], [["a"], ["a", "b"]])
        m = PossibilisticModel.make(
            s,
            {
                ("a",): [frozenset({"a"})],
                ("a", "b"): [frozenset(), frozenset({"b"}), frozenset({"a"})],
            },
        )
        result = classify(m)
        assert result.kind is Kind.CONTEXTUAL
        assert result.witness_event == (("a", "b"), frozenset())

    def test_to_doc(self):
        doc = classify(hardy_table()).to_doc()
        assert doc == {
            "kind": "Contextual",
            "witness_event": {"context": ["a", "b"], "event": []},
            "section_count": 5,
        }


class TestIsGlobalSection:
    def test_accepts_section(self):
        m = warp_noncontextual()
        s = Assignment.make({"a": 1, "b": 0, "c": 0})
        assert is_global_section(s, m)

    def test_rejects_non_section(self):
        m = warp_noncontextual()
        s = Assignment.make({"a": 0, "b": 0, "c": 0})
        assert not is_global_section(s, m)

    def test_requires_total_domain(self):
        m = warp_noncontextual()
        with pytest.raises(DomainMismatch):
            is_global_section(Assignment.make({"a": 1}), m)
        with pytest.raises(DomainMismatch):
            is_global_section(
                Assignment.make({"a": 1, "b": 0, "c": 0, "d": 1}), m
            )

    @staticmethod
    def assignments(model):
        variables = model.scenario.variables
        bits = itertools.product((0, 1), repeat=len(variables))
        return [Assignment.make(zip(variables, code)) for code in bits]

    @pytest.mark.parametrize("seed", range(6))
    def test_agrees_with_the_section_scan(self, seed):
        m = gen_random_model(6, 4, 0.5, seed=seed)
        verdicts = [is_global_section(s, m) for s in self.assignments(m)]
        # the greedy search order is never built for a verdict
        assert "compiled" not in m.__dict__
        sections = set(global_sections_bruteforce(m))
        assert verdicts == [s in sections for s in self.assignments(m)]

    def test_faults_are_raised_whatever_the_assignment(self):
        # a cover context with no support entry, where the first context
        # alone already refuses a = 1; a cover variable the scenario does
        # not declare
        missing = PossibilisticModel(Scenario.make("ab", ["a", "b"]), {("a",): [set()]})
        undeclared = PossibilisticModel(Scenario.make("a", [["a", "z"]]), {("a", "z"): []})
        for m, error in [(missing, UnknownContext), (undeclared, UnknownVariable)]:
            with pytest.raises(error) as want:
                m.compiled
            for s in self.assignments(m):
                with pytest.raises(error) as err:
                    is_global_section(s, m)
                assert str(err.value) == str(want.value)


class TestSectionSearch:
    @pytest.mark.parametrize("build", EXPECTED, ids=lambda b: b.__name__)
    def test_strategies_agree_on_fixtures(self, build):
        m = build()
        assert global_sections_backtracking(m) == global_sections_bruteforce(m)

    def test_sections_in_lexicographic_order(self):
        m = double_headed_coin()
        sections = global_sections_backtracking(m)
        assert len(sections) == 8
        assert sections == sorted(sections)
        # first variable in scenario order is pinned to 1 throughout
        assert all(s["a"] == 1 for s in sections)

    def test_every_emitted_section_verifies(self):
        m = hardy_table()
        for s in global_sections_backtracking(m):
            assert is_global_section(s, m)

    def test_bruteforce_bound(self):
        m = gen_random_model(6, 3, 0.5, seed=0)
        with pytest.raises(TooLarge):
            global_sections_bruteforce(m, bound=5)

    @pytest.mark.parametrize("seed", range(6))
    def test_bruteforce_builds_no_search_order(self, seed):
        m = gen_random_model(7, 4, 0.6, seed=seed)
        sections = global_sections_bruteforce(m)
        # the referee shares no compile code with the search it checks
        assert "compiled" not in m.__dict__
        assert sections == global_sections_backtracking(m)

    def test_bruteforce_faults_come_before_the_bound(self):
        # a missing support entry before an undeclared cover variable; an
        # undeclared cover variable; a scenario too large to lay out
        names = [f"x{i}" for i in range(core.VARIABLES_LIMIT + 1)]
        faulty = [
            PossibilisticModel(Scenario.make("ab", [["a"], ["a", "z"]]), {("a",): [set()]}),
            PossibilisticModel(Scenario.make("a", [["a", "z"]]), {("a", "z"): []}),
            PossibilisticModel._from_codes(Scenario.make(names, [names[:1]]), {("x0",): {0}}),
        ]
        for m, error in zip(faulty, [UnknownContext, UnknownVariable, TooLarge]):
            with pytest.raises(error) as want:
                m.compiled
            with pytest.raises(error) as err:
                global_sections_bruteforce(m, bound=0)
            assert str(err.value) == str(want.value)

    def test_deadline_expiry_carries_partials(self):
        # one free 12-variable context: enough nodes to hit the deadline check
        m = gen_random_model(12, 1, 1.0, seed=0)
        with pytest.raises(TimeBudgetExceeded) as err:
            global_sections_backtracking(m, deadline=time.monotonic() - 1.0)
        assert isinstance(err.value.partial_sections, tuple)

    def test_expiry_mid_search_carries_sorted_partials(self, monkeypatch):
        # a clock that passes the deadline from its fortieth read on
        reads = itertools.count()
        clock = SimpleNamespace(monotonic=lambda: float(next(reads) >= 40))
        monkeypatch.setattr(core, "time", clock)
        m = gen_random_model(16, 1, 1.0, seed=0)
        with pytest.raises(TimeBudgetExceeded) as err:
            global_sections_backtracking(m, deadline=0.5)
        partial = list(err.value.partial_sections)
        assert 0 < len(partial) < 2**16
        assert partial == sorted(partial)
        assert all(is_global_section(s, m) for s in partial)

    def test_expiry_counts_partials_before_decoding(self, monkeypatch):
        # the scan reads the clock once (its one context allows every code,
        # so it builds no table); the witness pass's first fold read expires
        reads = itertools.count()
        clock = SimpleNamespace(monotonic=lambda: float(next(reads) >= 1))
        monkeypatch.setattr(core, "time", clock)
        m = gen_random_model(16, 1, 1.0, seed=0)
        with pytest.raises(TimeBudgetExceeded) as err:
            classify(m, deadline=0.5)
        exc = err.value
        count = exc.partial_count
        assert count > 0
        assert "partial_sections" not in vars(exc)  # nothing decoded yet
        assert len(exc.partial_sections) == count
        assert exc.partial_sections is exc.partial_sections

    @pytest.mark.parametrize(
        "n, k, density, seed",
        [(16, 1, 1.0, 0), (14, 6, 0.9, 2), (15, 5, 0.9, 3), (16, 8, 0.95, 5)],
    )
    def test_split_blocks_agree_with_bruteforce(self, n, k, density, seed):
        # thousands of sections: the search splits its blocks many times
        m = gen_random_model(n, k, density, seed=seed)
        expected = global_sections_bruteforce(m)
        assert len(expected) > 4 * core.DEADLINE_STRIDE
        assert global_sections_backtracking(m) == expected

    def test_one_event_wide_context(self):
        names = [f"v{i:02d}" for i in range(20)]
        chosen = frozenset(names[::3])
        m = PossibilisticModel.make(
            Scenario.make(names, [names]), {tuple(names): [chosen]}
        )
        section = Assignment.make({v: int(v in chosen) for v in names})
        assert global_sections_backtracking(m) == [section]
        assert classify(m).section_count == 1

    def test_witness_pass_reads_past_the_first_block(self):
        # {x00} is realized only by sections with x00 = 1, which sort after
        # the first DEADLINE_STRIDE of the 4,096 sections
        names = [f"x{i:02d}" for i in range(12)]
        rest = names[1:]
        m = PossibilisticModel.make(
            Scenario.make(names, [["x00"], rest]),
            {
                ("x00",): [[], ["x00"]],
                tuple(rest): [
                    [v for j, v in enumerate(rest) if code >> j & 1]
                    for code in range(1 << len(rest))
                ],
            },
        )
        result = classify(m)
        assert result.section_count == 4096
        assert result.kind is Kind.NONCONTEXTUAL

    def test_found_sections_are_bounded(self, monkeypatch):
        # 4,096 sections, over a limit of 1,000: refused, not held.  Only
        # the level-wise search holds classify's sections: take it
        monkeypatch.setattr(core, "_scan_pays", lambda compiled: False)
        monkeypatch.setattr(core, "TABLE_ROWS_LIMIT", 1000)
        m = gen_random_model(12, 1, 1.0, seed=0)
        for search in (classify, global_sections_backtracking):
            with pytest.raises(TooLarge, match="over 1,000 global sections"):
                search(m)
        # stopping at the first section holds no more than one block
        assert core._levelwise_masks(m.compiled, None, first=True)
        monkeypatch.setattr(core, "TABLE_ROWS_LIMIT", 4096)
        assert classify(m).section_count == 4096

    def test_no_deadline_completes(self):
        m = gen_random_model(12, 1, 1.0, seed=0)
        assert len(global_sections_backtracking(m)) == 4096

    @given(st.integers(0, 2**32 - 1))
    def test_random_models_agree(self, seed):
        m = gen_random_model(1 + seed % 6, 1 + seed % 3, (seed % 9) / 8, seed=seed)
        assert global_sections_backtracking(m) == global_sections_bruteforce(m)


class TestRenameInvariance:
    @given(st.integers(0, 2**32 - 1))
    def test_kind_and_count_survive_renaming(self, seed):
        m = gen_random_model(2 + seed % 5, 1 + seed % 3, 0.5, seed=seed)
        # a rename that reverses alphabetical order
        names = m.scenario.variables
        rename = {v: f"z{len(names) - i:03d}" for i, v in enumerate(names)}
        renamed = PossibilisticModel.make(
            Scenario.make(
                [rename[v] for v in names],
                [[rename[v] for v in c] for c in m.scenario.cover],
            ),
            {
                tuple(rename[v] for v in c): {
                    frozenset(rename[v] for v in e) for e in m.events(c)
                }
                for c in m.scenario.cover
            },
        )
        ours, theirs = classify(m), classify(renamed)
        assert ours.kind is theirs.kind
        assert ours.section_count == theirs.section_count


class TestWitnessPassExpiry:
    def test_expiry_carries_every_section(self, monkeypatch):
        # the search reads the clock through core's binding and finishes;
        # the witness pass reads its own, which has always expired.  The
        # generated model's search spans several blocks, so it finds its
        # sections out of ascending order
        models = [hardy_table(), gen_random_model(15, 12, 0.8, 1)]
        counts = [classify(m).section_count for m in models]
        assert counts[0] > 0 and counts[1] > core.DEADLINE_STRIDE
        # the scan would find them ascending: take the level-wise search
        monkeypatch.setattr(core, "_scan_pays", lambda compiled: False)
        monkeypatch.setattr(contextuality, "past_deadline", lambda deadline: True)
        for m, sections in zip(models, counts):
            with pytest.raises(TimeBudgetExceeded) as err:
                classify(m, deadline=time.monotonic() + 60)
            assert err.value.partial_count == sections
            assert list(err.value.partial_sections) == global_sections_backtracking(m)


def one_context(n, allowed):
    """A model over ``n`` variables with one context holding them all and
    allowing the codes ``allowed``: its sections are those codes."""
    names = [f"x{i:02d}" for i in range(n)]
    scenario = Scenario.make(names, [names])
    return PossibilisticModel._from_codes(scenario, {tuple(names): frozenset(allowed)})


class TestSearchKernels:
    @pytest.mark.parametrize(
        "n, k, density, seed",
        [(16, 1, 1.0, 0), (14, 6, 0.9, 2), (15, 5, 0.9, 3), (16, 8, 0.95, 5)],
    )
    def test_kernels_agree_on_split_blocks(self, n, k, density, seed):
        # thousands of sections: the level-wise search splits its blocks
        # many times, and the scan reads them out in many runs
        compiled = gen_random_model(n, k, density, seed=seed).compiled
        sections = core._read_out(core._scan_bits(compiled, None), compiled, None)
        assert len(sections) > 4 * core.DEADLINE_STRIDE
        assert sections == sorted(sections)
        assert sorted(core._levelwise_masks(compiled, None)) == sections

    def test_stopping_at_the_first_section_never_scans(self, monkeypatch):
        # a dense open cover that the scan would enumerate, asked whether
        # it has a section as the Bell route asks its truth tables
        compiled = gen_random_model(16, 8, 0.95, seed=5).compiled
        assert core._scan_pays(compiled)

        def refuse(*args):
            raise AssertionError("the scan ran")

        monkeypatch.setattr(core, "_scan_pays", refuse)
        monkeypatch.setattr(core, "_scan_bits", refuse)
        assert _satisfiable(compiled.contexts, compiled.bit, None)

    def test_scan_ignores_a_code_outside_its_context(self):
        # the code-built event {a, b} of context {a} sets b, which {a}
        # lacks: as in the level-wise search it is never met, so {a} allows
        # only a = 0 although it holds as many codes as a full context
        scenario = Scenario.make("ab", [["a"], ["b"]])
        model = PossibilisticModel._from_codes(
            scenario, {("a",): frozenset({0, 3}), ("b",): frozenset({0, 1})}
        )
        compiled = model.compiled
        assert core._read_out(core._scan_bits(compiled, None), compiled, None) == [0, 1]
        assert sorted(core._levelwise_masks(model.compiled, None)) == [0, 1]


def free_singletons(n):
    """A model over ``n`` variables, each alone in a context that allows
    both its values: all 2^n codes are sections."""
    names = [f"x{i:02d}" for i in range(n)]
    scenario = Scenario.make(names, [[v] for v in names])
    return PossibilisticModel.make(scenario, {(v,): [[], [v]] for v in names})


class TestBitsetClassify:
    def test_counts_sections_it_does_not_hold(self, monkeypatch):
        # 4,096 sections, over a section limit of 1,000: classify counts
        # them on the scan's bitset, and only the listing refuses them
        monkeypatch.setattr(core, "TABLE_ROWS_LIMIT", 1000)
        m = gen_random_model(12, 1, 1.0, seed=0)
        assert core._scan_pays(m.compiled)
        assert classify(m).section_count == 4096
        with pytest.raises(TooLarge, match="over 1,000 global sections"):
            global_sections_backtracking(m)

    def test_over_the_section_limit_up_to_the_scan_limit(self):
        # 21 free singletons: 2^21 sections, over TABLE_ROWS_LIMIT, within
        # the scan's 2^24 rows
        m = free_singletons(21)
        assert 1 << 21 > core.TABLE_ROWS_LIMIT and 1 << 21 <= core.SCAN_ROWS_LIMIT
        assert classify(m) == contextuality.Classification(Kind.NONCONTEXTUAL, None, 1 << 21)
        with pytest.raises(TooLarge, match="global sections"):
            global_sections_backtracking(m)

    def test_code_built_event_outside_its_context_stays_unrealized(self, monkeypatch):
        # {a} allows a = 0 and the stray code {a, b}, which sets b: no
        # section restricts to it, so it is the witness on both paths
        scenario = Scenario.make("ab", [["a"], ["b"]])
        model = PossibilisticModel._from_codes(
            scenario, {("a",): frozenset({0, 3}), ("b",): frozenset({0, 1})}
        )
        witness = (("a",), frozenset({"a", "b"}))
        expected = contextuality.Classification(Kind.CONTEXTUAL, witness, 2)
        monkeypatch.setattr(core, "_scan_pays", lambda compiled: True)
        assert classify(model) == expected
        monkeypatch.setattr(core, "_scan_pays", lambda compiled: False)
        assert classify(model) == expected


def must_not_run(*args):
    raise AssertionError("a kernel the scan spares ran")


class TestWideListing:
    def test_one_event_over_22_variables_is_scanned(self, monkeypatch):
        # 2^22 rows, over the section limit, within the scan's: the listing
        # scans them, as classify does, never searching level-wise
        monkeypatch.setattr(core, "_levelwise_masks", must_not_run)
        code = 0b1001001001001001001001
        model = one_context(22, [code])
        assert global_sections_backtracking(model) == [model.compiled.decode(code)]

    def test_too_many_sections_are_refused_by_the_count(self, monkeypatch):
        # 21 free singletons: 2^21 sections, refused off the bitset's count
        # before any is read out, with the level-wise search's message
        monkeypatch.setattr(core, "_levelwise_masks", must_not_run)
        monkeypatch.setattr(core, "_read_out", must_not_run)
        message = "the model has over 1,048,576 global sections, the most the search holds"
        with pytest.raises(TooLarge) as err:
            global_sections_backtracking(free_singletons(21))
        assert str(err.value) == message

    def test_the_read_out_holds_one_binary_text(self):
        # one section of 24 variables: the read-out holds one binary text,
        # as long as the section's code, and no second one of that size
        names = [f"x{i:02d}" for i in range(24)]
        model = PossibilisticModel.make(Scenario.make(names, [names]), {tuple(names): [names[::3]]})
        compiled = model.compiled
        sections = core._scan_bits(compiled, None)
        tracemalloc.start()
        try:
            codes = core._read_out(sections, compiled, None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert codes == list(compiled.contexts[0][1])
        assert peak < 12 << 20

    def test_the_section_limit_is_inclusive_on_both_kernels(self, monkeypatch):
        # 2^12 free singleton sections under a limit of 4,096 are listed,
        # the scan reading out a bitset with every row set; 2^13 are refused
        expected = global_sections_bruteforce(free_singletons(12))
        monkeypatch.setattr(core, "TABLE_ROWS_LIMIT", 4096)
        message = "the model has over 4,096 global sections, the most the search holds"
        for scan in (True, False):
            monkeypatch.setattr(core, "_scan_pays", lambda compiled: scan)
            assert core._takes_scan(free_singletons(12).compiled) is scan
            assert global_sections_backtracking(free_singletons(12)) == expected
            with pytest.raises(TooLarge) as err:
                global_sections_backtracking(free_singletons(13))
            assert str(err.value) == message

    @pytest.mark.parametrize(
        "build",
        [lambda: gen_random_model(21, 16, 0.5, seed=1), lambda: gen_random_model(21, 24, 0.7, seed=1),
         lambda: gen_random_model(22, 10, 0.5, seed=1), lambda: gen_random_model(22, 24, 0.7, seed=1),
         lambda: one_context(22, range(0, 1 << 22, 4099))],
        ids=["21-16", "21-24", "22-10", "22-24", "one-context"],
    )
    def test_kernels_list_the_same_sections(self, build, monkeypatch):
        model = build()
        levelwise = core._levelwise_masks
        monkeypatch.setattr(core, "_levelwise_masks", must_not_run)
        monkeypatch.setattr(core, "_scan_pays", lambda compiled: True)
        scanned = global_sections_backtracking(model)
        monkeypatch.setattr(core, "_levelwise_masks", levelwise)
        monkeypatch.setattr(core, "_scan_pays", lambda compiled: False)
        assert global_sections_backtracking(model) == scanned


# few of the rows set (2,979 of 2^15) and most of them (2,730 of 2^12),
# read out by the same loop
SPARSE = (15, range(0, 1 << 15, 11))
DENSE = (12, [code for code in range(1 << 12) if code % 3])


class TestScanClock:
    @staticmethod
    def counting_clock(monkeypatch, expire_at=None):
        """Patch core's clock with one that counts its reads in the list it
        returns, reading 0.0 and, from read ``expire_at`` on, infinity."""
        reads = []

        def monotonic():
            reads.append(1)
            return float("inf") if expire_at is not None and len(reads) > expire_at else 0.0

        monkeypatch.setattr(core, "time", SimpleNamespace(monotonic=monotonic))
        return reads

    @pytest.mark.parametrize("n, codes", [SPARSE, DENSE], ids=["sparse", "dense"])
    def test_the_scan_reads_the_clock_every_stride(self, n, codes, monkeypatch):
        # once before the first table, once per run of DEADLINE_STRIDE
        # allowed codes (2,979 or 2,730: three runs), and once per run of
        # DEADLINE_STRIDE sections (2,979 or 2,730: three runs)
        reads = self.counting_clock(monkeypatch)
        compiled = one_context(n, codes).compiled
        assert core._read_out(core._scan_bits(compiled, 1.0), compiled, 1.0) == list(codes)
        assert len(reads) == 1 + 3 + 3

    def test_expiry_before_the_read_out_carries_no_sections(self, tmp_path, monkeypatch, capsys):
        model = one_context(*SPARSE)
        assert core._scan_pays(model.compiled)
        path = tmp_path / "sparse.json"
        path.write_text(serialize_model(model))
        # the second read, before the table's first run of codes, has expired
        self.counting_clock(monkeypatch, expire_at=1)
        assert main(["classify", "--budget", "60", str(path)]) == 3
        out = capsys.readouterr().out
        assert out == "inconclusive: time budget exceeded (0 sections found before expiry)\n"

    @pytest.mark.parametrize("n, codes", [SPARSE, DENSE], ids=["sparse", "dense"])
    def test_expiry_in_the_read_out_carries_an_ascending_prefix(self, n, codes, monkeypatch):
        # the scan, whichever search the estimate picks for one wide context
        monkeypatch.setattr(core, "_scan_pays", lambda compiled: True)
        model = one_context(n, codes)
        sections = global_sections_backtracking(model)
        # expired from the read after the first run of the read-out
        self.counting_clock(monkeypatch, expire_at=1 + math.ceil(len(codes) / core.DEADLINE_STRIDE) + 1)
        with pytest.raises(TimeBudgetExceeded) as err:
            global_sections_backtracking(model, deadline=0.5)
        partial = list(err.value.partial_sections)
        assert 0 < len(partial) <= core.DEADLINE_STRIDE
        assert partial == sections[: len(partial)]

    @pytest.mark.parametrize(
        "build",
        [double_headed_coin, hardy_table, pr_box, lambda: free_singletons(12),
         lambda: gen_random_model(14, 6, 0.9, seed=2)],
        ids=["noncontextual", "contextual", "strongly", "singletons", "generated"],
    )
    def test_the_witness_pass_reads_the_clock_once_per_fold(self, build, monkeypatch):
        # the scan's own reads, then one before each context's fold up to
        # the witness's context; none when there is no section
        monkeypatch.setattr(core, "_scan_pays", lambda compiled: True)
        model = build()
        result = classify(model)
        cover = model.scenario.cover
        folds = len(cover) if result.witness_event is None else cover.index(result.witness_event[0]) + 1
        reads = self.counting_clock(monkeypatch)
        core._scan_bits(model.compiled, 1.0)
        scan_reads = len(reads)
        reads.clear()
        assert classify(model, deadline=1.0) == result
        assert len(reads) == scan_reads + (folds if result.section_count else 0)

    @pytest.mark.parametrize("machine", [False, True], ids=["text", "machine"])
    def test_expiry_in_the_witness_pass_counts_every_section(self, machine, tmp_path, monkeypatch, capsys):
        model = one_context(*SPARSE)
        assert core._scan_pays(model.compiled)
        path = tmp_path / "sparse.json"
        path.write_text(serialize_model(model))
        # the scan reads once, then before each of its three runs of codes;
        # the first fold's read, after them, has expired
        self.counting_clock(monkeypatch, expire_at=4)
        assert main(["classify", "--budget", "60", *["--machine"] * machine, str(path)]) == 3
        out = capsys.readouterr().out
        count = len(SPARSE[1])
        if machine:
            assert json.loads(out)["partial_section_count"] == count
        else:
            assert out == f"inconclusive: time budget exceeded ({count} sections found before expiry)\n"


class TestPartialOrder:
    @pytest.mark.parametrize(
        "scan, run, expire_at",
        [
            # the level-wise search's 13th read, once the first of its two
            # last blocks has found 2,048 codes in search order, which
            # assigns the first variable, the most significant bit, first
            (False, global_sections_backtracking, 12),
            # classify's projection pass carries every section in search order
            (False, classify, None),
            # the scan's read-out, after its first run of 1,024 sections
            (True, global_sections_backtracking, 2),
            # the witness pass on the scan's bitset
            (True, classify, None),
        ],
        ids=["levelwise-block", "projection", "read-out", "bitset-witness"],
    )
    def test_partial_sections_come_ascending(self, scan, run, expire_at, monkeypatch):
        model = free_singletons(12)
        monkeypatch.setattr(core, "_scan_pays", lambda compiled: scan)
        if expire_at is None:
            monkeypatch.setattr(contextuality, "past_deadline", lambda deadline: True)
        else:
            TestScanClock.counting_clock(monkeypatch, expire_at)
        with pytest.raises(TimeBudgetExceeded) as err:
            run(model, deadline=time.monotonic() + 60)
        partial = list(err.value.partial_sections)
        assert 0 < len(partial) == err.value.partial_count
        assert partial == sorted(partial)
        assert all(is_global_section(s, model) for s in partial)
