import itertools
import math
import time
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
        reads = itertools.count()
        clock = SimpleNamespace(monotonic=lambda: float(next(reads) >= 40))
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
        # 4,096 sections, over a limit of 1,000: refused, not held
        monkeypatch.setattr(core, "TABLE_ROWS_LIMIT", 1000)
        m = gen_random_model(12, 1, 1.0, seed=0)
        for search in (classify, global_sections_backtracking):
            with pytest.raises(TooLarge, match="over 1,000 global sections"):
                search(m)
        # stopping at the first section holds no more than one block
        assert core._search_masks(m.compiled, None, first=True)
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
        # many times, and the scan reads them out by blocks of rows
        compiled = gen_random_model(n, k, density, seed=seed).compiled
        sections = core._scan_masks(compiled, None)
        assert len(sections) > 4 * core.DEADLINE_STRIDE
        assert sections == sorted(sections)
        assert sorted(core._levelwise_masks(compiled, None)) == sections

    def test_stopping_at_the_first_section_never_scans(self, monkeypatch):
        # a dense open cover that the scan would enumerate
        compiled = gen_random_model(16, 8, 0.95, seed=5).compiled
        assert core._scan_pays(compiled)

        def refuse(*args):
            raise AssertionError("the scan ran")

        monkeypatch.setattr(core, "_scan_pays", refuse)
        monkeypatch.setattr(core, "_scan_masks", refuse)
        assert core._search_masks(compiled, None, first=True)

    def test_scan_ignores_a_code_outside_its_context(self):
        # the code-built event {a, b} of context {a} sets b, which {a}
        # lacks: as in the level-wise search it is never met, so {a} allows
        # only a = 0 although it holds as many codes as a full context
        scenario = Scenario.make("ab", [["a"], ["b"]])
        model = PossibilisticModel._from_codes(
            scenario, {("a",): frozenset({0, 3}), ("b",): frozenset({0, 1})}
        )
        assert core._scan_masks(model.compiled, None) == [0, 1]
        assert sorted(core._levelwise_masks(model.compiled, None)) == [0, 1]


# sections under 1/8 of the rows, read out one by one; and most of the
# rows, read out by blocks of rows
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
        # DEADLINE_STRIDE sections (2,979: three runs) or of rows (up to
        # the last section, 4,094: four runs)
        reads = self.counting_clock(monkeypatch)
        assert core._scan_masks(one_context(n, codes).compiled, 1.0) == list(codes)
        assert len(reads) == 1 + 3 + {15: 3, 12: 4}[n]

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
