"""Differential tests against ``tools/oracle.py``.

The inequality route decides contradiction with the same section search
that ``classify`` runs, so agreement between them is no independent
evidence.  The oracle shares no code with the package: it referees the
search, the inequality route and the axiom checks on random models.
"""

import importlib.util
import random
from itertools import product
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from choicectx import (
    Assignment,
    Const,
    NotContradictory,
    PossibilisticModel,
    Scenario,
    audit,
    bell_violation,
    check_no_signalling,
    check_weak_axiom,
    classify,
    gen_random_model,
    global_sections_backtracking,
    global_sections_bruteforce,
    intersection_closed,
    is_choice_structure,
    is_global_section,
    jointly_contradictory,
    overlap_property,
    parse_propositions,
    strong_contextuality_via_bell,
    support_propositions,
    uniform_over_support,
)
from choicectx import core
from choicectx.core import EXHAUSTIVE_BOUND_DEFAULT, _levelwise_masks, _mask, _read_out, _scan_bits
from choicectx.probabilistic import _violation
from choicectx.proplang import _read_tables


def _load_oracle():
    path = Path(__file__).resolve().parent.parent / "tools" / "oracle.py"
    spec = importlib.util.spec_from_file_location("choicectx_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracle = _load_oracle()

SIZES = dict(
    n=st.integers(1, 8),
    k=st.integers(1, 5),
    density=st.sampled_from([0.25, 0.5, 0.75, 0.9, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)


def oracle_supports(model):
    return {
        context: [set(event) for event in model.events(context)]
        for context in model.scenario.cover
    }


def one_event_each(model, pick):
    """``model`` with one event kept in each context (the shortlex-first
    when ``pick`` is 0), so that choice structures, and with them the weak
    axiom, are drawn often."""
    return PossibilisticModel.make(
        model.scenario,
        {
            c: model.events_sorted(c)[pick % max(1, len(model.events(c))) :][:1]
            for c in model.scenario.cover
        },
    )


@settings(max_examples=200, deadline=None)
@given(**SIZES)
def test_classify_and_bell_route_match_oracle(n, k, density, seed):
    model = gen_random_model(n, k, density, seed)
    supports = oracle_supports(model)
    kind, witness, count = oracle.classify(supports)

    ours = classify(model)
    ours_witness = None
    if ours.witness_event is not None:
        context, event = ours.witness_event
        ours_witness = (context, tuple(sorted(event)))
    assert (ours.kind.value, ours_witness, ours.section_count) == (kind, witness, count)
    assert strong_contextuality_via_bell(model) == (kind == "StronglyContextual")


@settings(max_examples=200, deadline=None)
@given(**{**SIZES, "density": st.sampled_from([0.25, 0.4, 0.5, 0.75])})
def test_bell_violation_matches_oracle(n, k, density, seed):
    # sparse supports: about one in six usable draws is strongly contextual
    model = gen_random_model(n, k, density, seed)
    # a context without events has no uniform distribution
    assume(all(model.events(context) for context in model.scenario.cover))
    supports = oracle_supports(model)
    props = support_propositions(model)
    distribution = uniform_over_support(model)
    text = "".join(f"{prop.to_text()}\n" for prop in props)
    scenario = model.scenario
    routes = [
        lambda: bell_violation(props, distribution),
        # the same formulas read back from their text: parsed to trees, and
        # parsed straight to truth tables as the CLI's bell reads them
        lambda: bell_violation(parse_propositions(text, scenario), distribution),
        lambda: _violation(
            _read_tables(text, scenario, EXHAUSTIVE_BOUND_DEFAULT, None), distribution, None
        ),
    ]
    if oracle.classify(supports)[0] == "StronglyContextual":
        expected = float(oracle.uniform_bell_sum(supports) - (len(supports) - 1))
        for route in routes:
            assert abs(route() - expected) <= 1e-9
    else:
        for route in routes:
            with pytest.raises(NotContradictory):
                route()


@settings(max_examples=300, deadline=None)
@given(closed=st.booleans(), one_event=st.booleans(), pick=st.integers(0, 63), **SIZES)
def test_axiom_verdicts_match_oracle(n, k, density, seed, closed, one_event, pick):
    model = gen_random_model(n, k, density, seed, intersection_closed=closed)
    if one_event:
        model = one_event_each(model, pick)
    supports = oracle_supports(model)
    ours = {
        "weak_axiom": check_weak_axiom(model),
        "no_signalling": check_no_signalling(model),
        "intersection_closed": intersection_closed(model.scenario),
        "overlap_property": overlap_property(model),
        "choice_structure": is_choice_structure(model),
    }
    assert ours["weak_axiom"].holds == oracle.warp_holds(supports)
    assert ours["no_signalling"].holds == oracle.no_signalling_holds(supports)
    assert ours["intersection_closed"].holds == oracle.closed_holds(supports)
    assert ours["overlap_property"].holds == oracle.overlap_holds(supports)
    assert ours["choice_structure"].holds == all(
        len(events) == 1 for events in supports.values()
    )
    # the canonically first counterexample of each failing check
    assert {name: verdict.witness for name, verdict in ours.items()} == {
        "weak_axiom": oracle.warp_witness(supports),
        "no_signalling": oracle.no_signalling_witness(supports),
        "intersection_closed": oracle.closed_witness(supports),
        "overlap_property": oracle.overlap_witness(supports),
        "choice_structure": oracle.choice_structure_witness(supports),
    }


@settings(max_examples=300, deadline=None)
@given(closed=st.booleans(), one_event=st.booleans(), pick=st.integers(0, 63), **SIZES)
def test_theorem_checks_match_oracle(n, k, density, seed, closed, one_event, pick):
    model = gen_random_model(n, k, density, seed, intersection_closed=closed)
    if one_event:
        model = one_event_each(model, pick)
    supports = oracle_supports(model)
    warp = oracle.warp_holds(supports)
    no_signalling = oracle.no_signalling_holds(supports)
    overlap = oracle.overlap_holds(supports)
    contextual = oracle.classify(supports)[0] != "NonContextual"
    # each implication applies exactly when its hypotheses hold, and is
    # then consistent exactly when its conclusion holds too
    expected = [
        (oracle.closed_holds(supports) and not warp, contextual),
        (no_signalling, warp),
        (warp and overlap, no_signalling),
    ]
    expected = [(hyp, not hyp or conclusion) for hyp, conclusion in expected]
    expected.append((warp and not no_signalling, True))
    checks = audit(model).theorem_checks
    assert [(c.applicable, c.consistent) for c in checks] == expected
    for check in checks[:3]:
        assert check.detail.startswith("not applicable: ") is not check.applicable
    # the overlap quantifier's note names exactly the covers with a
    # disjoint pair
    disjoint = any(
        not set(a) & set(b) for i, a in enumerate(supports) for b in list(supports)[:i]
    )
    assert checks[2].detail.endswith("skipped by the overlap quantifier)") is disjoint


def random_cover(n, k, density, seed, stray, constant=False):
    """A code-built model over ``n`` variables and ``k`` random contexts
    (fewer when two coincide), each code of a context kept with probability
    ``density``; with ``stray``, one event of a context that lacks a
    variable also sets that variable, as only a code-built model can; with
    ``constant``, the cover also holds the context with no variables."""
    rng = random.Random(seed)
    names = [f"v{i:02d}" for i in range(n)]
    contexts = [rng.sample(names, rng.randint(1, n)) for _ in range(k)] + [[]] * constant
    scenario = Scenario.make(names, contexts)
    codes = {}
    for context, cmask in zip(scenario.cover, scenario._masks):
        # every code inside the context's mask, from the full mask down to 0
        inside, sub = [], cmask
        while True:
            inside.append(sub)
            if not sub:
                break
            sub = (sub - 1) & cmask
        codes[context] = {code for code in inside if rng.random() < density}
        if stray and len(context) < n:
            outside = _mask(scenario.bit, [rng.choice(sorted(set(names) - set(context)))])
            codes[context].add(rng.choice(inside) | outside)
            stray = False
    return PossibilisticModel._from_codes(scenario, {c: frozenset(v) for c, v in codes.items()})


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(0, 14),
    k=st.integers(1, 40),
    density=st.floats(0, 1),
    seed=st.integers(0, 2**32 - 1),
    empty_cover=st.booleans(),
    stray=st.booleans(),
    constant=st.booleans(),
)
def test_search_kernels_agree(n, k, density, seed, empty_cover, stray, constant):
    # the scan and the level-wise search find the same sections as the
    # brute-force referee, whichever one the cost estimate would pick; a
    # context with no variables is checked also when there is no variable
    model = random_cover(n, 0 if empty_cover or not n else k, density, seed, stray, constant)
    compiled = model.compiled
    expected = [_mask(compiled.bit, s.support()) for s in global_sections_bruteforce(model)]
    assert _read_out(_scan_bits(compiled, None), compiled, None) == expected
    assert sorted(_levelwise_masks(compiled, None)) == expected
    # the oracle reads the variables off the cover, so it sees them all
    # only when every variable is covered
    covered = set().union(*map(set, model.scenario.cover))
    if n <= 10 and len(covered) == n:
        kind, witness, count = oracle.classify(oracle_supports(model))
        ours = classify(model)
        ours_witness = None
        if ours.witness_event is not None:
            context, event = ours.witness_event
            ours_witness = (context, tuple(sorted(event)))
        assert (ours.kind.value, ours_witness, ours.section_count) == (kind, witness, count)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(0, 14),
    k=st.integers(1, 40),
    density=st.floats(0, 1),
    seed=st.integers(0, 2**32 - 1),
    empty_cover=st.booleans(),
    stray=st.booleans(),
    constant=st.booleans(),
)
def test_bitset_classify_agrees(n, k, density, seed, empty_cover, stray, constant):
    # classify read off the scan's bitset equals classify over the level-wise
    # search's listed sections, and the oracle's, on the same covers as
    # test_search_kernels_agree: stray codes, empty supports and the
    # context with no variables included
    model = random_cover(n, 0 if empty_cover or not n else k, density, seed, stray, constant)
    with mock.patch.object(core, "_scan_pays", lambda compiled: True):
        ours = classify(model)
    with mock.patch.object(core, "_scan_pays", lambda compiled: False):
        assert classify(model) == ours
    covered = set().union(*map(set, model.scenario.cover))
    if n <= 10 and len(covered) == n:
        ours_witness = None
        if ours.witness_event is not None:
            context, event = ours.witness_event
            ours_witness = (context, tuple(sorted(event)))
        expected = oracle.classify(oracle_supports(model))
        assert (ours.kind.value, ours_witness, ours.section_count) == expected


@pytest.mark.parametrize("events", [[], [set()]])
@pytest.mark.parametrize("names", [[], ["a"], ["a", "b"]])
def test_a_context_with_no_variables(names, events):
    # the context with no variables allows the empty event or nothing: every
    # search and the referee find each assignment a section or none
    scenario = Scenario.make(names, [[], *([v] for v in names)])
    supports = {(): events, **{(v,): [set(), {v}] for v in names}}
    model = PossibilisticModel.make(scenario, supports)
    sections = global_sections_bruteforce(model)
    assert len(sections) == (1 << len(names) if events else 0)
    assert global_sections_backtracking(model) == sections
    for bits in product((0, 1), repeat=len(names)):
        assignment = Assignment.make(zip(names, bits))
        assert is_global_section(assignment, model) is (assignment in sections)
    ours = classify(model)
    assert ours.section_count == len(sections)
    assert (ours.kind.value, ours.witness_event) == oracle.classify(supports)[:2]
    # constant formulas are such contexts on the inequality route
    assert jointly_contradictory([Const(False)], scenario)
    assert not jointly_contradictory([Const(True)], scenario)
