"""Differential tests against ``tools/oracle.py``.

The inequality route decides contradiction with the same section search
that ``classify`` runs, so agreement between them is no independent
evidence.  The oracle shares no code with the package: it referees the
search, the inequality route and the axiom checks on random models.
"""

import importlib.util
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from choicectx import (
    NotContradictory,
    PossibilisticModel,
    audit,
    bell_violation,
    check_no_signalling,
    check_weak_axiom,
    classify,
    gen_random_model,
    intersection_closed,
    is_choice_structure,
    overlap_property,
    parse_propositions,
    strong_contextuality_via_bell,
    support_propositions,
    uniform_over_support,
)
from choicectx.core import EXHAUSTIVE_BOUND_DEFAULT
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
