"""Differential tests against ``tools/oracle.py``.

The section search and the inequality route share one exhaustive-scan
kernel, so agreement between them is no longer independent evidence.  The
oracle shares no code with the package and referees both on random models.
"""

import importlib.util
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from choicectx import classify, gen_random_model, strong_contextuality_via_bell


def _load_oracle():
    path = Path(__file__).resolve().parent.parent / "tools" / "oracle.py"
    spec = importlib.util.spec_from_file_location("choicectx_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracle = _load_oracle()


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 8),
    k=st.integers(1, 5),
    density=st.sampled_from([0.25, 0.5, 0.75, 0.9, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_classify_and_bell_route_match_oracle(n, k, density, seed):
    model = gen_random_model(n, k, density, seed)
    supports = {
        context: [set(event) for event in model.events(context)]
        for context in model.scenario.cover
    }
    kind, witness, count = oracle.classify(supports)

    ours = classify(model)
    ours_witness = None
    if ours.witness_event is not None:
        context, event = ours.witness_event
        ours_witness = (context, tuple(sorted(event)))
    assert (ours.kind.value, ours_witness, ours.section_count) == (kind, witness, count)
    assert strong_contextuality_via_bell(model) == (kind == "StronglyContextual")
