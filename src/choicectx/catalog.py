"""Small ready-made models exercising every corner of the property space.

Each builder returns a fresh model; the docstrings record the ground truth
the test suite pins down.
"""

from __future__ import annotations

from itertools import chain, compress

from .core import TABLE_ROWS_LIMIT, PossibilisticModel, Scenario, _count_text, _set_rows
from .errors import TooLarge
from .probabilistic import ProbabilisticModel, uniform_over_support


def bell_scenario() -> Scenario:
    """Two parties with two binary measurements each: variables a, a' on
    one side and b, b' on the other, one context per cross pairing."""
    return Scenario.make(
        ["a", "a'", "b", "b'"],
        [["a", "b"], ["a", "b'"], ["a'", "b"], ["a'", "b'"]],
    )


def double_headed_coin() -> PossibilisticModel:
    """Non-contextual: one measurement is deterministically 1, the rest are
    free.  Eight global sections, every event realized."""
    return PossibilisticModel.make(
        bell_scenario(),
        {
            ("a", "b"): [{"a"}, {"a", "b"}],
            ("a", "b'"): [{"a"}, {"a", "b'"}],
            ("a'", "b"): [set(), {"a'"}, {"b"}, {"a'", "b"}],
            ("a'", "b'"): [set(), {"a'"}, {"b'"}, {"a'", "b'"}],
        },
    )


def hardy_table() -> PossibilisticModel:
    """Contextual but not strongly so: the all-zero event of the first
    context is realized by no global section, yet sections exist."""
    return PossibilisticModel.make(
        bell_scenario(),
        {
            ("a", "b"): [set(), {"a"}, {"b"}, {"a", "b"}],
            ("a", "b'"): [{"a"}, {"b'"}, {"a", "b'"}],
            ("a'", "b"): [{"a'"}, {"b"}, {"a'", "b"}],
            ("a'", "b'"): [set(), {"a'"}, {"b'"}],
        },
    )


def hardy_relabeled() -> PossibilisticModel:
    """The same shape with the forbidden corners moved: here the doubly
    occupied event of the first context is unrealizable."""
    return PossibilisticModel.make(
        bell_scenario(),
        {
            ("a", "b"): [set(), {"a"}, {"b"}, {"a", "b"}],
            ("a", "b'"): [set(), {"a"}, {"b'"}],
            ("a'", "b"): [set(), {"a'"}, {"b"}],
            ("a'", "b'"): [{"a'"}, {"b'"}, {"a'", "b'"}],
        },
    )


def pr_box() -> PossibilisticModel:
    """Strongly contextual: perfect correlation on three contexts and
    perfect anticorrelation on the fourth leave no global section."""
    return PossibilisticModel.make(
        bell_scenario(),
        {
            ("a", "b"): [set(), {"a", "b"}],
            ("a", "b'"): [set(), {"a", "b'"}],
            ("a'", "b"): [set(), {"a'", "b"}],
            ("a'", "b'"): [{"a'"}, {"b'"}],
        },
    )


def pr_box_distribution() -> ProbabilisticModel:
    """The fifty-fifty distribution over each context of :func:`pr_box`;
    saturates the inequality bound with excess exactly 1."""
    return uniform_over_support(pr_box())


def hardy_distribution() -> ProbabilisticModel:
    """Uniform distribution over each context's support of
    :func:`hardy_table`."""
    return uniform_over_support(hardy_table())


def luce_raiffa() -> PossibilisticModel:
    """The diner who takes salmon from the short menu but steak from the
    long one: a weak-axiom violation on an intersection-closed cover."""
    return PossibilisticModel.make(
        Scenario.make(
            ["FrogLegs", "Salmon", "Steak"],
            [["Salmon", "Steak"], ["FrogLegs", "Salmon", "Steak"]],
        ),
        {
            ("Salmon", "Steak"): [{"Salmon"}],
            ("FrogLegs", "Salmon", "Steak"): [{"Steak"}],
        },
    )


def warp_noncontextual() -> PossibilisticModel:
    """Weak axiom holds, no-signalling holds, non-contextual: the same
    variable is chosen from both overlapping menus."""
    return PossibilisticModel.make(
        Scenario.make(["a", "b", "c"], [["a", "b"], ["a", "c"]]),
        {
            ("a", "b"): [{"a"}],
            ("a", "c"): [{"a"}],
        },
    )


def warp_contextual() -> PossibilisticModel:
    """Weak axiom holds vacuously (the chosen elements never meet the
    overlap), yet no global section exists."""
    return PossibilisticModel.make(
        Scenario.make(["a", "b", "c"], [["a", "b"], ["b", "c"]]),
        {
            ("a", "b"): [{"a"}],
            ("b", "c"): [{"b"}],
        },
    )


def warp_signalling() -> PossibilisticModel:
    """Weak axiom holds vacuously while the contexts disagree about x:
    chosen from the short menu, rejected from the long one."""
    return PossibilisticModel.make(
        Scenario.make(["x", "y", "z"], [["x", "y"], ["x", "y", "z"]]),
        {
            ("x", "y"): [{"x"}],
            ("x", "y", "z"): [{"z"}],
        },
    )


def gen_random_model(
    n_variables: int,
    n_contexts: int,
    density: float,
    seed: int,
    intersection_closed: bool = False,
) -> PossibilisticModel:
    """Draw a random valid model, deterministically in the arguments.

    Contexts are random nonempty variable subsets (duplicates dropped, so
    ``n_contexts`` is an upper bound); a catch-all context covers any
    leftover variables.  Each subset of a context becomes an event with
    probability ``density``.  Covers whose tables would hold more than
    :data:`TABLE_ROWS_LIMIT` rows in all raise :class:`TooLarge` before
    any table is drawn, and a closed cover as soon as its closure passes
    that limit; so many variables that any cover would pass it raise
    before any context is drawn.
    """
    if n_variables < 1:
        raise ValueError("at least one variable is required")
    if n_contexts < 1:
        raise ValueError("at least one context is required")
    if not 0.0 <= density <= 1.0:
        raise ValueError("density must lie in [0, 1]")
    if seed < 0:
        raise ValueError("seed must be a nonnegative integer")
    if 2 * n_variables > TABLE_ROWS_LIMIT:
        # each variable lies in some context and 2^s >= 2s, so the tables
        # hold at least 2n rows whatever the draw
        raise TooLarge(
            f"{n_variables:,} variables have at least {2 * n_variables:,} outcomes "
            f"to draw, over the limit of {TABLE_ROWS_LIMIT:,}"
        )
    import numpy as np  # only the generator needs numpy; keep it off import

    rng = np.random.default_rng(seed)
    width = len(str(n_variables - 1))
    names = [f"x{i:0{width}d}" for i in range(n_variables)]

    contexts: dict[frozenset[str], None] = {}  # an ordered set
    every_subset = (1 << n_variables) - 1
    for done in range(n_contexts):
        if len(contexts) == every_subset:
            # every later draw repeats a context: skip the 64 futile draws
            # of n doubles, one 64-bit step each, that each iteration makes
            rng.bit_generator.advance((n_contexts - done) * 64 * n_variables)
            break
        for _attempt in range(64):
            candidate = frozenset(compress(names, rng.random(n_variables) < 0.5))
            if candidate and candidate not in contexts:
                contexts[candidate] = None
                break
    uncovered = frozenset(names).difference(*contexts)
    if uncovered:
        contexts[uncovered] = None

    rows = sum(1 << len(context) for context in contexts)
    _check_table_rows(rows, contexts)
    if intersection_closed:
        # every meet of drawn contexts comes from meeting one at a time
        drawn = list(contexts)
        pending = list(contexts)
        while pending:
            a = pending.pop()
            for b in drawn:
                meet = a & b
                if meet and meet not in contexts:
                    contexts[meet] = None
                    pending.append(meet)
                    rows += 1 << len(meet)
                    _check_table_rows(rows, contexts)  # refuse mid-closure

    scenario = Scenario.make(names, contexts)
    supports: dict[tuple[str, ...], frozenset[int]] = {}
    for context in scenario.cover:
        draws = (rng.random(1 << len(context)) < density).tobytes()
        supports[context] = frozenset(
            chain.from_iterable(_set_rows(list(context), scenario.bit, draws))
        )
    return PossibilisticModel._from_codes(scenario, supports)


def _check_table_rows(rows: int, contexts: dict[frozenset[str], None]) -> None:
    """Raise :class:`TooLarge` if ``rows``, the table rows of ``contexts``,
    pass :data:`TABLE_ROWS_LIMIT`."""
    if rows > TABLE_ROWS_LIMIT:
        raise TooLarge(
            f"{len(contexts):,} contexts of up to {max(map(len, contexts)):,} variables "
            f"have {_count_text(rows)} outcomes to draw, over the limit of {TABLE_ROWS_LIMIT:,}"
        )
