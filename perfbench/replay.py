"""Traced replay of the benchmark's ops, one public call per span.

A CLI op is replayed the way the command-line front end dispatches it:
argument parsing, file reads and output writes stay in the ``cli.main``
span, and each call into a module's public function gets a child span named
``<module>.<function>``.  ``audit`` becomes the five axiom checks (one
``axioms.checks`` span) plus ``classify``; its emitted document leaves out
the four implication checks, which are microseconds of work inside
``audit()``.  A library op is one span around the library call.

Spans are kept in memory as tuples and read out when the run ends.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager

LAYERS = (
    "cli.main",
    "cli.emit",
    "cli.gen_random_model",
    "modelio.parse_model",
    "modelio.serialize_model",
    "core.validate_model",
    "probabilistic.validate_probabilistic",
    "axioms.checks",
    "contextuality.classify",
    "contextuality.global_sections_backtracking",
    "contextuality.global_sections_bruteforce",
    "proplang.parse_propositions",
    "probabilistic.jointly_contradictory",
    "probabilistic.eval_probability",
)


class Tracer:
    """Records (op, span id, parent id, name, start, end, raised) tuples."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.out_bytes: dict[int, int] = {}  # op -> stdout bytes
        self.op = -1
        self._stack: list[int] = []
        self._next = 0

    def begin_op(self, op_seq: int) -> None:
        self.op = op_seq

    @contextmanager
    def span(self, name: str):
        span_id = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        raised = True
        start = time.perf_counter()
        try:
            yield
            raised = False
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((self.op, span_id, parent, name, start, end, raised))


def _emit(tracer: Tracer, out: list, doc_of) -> None:
    with tracer.span("cli.emit"):
        out.append(json.dumps(doc_of(), indent=2, ensure_ascii=False) + "\n")


def _verdicts(cx, tracer: Tracer, model) -> dict:
    with tracer.span("axioms.checks"):
        return {
            "weak_axiom": cx.check_weak_axiom(model),
            "no_signalling": cx.check_no_signalling(model),
            "intersection_closed": cx.intersection_closed(model.scenario),
            "overlap_property": cx.overlap_property(model),
            "choice_structure": cx.is_choice_structure(model),
        }


def _cli_path(cx, tracer: Tracer, argv: list[str], out: list) -> int:
    config = cx.cli.parse_args(argv)
    deadline = None if config.budget is None else time.monotonic() + config.budget

    if config.command == "gen":
        with tracer.span("cli.gen_random_model"):
            model = cx.gen_random_model(
                config.n_variables, config.n_contexts, config.density,
                config.seed, intersection_closed=config.closed,
            )
        with tracer.span("modelio.serialize_model"):
            out.append(cx.serialize_model(model))
        return 0

    with open(config.model_path, "r", encoding="utf-8") as handle:
        text = handle.read()
    with tracer.span("modelio.parse_model"):
        model = cx.parse_model(text)
    if isinstance(model, cx.PossibilisticModel):
        with tracer.span("core.validate_model"):
            verdict = cx.validate_model(model)
    else:
        with tracer.span("probabilistic.validate_probabilistic"):
            verdict = cx.validate_probabilistic(model)
    if not verdict.holds:
        raise cx.ModelSemanticError(verdict.narrative, "$")

    if config.command == "bell":
        if not isinstance(model, cx.ProbabilisticModel):
            raise cx.ModelSemanticError("the inequality needs a probabilistic model", "$")
        with open(config.props_path, "r", encoding="utf-8") as handle:
            props_text = handle.read()
        with tracer.span("proplang.parse_propositions"):
            props = cx.parse_propositions(props_text, model.scenario)
        with tracer.span("probabilistic.jointly_contradictory"):
            contradictory = cx.jointly_contradictory(
                props, model.scenario, config.bound, deadline
            )
        if not contradictory:  # bell_violation raises here
            raise cx.NotContradictory("the formulas are jointly satisfiable")
        probabilities = []
        for prop in props:
            with tracer.span("probabilistic.eval_probability"):
                probabilities.append(cx.eval_probability(prop, model))
        violation = math.fsum(probabilities) - (len(props) - 1)
        _emit(tracer, out, lambda: {"formulas": len(props), "violation": violation})
        return 0

    if isinstance(model, cx.ProbabilisticModel):
        model = cx.support_reduction(model)
    if config.command == "classify":
        with tracer.span("contextuality.classify"):
            classification = cx.classify(model, deadline)
        _emit(tracer, out, classification.to_doc)
    elif config.command == "axioms":
        verdicts = _verdicts(cx, tracer, model)
        _emit(tracer, out, lambda: {k: v.to_doc() for k, v in verdicts.items()})
    elif config.command == "audit":
        verdicts = _verdicts(cx, tracer, model)
        with tracer.span("contextuality.classify"):
            classification = cx.classify(model, deadline)
        _emit(tracer, out, lambda: {
            **{k: v.to_doc() for k, v in verdicts.items()},
            "classification": classification.to_doc(),
        })
    else:
        raise AssertionError(f"unhandled command {config.command!r}")
    return 0


def replay_cli(cx, tracer: Tracer, argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and the name of the exception that ended one CLI
    op ("" for none), with the front end's mapping of errors to exit
    codes."""
    out: list[str] = []
    error = ""
    input_errors = (
        cx.ModelSyntaxError, cx.ModelSemanticError, cx.PropositionSyntaxError,
        cx.UnknownVariable, cx.NotMeasurable, cx.NotContradictory, cx.TooLarge,
        OSError, ValueError,
    )
    with tracer.span("cli.main"):
        try:
            code = _cli_path(cx, tracer, argv, out)
        except cx.TimeBudgetExceeded:
            code, error = 3, "TimeBudgetExceeded"
        except input_errors as exc:
            code, error = 2, type(exc).__name__
    return code, "".join(out), error


def self_times(spans: list[tuple]) -> dict:
    """Per op: its traced time (the root span), and each layer's self time
    (span duration minus the time its child spans cover), summed per name."""
    children: dict[int, float] = {}
    for _, _, parent, _, start, end, _ in spans:
        if parent is not None:
            children[parent] = children.get(parent, 0.0) + (end - start)
    per_op: dict[int, dict] = {}
    for op, span_id, parent, name, start, end, _ in spans:
        entry = per_op.setdefault(op, {"time": 0.0, "self": {}, "calls": {}})
        duration = end - start
        if parent is None:
            entry["time"] += duration
        entry["self"][name] = entry["self"].get(name, 0.0) + duration - children.get(span_id, 0.0)
        entry["calls"][name] = entry["calls"].get(name, 0) + 1
    return per_op
