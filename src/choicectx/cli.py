"""Command-line front end.

Subcommands: ``classify`` places a model in the contextuality hierarchy,
``axioms`` runs the choice-axiom checks, ``audit`` combines both with the
implication checks, ``bell`` evaluates the logical inequality for a formula
file against a probabilistic model, and ``gen`` emits a random model.

Exit codes: 0 on success; 1 under ``--strict`` when the model is contextual,
signals, violates the weak axiom, or violates the inequality; 2 on input
errors; 3 when the time budget expires (the partial report is marked
inconclusive).

Both input files, the model document and the ``bell`` formula file, are
read as UTF-8 through one reader, and either may start with a byte-order
mark, which is not part of the text.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from dataclasses import dataclass
from functools import cache

from .core import EXHAUSTIVE_BOUND_DEFAULT, Verdict, _empty_support_warnings, format_event
from .errors import ChoiceCtxError, ModelSemanticError, TimeBudgetExceeded
from .modelio import parse_model, serialize_model
from .probabilistic import (
    ProbabilisticModel,
    certifies_contextuality,
    support_reduction,
)

# modelio loads probabilistic in any case; each subcommand imports the rest
# of what it runs in its own branch of _dispatch, so that bell never loads
# contextuality or axioms, and classify never loads the formula parser
# (annotations name their Classification and AuditReport unimported)


@dataclass
class RunConfig:
    command: str
    model_path: str | None = None
    props_path: str | None = None
    machine: bool = False
    strict: bool = False
    bound: int = EXHAUSTIVE_BOUND_DEFAULT
    budget: float | None = None
    n_variables: int = 0
    n_contexts: int = 0
    density: float = 0.5
    seed: int = 0
    closed: bool = False


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--machine", action="store_true", help="emit JSON instead of text"
    )
    common.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 on contextuality, signalling, axiom or inequality violations",
    )
    # a parent of its own, so bell's usage lists it where it always has,
    # between --strict and --budget
    bound = argparse.ArgumentParser(add_help=False)
    bound.add_argument(
        "--bound",
        type=int,
        default=EXHAUSTIVE_BOUND_DEFAULT,
        metavar="N",
        help="refuse scenarios over N variables (default %(default)s)",
    )
    # where --bound is not taken, it is still parsed, unlisted, so that its
    # value is not read as the model path; parse_args refuses it
    refused = argparse.ArgumentParser(add_help=False)
    refused.add_argument(
        "--bound", dest="refused_bound", action="append", default=[], help=argparse.SUPPRESS
    )
    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument(
        "--budget",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget; expiry exits 3 with an inconclusive report",
    )

    parser = argparse.ArgumentParser(
        prog="choicectx",
        description="contextuality and choice-axiom checks for binary models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # dests name the RunConfig fields they fill
    for command, text in (
        ("classify", "place a model in the hierarchy"),
        ("axioms", "run the choice-axiom checks"),
        ("audit", "full report with implication checks"),
    ):
        p = sub.add_parser(command, parents=[common, refused, budget], help=text)
        p.add_argument("model_path", metavar="model", help="model file (JSON)")

    p = sub.add_parser(
        "bell", parents=[common, bound, budget], help="evaluate the logical inequality"
    )
    p.add_argument(
        "model_path", metavar="model", help="probabilistic model file (JSON)"
    )
    p.add_argument(
        "--props",
        dest="props_path",
        required=True,
        metavar="FILE",
        help="formula file, one per line",
    )

    p = sub.add_parser("gen", help="emit a random model")
    p.add_argument("--vars", dest="n_variables", type=int, required=True, metavar="N")
    p.add_argument("--contexts", dest="n_contexts", type=int, required=True, metavar="K")
    p.add_argument(
        "--density",
        type=float,
        required=True,
        metavar="D",
        help="per-event inclusion probability in [0, 1]",
    )
    p.add_argument("--seed", type=int, required=True, metavar="S")
    p.add_argument(
        "--closed",
        action="store_true",
        help="close the cover under nonempty intersections",
    )
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    # parsing leaves the tree as it was, so one tree serves every call
    return build_parser()


def parse_args(argv: list[str]) -> RunConfig:
    parser = _parser()
    args, extras = parser.parse_known_args(argv)
    refused = [s for value in vars(args).pop("refused_bound", ()) for s in ("--bound", value)]
    if refused or extras:
        parser.error(f"unrecognized arguments: {' '.join(refused + extras)}")
    return RunConfig(**vars(args))


def _fmt_value(value: object) -> str:
    return format_event(value) if isinstance(value, list) else str(value)


def _verdict_lines(name: str, verdict: Verdict) -> list[str]:
    lines = [f"{name}: {verdict.status}"]
    if verdict.witness:
        detail = ", ".join(
            f"{key}={_fmt_value(value)}" for key, value in verdict.witness.items()
        )
        lines.append(f"  witness: {detail}")
    return lines


def _classification_lines(classification: Classification) -> list[str]:
    lines = [
        f"kind: {classification.kind}",
        f"sections: {classification.section_count}",
    ]
    if classification.witness_event is not None:
        context, event = classification.witness_event
        lines.append(f"witness: context={format_event(context)}, event={format_event(event)}")
    return lines


def _report_lines(report: AuditReport) -> list[str]:
    from .axioms import CHECKS

    lines = []
    for name in CHECKS:
        lines.extend(_verdict_lines(name, getattr(report, name)))
    lines.append(
        f"classification: {report.classification.kind} "
        f"(sections={report.classification.section_count})"
    )
    lines.append(f"region: {report.region()}")
    lines.append("theorems:")
    for check in report.theorem_checks:
        lines.append(
            f"  {check.id}: {'applicable' if check.applicable else 'not applicable'}, "
            f"{'consistent' if check.consistent else 'INCONSISTENT'}"
        )
        lines.append(f"    {check.detail}")
    return lines


def _read(path: str | None) -> str:
    assert path is not None
    # a byte-order mark, as some editors save one, is not part of the text
    with open(path, "r", encoding="utf-8-sig") as handle:
        return handle.read()


def _emit(config: RunConfig, doc: dict, lines: list[str]) -> None:
    if config.machine:
        print(json.dumps(doc, indent=2, ensure_ascii=False))
    else:
        for line in lines:
            print(line)


def _deadline(config: RunConfig) -> float | None:
    if config.budget is None:
        return None
    if not config.budget >= 0:  # also rejects NaN
        raise ValueError(f"--budget must be a nonnegative number, not {config.budget!r}")
    return time.monotonic() + config.budget


def _dispatch(config: RunConfig) -> int:
    deadline = _deadline(config)

    if config.command == "gen":
        from .catalog import gen_random_model

        model = gen_random_model(
            config.n_variables,
            config.n_contexts,
            config.density,
            config.seed,
            intersection_closed=config.closed,
        )
        sys.stdout.write(serialize_model(model))
        return 0

    model = parse_model(_read(config.model_path))
    if not isinstance(model, ProbabilisticModel):
        for warning in _empty_support_warnings(model):
            print(f"warning: {warning}", file=sys.stderr)
    elif config.command != "bell":
        model = support_reduction(model)

    # each branch gives its document, its text lines and its strict-mode finding
    if config.command == "classify":
        from .contextuality import classify

        classification = classify(model, deadline)
        doc, lines = classification.to_doc(), _classification_lines(classification)
        bad = classification.is_contextual

    elif config.command == "axioms":
        from .axioms import verdicts

        found = verdicts(model)
        doc = {name: verdict.to_doc() for name, verdict in found.items()}
        lines = [line for item in found.items() for line in _verdict_lines(*item)]
        bad = not found["weak_axiom"].holds or not found["no_signalling"].holds

    elif config.command == "audit":
        from .axioms import audit

        report = audit(model, deadline)
        doc, lines = report.to_doc(), _report_lines(report)
        bad = (
            report.classification.is_contextual
            or not report.weak_axiom.holds
            or not report.no_signalling.holds
        )

    elif config.command == "bell":
        from .probabilistic import _violation
        from .proplang import _read_tables

        if not isinstance(model, ProbabilisticModel):
            raise ModelSemanticError("the inequality needs a probabilistic model", "$")
        # each formula is parsed straight to its truth table, with no prefix
        # form and no node, in one pass that refuses a file as the library does
        text = _read(config.props_path)
        tables = _read_tables(text, model.scenario, config.bound, deadline)
        violation = _violation(tables, model, deadline)
        count = len(tables)
        doc = {"formulas": count, "violation": violation}
        lines = [f"formulas: {count}", f"violation: {violation!r}"]
        bad = certifies_contextuality(violation, count)

    else:
        raise AssertionError(f"unhandled command {config.command!r}")

    _emit(config, doc, lines)
    return 1 if config.strict and bad else 0


def run(config: RunConfig) -> int:
    try:
        return _dispatch(config)
    except TimeBudgetExceeded as exc:
        # the Bell route counts no sections
        partial = None if config.command == "bell" else exc.partial_count
        doc = {
            "inconclusive": True,
            "reason": "time budget exceeded",
            "partial_section_count": partial,
        }
        line = "inconclusive: time budget exceeded"
        if partial is not None:
            line += f" ({partial} sections found before expiry)"
        _emit(config, doc, [line])
        return 3
    except (ChoiceCtxError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # the cyclic collector is paused for the run, as timeit does: a
    # document's events are thousands of acyclic lists, freed by reference
    # counting, which it would only walk again; one the caller turned off
    # stays off, and library calls keep their caller's collector policy
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return run(parse_args(argv))
    finally:
        if was_enabled:
            gc.enable()
