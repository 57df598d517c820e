"""Self-test of the benchmark, a few seconds per workload.

Usage (from the repository root): python3 perfbench/selftest.py

Runs every workload at a tiny size, untraced and traced, and checks that:
no measured op fails and the known-defect probes are run and reported
apart from the measured ops; the traced run reports every per-layer
metric listed in BENCHMARK.json and its layer self times add up to the
traced op time; a tampered reference value shows up as a failed op that
raises the failed ratio and clears ``correct``; a crash injected into one
valid op clears ``correct``; and a merely contextual bell op that exits 2
for another reason than ``NotContradictory`` is a wrong answer, untraced
and traced.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys

import run


def tamper_first(ops: list[dict]) -> str:
    """Corrupt the reference answer of the first op that is not a probe;
    return its id."""
    op = next(op for op in ops if op["probe"] is None)
    expect = op["expect"]
    if "sections" in expect:
        expect["sections"] += 1
    elif "model" in expect:
        events = next(iter(expect["model"]["events"].values()))
        events.append(-1)
    elif "violation" in expect:
        expect["violation"] += 0.5
    else:
        doc = expect["json"]
        target = doc.get("classification", doc)
        key = "section_count" if "section_count" in target else next(iter(target))
        target[key] = ["tampered"]
    return op["id"]


def first_cli_op(ops: list[dict]) -> dict:
    return next(op for op in ops if op["probe"] is None and "argv" in op)


@contextlib.contextmanager
def crashing(target: list):
    """Make the package raise on the op whose argv is ``target[0]``, as a
    regression that crashes on a valid input would."""
    cx = run.load_package()
    original = cx.cli.parse_args

    def parse_args(argv):
        if target and list(argv) == target[0]:
            raise RuntimeError("injected crash")
        return original(argv)

    cx.cli.parse_args = parse_args
    try:
        yield
    finally:
        cx.cli.parse_args = original


def misdirect_not_contradictory(ops: list[dict]) -> str:
    """Point a merely contextual bell op at a missing formula file: it
    still exits 2, but for another reason than NotContradictory."""
    op = next(op for op in ops if op["expect"].get("error") == "NotContradictory")
    op["argv"][-1] += ".missing"
    return op["id"]


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"self-test failed: {message}")


def main() -> int:
    with open("BENCHMARK.json", "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    per_layer = {m["name"] for m in spec["per_layer"]}
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    for workload in run.WORKLOADS:
        base = run.run_benchmark(workload, 1, 0.5, False, scale="tiny")
        check(base["correct"], f"{workload}: a valid op was answered wrongly")
        check(base["failed"] == 0, f"{workload}: failed ops {sorted(base['failures'])}")
        check(base["known_defects"], f"{workload}: no known-defect probe was run")
        check(set(base["metrics"]) == end_to_end, f"{workload}: end-to-end metrics differ")

        traced = run.run_benchmark(workload, 1, 0.5, True, scale="tiny")
        check(set(traced["metrics"]) == per_layer, f"{workload}: per-layer metrics differ")
        share = traced["metrics"]["trace.self_sum_share"][0]
        check(abs(share - 1.0) < 1e-9, f"{workload}: self times sum to {share} of op time")

        tampered_ids = []
        tampered = run.run_benchmark(
            workload, 1, 0.5, False, scale="tiny",
            tamper=lambda ops: tampered_ids.append(tamper_first(ops)),
        )
        ratio = lambda r: r["failed"] / r["attempted"]
        check(tampered_ids[0] in tampered["failures"], f"{workload}: tampered op passed")
        check(ratio(tampered) > ratio(base), f"{workload}: failed ratio did not rise")
        check(not tampered["correct"], f"{workload}: tampering left correct set")

        target: list = []
        with crashing(target):
            crashed = run.run_benchmark(
                workload, 1, 0.5, False, scale="tiny",
                tamper=lambda ops: target.append(first_cli_op(ops)["argv"]),
            )
        crashed_ids = [
            i for i, f in crashed["failures"].items()
            if f["outcome"] == "raised"
        ]
        check(len(crashed_ids) == 1, f"{workload}: injected crash not seen ({crashed_ids})")
        check(not crashed["correct"], f"{workload}: a crash on a valid input left correct set")
        print(
            f"{workload}: ok; failed ratio {ratio(base):.3f} -> {ratio(tampered):.3f} "
            f"with {tampered_ids[0]} tampered; {crashed_ids[0]} crashing clears correct; "
            f"traced layers sum to {share:.6f}"
        )

    for trace in (False, True):
        misdirected: list = []
        result = run.run_benchmark(
            "bell-route", 1, 0.5, trace, scale="tiny",
            tamper=lambda ops: misdirected.append(misdirect_not_contradictory(ops)),
        )
        entry = result["failures"].get(misdirected[0], {})
        check(entry.get("outcome") == "wrong_output" and not result["correct"],
              f"bell-route trace {int(trace)}: exit 2 for another reason passed")
        print(f"bell-route trace {int(trace)}: ok; {misdirected[0]} exiting 2 "
              "without NotContradictory is a wrong answer")
    return 0


if __name__ == "__main__":
    if not os.path.isfile(os.path.join("src", "choicectx", "__init__.py")):
        print("error: run from the repository root", file=sys.stderr)
        sys.exit(2)
    sys.exit(main())
