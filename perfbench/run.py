"""choicectx benchmark: one closed-loop client driving the real user paths.

Usage (from the repository root):

    python3 perfbench/run.py --workload search-dense --seed 1 --seconds 20 --trace 0

Workloads are ``search-dense``, ``docs-io`` and ``bell-route`` (see
``perfbench/README.md`` for why each exists and which layers it stresses).
One client sends its next op only when the previous one returns.  A CLI op
is an in-process ``choicectx.cli.main([...])`` call with stdout captured; a
library op is a direct call to the public function on a freshly parsed
model.  Every op is checked against reference answers computed during
set-up by ``perfbench/reference.py``, which shares no code with the package.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` replays the
same ops with a span around every call into a module's public functions and
reports per-layer metrics instead.  The last line of stdout is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import reference
import replay

WORKLOADS = ("search-dense", "docs-io", "bell-route")
DEFAULT_SEED = 1
HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(HERE, "digests.json")
WORK_ROOT = ".bench_work"
OUT_ROOT = ".bench_out"
SETUP_REPEATS = 11
# calibrate() time at which scaled times equal wall times: its time on the
# 2-core Xeon host where the benchmark was built, when that host was quiet
CALIBRATION_NOMINAL_S = 0.0007
# a failed op ranks slower than every correct op: it counts as taking the
# whole per-run time limit
FAILED_OP_MS = 180_000.0
VIOLATION_TOLERANCE = 1e-9


def percentile(values: list[float], q: int) -> float:
    """The ``q``-th percentile, interpolated between closest ranks."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def read_proc(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError:
        return ""


def environment() -> dict:
    """Interpreter, numpy, CPU and load, read-only from ``/proc``."""
    cpu = re.search(r"^model name\s*:\s*(.+)$", read_proc("/proc/cpuinfo"), re.M)
    return {
        "python": platform.python_version(),
        "numpy": reference.np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu.group(1).strip() if cpu else platform.processor(),
        "loadavg_start": read_proc("/proc/loadavg").split()[:3],
    }


def spawn_import(extra: list[str]) -> tuple[float, str]:
    """Wall time of a fresh interpreter that imports choicectx, and its
    stderr."""
    env = dict(os.environ, PYTHONPATH="src")
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *extra, "-c", "import choicectx"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"import choicectx failed:\n{proc.stderr}")
    return elapsed, proc.stderr


def calibrate() -> float:
    """Seconds a fixed piece of interpreter work takes (list building, dict
    counting, sorting, JSON encoding: the kind of work the package does)."""
    start = time.perf_counter()
    data = [(i * 7919) % 1009 for i in range(3000)]
    counts: dict[int, int] = {}
    for x in data:
        counts[x] = counts.get(x, 0) + 1
    json.dumps(sorted(data)[:500])
    return time.perf_counter() - start


def setup_samples() -> list[tuple[float, float]]:
    """(spawn seconds, calibration seconds right after it) per fresh
    interpreter."""
    spawn_import([])  # warm the file cache
    samples = []
    for _ in range(SETUP_REPEATS):
        elapsed = spawn_import([])[0]
        samples.append((elapsed, statistics.median(calibrate() for _ in range(5))))
    return samples


def import_times() -> dict:
    """Cumulative import time of numpy and of choicectx, in ms, from
    ``python -X importtime`` (median of several interpreters)."""
    found: dict[str, list[float]] = {"numpy": [], "choicectx": []}
    for _ in range(5):
        _, stderr = spawn_import(["-X", "importtime"])
        seen = {}
        for line in stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in found:
                seen[parts[2].strip()] = int(parts[1]) / 1000.0
        for name in found:
            found[name].append(seen.get(name, 0.0))
    return {name: statistics.median(v) for name, v in found.items()}


def prepare(workload: str, seed: int, scale: str, work: str) -> list[dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "prepare.py"), "--workload", workload,
         "--seed", str(seed), "--scale", scale, "--out", work],
        capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        raise SystemExit(f"preparing inputs failed:\n{proc.stderr}")
    with open(os.path.join(work, "ops.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


def load_package():
    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)
    import choicectx
    import choicectx.cli

    if not os.path.abspath(choicectx.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported choicectx from {choicectx.__file__}, not {src}")
    return choicectx


def matches(expected, actual) -> bool:
    """Every expected key and list item is present in ``actual`` with an
    equal value; keys the reference does not cover (narratives, details)
    are ignored."""
    if isinstance(expected, dict):
        return isinstance(actual, dict) and all(
            key in actual and matches(value, actual[key])
            for key, value in expected.items()
        )
    if isinstance(expected, list):
        return (
            isinstance(actual, list)
            and len(expected) == len(actual)
            and all(matches(e, a) for e, a in zip(expected, actual))
        )
    return expected == actual


def check_cli(op: dict, code, stdout: str, expect: dict,
              stderr: str | None = None, error: str | None = None) -> str:
    """``ok``, ``wrong_exit`` (the exit code disagrees) or ``wrong_output``
    (a verdict field, the bytes or the reason for an exit disagree).

    ``stderr`` is the CLI's captured stderr, ``error`` the name of the
    exception a traced replay ended with ("" for none).  An expected exit
    must come from the expected error: any input error also exits 2."""
    if code != expect["exit"]:
        return "wrong_exit"
    if stderr is not None and expect.get("stderr", "") not in stderr:
        return "wrong_output"
    if error is not None and expect.get("error", error) != error:
        return "wrong_output"
    if "model" in expect:
        try:
            model = reference.model_from_doc(json.loads(stdout))
        except (ValueError, KeyError, TypeError):
            return "wrong_output"
        if reference.summary(model) != expect["model"]:
            return "wrong_output"
    if "json" in expect:
        try:
            doc = json.loads(stdout)
        except ValueError:
            return "wrong_output"
        if not matches(expect["json"], doc):
            return "wrong_output"
        if "violation" in expect and not (
            isinstance(doc.get("violation"), float)
            and abs(doc["violation"] - expect["violation"]) <= VIOLATION_TOLERANCE
        ):
            return "wrong_output"
    return "ok"


def check_sections(sections, variables, expect: dict) -> str:
    if len(sections) != expect["sections"]:
        return "wrong_output"
    n = len(variables)
    codes = []
    for section in sections:
        bits = section.as_dict()
        codes.append(sum(bits[v] << (n - 1 - j) for j, v in enumerate(variables)))
    return "ok" if reference.sections_digest(codes) == expect["digest"] else "wrong_output"


class Client:
    """Runs ops one at a time and checks each result."""

    def __init__(self, cx, ops: list[dict], digests: dict | None):
        self.cx = cx
        self.ops = ops
        self.digests = digests or {}
        self.docs: dict[str, str] = {}

    def model_text(self, path: str) -> str:
        if path not in self.docs:
            with open(path, "r", encoding="utf-8") as handle:
                self.docs[path] = handle.read()
        return self.docs[path]

    def run(self, op: dict, tracer: "replay.Tracer | None" = None) -> tuple[float, str]:
        """Latency in seconds and outcome of one op."""
        if "func" in op:
            return self._run_lib(op, tracer)
        if tracer is not None:
            start = time.perf_counter()
            try:
                code, stdout, error = replay.replay_cli(self.cx, tracer, op["argv"])
            except Exception:
                return time.perf_counter() - start, "raised"
            elapsed = time.perf_counter() - start
            tracer.out_bytes[tracer.op] = len(stdout.encode("utf-8"))
            expect = op["expect"]
            if op["command"] == "audit" and "json" in expect:
                expect = dict(expect, json={
                    k: v for k, v in expect["json"].items() if k != "theorems"
                })
            return elapsed, check_cli(op, code, stdout, expect, error=error)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = self.cx.cli.main(list(op["argv"]))
            except SystemExit as exc:
                code = exc.code
            except Exception:
                return time.perf_counter() - start, "raised"
            elapsed = time.perf_counter() - start
        stdout = out.getvalue()
        outcome = check_cli(op, code, stdout, op["expect"], stderr=err.getvalue())
        frozen = self.digests.get(op["id"])
        if outcome == "ok" and frozen is not None:
            if hashlib.sha256(stdout.encode("utf-8")).hexdigest() != frozen:
                outcome = "wrong_output"
        return elapsed, outcome

    def _run_lib(self, op: dict, tracer) -> tuple[float, str]:
        model = self.cx.parse_model(self.model_text(op["model"]))  # fresh, untimed
        func = getattr(self.cx, op["func"])
        start = time.perf_counter()
        try:
            if tracer is not None:
                with tracer.span(f"contextuality.{op['func']}"):
                    sections = func(model)
            else:
                sections = func(model)
        except Exception:
            return time.perf_counter() - start, "raised"
        elapsed = time.perf_counter() - start
        return elapsed, check_sections(sections, model.scenario.variables, op["expect"])


def measure(client: Client, seconds: float, trace: bool) -> dict:
    """Closed loop over the op list, in passes, for ``seconds``.

    Untraced, the loop stops at the first op boundary after ``seconds``,
    but only once every op ran at least once.  Traced, an untraced and a
    traced pass alternate and only whole pairs run.  Either way the run is
    cut at four times ``seconds``.  After each op (outside its timing) the
    client times ``calibrate()``, to track the host's speed."""
    for command in sorted({op["command"] for op in client.ops}):
        client.run(next(op for op in client.ops if op["command"] == command))
    gc.collect()
    samples = {"plain": [], "traced": []}
    tracer = replay.Tracer() if trace else None
    seq = 0
    start = time.perf_counter()
    passes = 0
    overrun = False
    while not overrun:
        for mode in ("plain", "traced") if trace else ("plain",):
            for index, op in enumerate(client.ops):
                if mode == "traced":
                    tracer.begin_op(seq)
                    elapsed, outcome = client.run(op, tracer)
                else:
                    elapsed, outcome = client.run(op)
                samples[mode].append((seq, index, elapsed, outcome, calibrate()))
                seq += 1
                spent = time.perf_counter() - start
                overrun = spent > 4 * seconds or (passes and not trace and spent >= seconds)
                if overrun:
                    break
            if overrun:
                break
        passes += 1
        if time.perf_counter() - start >= seconds:
            break
    return {"samples": samples, "tracer": tracer, "passes": passes}


def speed_scaled(samples: list) -> list[float]:
    """Op times rescaled to a host of nominal speed.

    A shared host runs this process up to about 40% slower for seconds or
    minutes at a time.  Each op's time is multiplied by
    ``CALIBRATION_NOMINAL_S`` over the median calibration time of the seven
    ops around it, so a slow stretch of the host is scaled back, while a
    slower program still reads slower (README: "Host speed" gives a
    check against a deliberately slowed copy)."""
    cals = [s[4] for s in samples]
    scaled = []
    for i, sample in enumerate(samples):
        local = statistics.median(cals[max(0, i - 3): i + 4])
        scaled.append(sample[2] * CALIBRATION_NOMINAL_S / local)
    return scaled


def end_to_end(samples: list, setup: list, raw: dict) -> dict:
    """The bounded metrics."""
    scaled = speed_scaled(samples)
    timed = list(zip(samples, scaled))
    ok = [s[3] == "ok" for s, _ in timed]
    lat = sorted(t * 1000.0 if good else FAILED_OP_MS for (_, t), good in zip(timed, ok))
    raw_lat = sorted(s[2] * 1000.0 if good else FAILED_OP_MS for (s, _), good in zip(timed, ok))
    setup_s = statistics.median(elapsed * CALIBRATION_NOMINAL_S / cal for elapsed, cal in setup)
    raw.update({
        "calibration_ms": statistics.median(s[4] for s in samples) * 1000.0,
        "op_p50_unscaled_ms": percentile(raw_lat, 50),
        "op_p90_unscaled_ms": percentile(raw_lat, 90),
        "setup_unscaled_s": statistics.median(elapsed for elapsed, _ in setup),
    })
    return {
        "setup_s": (setup_s, "s"),
        "op_p50_ms": (percentile(lat, 50), "ms"),
        "op_p90_ms": (percentile(lat, 90), "ms"),
        "ops_per_s": (sum(ok) / sum(t for _, t in timed), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def median_or_zero(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0


def per_layer(ops: list[dict], run: dict, imports: dict) -> dict:
    """Per-layer metrics from the traced passes (see README for the list)."""
    traced = run["samples"]["traced"]
    plain = run["samples"]["plain"]
    passes = run["passes"]
    per_op = replay.self_times(run["tracer"].spans)
    op_of = {seq: ops[index] for seq, index, *_ in traced}
    failed = {seq for seq, _, _, outcome, _ in traced if outcome != "ok"}
    total_time = sum(entry["time"] for entry in per_op.values())

    metrics: dict[str, tuple] = {
        "import.numpy_ms": (imports["numpy"], "ms"),
        "import.choicectx_ms": (imports["choicectx"], "ms"),
    }
    layer_totals = {}
    for layer in replay.LAYERS:
        selfs = [e["self"][layer] for e in per_op.values() if layer in e["self"]]
        calls = sum(e["calls"].get(layer, 0) for e in per_op.values())
        failed_ops = sum(1 for seq, e in per_op.items() if layer in e["calls"] and seq in failed)
        layer_totals[layer] = sum(selfs)
        metrics[f"{layer}.self_ms"] = (median_or_zero(selfs) * 1000.0, "ms")
        metrics[f"{layer}.share"] = (rate(sum(selfs), total_time), "ratio")
        metrics[f"{layer}.calls"] = (calls / passes, "count")
        metrics[f"{layer}.failed_ops"] = (failed_ops / passes, "count")

    def summed(layer: str, counter: str) -> float:
        return sum(
            op_of[seq]["counters"].get(counter, 0) * e["calls"].get(layer, 0)
            for seq, e in per_op.items()
        )

    def per_call(layer: str, counter: str) -> float:
        return median_or_zero(
            op_of[seq]["counters"].get(counter, 0)
            for seq, e in per_op.items() if layer in e["calls"]
        )

    parse, ser = "modelio.parse_model", "modelio.serialize_model"
    classify, bt = "contextuality.classify", "contextuality.global_sections_backtracking"
    bf, props = "contextuality.global_sections_bruteforce", "proplang.parse_propositions"
    jc = "probabilistic.jointly_contradictory"
    written = sum(
        run["tracer"].out_bytes.get(seq, 0) for seq, e in per_op.items() if ser in e["calls"]
    )
    contexts = [
        op_of[seq]["counters"]["contexts"]
        for seq, e in per_op.items() if "axioms.checks" in e["calls"]
    ]
    metrics.update({
        f"{parse}.mb_per_s": (rate(summed(parse, "doc_bytes") / 1e6, layer_totals[parse]), "MB/s"),
        f"{ser}.mb_per_s": (rate(written / 1e6, layer_totals[ser]), "MB/s"),
        "axioms.checks.context_pairs": (median_or_zero(k * (k - 1) // 2 for k in contexts), "count"),
        f"{classify}.sections": (per_call(classify, "sections"), "count"),
        f"{classify}.sections_per_s": (rate(summed(classify, "sections"), layer_totals[classify]), "1/s"),
        f"{bt}.sections_per_s": (rate(summed(bt, "sections"), layer_totals[bt]), "1/s"),
        f"{bf}.codes_per_s": (rate(summed(bf, "codes"), layer_totals[bf]), "1/s"),
        f"{bf}.hit_ratio": (rate(summed(bf, "sections"), summed(bf, "codes")), "ratio"),
        f"{props}.kb_per_s": (rate(summed(props, "props_bytes") / 1e3, layer_totals[props]), "kB/s"),
        f"{jc}.truth_table_rows": (per_call(jc, "truth_table_rows"), "count"),
        f"{jc}.rows_per_s": (rate(summed(jc, "truth_table_rows"), layer_totals[jc]), "1/s"),
    })
    for counter in ("variables", "contexts", "events", "doc_bytes", "formulas"):
        values = (op["counters"][counter] for op in ops)
        metrics[f"input.{counter}"] = (median_or_zero(v for v in values if v), "count")
    traced_p50 = median_or_zero(e["time"] for e in per_op.values()) * 1000.0
    plain_p50 = median_or_zero(s[2] for s in plain) * 1000.0
    metrics.update({
        "trace.op_ms": (traced_p50, "ms"),
        "trace.overhead_ms": (traced_p50 - plain_p50, "ms"),
        "trace.self_sum_share": (rate(sum(layer_totals.values()), total_time), "ratio"),
    })
    return metrics


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  scale: str = "full", tamper=None) -> dict:
    env = environment()
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=WORK_ROOT)
    phases = {}
    mark = time.perf_counter()
    try:
        ops = prepare(workload, seed, scale, work)
        phases["prepare_s"] = time.perf_counter() - mark
        if tamper is not None:
            tamper(ops)
        probes = [op for op in ops if op["probe"]]
        ops = [op for op in ops if not op["probe"]]
        mark = time.perf_counter()
        setup = setup_samples()
        imports = import_times() if trace else None
        phases["spawns_s"] = time.perf_counter() - mark
        cx = load_package()
        digests = None
        if seed == DEFAULT_SEED and scale == "full" and not trace:
            with open(DIGESTS, "r", encoding="utf-8") as handle:
                digests = json.load(handle).get(workload)
        client = Client(cx, ops, digests)
        mark = time.perf_counter()
        run = measure(client, seconds, trace)
        phases["loop_s"] = time.perf_counter() - mark
        unscaled: dict[str, float] = {}
        if trace:
            metrics = per_layer(ops, run, imports)
        else:
            metrics = end_to_end(run["samples"]["plain"], setup, unscaled)
        # once each, after the measured process's peak memory was read
        known_defects = {
            op["id"]: {"item": op["probe"], "outcome": client.run(op)[1]} for op in probes
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = run["samples"]["plain"]
    measured = run["samples"]["traced"] if trace else plain
    outcomes = [s[3] for s in measured]
    failures: dict[str, dict] = {}
    for _, index, _, outcome, _ in measured:
        if outcome != "ok":
            entry = failures.setdefault(ops[index]["id"], {"outcome": outcome, "count": 0})
            entry["count"] += 1
    return {
        "env": env,
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "ops_in_mix": len(ops),
        "passes": run["passes"],
        "correct": all(o == "ok" for o in outcomes),
        "attempted": len(outcomes),
        "failed": sum(1 for o in outcomes if o != "ok"),
        "failures": failures,
        "known_defects": known_defects,
        "per_command_p50_ms": {
            command: median_or_zero(
                s[2] * 1000.0 for s in measured if ops[s[1]]["command"] == command
            )
            for command in sorted({op["command"] for op in ops})
        },
        "metrics": metrics,
        "unscaled": unscaled,
        "phases": phases,
        "spans": run["tracer"].spans if trace else None,
    }


def stdout_digests(cx, ops: list[dict]) -> dict:
    """sha256 of each correct CLI op's stdout, for freezing."""
    digests = {}
    for op in ops:
        if "argv" not in op:
            continue
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cx.cli.main(list(op["argv"]))
            except Exception:
                continue
        if check_cli(op, code, out.getvalue(), op["expect"]) == "ok":
            digests[op["id"]] = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
    return digests


def freeze_digests() -> None:
    """Record the stdout digests of every workload at the default seed."""
    cx = load_package()
    frozen = {}
    os.makedirs(WORK_ROOT, exist_ok=True)
    for workload in WORKLOADS:
        work = tempfile.mkdtemp(prefix=f"{workload}-freeze-", dir=WORK_ROOT)
        try:
            frozen[workload] = stdout_digests(cx, prepare(workload, DEFAULT_SEED, "full", work))
        finally:
            shutil.rmtree(work, ignore_errors=True)
    with open(DIGESTS, "w", encoding="utf-8") as handle:
        json.dump(frozen, handle, indent=1, sort_keys=True)
        handle.write("\n")


def report(result: dict) -> None:
    print(f"env {json.dumps(result['env'], sort_keys=True)}")
    print(
        f"workload {result['workload']} seed {result['seed']} trace {int(result['trace'])}: "
        f"{result['attempted']} ops over {result['passes']} passes of {result['ops_in_mix']}"
    )
    for command, value in result["per_command_p50_ms"].items():
        print(f"  {command} p50 {value:.3f} ms")
    for op_id, entry in sorted(result["failures"].items()):
        print(f"  failed op {op_id}: {entry['outcome']} x{entry['count']}")
    for op_id, entry in sorted(result["known_defects"].items()):
        state = "fixed" if entry["outcome"] == "ok" else f"still open ({entry['outcome']})"
        print(f"  known-defect probe {op_id}, ROADMAP item {entry['item']}: {state}")
    ratio = result["failed"] / result["attempted"]
    print(f"  failed_ratio {ratio:.6f} ratio ({result['failed']}/{result['attempted']})")
    for name, value in {**result["phases"], **result["unscaled"]}.items():
        print(f"  {name} {value:.6g}")
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name} {value:.6g} {unit}")
    os.makedirs(OUT_ROOT, exist_ok=True)
    path = os.path.join(
        OUT_ROOT, f"{result['workload']}-seed{result['seed']}-trace{int(result['trace'])}.json"
    )
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result["metrics"].items()
        },
    }))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--freeze-digests", action="store_true",
        help="record the default seed's stdout digests into perfbench/digests.json",
    )
    args = parser.parse_args()
    for required in (os.path.join("src", "choicectx", "__init__.py"),
                     os.path.join("tools", "oracle.py")):
        if not os.path.isfile(required):
            print(f"error: {required} not found; run from the repository root",
                  file=sys.stderr)
            return 2
    if args.freeze_digests:
        freeze_digests()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    report(run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
