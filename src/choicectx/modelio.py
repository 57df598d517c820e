"""Canonical JSON document format for models.

A document declares the scenario and exactly one of a possibilistic support
table or a per-context probability distribution:

    {
      "variables": ["a", "a'", "b", "b'"],
      "contexts": [["a", "b"], ["a", "b'"], ["a'", "b"], ["a'", "b'"]],
      "possibilistic": [
        {"context": ["a", "b"], "events": [[], ["a"], ["b"], ["a", "b"]]},
        ...
      ]
    }

    "probabilistic": [
      {"context": ["a", "b"],
       "distribution": [{"assignment": {"a": 1, "b": 1}, "p": 0.25}, ...]},
      ...
    ]

Input is order-insensitive; output is canonically sorted and deterministic,
so ``parse_model(serialize_model(m))`` is the identity on valid models and
serialization is byte-stable.  Unknown keys are rejected.
"""

from __future__ import annotations

import json
import math
from typing import Any, Iterator

from .core import (
    VARIABLE_RE,
    Assignment,
    PossibilisticModel,
    Scenario,
    canonical_context,
)
from .errors import ModelSemanticError, ModelSyntaxError
from .probabilistic import ProbabilisticModel

Model = PossibilisticModel | ProbabilisticModel

_TOP_KEYS = {"variables", "contexts", "possibilistic", "probabilistic"}


def _require(condition: bool, message: str, path: str) -> None:
    if not condition:
        raise ModelSemanticError(message, path)


def _string_list(value: Any, path: str) -> list[str]:
    _require(isinstance(value, list), "expected an array", path)
    out = []
    for i, item in enumerate(value):
        _require(isinstance(item, str), "expected a string", f"{path}[{i}]")
        out.append(item)
    return out


def _variable_names(value: Any, path: str) -> list[str]:
    names = _string_list(value, path)
    for i, name in enumerate(names):
        _require(
            VARIABLE_RE.match(name) is not None,
            f"invalid variable name {name!r}",
            f"{path}[{i}]",
        )
    _require(len(set(names)) == len(names), "duplicate variable name", path)
    _require(len(names) > 0, "at least one variable is required", path)
    return names


def _context_of(value: Any, known: set[str], path: str) -> tuple[str, ...]:
    names = _string_list(value, path)
    _require(len(names) > 0, "context must be nonempty", path)
    for i, name in enumerate(names):
        _require(name in known, f"unknown variable {name!r}", f"{path}[{i}]")
    _require(len(set(names)) == len(names), "duplicate variable in context", path)
    return canonical_context(names)


def parse_model(text: str) -> Model:
    """Parse a model document.

    Raises :class:`ModelSyntaxError` for malformed JSON (with line/column)
    or JSON nested too deeply to decode, and :class:`ModelSemanticError` for
    format violations, a probability that is no finite float included (with
    a path into the document).  The returned model always satisfies the
    structural invariants; negative probabilities and distribution sums are
    left to ``validate_probabilistic``.

    Every check runs on every document, but no path is built for a check
    that passes: the events of a context are encoded and tested in bulk,
    and a failing table is rechecked event by event in document order to
    name the first bad one; distribution entries are checked one by one,
    with the path below an entry built only when its check fails.  Each
    event is read straight into its code in the scenario's
    :attr:`Scenario.bit` layout, the form a possibilistic model stores.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelSyntaxError(exc.msg, exc.lineno, exc.colno) from None
    except RecursionError:
        raise ModelSyntaxError("document nests too deeply") from None

    _require(isinstance(doc, dict), "document must be a JSON object", "$")
    unknown = sorted(set(doc) - _TOP_KEYS)
    _require(not unknown, f"unknown key {unknown[0]!r}" if unknown else "", "$")
    _require("variables" in doc, "missing required key 'variables'", "$")
    _require("contexts" in doc, "missing required key 'contexts'", "$")
    has_poss = "possibilistic" in doc
    has_prob = "probabilistic" in doc
    _require(
        has_poss != has_prob,
        "exactly one of 'possibilistic' and 'probabilistic' is required",
        "$",
    )

    names = _variable_names(doc["variables"], "variables")
    known = set(names)

    _require(isinstance(doc["contexts"], list), "expected an array", "contexts")
    contexts: list[tuple[str, ...]] = []
    seen: set[tuple[str, ...]] = set()
    for i, raw in enumerate(doc["contexts"]):
        context = _context_of(raw, known, f"contexts[{i}]")
        _require(context not in seen, "duplicate context", f"contexts[{i}]")
        seen.add(context)
        contexts.append(context)

    covered = set().union(*map(set, contexts)) if contexts else set()
    uncovered = sorted(known - covered)
    _require(
        not uncovered,
        f"variable {uncovered[0]!r} occurs in no context" if uncovered else "",
        "contexts",
    )

    scenario = Scenario.make(names, contexts)
    if has_poss:
        return _parse_possibilistic(doc["possibilistic"], scenario, "possibilistic")
    return _parse_probabilistic(doc["probabilistic"], scenario, "probabilistic")


def _object(value: Any, keys: tuple[str, ...], path: str) -> dict:
    """``value`` as an object holding exactly ``keys``."""
    _require(isinstance(value, dict), "expected an object", path)
    extra = sorted(set(value) - set(keys))
    _require(not extra, f"unknown key {extra[0]!r}" if extra else "", path)
    for key in keys:
        _require(key in value, f"missing key {key!r}", path)
    return value


def _per_context(
    value: Any, scenario: Scenario, path: str, key: str, noun: str
) -> Iterator[tuple[tuple[str, ...], list, str]]:
    """The entries of a per-context table as (context, ``key`` array, path
    of that array); every cover context needs exactly one entry."""
    _require(isinstance(value, list), "expected an array", path)
    cover = set(scenario.cover)
    seen: set[tuple[str, ...]] = set()
    for i, raw in enumerate(value):
        entry = _object(raw, ("context", key), f"{path}[{i}]")
        cpath = f"{path}[{i}].context"
        context = _context_of(entry["context"], set(scenario.variables), cpath)
        _require(context in cover, "context is not in the cover", cpath)
        _require(context not in seen, f"duplicate {noun} entry", cpath)
        seen.add(context)
        _require(isinstance(entry[key], list), "expected an array", f"{path}[{i}].{key}")
        yield context, entry[key], f"{path}[{i}].{key}"
    missing = [c for c in scenario.cover if c not in seen]
    _require(
        not missing,
        f"missing {noun} entry for context {list(missing[0])}" if missing else "",
        path,
    )


def _parse_possibilistic(
    value: Any, scenario: Scenario, path: str
) -> PossibilisticModel:
    bit = scenario.bit
    # cover order, as from ``PossibilisticModel.make``; _per_context fills each key
    codes = dict.fromkeys(scenario.cover, frozenset())
    for context, raw_events, epath in _per_context(
        value, scenario, path, "events", "support"
    ):
        codes[context] = _events(raw_events, {v: bit[v] for v in context}, epath)
    return PossibilisticModel._from_codes(scenario, codes)


def _events(raw_events: list, bit: dict[str, int], path: str) -> frozenset[int]:
    """The support of one context as codes, tested in bulk: every event is
    an array of members of the context (``bit`` holds their bits) with one
    code bit per member, and no two events share a code.  Only a failing
    table goes through :func:`_checked_events`, which names the first one."""
    try:
        codes = [sum(map(bit.__getitem__, event)) for event in raw_events]
    except (KeyError, TypeError):  # a member outside the context, or no array
        return _checked_events(raw_events, bit, path)
    support = frozenset(codes)
    if (
        len(support) == len(codes)
        and set(map(type, raw_events)) <= {list}
        and list(map(int.bit_count, codes)) == list(map(len, raw_events))
    ):
        return support
    return _checked_events(raw_events, bit, path)


def _checked_events(raw_events: list, bit: dict[str, int], path: str) -> frozenset[int]:
    """Each event checked in document order, with a path to the first one
    that fails."""
    codes: set[int] = set()
    for j, raw in enumerate(raw_events):
        vpath = f"{path}[{j}]"
        members = _string_list(raw, vpath)
        event = set(members)
        _require(len(event) == len(members), "duplicate variable in event", vpath)
        _require(event <= bit.keys(), "event is not a subset of its context", vpath)
        code = sum(map(bit.__getitem__, event))
        _require(code not in codes, "duplicate event", vpath)
        codes.add(code)
    return frozenset(codes)


def _parse_probabilistic(
    value: Any, scenario: Scenario, path: str
) -> ProbabilisticModel:
    distributions: dict[tuple[str, ...], list[tuple[Assignment, float]]] = {}
    for context, raw_entries, epath in _per_context(
        value, scenario, path, "distribution", "distribution"
    ):
        distributions[context] = _distribution(raw_entries, frozenset(context), epath)
    return ProbabilisticModel.make(scenario, distributions)


def _distribution(
    raw_entries: list, scope: frozenset[str], path: str
) -> list[tuple[Assignment, float]]:
    """The distribution of one context, each entry checked in document order;
    the paths below an entry are built only for the check that fails."""
    entries: list[tuple[Assignment, float]] = []
    seen: set[Assignment] = set()
    for j, raw in enumerate(raw_entries):
        dpath = f"{path}[{j}]"
        raw = _object(raw, ("assignment", "p"), dpath)
        mapping = raw["assignment"]
        if not isinstance(mapping, dict):
            raise ModelSemanticError("expected an object", f"{dpath}.assignment")
        for var, bit in mapping.items():
            if var not in scope:
                raise ModelSemanticError(
                    f"variable {var!r} is not in the context", f"{dpath}.assignment"
                )
            if isinstance(bit, bool) or bit not in (0, 1):
                raise ModelSemanticError(
                    "outcome must be 0 or 1", f"{dpath}.assignment.{var}"
                )
        if mapping.keys() != scope:
            raise ModelSemanticError(
                "assignment must bind every context variable", f"{dpath}.assignment"
            )
        p = raw["p"]
        if isinstance(p, bool) or not isinstance(p, (int, float)):
            raise ModelSemanticError("probability must be a number", f"{dpath}.p")
        assignment = Assignment.make(mapping)
        if assignment in seen:
            raise ModelSemanticError("duplicate assignment", f"{dpath}.assignment")
        seen.add(assignment)
        try:
            p = float(p)
        except OverflowError:  # an integer past the float range
            p = math.inf
        if not math.isfinite(p):
            raise ModelSemanticError("non-finite probability", f"{dpath}.p")
        entries.append((assignment, p))
    return entries


def serialize_model(model: Model) -> str:
    """Render a model as its canonical document (deterministic bytes)."""
    scenario = model.scenario
    doc: dict[str, Any] = {
        "variables": list(scenario.variables),
        "contexts": [list(c) for c in scenario.cover],
    }
    if isinstance(model, PossibilisticModel):
        doc["possibilistic"] = [
            {"context": list(context), "events": model._event_names(context)}
            for context in scenario.cover
        ]
    else:
        doc["probabilistic"] = [
            {
                "context": list(context),
                "distribution": [
                    {"assignment": assignment.as_dict(), "p": float(p)}
                    for assignment, p in model.distribution(context)
                ],
            }
            for context in scenario.cover
        ]
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"
