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
serialization is byte-stable.  Unknown keys are rejected.  The examples
above show the structure; written documents put every array item and
object member on a line of its own, exactly as
``json.dumps(doc, indent=2, ensure_ascii=False)`` lays them out, but by a
writer made for this one shape (:func:`serialize_model`).
"""

from __future__ import annotations

import json
import math
from functools import cache
from itertools import compress
from typing import Any, Callable, Iterable

from .core import (
    VARIABLE_RE,
    PossibilisticModel,
    Scenario,
    _check_variable_count,
    _shortlex_sorted,
    canonical_context,
)
from .errors import ModelSemanticError, ModelSyntaxError
from .probabilistic import SUPPORT_EPSILON, ProbabilisticModel, _total

Model = PossibilisticModel | ProbabilisticModel

_TOP_KEYS = {"variables", "contexts", "possibilistic", "probabilistic"}


def _require(condition: bool, message: str, path: str) -> None:
    if not condition:
        raise ModelSemanticError(message, path)


def _require_each(items: list, test: Callable[[Any], object], message: str, path: str) -> None:
    """Require ``test`` of every item of the array ``items`` at ``path``,
    all at once: only the first item that fails builds its path,
    ``path[i]``, and its message, ``message`` formatted with the item."""
    if not all(map(test, items)):
        i, item = next((i, item) for i, item in enumerate(items) if not test(item))
        raise ModelSemanticError(message.format(item), f"{path}[{i}]")


def _string_list(value: Any, path: str) -> list[str]:
    _require(isinstance(value, list), "expected an array", path)
    _require_each(value, str.__instancecheck__, "expected a string", path)
    return value


def _variable_names(value: Any, path: str) -> list[str]:
    names = _string_list(value, path)
    _require_each(names, VARIABLE_RE.match, "invalid variable name {!r}", path)
    _require(len(set(names)) == len(names), "duplicate variable name", path)
    _require(len(names) > 0, "at least one variable is required", path)
    return names


def _context_of(value: Any, known: set[str], path: str) -> tuple[str, ...]:
    names = _string_list(value, path)
    _require(len(names) > 0, "context must be nonempty", path)
    _require_each(names, known.__contains__, "unknown variable {!r}", path)
    _require(len(set(names)) == len(names), "duplicate variable in context", path)
    return canonical_context(names)


def parse_model(text: str) -> Model:
    """Parse a model document.

    Raises :class:`ModelSyntaxError` for malformed JSON (with line/column)
    or JSON nested too deeply to decode, and :class:`ModelSemanticError` for
    format violations (with a path into the document), a probability that is
    negative or no finite float and a total off 1 by over SUPPORT_EPSILON
    included.  So the returned model always passes ``validate_model`` or
    ``validate_probabilistic``, the checks left for models built in code.
    A document declaring more than :data:`core.VARIABLES_LIMIT` variables is
    refused with :class:`TooLarge` as soon as its variables are read, before
    any other fault it may hold.

    Every check runs on every document.  The paths to the variables, the
    contexts and each context's entry (its ``context`` and its ``events``
    or ``distribution``) are built as they are read, but none below them
    is built for a check that passes: an array of names is tested whole,
    the events or distribution entries of a context are encoded and
    tested in bulk, and a table that fails (or, for a distribution, holds
    an int ``p`` or a float outcome) is rechecked entry by entry in
    document order to name the first bad one.  Each event and each entry's
    assignment is read straight into its code in the scenario's
    :attr:`Scenario.bit` layout, the form both models store.
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
    kinds = _TABLES.keys() & doc.keys()
    _require(
        len(kinds) == 1,
        "exactly one of 'possibilistic' and 'probabilistic' is required",
        "$",
    )

    names = _variable_names(doc["variables"], "variables")
    # refused before any context is read; the names are distinct, so they
    # are the scenario's variables
    _check_variable_count(len(names))
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
    (kind,) = kinds
    key, noun, table, model = _TABLES[kind]
    _require(isinstance(doc[kind], list), "expected an array", kind)
    # every cover context needs exactly one entry; the cover order is make's
    codes = dict.fromkeys(scenario.cover)
    for i, raw in enumerate(doc[kind]):
        entry = _object(raw, ("context", key), f"{kind}[{i}]")
        cpath = f"{kind}[{i}].context"
        context = _context_of(entry["context"], known, cpath)
        _require(context in codes, "context is not in the cover", cpath)
        _require(codes[context] is None, f"duplicate {noun} entry", cpath)
        tpath = f"{kind}[{i}].{key}"
        _require(isinstance(entry[key], list), "expected an array", tpath)
        codes[context] = table(entry[key], {v: scenario.bit[v] for v in context}, tpath)
    missing = [context for context, found in codes.items() if found is None]
    _require(
        not missing,
        f"missing {noun} entry for context {list(missing[0])}" if missing else "",
        kind,
    )
    return model._from_codes(scenario, codes)


def _object(value: Any, keys: tuple[str, ...], path: str) -> dict:
    """``value`` as an object holding exactly ``keys``."""
    _require(isinstance(value, dict), "expected an object", path)
    extra = sorted(set(value) - set(keys))
    _require(not extra, f"unknown key {extra[0]!r}" if extra else "", path)
    for key in keys:
        _require(key in value, f"missing key {key!r}", path)
    return value


def _events(raw_events: list, bit: dict[str, int], path: str) -> frozenset[int]:
    """The support of one context as codes, tested in bulk: every event is
    an array of members of the context (``bit`` holds their bits) with one
    code bit per member, and no two events share a code.  Only a failing
    table goes through :func:`_checked_events`, which names the first one.

    A code sums its members' bits, so it has fewer bits than its event has
    members exactly when a member repeats (and carries into another bit):
    equal totals over the table mean no event repeats one."""
    get = bit.__getitem__
    try:
        codes = [sum(map(get, event)) for event in raw_events]
        members = sum(map(list.__len__, raw_events))
    except (KeyError, TypeError):  # a member outside the context, or no array
        return _checked_events(raw_events, bit, path)
    support = frozenset(codes)
    if len(support) == len(codes) and sum(map(int.bit_count, codes)) == members:
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


def _distribution(
    raw_entries: list, bit: dict[str, int], path: str
) -> tuple[tuple[int, float], ...]:
    """The distribution of one context as ``(code, p)`` pairs, ascending,
    tested in bulk: every entry is an object holding exactly ``assignment``
    and ``p``, every assignment binds exactly the context's variables
    (``bit`` holds their bits) to an int 0 or 1, every ``p`` is a finite
    float of at least 0, no two entries share a code and the ``p`` sum to 1
    within SUPPORT_EPSILON.  Any other table, valid or not, goes through
    :func:`_checked_distribution`, which names the first fault."""
    get = bit.__getitem__
    try:
        assignments = [raw["assignment"] for raw in raw_entries]
        ps = [raw["p"] for raw in raw_entries]
        codes = [sum(compress(map(get, a), a.values())) for a in assignments]
    except (KeyError, TypeError, AttributeError):  # a key missing, or no object
        return _checked_distribution(raw_entries, bit, path)
    # every variable bound is in the context, so as many as it holds are all of it
    outcomes = [outcome for a in assignments for outcome in a.values()]
    if (
        set(map(len, raw_entries)) <= {2}
        and set(map(len, assignments)) <= {len(bit)}
        and set(map(type, outcomes)) <= {int}
        and set(outcomes) <= {0, 1}
        and set(map(type, ps)) <= {float}
        and all(map((0.0).__le__, ps))  # neither NaN nor negative
        and len(set(codes)) == len(codes)
        and abs(_total(ps) - 1.0) <= SUPPORT_EPSILON  # so none infinite
    ):
        return tuple(sorted(zip(codes, ps)))
    return _checked_distribution(raw_entries, bit, path)


def _checked_distribution(
    raw_entries: list, bit: dict[str, int], path: str
) -> tuple[tuple[int, float], ...]:
    """Each entry checked in document order, then their total, with the
    paths below it built only for the check that fails."""
    entries: dict[int, float] = {}
    for j, raw in enumerate(raw_entries):
        dpath = f"{path}[{j}]"
        raw = _object(raw, ("assignment", "p"), dpath)
        mapping = raw["assignment"]
        if not isinstance(mapping, dict):
            raise ModelSemanticError("expected an object", f"{dpath}.assignment")
        for var, outcome in mapping.items():
            if var not in bit:
                raise ModelSemanticError(
                    f"variable {var!r} is not in the context", f"{dpath}.assignment"
                )
            if isinstance(outcome, bool) or outcome not in (0, 1):
                raise ModelSemanticError(
                    "outcome must be 0 or 1", f"{dpath}.assignment.{var}"
                )
        if mapping.keys() != bit.keys():
            raise ModelSemanticError(
                "assignment must bind every context variable", f"{dpath}.assignment"
            )
        p = raw["p"]
        if isinstance(p, bool) or not isinstance(p, (int, float)):
            raise ModelSemanticError("probability must be a number", f"{dpath}.p")
        code = sum(bit[var] for var, outcome in mapping.items() if outcome)
        if code in entries:
            raise ModelSemanticError("duplicate assignment", f"{dpath}.assignment")
        try:
            p = float(p)
        except OverflowError:  # an integer past the float range
            p = math.inf
        if not math.isfinite(p):
            raise ModelSemanticError("non-finite probability", f"{dpath}.p")
        if p < 0.0:
            raise ModelSemanticError(f"negative probability {p!r}", f"{dpath}.p")
        entries[code] = p
    total = _total(entries.values())
    _require(abs(total - 1.0) <= SUPPORT_EPSILON, f"probabilities sum to {total!r}, not 1", path)
    return tuple(sorted(entries.items()))


# per kind of model: the key and noun of its per-context entries, the reader of one, its class
_TABLES: dict[str, tuple[str, str, Callable, type]] = {
    "possibilistic": ("events", "support", _events, PossibilisticModel),
    "probabilistic": ("distribution", "distribution", _distribution, ProbabilisticModel),
}


def serialize_model(model: Model) -> str:
    """Render a model as its canonical document (deterministic bytes).

    The text is ``json.dumps(doc, indent=2, ensure_ascii=False)`` plus a
    newline, for the document ``doc`` of the module docstring, but written
    by hand for that known shape (:func:`_write`): an indented
    :func:`json.dumps` runs json's pure-Python encoder.  Each name is
    quoted once per call and every number is written as json writes it
    (:func:`_scalar`); events come in shortlex order, each one's text
    written from two half-context text tables, built over the half-codes
    that occur (:func:`_event_texts`); each distribution entry's assignment
    is built from its code and the context's quoted names, in ascending
    code order (:func:`_distribution_entries`).
    """
    scenario = model.scenario
    quote = cache(_scalar)  # each name once per document

    def names(members: Iterable[str]) -> list[str]:
        return [quote(v) for v in members]

    if isinstance(model, PossibilisticModel):
        kind, key, table = '"possibilistic"', '"events"', _event_texts
    else:
        kind, key, table = '"probabilistic"', '"distribution"', _distribution_entries
    doc = {
        '"variables"': names(scenario.variables),
        '"contexts"': [names(c) for c in scenario.cover],
        kind: [{'"context"': names(c), key: table(model, c, quote)} for c in scenario.cover],
    }
    out: list[str] = []
    _write(doc, "", out)
    out.append("\n")
    return "".join(out)


def _write(value: str | list | dict, indent: str, out: list[str]) -> None:
    """Append ``value`` to ``out`` as an indented :func:`json.dumps` lays it
    out, its first line at ``indent``: a string is JSON text already, a
    list is an array and a dict an object keyed by JSON texts.  The items
    of a list are all strings or none."""
    if isinstance(value, str):
        out.append(value)
        return
    brackets = "{}" if isinstance(value, dict) else "[]"
    if not value:
        out.append(brackets)
        return
    inner = indent + "  "
    separator = f",\n{inner}"
    out.append(f"{brackets[0]}\n{inner}")
    if isinstance(value, dict):
        for i, (key, item) in enumerate(value.items()):
            out.append(f"{separator}{key}: " if i else f"{key}: ")
            _write(item, inner, out)
    elif isinstance(value[0], str):
        out.append(separator.join(value))
    else:
        for i, item in enumerate(value):
            if i:
                out.append(separator)
            _write(item, inner, out)
    out.append(f"\n{indent}{brackets[1]}")


def _scalar(value: Any) -> str:
    """``value`` as :func:`json.dumps` writes it: an int or a finite float
    by its repr, anything else (a name, ``NaN``, ``Infinity``, a bool)
    through json's C encoder."""
    kind = type(value)
    if kind is int or kind is float and math.isfinite(value):
        return repr(value)
    return json.dumps(value, ensure_ascii=False)


# the indentation of an event's members and of its closing bracket: an event
# sits at depth 4 of the document, two spaces per level
_MEMBER_INDENT, _EVENT_INDENT = " " * 10, " " * 8


def _event_texts(
    model: PossibilisticModel, context: tuple[str, ...], quote: Callable[[str], str]
) -> list[str]:
    """The events of ``context`` as array texts at their depth in the
    document, in shortlex order: each one lists the context's quoted names
    whose bits its code holds, in name order, one per line.

    Each is written from two half-context text tables, built over the
    half-codes that occur among the events, never all 2^(k/2): a head's
    entry holds the opening bracket and the tail table to close with, the
    tail's names behind a separator or, after an empty head, its own text.
    """
    bit = model.scenario.bit
    codes = model._codes[model._key(context)]
    opening, separator = f"[\n{_MEMBER_INDENT}", f",\n{_MEMBER_INDENT}"
    close = f"\n{_EVENT_INDENT}]"

    def half(names: tuple[str, ...]) -> tuple[int, dict[int, str]]:
        mask = sum(bit[v] for v in names)
        members = [(bit[v], quote(v)) for v in names]
        found = {code & mask for code in codes}
        return mask, {c: separator.join([q for b, q in members if c & b]) for c in found}

    head_mask, heads = half(context[: len(context) // 2])
    tail_mask, tails = half(context[len(context) // 2 :])
    after = {t: f"{separator}{text}{close}" if text else close for t, text in tails.items()}
    alone = {t: f"{opening}{text}{close}" if text else "[]" for t, text in tails.items()}
    head = {h: (opening + text, after) if text else ("", alone) for h, text in heads.items()}
    texts = []
    for code in _shortlex_sorted(codes):
        prefix, tail = head[code & head_mask]
        texts.append(prefix + tail[code & tail_mask])
    return texts


def _distribution_entries(
    model: ProbabilisticModel, context: tuple[str, ...], quote: Callable[[str], str]
) -> list[dict]:
    """The entries of ``context``'s distribution as objects for :func:`_write`."""
    bit = model.scenario.bit
    members = [(bit[v], quote(v)) for v in context]
    return [
        {
            '"assignment"': {q: "1" if code & b else "0" for b, q in members},
            '"p"': _scalar(p),
        }
        for code, p in model._codes[model._key(context)]
    ]
