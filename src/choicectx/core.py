"""Core domain types for binary empirical/choice models.

A scenario is a finite set of binary variables (alternatives, measurements)
together with a cover of contexts (menus, experiments): the subsets of
variables that can be observed jointly.  A possibilistic model attaches to
each context the set of *events* that can occur there, where an event is
the subset of context variables that came out 1 (were chosen).

A model stores each event once, as a code in the :attr:`Scenario.bit`
layout: the OR of its variables' bits; a probabilistic model stores
``(code, p)`` pairs, coding the variables each assignment sets to 1.
Names and assignments are decoded from the codes only at the API boundary
(``supports``, ``events``, ``distribution``, witnesses, documents).

Everything here is immutable after construction and safe to share between
threads.  Canonical ordering is used throughout so that equal models have
equal representations: variables sort lexicographically, while contexts and
events sort shortlex (by size, then lexicographically as sorted tuples).
On codes, the shortlex order of events is the key
``(code.bit_count(), -code)``.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, compress
from operator import or_
from typing import Callable, Iterable, Iterator, Mapping

from .errors import (
    TimeBudgetExceeded,
    TooLarge,
    UnboundVariable,
    UnknownContext,
    UnknownVariable,
    VariableNotInContext,
)

# the syntax of a variable name, shared with the formula tokenizer
IDENTIFIER = r"[A-Za-z_][A-Za-z0-9_']*"
VARIABLE_RE = re.compile(IDENTIFIER + r"\Z")

Context = tuple[str, ...]
Event = frozenset[str]

# largest variable count the brute-force search and the Bell route accept by default
EXHAUSTIVE_BOUND_DEFAULT = 24

# every budgeted loop reads the clock before each run of at most this many
# units of its own work: prefix-form items or table rows of the formula
# compile, sections of the witness pass, partial codes of a level-wise
# search block (a block over it is split, and the search reads once per
# block step), and the bit-parallel scan's allowed codes set in a table
# and sections read out (it also reads once before its first table); the
# witness pass on the scan's bitset reads once per context, before folding
# the bitset onto it, so its unit is one fold
DEADLINE_STRIDE = 1024

# most table rows the package builds for one input, summed over its tables:
# gen's support tables (2^|context| each) and the Bell route's truth tables
# (2^k each for a formula over k variables); also the most global sections
# the section search holds
TABLE_ROWS_LIMIT = 1 << 20

# most rows (2^n for n variables) of the bit-parallel scan's tables:
# 24 variables, 2 MB per table
SCAN_ROWS_LIMIT = 1 << 24

# most variables a scenario lays out: the layout gives each variable an int
# as wide as its bit position, about n^2/16 bytes in all (17 MB at 2^14)
VARIABLES_LIMIT = 1 << 14


def _check_variable_count(n: int) -> None:
    """Refuse a scenario of ``n`` variables with :class:`TooLarge` when
    ``n`` passes :data:`VARIABLES_LIMIT`."""
    if n > VARIABLES_LIMIT:
        raise TooLarge(f"{n:,} variables are over the limit of {VARIABLES_LIMIT:,}")


def _count_text(count: int) -> str:
    """``count`` as a message prints it: with thousands separators, or from
    2^64 on as the largest power of two below it, since its decimal digits
    could pass the interpreter's limit on converting an integer to text."""
    return f"over 2^{(count - 1).bit_length() - 1}" if count >> 64 else f"{count:,}"


def _check_bound(n: int, bound: int) -> None:
    """Refuse ``n`` variables, over the exhaustive ``bound`` of the
    brute-force scan and the Bell route, with :class:`TooLarge`."""
    if n > bound:
        raise TooLarge(f"{n} variables exceed the exhaustive bound of {bound}")


def past_deadline(deadline: float | None) -> bool:
    """Whether ``deadline`` (a ``time.monotonic`` value) has passed; a
    budgeted loop calls it before each run of at most
    :data:`DEADLINE_STRIDE` units of its work, the first included."""
    return deadline is not None and time.monotonic() > deadline


def canonical_context(variables: Iterable[str]) -> Context:
    """Sorted tuple form of a context (or any variable collection)."""
    return tuple(sorted(set(variables)))


def shortlex(names: Iterable[str]) -> tuple[int, tuple[str, ...]]:
    """Sort key ordering variable sets by size, then lexicographically."""
    t = tuple(sorted(names))
    return (len(t), t)


def format_event(event: Iterable[str]) -> str:
    return "{" + ",".join(sorted(event)) + "}"


def _in_shortlex(mapping: Mapping) -> dict:
    """``mapping`` keyed by canonical contexts, in shortlex order."""
    canon = {canonical_context(context): value for context, value in mapping.items()}
    return {context: canon[context] for context in sorted(canon, key=shortlex)}


def _mask(bit: Mapping[str, int], names: Iterable[str]) -> int:
    """Code of distinct ``names`` in the layout ``bit``; a name the layout
    lacks raises :class:`UnknownVariable`."""
    try:
        return sum(map(bit.__getitem__, names))
    except KeyError as exc:
        raise UnknownVariable(f"undeclared variable {exc.args[0]!r}") from None


def _shortlex_key(code: int) -> tuple[int, int]:
    """Sort key putting codes in the shortlex order of their events."""
    return (code.bit_count(), -code)


def _shortlex_sorted(codes: Iterable[int]) -> list[int]:
    """``codes`` sorted by :func:`_shortlex_key`, as two sorts on built-in
    keys: descending, then stably by bit count.  On the events a document
    writes this is faster than sorting on the tuple key."""
    return sorted(sorted(codes, reverse=True), key=int.bit_count)


def _set_rows(names: list[str], bit: Mapping[str, int], flags: bytes) -> Iterator:
    """Codes of the rows with a nonzero byte in ``flags``, in blocks of at
    most :data:`DEADLINE_STRIDE` rows; row ``i`` binds ``names[j]`` to bit
    ``j`` of ``i``."""
    low, high = [0], [0]  # the codes of a row's low and high bits
    for j, name in enumerate(names):
        codes = low if j < DEADLINE_STRIDE.bit_length() - 1 else high
        codes += [code | bit[name] for code in codes]
    for block, top in enumerate(high):
        chosen = flags[block * len(low) : (block + 1) * len(low)]
        yield [top | code for code in compress(low, chosen)]


@dataclass(frozen=True)
class Scenario:
    """A variable set plus a cover of observable contexts.

    ``variables`` is lexicographically sorted; ``cover`` holds each context
    as a sorted tuple, with the cover itself in shortlex order.  Use
    :meth:`make` to build one from arbitrary iterables.
    """

    variables: tuple[str, ...]
    cover: tuple[Context, ...]

    @classmethod
    def make(cls, variables: Iterable[str], contexts: Iterable[Iterable[str]]) -> "Scenario":
        vs = tuple(sorted(set(variables)))
        cs = sorted({canonical_context(c) for c in contexts}, key=shortlex)
        return cls(variables=vs, cover=tuple(cs))

    @cached_property
    def bit(self) -> dict[str, int]:
        """Bit of each variable in packed codes: the ``j``-th variable in
        sorted order occupies bit ``n - 1 - j``, so ascending codes enumerate
        total assignments in lexicographic order.  A scenario of over
        :data:`VARIABLES_LIMIT` variables raises :class:`TooLarge`."""
        n = len(self.variables)
        _check_variable_count(n)
        return {v: 1 << (n - 1 - j) for j, v in enumerate(sorted(self.variables))}

    @cached_property
    def _masks(self) -> tuple[int, ...]:
        """The variable mask of each cover context; an undeclared variable
        raises :class:`UnknownVariable`."""
        return tuple(_mask(self.bit, context) for context in self.cover)

    def _names(self, code: int) -> list[str]:
        """The variables of ``code``, sorted."""
        return [v for v, b in self.bit.items() if code & b]

    def has_context(self, context: Iterable[str]) -> bool:
        return canonical_context(context) in set(self.cover)

    def contexts_containing(self, variables: Iterable[str]) -> list[Context]:
        """Cover contexts that contain every given variable, in cover order."""
        want = set(variables)
        return [c for c in self.cover if want <= set(c)]


@dataclass(frozen=True, order=True)
class Assignment:
    """A partial or total map from variables to outcome bits {0, 1}.

    Stored as a sorted tuple of (variable, bit) pairs, so assignments are
    hashable and compare lexicographically; a total assignment on all
    scenario variables is a candidate global section.
    """

    bindings: tuple[tuple[str, int], ...]

    @classmethod
    def make(cls, mapping: Mapping[str, int] | Iterable[tuple[str, int]]) -> "Assignment":
        items = mapping.items() if isinstance(mapping, Mapping) else mapping
        return cls(bindings=tuple(sorted((v, int(b)) for v, b in items)))

    @property
    def domain(self) -> frozenset[str]:
        return frozenset(v for v, _ in self.bindings)

    def as_dict(self) -> dict[str, int]:
        return dict(self.bindings)

    def __getitem__(self, variable: str) -> int:
        for v, b in self.bindings:
            if v == variable:
                return b
        raise UnboundVariable(f"variable {variable!r} is not bound")

    def restrict(self, variables: Iterable[str]) -> "Assignment":
        """Restriction to a subset of the domain.

        Raises :class:`UnboundVariable` if any requested variable is unbound.
        """
        want = set(variables)
        missing = want - self.domain
        if missing:
            raise UnboundVariable(
                f"cannot restrict to unbound variable(s) {sorted(missing)}"
            )
        return Assignment(bindings=tuple((v, b) for v, b in self.bindings if v in want))

    def support(self) -> frozenset[str]:
        """The variables this assignment maps to 1."""
        return frozenset(v for v, b in self.bindings if b == 1)


def _decoder(bit: Mapping[str, int], names: Iterable[str]) -> Callable[[int], Assignment]:
    """The function decoding a code in the layout ``bit`` to its assignment
    of ``names``, which are sorted; a name the layout lacks reads 0."""
    pairs = [((v, 0), (v, 1), bit.get(v, 0)) for v in names]
    return lambda code: Assignment(tuple([one if code & b else zero for zero, one, b in pairs]))


@dataclass(frozen=True, init=False)
class _Model:
    """A scenario and each context's entries, keyed by canonical context
    and encoded once in the :attr:`Scenario.bit` layout: a possibilistic
    model's event codes or a probabilistic model's ``(code, p)`` pairs."""

    scenario: Scenario
    _codes: Mapping[Context, object] = field(init=False, repr=False, hash=False)

    @classmethod
    def _from_codes(cls, scenario: Scenario, codes: Mapping, **state):
        """A model over entries already encoded in the scenario's layout."""
        model = cls.__new__(cls)
        model.__dict__.update(scenario=scenario, _codes=codes, **state)
        return model

    def _key(self, context: Iterable[str]) -> Context:
        """The canonical form of one of the model's contexts, or :class:`UnknownContext`."""
        key = canonical_context(context)
        if key not in self._codes:
            raise UnknownContext(f"the model has no entry for context {format_event(key)}")
        return key


@dataclass(frozen=True, init=False)
class PossibilisticModel(_Model):
    """Per-context sets of possible events over a scenario.

    ``supports`` maps each cover context (sorted tuple) to a frozenset of
    events; an event is the frozenset of context variables with outcome 1,
    so the all-zero outcome is the empty event.  Each context's events are
    stored once, as a frozenset of codes in the :attr:`Scenario.bit`
    layout; ``supports``, :meth:`events`, :meth:`events_sorted` and
    :meth:`chosen_set` decode names from them.  The constructor takes
    name-set events and encodes each once: an event naming a variable the
    scenario does not declare raises :class:`UnknownVariable`.
    Construction checks no other invariant; run :func:`validate_model` for
    a verdict.
    """

    def __init__(self, scenario: Scenario, supports: Mapping[Context, Iterable]):
        codes = {
            context: frozenset([_mask(scenario.bit, set(event)) for event in events])
            for context, events in supports.items()
        }
        self.__dict__.update(scenario=scenario, _codes=codes)

    @classmethod
    def make(
        cls,
        scenario: Scenario,
        supports: Mapping[Iterable[str], Iterable[Iterable[str]]],
    ) -> "PossibilisticModel":
        return cls(scenario, _in_shortlex(supports))

    def __repr__(self) -> str:
        return f"PossibilisticModel(scenario={self.scenario!r}, supports={self.supports!r})"

    @cached_property
    def supports(self) -> dict[Context, frozenset[Event]]:
        return {context: self._events_of(context) for context in self._codes}

    @cached_property
    def _decoded(self) -> dict[Context, frozenset[Event]]:
        return {}

    def _events_of(self, key: Context) -> frozenset[Event]:
        """The events of the model's context ``key``, decoded on first use."""
        if key not in self._decoded:
            names = map(self.scenario._names, self._codes[key])
            self._decoded[key] = frozenset(map(frozenset, names))
        return self._decoded[key]

    @cached_property
    def _chosen(self) -> dict[Context, int]:
        """The chosen mask of each context: the OR of its event codes,
        masked to the context's own variables.  The codes are ORed only
        until every variable of the context is chosen."""
        bit = self.scenario.bit
        chosen = {}
        for context, codes in self._codes.items():
            mask, union = sum(bit.get(v, 0) for v in context), 0
            for union in accumulate(codes, or_):
                if union == mask:
                    break
            chosen[context] = union & mask
        return chosen

    def events(self, context: Iterable[str]) -> frozenset[Event]:
        return self._events_of(self._key(context))

    def events_sorted(self, context: Iterable[str]) -> list[Event]:
        """Events of a context in canonical (shortlex) order."""
        codes = _shortlex_sorted(self._codes[self._key(context)])
        return [frozenset(self.scenario._names(code)) for code in codes]

    def chosen_set(self, context: Iterable[str]) -> frozenset[str]:
        """All variables of the context that belong to at least one of its
        events; a variable outside the context is never chosen there."""
        key = self._key(context)
        return frozenset(self.scenario._names(self._chosen[key]))

    def chosen(self, variable: str, context: Iterable[str]) -> int:
        """1 iff ``variable`` occurs in some event of ``context``.

        This is the choice function of the context, read off the support.
        """
        key = self._key(context)
        if variable not in key:
            raise VariableNotInContext(
                f"variable {variable!r} is not in context {format_event(key)}"
            )
        return 1 if self._chosen[key] & self.scenario.bit.get(variable, 0) else 0

    @cached_property
    def compiled(self) -> "_Compiled":
        """Bitmask form of the model, built on first use."""
        scenario = self.scenario
        codes = [self._codes[self._key(context)] for context in scenario.cover]
        return _Compiled(scenario.bit, list(zip(scenario._masks, codes)))


class _Compiled:
    """Constraints in the bit ``layout`` of :attr:`Scenario.bit`: each of
    ``contexts`` is a variable mask and the codes it allows on those bits,
    as a model's cover contexts and events or the Bell route's truth tables.

    ``order`` is the greedy completion order the section search assigns
    variables in: next comes the variable that completes the most open
    contexts, ties going to the largest sum of 1/|unassigned variables| over
    the open contexts that hold it, then to scenario order.
    ``completed_at[d]`` lists the contexts whose last variable is
    ``order[d]``.  A context with no variables is in no list: the block
    :func:`_levelwise_masks` starts from checks it, and the scan and both
    witness passes read it from ``contexts``.

    Every context holding a free variable is open, so each variable's
    score reads only its own list of the contexts that hold it, kept in
    cover order so the sums are the same floats as over all open contexts.
    """

    def __init__(self, layout: Mapping[str, int], contexts: list[tuple[int, frozenset[int]]]):
        self.n = len(layout)
        self.bit = layout
        # a scenario's layout lists its variables sorted
        self.decode = _decoder(layout, layout)
        self.contexts = contexts
        self.order: list[int] = []
        self.completed_at: list[list[tuple[int, frozenset[int]]]] = []
        # [unassigned part of the context mask, context], listed in cover
        # order under each free variable the context holds
        entries = [[context[0], context] for context in contexts]
        holders = {bit: [e for e in entries if e[0] & bit] for bit in layout.values()}

        def gain(bit: int) -> tuple[int, float]:
            completes, spread = 0, 0.0
            for rest, _ in holders[bit]:
                completes += rest == bit
                spread += 1 / rest.bit_count()
            return completes, spread

        while holders:
            bit = max(holders, key=gain)  # the first maximum: scenario order
            self.order.append(bit)
            completed = []
            for entry in holders.pop(bit):
                entry[0] ^= bit
                if not entry[0]:
                    completed.append(entry[1])
            self.completed_at.append(completed)


def _search_masks(compiled: _Compiled, deadline: float | None) -> list[int]:
    """Every code that meets every constraint of ``compiled``, in no fixed
    order: the section search's entry for every section, as
    ``global_sections_backtracking`` asks; the Bell route's, for any one,
    is :func:`_levelwise_masks` with ``first``.  Finding more than
    :data:`TABLE_ROWS_LIMIT` codes raises :class:`TooLarge`, which bounds
    the memory the found codes take.

    When :func:`_takes_scan` picks it, the bit-parallel scan of
    :func:`_scan_bits` finds the codes; more than the limit are refused by
    the bitset's count, before :func:`_read_out` reads them out ascending.
    Otherwise the level-wise search of :func:`_levelwise_masks` finds them.
    """
    if not _takes_scan(compiled):
        return _levelwise_masks(compiled, deadline)
    sections = _scan_bits(compiled, deadline)
    if sections.bit_count() > TABLE_ROWS_LIMIT:
        raise _too_many_sections()
    return _read_out(sections, compiled, deadline)


def _takes_scan(compiled: _Compiled) -> bool:
    """Whether a section search takes the bit-parallel scan: its 2^n rows
    are within :data:`SCAN_ROWS_LIMIT` and :func:`_scan_pays` estimates it
    cheaper."""
    return 1 << compiled.n <= SCAN_ROWS_LIMIT and _scan_pays(compiled)


def _too_many_sections() -> TooLarge:
    """The refusal of a search that finds over :data:`TABLE_ROWS_LIMIT` sections."""
    return TooLarge(
        f"the model has over {TABLE_ROWS_LIMIT:,} global sections, the most the search holds"
    )


# the costs that choose between the two searches, in allowed-set tests of
# the level-wise search (``code & cmask in allowed``, about 70 ns each):
# the scan ANDs, shifts or ORs this many big-int bits in the time of one
# test, and setting one allowed code in its table takes about two tests.
# Measured on 620 covers of 12-20 variables on a 2-core x86_64 host, these
# pick the faster search on nearly every cover that takes over 1 ms
SCAN_BITS_PER_TEST = 1000
SCAN_TESTS_PER_CODE = 2


def _scan_pays(compiled: _Compiled) -> bool:
    """Whether the scan is expected to cost less than the level-wise search.

    The scan costs ``(n - |C| + 1) * 2^n`` big-int bits for each context
    ``C`` it builds a table for, plus the allowed codes it sets there.  The
    level-wise search costs its allowed-set tests: its block doubles with
    each variable, every context completed there tests the whole block, and
    is expected to keep the share ``|allowed| / 2^|C|`` of it.
    """
    n = compiled.n
    scan = tests = 0.0
    block = 1.0
    for completed in compiled.completed_at:
        block *= 2
        for cmask, allowed in completed:
            width = cmask.bit_count()
            tests += block
            if not len(allowed) >> width:  # the scan skips a full context
                scan += ((n - width + 1) << n) / SCAN_BITS_PER_TEST
                scan += SCAN_TESTS_PER_CODE * len(allowed)
            block *= len(allowed) / (1 << width)
    return scan < tests


def _scan_bits(compiled: _Compiled, deadline: float | None) -> int:
    """The codes that meet every constraint of ``compiled`` as one 2^n-bit
    int, bit ``r`` set when code ``r`` does: a scan of all 2^n codes at
    once, in a layout whose bits are the ``n`` lowest, as a scenario's are.

    Each context becomes its table, a 2^n-bit int whose bit ``r`` is set
    when code ``r`` restricts to an allowed code: the allowed codes inside
    the context mask are set (the level-wise search never matches one
    outside it), then copied over every variable the context lacks.  A
    context allowing every code of its variables (code 0 of none) gets no
    table.  The tables are ANDed, stopping at 0.

    The clock is read before the first table and before each run of at
    most :data:`DEADLINE_STRIDE` allowed codes set in a table; an expiry
    carries no sections.
    """
    n, rows = compiled.n, 1 << compiled.n
    if past_deadline(deadline):
        raise TimeBudgetExceeded(decode=compiled.decode)
    sections = (1 << rows) - 1
    for cmask, allowed in compiled.contexts:
        outside = ~cmask  # a code-built model may allow codes with bits there
        codes = [code for code in allowed if not code & outside]
        if len(codes) >> cmask.bit_count():
            continue  # every code of the context's variables is allowed
        table = bytearray((rows + 7) >> 3)
        for start in range(0, len(codes), DEADLINE_STRIDE):
            if past_deadline(deadline):
                raise TimeBudgetExceeded(decode=compiled.decode)
            for code in codes[start : start + DEADLINE_STRIDE]:
                table[code >> 3] |= 1 << (code & 7)
        rows_set = int.from_bytes(table, "little")
        for j in range(n):
            if not cmask >> j & 1:
                rows_set |= rows_set << (1 << j)
        sections &= rows_set
        if not sections:
            break
    return sections


def _read_out(sections: int, compiled: _Compiled, deadline: float | None) -> list[int]:
    """The set bits of the scan's bitset ``sections``, ascending: found by
    ``str.rfind`` in its binary text, where code ``r`` is the character
    ``r`` places before the end.

    The clock is read before each run of at most :data:`DEADLINE_STRIDE`
    sections read out; an expiry carries the ascending codes read out so far.
    """
    bits = bin(sections)
    last = len(bits) - 1
    found: list[int] = []
    index = bits.rfind("1", 2)
    while index >= 0:
        if past_deadline(deadline):
            raise TimeBudgetExceeded(partial_codes=found, decode=compiled.decode)
        for _ in range(DEADLINE_STRIDE):
            found.append(last - index)
            index = bits.rfind("1", 2, index)
            if index < 0:
                break
    return found


class _SetCodes:
    """The sections of the scan's bitset ``sections`` as an expiry in the
    witness pass carries them: counted off the bitset, and read out
    ascending by :func:`_read_out` only when iterated."""

    def __init__(self, sections: int, compiled: _Compiled):
        self.sections = sections
        self.compiled = compiled

    def __len__(self) -> int:
        return self.sections.bit_count()

    def __iter__(self) -> Iterator[int]:
        return iter(_read_out(self.sections, self.compiled, None))


def _levelwise_masks(
    compiled: _Compiled, deadline: float | None, first: bool = False
) -> list[int]:
    """Codes that meet every constraint of ``compiled``, in search order:
    every one, under the limit of :func:`_search_masks`; or, with ``first``,
    the Bell route's entry, up to the first complete one, so the result is
    empty exactly when no code meets them all.

    Level-wise search in ``compiled.order`` from the block ``[0]``, or
    ``[]`` when a context with no variables, which ``completed_at`` never
    lists, does not allow code 0: a block of partial codes is extended by
    the next variable and filtered by every context that variable
    completes.  A block over :data:`DEADLINE_STRIDE` codes is split into
    parts on an explicit stack and finished part by part, which bounds the
    memory held; the clock is read once per block step, and an expiry
    carries the codes found so far, in search order.
    """
    found: list[int] = []
    constant = [0 in allowed for cmask, allowed in compiled.contexts if not cmask]
    stack = [(0, [0] if all(constant) else [])]
    while stack:
        depth, block = stack.pop()
        while block and depth < compiled.n and len(block) <= DEADLINE_STRIDE:
            if past_deadline(deadline):
                raise TimeBudgetExceeded(partial_codes=found, decode=compiled.decode)
            bit = compiled.order[depth]
            block += [code | bit for code in block]
            for cmask, allowed in compiled.completed_at[depth]:
                block = [code for code in block if code & cmask in allowed]
            depth += 1
        if depth == compiled.n:
            found += block
            if first and found:
                break
            if len(found) > TABLE_ROWS_LIMIT:
                raise _too_many_sections()
        else:
            stack += [
                (depth, block[i : i + DEADLINE_STRIDE])
                for i in range(0, len(block), DEADLINE_STRIDE)
            ]
    return found


@dataclass(frozen=True)
class Verdict:
    """Outcome of a yes/no property check.

    ``witness`` is a structured counterexample, present exactly when the
    property fails; ``warnings`` carries non-fatal diagnostics.
    """

    holds: bool
    witness: Mapping[str, object] | None = field(default=None, hash=False)
    narrative: str = ""
    warnings: tuple[str, ...] = ()

    @property
    def status(self) -> str:
        return "Holds" if self.holds else "Fails"

    def __bool__(self) -> bool:
        return self.holds

    def to_doc(self) -> dict:
        return {
            "status": self.status,
            "witness": dict(self.witness) if self.witness is not None else None,
            "narrative": self.narrative,
            "warnings": list(self.warnings),
        }


def _passing(narrative: str, warnings: tuple[str, ...] = ()) -> Verdict:
    return Verdict(holds=True, witness=None, narrative=narrative, warnings=warnings)


def _failing(narrative: str, witness: Mapping[str, object]) -> Verdict:
    return Verdict(holds=False, witness=witness, narrative=narrative)


def _structure_fault(scenario: Scenario, keys: Mapping[Context, object]) -> Verdict | None:
    """The failing verdict of the first structural fault of a model over
    ``scenario`` with entries keyed by ``keys``, if it has one: in the
    variables, in the cover, or a cover context with no entry or an entry
    outside the cover.  Both validators run it before their own checks."""
    variables = set(scenario.variables)

    if not scenario.variables:
        return _failing("scenario declares no variables", {"reason": "empty-variables"})
    for v in scenario.variables:
        if not VARIABLE_RE.match(v):
            return _failing(
                f"variable name {v!r} is not a valid identifier",
                {"reason": "bad-variable-name", "variable": v},
            )

    seen: set[Context] = set()
    for context in scenario.cover:
        if not context:
            return _failing("cover contains an empty context", {"reason": "empty-context"})
        extra = set(context) - variables
        if extra:
            return _failing(
                f"context {format_event(context)} uses undeclared variable(s) {sorted(extra)}",
                {"reason": "unknown-variable", "context": list(context)},
            )
        if context in seen:
            return _failing(
                f"duplicate context {format_event(context)}",
                {"reason": "duplicate-context", "context": list(context)},
            )
        seen.add(context)

    covered = set().union(*map(set, scenario.cover)) if scenario.cover else set()
    uncovered = variables - covered
    if uncovered:
        return _failing(
            f"variable(s) {sorted(uncovered)} occur in no context",
            {"reason": "uncovered-variable", "variables": sorted(uncovered)},
        )

    cover_set = set(scenario.cover)
    for context in scenario.cover:
        if context not in keys:
            return _failing(
                f"no support entry for context {format_event(context)}",
                {"reason": "missing-support", "context": list(context)},
            )
    for context in keys:
        if context not in cover_set:
            return _failing(
                f"support entry for unknown context {format_event(context)}",
                {"reason": "unknown-context", "context": list(context)},
            )
    return None


def validate_model(model: PossibilisticModel) -> Verdict:
    """Check every structural invariant of a possibilistic model.

    Returns a failing verdict for the first violated invariant, with the
    offending context/event as witness.  An empty support set C(U) is legal
    but reported as a warning: it rules out every global section.
    """
    scenario = model.scenario
    fault = _structure_fault(scenario, model._codes)
    if fault is not None:
        return fault
    for context, cmask in zip(scenario.cover, scenario._masks):
        bad = [code for code in model._codes[context] if code & ~cmask]
        if bad:
            event = scenario._names(min(bad, key=_shortlex_key))
            return _failing(
                f"event {format_event(event)} is not a subset of context "
                f"{format_event(context)}",
                {
                    "reason": "event-outside-context",
                    "context": list(context),
                    "event": event,
                },
            )

    return _passing("model is well-formed", warnings=_empty_support_warnings(model))


def _empty_support_warnings(model: PossibilisticModel) -> tuple[str, ...]:
    """One warning per cover context with an empty support set."""
    return tuple(
        f"context {format_event(context)} has an empty support set; "
        "no global section can exist"
        for context in model.scenario.cover
        if not model._codes[context]
    )
