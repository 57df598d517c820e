"""Boolean propositions over scenario variables.

Grammar (precedence ``!`` > ``&`` > ``|``, both binary connectives
left-associative)::

    formula := disj
    disj    := conj ("|" conj)*
    conj    := lit ("&" lit)*
    lit     := "!" lit | "(" formula ")" | IDENT | "1" | "0"

Identifiers follow variable syntax, so primed names like ``a'`` parse
directly.  A formula may nest ``(`` and ``!`` at most :data:`MAX_NESTING`
levels deep; a deeper one is a :class:`PropositionSyntaxError` at the
token that passes the limit.  Chains of ``&`` and ``|`` do not nest and may
be of any length.  ``parse_proposition`` additionally checks the formula
against a scenario: every variable must be declared and the variable set
must fit inside a single cover context, otherwise the formula has no
measurement context.  AST nodes support ``&``, ``|`` and ``~`` for
programmatic construction.

One parser reads the grammar to either of two targets, as it reads the
text.  The public parse functions build each formula's tree: within a
formula one node, made before the formula is read, stands for each
literal (a variable, a negated variable or a constant) wherever it
occurs, and no two formulas share a node; nodes are immutable and every
method reads values, never identity, so the sharing cannot be seen.  Each
formula also has a prefix form, every node's class then its fields,
written once by its flattening when first needed; equality, hashing,
``to_text`` and ``repr`` read it.

Both Bell routes compile formulas to truth tables here: the library's
(:func:`_compile`) from each formula's prefix form, and ``bell``'s
(:func:`_read_tables`) straight from its file, whose lines
:class:`_TableParser` parses to their tables with no node.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Iterator, Mapping

from .core import (
    DEADLINE_STRIDE,
    IDENTIFIER,
    TABLE_ROWS_LIMIT,
    VARIABLE_RE,
    Context,
    Scenario,
    _check_bound,
    _count_text,
    _mask,
    _set_rows,
    past_deadline,
)
from .errors import (
    NotMeasurable,
    PropositionSyntaxError,
    TimeBudgetExceeded,
    TooLarge,
    UnknownVariable,
)


class Proposition:
    """Base class for formula nodes.

    Every method walks the formula on an explicit stack, so a chain of any
    length is handled without recursion.  ``==``, ``hash``, ``to_text`` and
    ``repr`` read the prefix form :attr:`_items`, which is already in
    printing order; it is written only by flattening the nodes, once, on
    first use.  ``variables()`` reads it too, unless the parser gave the
    root the variables of its tokens.  ``evaluate`` walks the nodes
    themselves, so it can skip an operand the result no longer depends
    on."""

    def evaluate(self, binding: Mapping[str, int]) -> bool:
        """The formula's value under ``binding``.  Like Python's ``and`` and
        ``or``, a connective whose left operand decides it never reads its
        right operand, so ``binding`` need not bind that operand's
        variables."""
        # a connective's marker sits over its right operand, so once the
        # left operand decides the result the marker drops the right unread
        todo: list[object] = [self]
        while todo:
            item = todo.pop()
            kind = type(item)
            if kind is Var:
                value = bool(binding[item.name])
            elif kind is Const:
                value = bool(item.value)
            elif kind is Not:
                todo += (_NOT, item.operand)
            elif kind is And:
                todo += (item.right, _AND, item.left)
            elif kind is Or:
                todo += (item.right, _OR, item.left)
            elif item is _NOT:
                value = not value
            elif item is _AND:
                if not value:
                    todo.pop()  # the right operand, unread
            elif item is _OR:
                if value:
                    todo.pop()
            else:
                raise TypeError(f"cannot evaluate a {kind.__qualname__} node")
        return value

    def variables(self) -> frozenset[str]:
        """The variables the formula mentions."""
        return self._variables

    @cached_property
    def _items(self) -> tuple[object, ...]:
        # each node's class, then its fields, depth first; nodes are
        # immutable, so each formula is flattened once
        items: list[object] = []
        todo: list[object] = [self]
        while todo:
            item = todo.pop()
            kind = type(item)
            if kind is Var:
                items += (Var, item.name)
            elif kind is And or kind is Or:
                items.append(kind)
                todo += (item.right, item.left)
            elif kind is Not:
                items.append(Not)
                todo.append(item.operand)
            elif isinstance(item, Proposition):  # Const and any other node class
                items.append(kind)
                todo += [getattr(item, name) for name in reversed(item.__match_args__)]
            else:
                items.append(item)
        return tuple(items)

    @cached_property
    def _variables(self) -> frozenset[str]:
        # a variable's name is the item after its class
        items = self._items
        return frozenset([name for kind, name in zip(items, items[1:]) if kind is Var])

    @cached_property
    def _hash(self) -> int:
        # hashing a tuple walks all of it, so the prefix form is hashed once
        return hash(self._items)

    def to_text(self) -> str:
        """The formula in the grammar, parenthesized only where needed."""
        # the prefix form is in printing order; ``todo`` holds each open
        # connective's class, then what follows each operand, the next last
        pieces: list[str] = []
        todo: list[list] = []
        leaf = None
        for item in self._items:
            if item is Var or item is Const:
                leaf = item
            elif item is Not or item is And or item is Or:
                outer = todo[-1][0] if todo else None
                grouped = item is Or and outer is And or item is not Not and outer is Not
                pieces.append("(" * grouped + "!" * (item is Not))
                infix = [" & "] if item is And else [" | "] if item is Or else []
                todo.append([item, ")" * grouped, *infix])
            elif isinstance(item, type):
                raise TypeError(f"cannot print a {item.__qualname__} node")
            else:
                pieces.append(("1" if item else "0") if leaf is Const else item)
                while todo:  # an operand is done
                    pieces.append(todo[-1].pop())
                    if len(todo[-1]) > 1:
                        break
                    todo.pop()
        return "".join(pieces)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._items == other._items

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        # a dataclass ``repr``; ``todo`` holds each open node's ``)`` and the
        # labels of its fields, the next last
        pieces: list[str] = []
        todo: list[list[str]] = []
        for item in self._items:
            if todo:
                pieces.append(todo[-1].pop())
            if isinstance(item, type):
                fields = enumerate(item.__match_args__)
                pieces.append(item.__qualname__ + "(")
                todo.append([")", *[", " * (i > 0) + name + "=" for i, name in fields][::-1]])
            else:
                pieces.append(repr(item))
            while todo and len(todo[-1]) == 1:  # a node is done
                pieces.append(todo.pop()[0])
        return "".join(pieces)

    def __and__(self, other: "Proposition") -> "Proposition":
        return And(self, other)

    def __or__(self, other: "Proposition") -> "Proposition":
        return Or(self, other)

    def __invert__(self) -> "Proposition":
        return Not(self)


# marks ``evaluate`` meets once an operand has its value
_NOT, _AND, _OR = object(), object(), object()


@dataclass(frozen=True, eq=False, repr=False)
class Var(Proposition):
    name: str


@dataclass(frozen=True, eq=False, repr=False)
class Const(Proposition):
    value: bool


@dataclass(frozen=True, eq=False, repr=False)
class Not(Proposition):
    operand: Proposition


@dataclass(frozen=True, eq=False, repr=False)
class And(Proposition):
    left: Proposition
    right: Proposition


@dataclass(frozen=True, eq=False, repr=False)
class Or(Proposition):
    left: Proposition
    right: Proposition


# every token, and nothing else: whitespace and a character outside the
# grammar both go unmatched, and ``_tokenize`` tells them apart
_TOKEN_RE = re.compile(IDENTIFIER + "|[01!&|()]")

# the line ends of a formula file
_LINE_END_RE = re.compile(r"\r\n?|\n")

# deepest run of "(" and "!" a formula may nest; each parenthesis costs the
# parser three stack frames, so this stays well under the interpreter's
# default recursion limit of 1000
MAX_NESTING = 100


def _tokenize(text: str, line: int | None) -> list[str]:
    """Token texts, ending with ``""`` at the end of input.  A token's kind
    is its text: one of ``!&|()``, a constant ``0``/``1``, or else an
    identifier."""
    # most lines are read by splitting at whitespace and around each
    # operator; a piece that is not one token (a stray character, or "10",
    # which is two) sends the line to the regular expression
    spaced = text.replace("!", " ! ").replace("&", " & ").replace("|", " | ")
    values = spaced.replace("(", " ( ").replace(")", " ) ").split()
    if all(value in _SYMBOLS or VARIABLE_RE.match(value) for value in set(values)):
        values.append("")
        return values
    values = _TOKEN_RE.findall(text)
    if len("".join(values)) != len("".join(text.split())):
        # some character is neither whitespace nor in a token: with the
        # tokens blanked out, the first one left
        blanked = _TOKEN_RE.sub(lambda token: " " * len(token[0]), text)
        position = len(blanked) - len(blanked.lstrip())
        raise PropositionSyntaxError(f"unexpected character {text[position]!r}", position, line)
    values.append("")
    return values


# the token texts that are not identifiers
_SYMBOLS = frozenset(["", "!", "&", "|", "(", ")", "0", "1"])


class _Parser:
    """Reads one formula's tokens to one of two targets, with the same
    grammar and checks: this class builds the formula's tree, and
    :class:`_TableParser` its truth table.  Each literal pushes its value on
    ``items``, and a chain's operands become one value when the chain ends.

    What the parser builds goes through its output hooks alone: ``leaves``,
    ``negations`` and ``constants`` map each token text to the value its
    variable, negated variable or constant pushes (:func:`_tree_parser`
    gives a tree's nodes); :meth:`close` reduces a chain's operands with
    ``conjoin`` or ``disjoin``, and :meth:`negate` applies a run of ``!``
    to the operand after it.  A literal that starts at or past ``mark``
    first calls :meth:`tick`; the tree reads no clock, so its mark lies
    past the last token."""

    conjoin = And
    disjoin = Or

    def __init__(
        self,
        values: list[str],
        text: str,
        line: int | None,
        leaves: Mapping[str, object],
        negations: Mapping[str, object],
        constants: Mapping[str, object],
    ):
        self.values = values
        self.text = text
        self.line = line
        self.at = 0
        self.depth = 0
        self.mark = len(values)
        self.items: list[object] = []
        self.leaves = leaves
        self.negations = negations
        self.constants = constants

    def close(self, operands: int, operation) -> None:
        """End a chain: its last ``operands`` values become one, reduced
        left to right with ``operation``."""
        items = self.items
        items[-operands:] = [reduce(operation, items[-operands:])]

    def negate(self, count: int) -> None:
        """Negate the last value ``count`` times."""
        node = self.items[-1]
        for _ in range(count):
            node = Not(node)
        self.items[-1] = node

    def tick(self) -> None:
        """Read the clock: the tree reads none."""

    def read(self) -> list[object]:
        """Read the whole formula, with every syntax check, and give the
        values left on ``items``: the formula's one value."""
        self.formula()
        if self.values[self.at]:
            raise self.fail("expected end of input")
        return self.items

    def position(self) -> int:
        """Where the current token starts, worked out only for an error."""
        return [*[t.start() for t in _TOKEN_RE.finditer(self.text)], len(self.text)][self.at]

    def fail(self, message: str) -> PropositionSyntaxError:
        value = self.values[self.at]
        what = f"{value!r}" if value else "end of input"
        return PropositionSyntaxError(f"{message}, found {what}", self.position(), self.line)

    def nest(self) -> None:
        """Step past a "(" or "!", one level deeper."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise PropositionSyntaxError(
                f"formula nests deeper than {MAX_NESTING} levels", self.position(), self.line
            )
        self.at += 1

    def formula(self) -> None:
        self.conjunction()
        operands = 1
        while self.values[self.at] == "|":
            self.at += 1
            self.conjunction()
            operands += 1
        if operands > 1:
            self.close(operands, self.disjoin)

    def conjunction(self) -> None:
        self.literal()
        operands = 1
        while self.values[self.at] == "&":
            self.at += 1
            self.literal()
            operands += 1
        if operands > 1:
            self.close(operands, self.conjoin)

    def literal(self) -> None:
        if self.at >= self.mark:
            self.tick()
        values = self.values
        value = values[self.at]
        if value not in _SYMBOLS:  # a variable
            self.at += 1
            self.items.append(self.leaves[value])
            return
        # a negated variable; one that would pass the nesting limit goes
        # the long way below, which refuses it at its "!"
        name = values[self.at + 1] if value == "!" else ""
        if name not in _SYMBOLS and self.depth < MAX_NESTING:
            self.at += 2
            self.items.append(self.negations[name])
            return
        outer = self.depth
        while values[self.at] == "!":  # a chain of "!" is read in a loop
            self.nest()
        count = self.depth - outer
        value = values[self.at]
        if value == "(":
            self.nest()
            self.formula()
            if values[self.at] != ")":
                raise self.fail("expected ')'")
        elif value == "0" or value == "1":
            self.items.append(self.constants[value])
        elif value not in _SYMBOLS:
            self.items.append(self.leaves[value])
        else:
            raise self.fail("expected a variable, constant, '!' or '('")
        self.at += 1
        self.depth = outer
        if count:
            self.negate(count)


def _patterns(k: int) -> list[int]:
    """The truth table over ``2^k`` rows of each of ``k`` variables, in
    order: row ``i`` binds the ``j``-th variable to bit ``j`` of ``i``."""
    rows = 1 << k
    patterns = []
    for j in range(k):
        # 2^j unset rows, then 2^j set ones, repeated over all the rows
        half = 1 << j
        pattern, width = ((1 << half) - 1) << half, 2 * half
        while width < rows:
            pattern |= pattern << width
            width *= 2
        patterns.append(pattern)
    return patterns


# "0"/"1" characters of a printed truth table to the bytes 0/1
_BIT_FLAGS = bytes.maketrans(b"01", b"\0\1")


def _satisfying(
    table: int, names: list[str], bit: Mapping[str, int], deadline: float | None
) -> tuple[int, frozenset[int]]:
    """The variable mask of ``names`` and the masked codes of the set rows
    of their truth table ``table``, read as :func:`_patterns` lays it out;
    ``deadline`` is read before each block of rows."""
    flags = format(table, f"0{1 << len(names)}b")[::-1].encode().translate(_BIT_FLAGS)
    satisfying: list[int] = []
    for block in _set_rows(names, bit, flags):
        if past_deadline(deadline):
            raise TimeBudgetExceeded()
        satisfying += block
    return _mask(bit, names), frozenset(satisfying)


def _check_rows(rows_in_all: int) -> None:
    """Refuse truth tables of ``rows_in_all`` rows in all, over
    :data:`TABLE_ROWS_LIMIT`, with :class:`TooLarge`."""
    if rows_in_all > TABLE_ROWS_LIMIT:
        raise TooLarge(
            f"the formulas' truth tables would hold {_count_text(rows_in_all)} rows, "
            f"over the limit of {TABLE_ROWS_LIMIT:,}"
        )


# a literal's first token lies at most MAX_NESTING + 2 tokens past the one
# before it (its own "!" and variable, the ")" that follow it and one
# connective), so a clock read at the first literal this many tokens past
# the last read leaves at most DEADLINE_STRIDE tokens between reads
_TOKEN_STRIDE = DEADLINE_STRIDE - MAX_NESTING - 1


class _TableParser(_Parser):
    """Reads one formula's tokens straight to its truth table, for ``bell``:
    the grammar and every check are :class:`_Parser`'s.  The value of a
    formula over the variables ``names`` (in ascending scenario bit) is its
    ``2^k``-row table as an int, as in :func:`_truth_tables`:
    a literal pushes its variable's pattern or that pattern's complement,
    and the end of a chain ANDs or ORs its operands.  With a ``deadline``,
    the clock is read before the first literal and then at the first
    literal :data:`_TOKEN_STRIDE` or more tokens past the last read, so
    before each run of at most :data:`DEADLINE_STRIDE` tokens; expiry
    raises :class:`TimeBudgetExceeded`."""

    conjoin = operator.and_
    disjoin = operator.or_

    def __init__(
        self, values: list[str], text: str, line: int, names: list[str], deadline: float | None
    ):
        full = (1 << (1 << len(names))) - 1
        patterns = _patterns(len(names))
        leaves = dict(zip(names, patterns))
        negations = {name: p ^ full for name, p in zip(names, patterns)}
        super().__init__(values, text, line, leaves, negations, {"0": 0, "1": full})
        self.full = full
        self.deadline = deadline
        if deadline is not None:
            self.mark = 0

    def negate(self, count: int) -> None:
        if count % 2:
            self.items[-1] ^= self.full

    def tick(self) -> None:
        if past_deadline(self.deadline):
            raise TimeBudgetExceeded()
        self.mark = self.at + _TOKEN_STRIDE


def _tree_parser(values: list[str], text: str, line: int | None) -> _Parser:
    """A parser that builds the formula's tree: one node stands for each
    literal (a variable, a negated variable or a constant) and is placed
    wherever the literal occurs.  The nodes are made before the formula is
    read, one ``Var`` and one ``Not`` over it per identifier token and the
    two constants, so no two formulas share one."""
    leaves = {name: Var(name) for name in set(values).difference(_SYMBOLS)}
    negations = {name: Not(leaf) for name, leaf in leaves.items()}
    constants = {"0": Const(False), "1": Const(True)}
    return _Parser(values, text, line, leaves, negations, constants)


def parse_formula(text: str, line: int | None = None) -> Proposition:
    """Parse a formula with no scenario checks.  A formula nesting ``(`` and
    ``!`` more than :data:`MAX_NESTING` deep is refused."""
    parser = _tree_parser(_tokenize(text, line), text, line)
    (node,) = parser.read()
    # the whole input was read, so every identifier token is a variable
    node.__dict__["_variables"] = frozenset(parser.leaves)
    return node


def measurement_context(prop: Proposition, scenario: Scenario) -> Context:
    """The canonically first cover context containing all of the formula's
    variables; raises :class:`UnknownVariable` for the sorted-first
    undeclared one, else :class:`NotMeasurable` if no context does."""
    return _context_of(prop.variables(), scenario)


def _context_of(used: frozenset[str], scenario: Scenario) -> Context:
    """:func:`measurement_context` of the variables ``used``, on the masks
    of the scenario's layout: the first cover context whose mask covers
    theirs."""
    try:
        bit, masks = scenario.bit, scenario._masks
    except (TooLarge, UnknownVariable):
        # a scenario no document gives has no layout: over VARIABLES_LIMIT
        # variables, or a cover naming an undeclared one; a bit for each
        # used variable alone tells the same contexts apart
        bit = dict.fromkeys(scenario.variables, 0)
        bit.update((v, 1 << j) for j, v in enumerate(used.intersection(bit)))
        masks = [sum(bit.get(v, 0) for v in set(context)) for context in scenario.cover]
    undeclared = used.difference(bit)
    if undeclared:
        raise UnknownVariable(f"unknown variable {min(undeclared)!r}")
    want = sum(map(bit.__getitem__, used))
    for context, mask in zip(scenario.cover, masks):
        if want & mask == want:
            return context
    raise NotMeasurable(f"variables {sorted(used)} fit inside no cover context")


def parse_proposition(text: str, scenario: Scenario) -> Proposition:
    """Parse a formula and check it is measurable in the scenario."""
    node = parse_formula(text)
    measurement_context(node, scenario)
    return node


def _formula_lines(text: str) -> Iterator[tuple[int, str]]:
    """The number and text of each line of a proposition file that holds a
    formula: blank lines and ``#`` comment lines hold none."""
    for lineno, raw in enumerate(_LINE_END_RE.split(text), start=1):
        stripped = raw.strip()
        if stripped and not stripped.startswith("#"):
            yield lineno, raw


# a formula's measurement context and truth table
_ContextTable = tuple[Context, tuple[int, frozenset[int]]]


def _truth_tables(
    props: list[Proposition], bit: Mapping[str, int], deadline: float | None
) -> Iterator[tuple[int, frozenset[int]]]:
    """Compile each formula to its variable mask and satisfying masked codes.

    Of a formula this reads only its prefix form ``_items`` and its
    ``variables()``.  A formula over ``k`` variables becomes its whole
    truth table as one ``2^k``-bit integer: row ``i`` binds the formula's
    ``j``-th variable (in ascending scenario bit) to bit ``j`` of ``i``
    (:func:`_patterns`), so ascending rows are ascending submasks.  The
    prefix form is read backwards on a stack of values, ``&``/``|``/``!``
    acting on whole tables, and the set rows are decoded to codes
    (:func:`_satisfying`).  Tables over :data:`TABLE_ROWS_LIMIT` rows in
    all are refused with :class:`TooLarge` before any is built.  The
    reversed prefix form is read in slices of :data:`DEADLINE_STRIDE`
    items, and ``deadline`` is read before each slice, the first included,
    and before each block of table rows.
    """
    _check_rows(sum(1 << len(prop.variables()) for prop in props))
    var, conj, neg, disj, const = Var, And, Not, Or, Const  # locals, read faster
    for prop in props:
        names = sorted(prop.variables(), key=bit.__getitem__)
        full = (1 << (1 << len(names))) - 1
        table_of = dict(zip(names, _patterns(len(names))))

        values: list = []
        append, pop = values.append, values.pop
        items = prop._items[::-1]
        for start in range(0, len(items), DEADLINE_STRIDE):
            if past_deadline(deadline):
                raise TimeBudgetExceeded()
            for item in items[start : start + DEADLINE_STRIDE]:
                if item is var:
                    values[-1] = table_of[values[-1]]
                elif item is conj:
                    append(pop() & pop())
                elif item is neg:
                    values[-1] ^= full
                elif item is disj:
                    append(pop() | pop())
                elif item is const:
                    values[-1] = full if values[-1] else 0
                elif isinstance(item, type):
                    raise TypeError(f"cannot compile a {item.__qualname__} node")
                else:
                    append(item)  # a field: a variable's name or a constant

        (table,) = values
        yield _satisfying(table, names, bit, deadline)


def _compile(
    props: list[Proposition], scenario: Scenario, bound: int, deadline: float | None
) -> list[_ContextTable]:
    """Measurement context and truth table of each formula, in a scenario
    of at most ``bound`` variables."""
    _check_bound(len(scenario.variables), bound)
    contexts = [measurement_context(prop, scenario) for prop in props]
    return list(zip(contexts, _truth_tables(props, scenario.bit, deadline)))


def _read_tables(
    text: str, scenario: Scenario, bound: int, deadline: float | None
) -> list[_ContextTable]:
    """Each formula of a proposition file as :func:`_compile` gives it,
    parsed straight to its table with no node: how ``bell`` reads its file.

    The file is read once, and refused as :func:`parse_propositions` then
    :func:`_compile` would refuse it: each line's tokens and syntax,
    then its measurement context, in file order; after the last line,
    ``bound``, the total of table rows (:data:`TABLE_ROWS_LIMIT`), then
    ``deadline``.  A formula's identifier tokens are its variables, so its
    context and rows are known from its tokens, and a context fault is
    raised only once the line's syntax is checked.  Tables are built only
    while none of those last three is due, so at most
    :data:`TABLE_ROWS_LIMIT` rows in all; a line read once one is due goes
    through :func:`_tree_parser`, for its checks alone.  An expiry
    met while a table is built only marks the budget as spent."""
    over_bound = len(scenario.variables) > bound
    bit = scenario.bit
    pairs, rows_in_all, expired = [], 0, False
    for lineno, raw in _formula_lines(text):
        values = _tokenize(raw, lineno)
        used = frozenset(values).difference(_SYMBOLS)
        rows_in_all += 1 << len(used)
        try:
            context = _context_of(used, scenario)
        except (UnknownVariable, NotMeasurable):
            _tree_parser(values, raw, lineno).read()  # a syntax error is named first
            raise
        if not (over_bound or expired or rows_in_all > TABLE_ROWS_LIMIT):
            names = sorted(used, key=bit.__getitem__)
            try:
                (table,) = _TableParser(values, raw, lineno, names, deadline).read()
                pairs.append((context, _satisfying(table, names, bit, deadline)))
                continue
            except TimeBudgetExceeded:
                expired = True
        _tree_parser(values, raw, lineno).read()  # its checks alone
    _check_bound(len(scenario.variables), bound)
    _check_rows(rows_in_all)
    if expired:
        raise TimeBudgetExceeded()
    return pairs


def parse_propositions(text: str, scenario: Scenario) -> list[Proposition]:
    """Parse a proposition file: one formula per line, blank lines and
    ``#`` comment lines ignored.  Lines end only at a line feed, a carriage
    return, or the two in that order; other characters that
    ``str.splitlines`` breaks at, such as U+001C or U+0085, are whitespace
    inside a line.  Each line is parsed, then its measurement context is
    checked.  Syntax errors carry the line number."""
    props = []
    for lineno, raw in _formula_lines(text):
        prop = parse_formula(raw, lineno)
        measurement_context(prop, scenario)
        props.append(prop)
    return props
