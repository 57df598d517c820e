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
programmatic construction.  Each formula is flattened once, when first
needed, into a prefix form: every node's class, then its fields in order.
Equality, hashing and ``variables()`` read that form, and the Bell route
compiles it to a truth table.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Mapping, Sequence

from .core import Context, Scenario
from .errors import NotMeasurable, PropositionSyntaxError, UnknownVariable


class Proposition:
    """Base class for formula nodes.

    Every method walks the formula on an explicit stack, so a chain of any
    length is handled without recursion.  ``==``, ``hash`` and
    ``variables()`` read the prefix form :attr:`_items`.  ``evaluate`` runs
    its own loop, which skips an operand the result no longer depends on;
    ``to_text`` and ``repr`` share :meth:`_walk`, a node class saying how
    one node expands (``_steps``, ``_text``, :func:`_repr`)."""

    def _walk(self, expand: Callable[["Proposition"], Sequence[object]]) -> list:
        """Depth first, left to right: the items ``expand`` gives for this
        node, each formula among them replaced in turn by its own items."""
        items: list[object] = []
        todo: list[object] = [self]
        while todo:
            item = todo.pop()
            if isinstance(item, Proposition):
                todo += expand(item)[::-1]
            else:
                items.append(item)
        return items

    def evaluate(self, binding: Mapping[str, int]) -> bool:
        """The formula's value under ``binding``.  Like Python's ``and`` and
        ``or``, a connective whose left operand decides it never reads its
        right operand, so ``binding`` need not bind that operand's
        variables."""
        todo: list[object] = [self]
        while todo:
            item = todo.pop()
            if isinstance(item, Proposition):
                todo += item._steps(binding)[::-1]
            elif item is _NOT:
                value = not value
            elif item is _AND:
                if not value:
                    todo.pop()  # the right operand, unread
            elif item is _OR:
                if value:
                    todo.pop()
            else:
                value = item
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
        return "".join(self._walk(lambda node: node._text()))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._items == other._items

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return "".join(self._walk(_repr))

    def __and__(self, other: "Proposition") -> "Proposition":
        return And(self, other)

    def __or__(self, other: "Proposition") -> "Proposition":
        return Or(self, other)

    def __invert__(self) -> "Proposition":
        return Not(self)


def _repr(node: Proposition) -> list[object]:
    """The pieces of a dataclass ``repr``: ``Name(field=value, ...)``."""
    parts: list[object] = [type(node).__qualname__ + "("]
    for i, name in enumerate(node.__match_args__):
        value = getattr(node, name)
        parts += [
            ", " * (i > 0) + name + "=",
            value if isinstance(value, Proposition) else repr(value),
        ]
    return parts + [")"]


def _grouped(node: Proposition, kinds: tuple[type, ...]) -> tuple[object, ...]:
    return ("(", node, ")") if isinstance(node, kinds) else (node,)


# marks ``evaluate`` meets once an operand has its value
_NOT, _AND, _OR = object(), object(), object()


@dataclass(frozen=True, eq=False, repr=False)
class Var(Proposition):
    name: str

    def _steps(self, binding: Mapping[str, int]) -> Sequence[object]:
        return (bool(binding[self.name]),)

    def _text(self) -> Sequence[object]:
        return (self.name,)


@dataclass(frozen=True, eq=False, repr=False)
class Const(Proposition):
    value: bool

    def _steps(self, binding: Mapping[str, int]) -> Sequence[object]:
        return (self.value,)

    def _text(self) -> Sequence[object]:
        return ("1" if self.value else "0",)


@dataclass(frozen=True, eq=False, repr=False)
class Not(Proposition):
    operand: Proposition

    def _steps(self, binding: Mapping[str, int]) -> Sequence[object]:
        return (self.operand, _NOT)

    def _text(self) -> Sequence[object]:
        return ("!", *_grouped(self.operand, (And, Or)))


@dataclass(frozen=True, eq=False, repr=False)
class And(Proposition):
    left: Proposition
    right: Proposition

    def _steps(self, binding: Mapping[str, int]) -> Sequence[object]:
        return (self.left, _AND, self.right)

    def _text(self) -> Sequence[object]:
        return (*_grouped(self.left, (Or,)), " & ", *_grouped(self.right, (Or,)))


@dataclass(frozen=True, eq=False, repr=False)
class Or(Proposition):
    left: Proposition
    right: Proposition

    def _steps(self, binding: Mapping[str, int]) -> Sequence[object]:
        return (self.left, _OR, self.right)

    def _text(self) -> Sequence[object]:
        return (self.left, " | ", self.right)


# whitespace matches neither group, so ``finditer`` steps over it
_TOKEN_RE = re.compile(r"(?P<token>[A-Za-z_][A-Za-z0-9_']*|[01!&|()])|(?P<bad>\S)")

# deepest run of "(" and "!" a formula may nest; each parenthesis costs the
# parser three stack frames, so this stays well under the interpreter's
# default recursion limit of 1000
MAX_NESTING = 100


def _tokenize(text: str, line: int | None) -> tuple[list[str], list[int]]:
    """Token texts and their positions, ending with ``""`` at the end of
    input.  A token's kind is its text: one of ``!&|()``, a constant
    ``0``/``1``, or else an identifier."""
    values: list[str] = []
    positions: list[int] = []
    for match in _TOKEN_RE.finditer(text):
        if match.lastgroup == "bad":
            raise PropositionSyntaxError(
                f"unexpected character {match.group()!r}", match.start(), line
            )
        values.append(match.group())
        positions.append(match.start())
    values.append("")
    positions.append(len(text))
    return values, positions


class _Parser:
    def __init__(self, text: str, line: int | None):
        self.values, self.positions = _tokenize(text, line)
        self.line = line
        self.at = 0
        self.depth = 0

    def fail(self, message: str) -> PropositionSyntaxError:
        value = self.values[self.at]
        what = f"{value!r}" if value else "end of input"
        return PropositionSyntaxError(
            f"{message}, found {what}", self.positions[self.at], self.line
        )

    def nest(self) -> None:
        """Step past a "(" or "!", one level deeper."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise PropositionSyntaxError(
                f"formula nests deeper than {MAX_NESTING} levels",
                self.positions[self.at],
                self.line,
            )
        self.at += 1

    def formula(self) -> Proposition:
        node = self.conjunction()
        while self.values[self.at] == "|":
            self.at += 1
            node = Or(node, self.conjunction())
        return node

    def conjunction(self) -> Proposition:
        node = self.literal()
        while self.values[self.at] == "&":
            self.at += 1
            node = And(node, self.literal())
        return node

    def literal(self) -> Proposition:
        values = self.values
        outer = self.depth
        while values[self.at] == "!":  # a chain of "!" is read in a loop
            self.nest()
        negations = self.depth - outer
        value = values[self.at]
        if value == "(":
            self.nest()
            node = self.formula()
            if values[self.at] != ")":
                raise self.fail("expected ')'")
        elif value == "0" or value == "1":
            node = Const(value == "1")
        elif value not in ("", "&", "|", ")"):
            node = Var(value)
        else:
            raise self.fail("expected a variable, constant, '!' or '('")
        self.at += 1
        self.depth = outer
        for _ in range(negations):
            node = Not(node)
        return node


def parse_formula(text: str, line: int | None = None) -> Proposition:
    """Parse a formula with no scenario checks.  A formula nesting ``(`` and
    ``!`` more than :data:`MAX_NESTING` deep is refused."""
    parser = _Parser(text, line)
    node = parser.formula()
    if parser.values[parser.at]:
        raise parser.fail("expected end of input")
    return node


def measurement_context(prop: Proposition, scenario: Scenario) -> Context:
    """The canonically first cover context containing all of the formula's
    variables; raises :class:`NotMeasurable` if no context does."""
    used = prop.variables()
    declared = set(scenario.variables)
    for name in sorted(used):
        if name not in declared:
            raise UnknownVariable(f"unknown variable {name!r}")
    contexts = scenario.contexts_containing(used)
    if not contexts:
        raise NotMeasurable(
            f"variables {sorted(used)} fit inside no cover context"
        )
    return contexts[0]


def parse_proposition(text: str, scenario: Scenario) -> Proposition:
    """Parse a formula and check it is measurable in the scenario."""
    node = parse_formula(text)
    measurement_context(node, scenario)
    return node


def parse_propositions(text: str, scenario: Scenario) -> list[Proposition]:
    """Parse a proposition file: one formula per line, blank lines and
    ``#`` comment lines ignored.  Syntax errors carry the line number."""
    props = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        node = parse_formula(raw, lineno)
        measurement_context(node, scenario)
        props.append(node)
    return props
