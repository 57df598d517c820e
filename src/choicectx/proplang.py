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
programmatic construction.  Each formula has a prefix form: every node's
class, then its fields in order.  The parser writes only the prefix form
and the variable set, as it reads the text, and builds no node.  The
public parse functions build the tree from the prefix form; within a
formula the builder makes one node per literal (a variable or a negated
variable) and places it wherever the literal occurs; nodes are immutable
and every method reads values, never identity, so the sharing cannot be
seen.  A formula built in code is flattened once, when first needed.
Equality, hashing, ``variables()``, ``to_text`` and ``repr`` read that
form, and the Bell route compiles it to a truth table; ``bell`` reads its
formula file with :func:`_read_formulas`, which gives the Bell route the
prefix forms alone, so it never builds a tree.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

from .core import IDENTIFIER, Context, Scenario
from .errors import NotMeasurable, PropositionSyntaxError, UnknownVariable


class Proposition:
    """Base class for formula nodes.

    Every method walks the formula on an explicit stack, so a chain of any
    length is handled without recursion.  ``==``, ``hash``,
    ``variables()``, ``to_text`` and ``repr`` read the prefix form
    :attr:`_items`, which is already in printing order.  A parsed formula's
    tree is built from the prefix form the parser wrote, and its root keeps
    that form and the variable set; a formula built in code flattens once,
    on first use.  ``evaluate`` walks the nodes
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
                value = item.value
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


class _Form:
    """A formula as the Bell route reads it: its prefix form ``_items`` and
    its variable set, read from the text with no node built.  Like a
    :class:`Proposition`, it gives its variables through ``variables()``."""

    __slots__ = ("_items", "_variables")

    def __init__(self, items: tuple[object, ...], variables: frozenset[str]):
        self._items = items
        self._variables = variables

    def variables(self) -> frozenset[str]:
        return self._variables


class _Parser:
    """Reads one formula's tokens into its prefix form and builds no node:
    the public parse functions build the tree from that form
    (:func:`_tree`), and ``bell`` compiles the form as it is.  Each
    literal's items are appended, and a chain's connectives go in front of
    its operands once the chain ends."""

    def __init__(self, text: str, line: int | None):
        self.values = _tokenize(text, line)
        self.text = text
        self.line = line
        self.at = 0
        self.depth = 0
        self.items: list[object] = []

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
        start = len(self.items)
        self.conjunction()
        operands = 1
        while self.values[self.at] == "|":
            self.at += 1
            self.conjunction()
            operands += 1
        if operands > 1:  # moves only this chain's items
            self.items[start:start] = [Or] * (operands - 1)

    def conjunction(self) -> None:
        start = len(self.items)
        self.literal()
        operands = 1
        while self.values[self.at] == "&":
            self.at += 1
            self.literal()
            operands += 1
        if operands > 1:
            self.items[start:start] = [And] * (operands - 1)

    def literal(self) -> None:
        values = self.values
        value = values[self.at]
        if value not in _SYMBOLS:  # a variable
            self.at += 1
            self.items += (Var, value)
            return
        # a negated variable; one that would pass the nesting limit goes
        # the long way below, which refuses it at its "!"
        name = values[self.at + 1] if value == "!" else ""
        if name not in _SYMBOLS and self.depth < MAX_NESTING:
            self.at += 2
            self.items += (Not, Var, name)
            return
        outer = self.depth
        while values[self.at] == "!":  # a chain of "!" is read in a loop
            self.nest()
        self.items += [Not] * (self.depth - outer)
        value = values[self.at]
        if value == "(":
            self.nest()
            self.formula()
            if values[self.at] != ")":
                raise self.fail("expected ')'")
        elif value == "0" or value == "1":
            self.items += (Const, value == "1")
        elif value not in _SYMBOLS:
            self.items += (Var, value)
        else:
            raise self.fail("expected a variable, constant, '!' or '('")
        self.at += 1
        self.depth = outer


def _read_formula(text: str, line: int | None) -> _Form:
    """One formula's prefix form and variable set, with every syntax check
    of :func:`parse_formula` and no node built."""
    parser = _Parser(text, line)
    parser.formula()
    if parser.values[parser.at]:
        raise parser.fail("expected end of input")
    # the whole input was read, so every identifier token is a variable
    return _Form(tuple(parser.items), frozenset(parser.values).difference(_SYMBOLS))


def _tree(form: _Form) -> Proposition:
    """The tree of a formula read by :func:`_read_formula`, built from its
    prefix form read backwards on a stack, as the truth-table compile reads
    it.  One node stands for each literal (a variable or a negated
    variable) wherever it occurs: nodes are immutable and compared by value,
    so a formula may hold the same leaf at many places.  The root gets the
    form's prefix form and variable set, the slots the cached properties
    would fill; it is a node of this formula alone, so no other formula
    reads them."""
    names: dict[str, Var] = {}
    negated: dict[str, Not] = {}
    values: list = []
    append, pop = values.append, values.pop
    items = reversed(form._items)
    for item in items:
        if item is And:
            append(And(pop(), pop()))
        elif item is Not:
            operand = values[-1]
            if type(operand) is Var:
                node = negated.get(operand.name)
                if node is None:
                    node = negated[operand.name] = Not(operand)
                values[-1] = node
            else:
                values[-1] = Not(operand)
        elif item is Or:
            append(Or(pop(), pop()))
        elif next(items) is Var:  # a field, read with its node's class
            node = names.get(item)
            if node is None:
                node = names[item] = Var(item)
            append(node)
        else:
            append(Const(item))
    (node,) = values
    node.__dict__["_items"] = form._items
    node.__dict__["_variables"] = form._variables
    return node


def parse_formula(text: str, line: int | None = None) -> Proposition:
    """Parse a formula with no scenario checks.  A formula nesting ``(`` and
    ``!`` more than :data:`MAX_NESTING` deep is refused."""
    return _tree(_read_formula(text, line))


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


def _read_formulas(text: str, scenario: Scenario) -> list[_Form]:
    """Each formula of a proposition file as its prefix form and variable
    set, building no node, with every check of :func:`parse_propositions`
    in the same order: what ``bell`` passes to the Bell route."""
    forms = []
    for lineno, raw in enumerate(_LINE_END_RE.split(text), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        form = _read_formula(raw, lineno)
        measurement_context(form, scenario)
        forms.append(form)
    return forms


def parse_propositions(text: str, scenario: Scenario) -> list[Proposition]:
    """Parse a proposition file: one formula per line, blank lines and
    ``#`` comment lines ignored.  Lines end only at a line feed, a carriage
    return, or the two in that order; other characters that
    ``str.splitlines`` breaks at, such as U+001C or U+0085, are whitespace
    inside a line.  Syntax errors carry the line number."""
    return [_tree(form) for form in _read_formulas(text, scenario)]
