import re
import sys
from dataclasses import dataclass, fields
from functools import reduce
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from choicectx import (
    And,
    Const,
    Not,
    NotMeasurable,
    Or,
    Proposition,
    PropositionSyntaxError,
    UnknownVariable,
    Var,
    bell_scenario,
    gen_random_model,
    measurement_context,
    parse_formula,
    parse_proposition,
    parse_propositions,
    support_propositions,
)
from choicectx import core
from choicectx.core import DEADLINE_STRIDE, IDENTIFIER, VARIABLES_LIMIT, VARIABLE_RE, Scenario
from choicectx.errors import ChoiceCtxError, TimeBudgetExceeded
from choicectx.proplang import (
    MAX_NESTING,
    _compile,
    _read_tables,
    _tokenize,
    _TableParser,
)


# what each bad formula of ``test_syntax_errors_carry_position`` is refused with
SYNTAX_ERRORS = {
    "a $ b": "unexpected character '$'",
    "": "expected a variable, constant, '!' or '(', found end of input",
    "a &": "expected a variable, constant, '!' or '(', found end of input",
    "(a": "expected ')', found end of input",
    "a b": "expected end of input, found 'b'",
    "& a": "expected a variable, constant, '!' or '(', found '&'",
    # a token ends where its characters end, so "2" and "'" stand alone
    "12": "unexpected character '2'",
    "'a": "unexpected character \"'\"",
    "\u00e9": "unexpected character '\u00e9'",
    # U+00A0 and U+001C are whitespace, skipped as a space is
    "a\u00a0$": "unexpected character '$'",
    "a\x1cb": "expected end of input, found 'b'",
    "ab' | c2 $": "unexpected character '$'",
}


class TestParsing:
    @pytest.mark.parametrize(
        "text, expected",
        [
            ("a", Var("a")),
            ("a'", Var("a'")),
            ("1", Const(True)),
            ("0", Const(False)),
            ("!a", Not(Var("a"))),
            ("!!a", Not(Not(Var("a")))),
            ("a & b", And(Var("a"), Var("b"))),
            ("a | b", Or(Var("a"), Var("b"))),
            # precedence: ! binds tighter than &, & tighter than |
            ("!a & b", And(Not(Var("a")), Var("b"))),
            ("a | b & c", Or(Var("a"), And(Var("b"), Var("c")))),
            ("(a | b) & c", And(Or(Var("a"), Var("b")), Var("c"))),
            ("!(a | b)", Not(Or(Var("a"), Var("b")))),
            # left associativity
            ("a & b & c", And(And(Var("a"), Var("b")), Var("c"))),
            ("a | b | c", Or(Or(Var("a"), Var("b")), Var("c"))),
            # negation of a parenthesised leaf, of a constant, and a literal
            # repeated within one formula
            ("!(a)", Not(Var("a"))),
            ("!0", Not(Const(False))),
            ("a & !b & !b", And(And(Var("a"), Not(Var("b"))), Not(Var("b")))),
        ],
    )
    def test_grammar(self, text, expected):
        assert parse_formula(text) == expected

    def test_whitespace_is_free(self):
        assert parse_formula("  a&b ") == parse_formula("a & b")

    @given(st.from_regex(VARIABLE_RE, fullmatch=True))
    def test_every_variable_name_parses_as_a_variable(self, name):
        # a model's names and the formula tokenizer's identifiers are one syntax
        assert VARIABLE_RE.match(name)
        assert parse_formula(name) == Var(name)

    @pytest.mark.parametrize(
        "text, position",
        [
            ("a $ b", 2),
            ("", 0),
            ("a &", 3),
            ("(a", 2),
            ("a b", 2),
            ("& a", 0),
            ("12", 1),
            ("'a", 0),
            ("\u00e9", 0),
            ("a\u00a0$", 2),
            ("a\x1cb", 2),
            ("ab' | c2 $", 9),
        ],
    )
    def test_syntax_errors_carry_position(self, text, position):
        with pytest.raises(PropositionSyntaxError) as err:
            parse_formula(text)
        assert err.value.position == position
        assert str(err.value) == f"{SYNTAX_ERRORS[text]} (position {position})"

    def test_error_carries_line(self):
        with pytest.raises(PropositionSyntaxError) as err:
            parse_formula("a &", line=7)
        assert err.value.line == 7


REFERENCE_TOKEN_RE = re.compile(IDENTIFIER + "|[01!&|()]")


def reference_tokens(text):
    """The tokens of ``text`` by one regular expression, or the position of
    its first character that is neither whitespace nor in a token."""
    values = REFERENCE_TOKEN_RE.findall(text)
    blanked = REFERENCE_TOKEN_RE.sub(lambda token: " " * len(token[0]), text)
    if blanked.strip():
        return len(blanked) - len(blanked.lstrip())
    return values + [""]


class TestTokenizer:
    # identifier characters, the digits that split off a constant, stray
    # characters and whitespace the tokenizer skips
    @settings(max_examples=500, deadline=None)
    @given(st.text("ab'_019!&|() \t\u00a0\x1c\u2003$\u00e9", max_size=30))
    def test_tokens_match_the_regular_expression(self, text):
        expected = reference_tokens(text)
        if isinstance(expected, int):
            with pytest.raises(PropositionSyntaxError) as err:
                _tokenize(text, None)
            assert err.value.position == expected
        else:
            assert _tokenize(text, None) == expected


class TestEvaluation:
    def test_truth_table(self):
        phi = parse_formula("(a & b) | (!a & !b)")
        cases = {
            (0, 0): True,
            (0, 1): False,
            (1, 0): False,
            (1, 1): True,
        }
        for (a, b), expected in cases.items():
            assert phi.evaluate({"a": a, "b": b}) is expected

    def test_constants(self):
        assert Const(True).evaluate({})
        assert not Const(False).evaluate({})
        # a constant built in code with a value that is not a bool gives its truth
        assert Const(1).evaluate({}) is True
        assert Const(0).evaluate({}) is False
        assert (Var("a") & Const("x")).evaluate({"a": 1}) is True
        assert (Var("a") | Const("")).evaluate({"a": 0}) is False

    def test_connectives_short_circuit(self):
        # once the left operand decides, the right one is never read
        assert (Var("a") | Var("b")).evaluate({"a": 1}) is True
        assert (Const(False) & Var("z")).evaluate({}) is False
        assert (~Var("a") & (Var("b") | Var("c"))).evaluate({"a": 1}) is False
        assert (Var("a") | Var("b") & Var("c")).evaluate({"a": 0, "b": 0}) is False
        with pytest.raises(KeyError):
            (Var("a") | Var("b")).evaluate({"a": 0})

    def test_variables(self):
        phi = parse_formula("a & (b | !a')")
        assert phi.variables() == {"a", "b", "a'"}

    def test_operator_builders(self):
        phi = (Var("a") & Var("b")) | ~Var("c")
        assert phi == Or(And(Var("a"), Var("b")), Not(Var("c")))


formulas = st.recursive(
    st.sampled_from([Var("a"), Var("b"), Var("a'"), Const(True), Const(False)]),
    lambda sub: st.one_of(
        sub.map(Not),
        st.tuples(sub, sub).map(lambda pair: And(*pair)),
        st.tuples(sub, sub).map(lambda pair: Or(*pair)),
    ),
    max_leaves=12,
)


class TestRendering:
    @given(formulas)
    def test_to_text_roundtrips_semantically(self, phi):
        again = parse_formula(phi.to_text())
        for code in range(8):
            binding = {
                "a": code & 1,
                "b": (code >> 1) & 1,
                "a'": (code >> 2) & 1,
            }
            assert phi.evaluate(binding) == again.evaluate(binding)

    def test_minimal_parens(self):
        assert parse_formula("a & (b | c)").to_text() == "a & (b | c)"
        assert parse_formula("a & b | c").to_text() == "a & b | c"
        assert parse_formula("!(a & b)").to_text() == "!(a & b)"


class TestLongFormulas:
    """Every formula method walks a chain of thousands of nodes without
    recursion, and gives on small formulas what a field-by-field dataclass
    gives."""

    def test_methods_on_a_2057_disjunct_support_formula(self):
        model = gen_random_model(18, 8, 0.5, seed=3)
        context = model.scenario.cover[-1]
        events = model.events_sorted(context)
        assert len(events) == 2057
        phi = support_propositions(model)[-1]
        copy = support_propositions(model)[-1]

        inside = {v: int(v in events[0]) for v in context}
        outside = next(
            binding
            for binding in ({v: int(v == w) for v in context} for w in context)
            if frozenset(v for v in context if binding[v]) not in events
        )
        assert phi.evaluate(inside) is True
        assert phi.evaluate(outside) is False
        text = phi.to_text()
        assert text.count(" | ") == 2056
        assert parse_formula(text) == phi
        assert parse_formula(text).variables() == frozenset(context)
        assert copy is not phi and copy == phi
        assert hash(copy) == hash(phi)
        assert phi != Or(phi.left, Not(phi.right))
        assert repr(phi).startswith("Or(left=Or(left=Or(left=")
        assert repr(phi).count("Var(name=") == 2057 * len(context)
        assert phi.variables() == frozenset(context)

    def test_small_formulas(self):
        phi = And(Not(Var("a")), Or(Const(True), Var("b")))
        assert repr(phi) == (
            "And(left=Not(operand=Var(name='a')), "
            "right=Or(left=Const(value=True), right=Var(name='b')))"
        )
        assert phi.to_text() == "!a & (1 | b)"
        same = And(Not(Var("a")), Or(Const(True), Var("b")))
        assert phi == same and hash(phi) == hash(same)
        assert phi != And(Not(Var("a")), Or(Var("b"), Const(True)))
        assert phi != Or(Not(Var("a")), Or(Const(True), Var("b")))
        assert Var("a") != "a"
        assert {Var("a"), Var("a"), Var("b")} == {Var("a"), Var("b")}


class TestSharedLeaves:
    """The parser builds one node per literal of a formula and places it
    wherever the literal occurs; nodes are immutable and compared by value,
    so the formula behaves as one built with a fresh leaf at each place."""

    TERMS = [["a", "!b", "c"], ["!a", "!b", "c"], ["a", "b", "!c"], ["!a", "!b", "!c"]]

    @staticmethod
    def fresh(literal):
        return Not(Var(literal[1:])) if literal.startswith("!") else Var(literal)

    def test_repeated_literals_behave_as_fresh_leaves(self):
        text = " | ".join(" & ".join(term) for term in self.TERMS)
        parsed = parse_formula(text)
        built = reduce(Or, [reduce(And, map(self.fresh, term)) for term in self.TERMS])
        first, second = parsed.left.left.left, parsed.left.left.right
        assert first.left.right is second.left.right  # the one "!b"
        assert first.right is second.right  # the one "c"
        assert first.left.left is second.left.left.operand  # the one "a"
        assert parsed == built and hash(parsed) == hash(built)
        assert repr(parsed) == repr(built)
        assert parsed.to_text() == built.to_text() == text
        assert parsed.variables() == built.variables() == {"a", "b", "c"}
        for bits in product((0, 1), repeat=3):
            binding = dict(zip("abc", bits))
            assert parsed.evaluate(binding) is built.evaluate(binding)


def reference_form(value):
    """A node's class and its fields, each field that is a formula in turn
    replaced by its own form: the dataclass view, built recursively."""
    if isinstance(value, Proposition):
        return (type(value), *[reference_form(getattr(value, f.name)) for f in fields(value)])
    return value


def reference_variables(value):
    if type(value) is Var:
        return {value.name}
    if isinstance(value, Proposition):
        return set().union(*[reference_variables(getattr(value, f.name)) for f in fields(value)])
    return set()


def reference_repr(value):
    """The ``repr`` a dataclass with its default ``repr`` would give."""
    if isinstance(value, Proposition):
        inner = ", ".join(
            f"{f.name}={reference_repr(getattr(value, f.name))}" for f in fields(value)
        )
        return f"{type(value).__qualname__}({inner})"
    return repr(value)


# how tightly each connective binds; an operand binding looser than its
# place needs is parenthesized
BINDS = {Or: 0, And: 1, Not: 2}


def reference_text(value, place=0):
    """``to_text`` by recursion, with only the parentheses precedence needs."""
    kind = type(value)
    operands = [getattr(value, f.name) for f in fields(value)]
    if kind is Var:
        return operands[0]
    if kind is Const:
        return "1" if operands[0] else "0"
    texts = [reference_text(operand, BINDS[kind]) for operand in operands]
    text = "!" + texts[0] if kind is Not else (" & " if kind is And else " | ").join(texts)
    return f"({text})" if BINDS[kind] < place else text


def rebuilt(value):
    """A copy of the formula sharing no node with it."""
    if isinstance(value, Proposition):
        return type(value)(*[rebuilt(getattr(value, f.name)) for f in fields(value)])
    return value


# leaves built in code with fields the parser never gives: an int or a name
# as a constant, and variables named like constants or node classes
odd_formulas = st.recursive(
    st.sampled_from(
        [
            Var("a"),
            Var("b"),
            Var("1"),
            Var("Const"),
            Const(True),
            Const(False),
            Const(1),
            Const(0),
            Const("a"),
            Const("1"),
        ]
    ),
    lambda sub: st.one_of(
        sub.map(Not),
        st.tuples(sub, sub).map(lambda pair: And(*pair)),
        st.tuples(sub, sub).map(lambda pair: Or(*pair)),
    ),
    max_leaves=6,
)


class TestPrefixForm:
    """``==``, ``hash``, ``variables()``, ``repr`` and ``to_text`` read the
    cached prefix form; a recursive walk of the dataclass fields is the
    reference."""

    @settings(max_examples=400)
    @given(odd_formulas, odd_formulas, st.booleans())
    def test_matches_the_recursive_reference(self, phi, other, copy):
        if copy:
            other = rebuilt(phi)
        same = reference_form(phi) == reference_form(other)
        assert (phi == other) is same
        assert (phi != other) is not same
        if same:
            assert hash(phi) == hash(other)
        assert phi.variables() == reference_variables(phi)
        assert other.variables() == reference_variables(other)
        assert repr(phi) == reference_repr(phi)
        assert phi.to_text() == reference_text(phi)

    def test_node_types_are_kept(self):
        assert Not(Const("a")) != Not(Var("a"))
        assert Const("a").variables() == frozenset()
        assert Var("1") != Const(1) and Var("1") != Const("1")
        assert Const(1) == Const(True) and hash(Const(1)) == hash(Const(True))
        assert And(Var("a"), Const("b")).variables() == {"a"}


def flat(form):
    """A nested reference form written out as one prefix tuple."""
    items, todo = [], [form]
    while todo:
        item = todo.pop()
        if isinstance(item, tuple):
            todo += reversed(item)
        else:
            items.append(item)
    return tuple(items)


# texts in the grammar: literals repeated so the parser shares their
# leaves, "!!" chains, constants and parenthesized groups, joined into
# chains that precedence may regroup
grammar_texts = st.recursive(
    st.sampled_from(["a", "b", "a'", "c_1", "0", "1", "!a", "!b"]),
    lambda sub: st.one_of(
        st.tuples(st.integers(1, 3), sub).map(lambda pair: "!" * pair[0] + pair[1]),
        sub.map(lambda text: f"({text})"),
        st.lists(sub, min_size=2, max_size=5).map(" & ".join),
        st.lists(sub, min_size=2, max_size=5).map(" | ".join),
    ),
    max_leaves=24,
)

# a literal or short chain under exactly MAX_NESTING levels of "(" and "!"
deep_texts = st.tuples(
    st.lists(st.sampled_from(["(", "!"]), min_size=MAX_NESTING, max_size=MAX_NESTING),
    st.sampled_from(["a", "0", "a & b | a"]),
).map(lambda pair: "".join(pair[0]) + pair[1] + ")" * pair[0].count("("))

# roots that are one of the parser's shared leaves
leaf_texts = st.sampled_from(["a", "!a", "(a)", "((!a))", " a' "])


# whitespace a formula may hold between tokens: U+00A0, U+001C and U+2003
# are whitespace to the tokenizer as a space is
spacing = st.sampled_from(["", " ", "  ", "\t", "\u00a0", "\x1c", "\u2003"])


# texts in the grammar with odd whitespace around every token: parentheses,
# the constants, "!" chains and chains of up to 60 operands
spaced_texts = st.recursive(
    st.tuples(spacing, st.sampled_from(["a", "b", "a'", "c_1", "0", "1"]), spacing).map(
        "".join
    ),
    lambda sub: st.one_of(
        st.tuples(st.integers(1, 4), spacing, sub).map(
            lambda triple: "!" * triple[0] + triple[1] + triple[2]
        ),
        st.tuples(spacing, sub, spacing).map(lambda triple: "(%s%s)%s" % triple),
        st.tuples(st.sampled_from(["&", "|"]), st.lists(sub, min_size=2, max_size=60)).map(
            lambda pair: pair[0].join(pair[1])
        ),
    ),
    max_leaves=120,
)


class TestParsedPrefixForm:
    """The parser builds each formula's tree and gives its root the
    variables of its tokens; the tree's prefix form and variables must be
    what the recursive reference walk gives, and the formula must behave as
    a copy that shares no node with it."""

    @staticmethod
    def check(parsed):
        assert parsed._items == flat(reference_form(parsed))
        assert parsed.variables() == reference_variables(parsed)
        copy = rebuilt(parsed)
        assert "_items" not in copy.__dict__
        assert parsed._items == copy._items  # each flattened from its own nodes
        assert parsed == copy and hash(parsed) == hash(copy)
        assert parsed.variables() == copy.variables()
        assert repr(parsed) == repr(copy)
        assert parsed.to_text() == copy.to_text()

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(spaced_texts, grammar_texts, deep_texts, leaf_texts))
    def test_matches_the_reference_walk(self, text):
        self.check(parse_formula(text))

    def test_2057_disjunct_support_formula(self):
        # the reference walks recurse once per disjunct
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(20_000)
        try:
            phi = support_propositions(gen_random_model(18, 8, 0.5, seed=3))[-1]
            parsed = parse_formula(phi.to_text())
            assert parsed.to_text().count(" | ") == 2056
            self.check(parsed)
            assert parsed._items == phi._items
        finally:
            sys.setrecursionlimit(limit)


# a scenario over the drawn names in which some pairs fit no context
READER_SCENARIO = Scenario.make(["a", "b", "a'", "c_1"], [["a", "b"], ["a'", "b"], ["c_1"]])


def edited_file(data):
    """A formula file of drawn lines, some of them then broken: a character
    outside the grammar, an undeclared name, a cut, or nesting past the
    limit."""
    line = st.one_of(spaced_texts, st.just("# a comment"), st.just(""))
    lines = data.draw(st.lists(line, min_size=1, max_size=5))
    for _ in range(data.draw(st.integers(0, 2))):
        i = data.draw(st.integers(0, len(lines) - 1))
        edit = data.draw(st.sampled_from(["character", "unknown", "cut", "nest"]))
        at = data.draw(st.integers(0, len(lines[i])))
        if edit in ("character", "unknown"):
            noise = " ghost " if edit == "unknown" else data.draw(st.sampled_from("$2'\u00e9"))
            lines[i] = lines[i][:at] + noise + lines[i][at:]
        elif edit == "cut":
            lines[i] = lines[i][:at]
        else:
            lines[i] = "!(" * MAX_NESTING + lines[i] + ")" * MAX_NESTING
    return data.draw(st.sampled_from(["\n", "\r\n", "\r"])).join(lines)


class TestPrefixReader:
    """The parser builds each formula's tree; the prefix form and variable
    set its root gives must be what the recursive reference walk and a
    fresh flattening give."""

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(spaced_texts, grammar_texts, deep_texts, leaf_texts))
    def test_forms_match_the_trees(self, text):
        tree = parse_formula(text)
        assert tree._items == flat(reference_form(tree))
        assert tree._items == rebuilt(tree)._items  # flattened from the nodes
        assert tree.variables() == rebuilt(tree).variables() == reference_variables(tree)


def check_against_library(text, bound, deadline):
    """``_read_tables`` gives the tables that the library route,
    ``parse_propositions`` then ``_compile``, gives for a formula file over
    ``READER_SCENARIO``, or raises what that route raises: the same type,
    message, position and line."""
    try:
        props = parse_propositions(text, READER_SCENARIO)
        tables = _compile(props, READER_SCENARIO, bound, deadline)
    except ChoiceCtxError as want:
        with pytest.raises(type(want)) as err:
            _read_tables(text, READER_SCENARIO, bound, deadline)
        assert str(err.value) == str(want)
        assert getattr(err.value, "position", None) == getattr(want, "position", None)
        assert getattr(err.value, "line", None) == getattr(want, "line", None)
        return
    assert _read_tables(text, READER_SCENARIO, bound, deadline) == tables


class TestTableReader:
    """``bell`` parses each formula straight to its truth table, in one pass
    over the file.  On a file the library route accepts, it must give the
    tables the prefix forms compile to; on any other, it must raise what the
    library route raises, with the same message, position and line."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_tables_match_the_prefix_compile(self, data):
        text = edited_file(data)
        check_against_library(text, 24, None)
        check_against_library(text, 3, None)  # under the scenario's four variables

    @staticmethod
    def clock_marks(text):
        """The token before which each clock read falls, parsing ``text`` to
        its table with a deadline that never passes."""
        marks = []
        tick = _TableParser.tick

        def recorded(parser):
            marks.append(parser.at)
            tick(parser)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_TableParser, "tick", recorded)
            (table,) = _read_tables(text, READER_SCENARIO, 24, float("inf"))
        return marks

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.one_of(deep_texts, st.sampled_from(["a", "!b", "(a | !b)"])),
            min_size=1,
            max_size=40,
        ),
        st.sampled_from([" & ", " | "]),
    )
    # 102 tokens from each literal to the next, so a read due at the 1,024th
    # token falls at the 1,122nd unless it is taken early
    @example(["!" * MAX_NESTING + "a"] * 12, " | ")
    def test_clock_read_every_stride_of_tokens(self, pieces, joint):
        # chains of literals nested MAX_NESTING deep, the most tokens that
        # may lie between two literals
        text = joint.join(pieces)
        tokens = len(_tokenize(text, None)) - 1
        marks = self.clock_marks(text)
        assert marks[0] == 0
        assert all(0 < b - a <= DEADLINE_STRIDE for a, b in zip(marks, marks[1:]))
        assert tokens - marks[-1] <= DEADLINE_STRIDE

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_expired_deadline_gives_up(self, data):
        check_against_library(edited_file(data), 24, 0.0)
        with pytest.raises(TimeBudgetExceeded):
            _read_tables("a & b\n", READER_SCENARIO, 24, 0.0)


class TestScenarioChecks:
    def test_measurement_context_picks_first(self):
        s = bell_scenario()
        assert measurement_context(parse_formula("a & b"), s) == ("a", "b")
        assert measurement_context(parse_formula("b'"), s) == ("a", "b'")
        # constants fit in every context, so the canonically first wins
        assert measurement_context(Const(True), s) == ("a", "b")

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariable):
            parse_proposition("a & ghost", bell_scenario())

    def test_not_measurable(self):
        with pytest.raises(NotMeasurable):
            parse_proposition("a & a'", bell_scenario())

    def test_parse_proposition_accepts_measurable(self):
        phi = parse_proposition("a & !b", bell_scenario())
        assert phi == And(Var("a"), Not(Var("b")))

    @staticmethod
    def reference_context(used, scenario):
        """The measurement context by sets, as it was first defined."""
        declared = set(scenario.variables)
        for name in sorted(used):
            if name not in declared:
                raise UnknownVariable(f"unknown variable {name!r}")
        contexts = [c for c in scenario.cover if set(used) <= set(c)]
        if not contexts:
            raise NotMeasurable(f"variables {sorted(used)} fit inside no cover context")
        return contexts[0]

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.sampled_from(["a", "b", "c", "d", "e"]), max_size=5),
        st.lists(st.lists(st.sampled_from(["a", "b", "c", "d", "e", "ghost"]), max_size=4)),
        st.lists(st.sampled_from(["a", "b", "c", "d", "e", "ghost", "zz"]), max_size=4),
    )
    def test_matches_the_set_definition(self, variables, contexts, used):
        # the cover may name a variable the scenario does not declare, and
        # the formula may too: then the sorted-first one is named
        scenario = Scenario.make(variables, contexts)
        prop = reduce(And, [Var(v) for v in used], Const(True))
        try:
            expected = self.reference_context(frozenset(used), scenario)
        except ChoiceCtxError as exc:
            with pytest.raises(type(exc)) as err:
                measurement_context(prop, scenario)
            assert str(err.value) == str(exc)
        else:
            assert measurement_context(prop, scenario) == expected

    def test_scenario_over_the_variables_limit(self):
        # too many variables for a layout: the context is still found
        names = [f"v{i:05d}" for i in range(VARIABLES_LIMIT + 1)]
        scenario = Scenario.make(names, [names[:1], names[1:3]])
        assert measurement_context(parse_formula("v00002"), scenario) == ("v00001", "v00002")
        with pytest.raises(NotMeasurable):
            measurement_context(parse_formula("v00000 & v00001"), scenario)


class TestPropositionFiles:
    def test_lines_comments_blanks(self):
        text = "# correlations\n\na & b\n\n!a' | b\n"
        props = parse_propositions(text, bell_scenario())
        assert props == [
            And(Var("a"), Var("b")),
            Or(Not(Var("a'")), Var("b")),
        ]

    def test_errors_carry_line_numbers(self):
        with pytest.raises(PropositionSyntaxError) as err:
            parse_propositions("a & b\na &\n", bell_scenario())
        assert err.value.line == 2

    def test_semantic_errors_surface(self):
        with pytest.raises(NotMeasurable):
            parse_propositions("a & b\nb & b'\n", bell_scenario())

    @pytest.mark.parametrize(
        "text, message",
        [
            ("a\x1cb\n", "expected end of input, found 'b' (line 1, position 2)"),
            ("a\x85&\nb &\n", "found end of input (line 1, position 3)"),
            ("a\u2028b\n", "expected end of input, found 'b' (line 1, position 2)"),
        ],
    )
    def test_only_newlines_end_lines(self, text, message):
        # str.splitlines would also break at these characters, splitting
        # one line of the file in two
        with pytest.raises(PropositionSyntaxError) as err:
            parse_propositions(text, bell_scenario())
        assert str(err.value).endswith(message)

    @pytest.mark.parametrize("text", ["a\rb\n", "a\r\nb\r\n", "a\nb"])
    def test_newline_conventions(self, text):
        assert parse_propositions(text, bell_scenario()) == [Var("a"), Var("b")]


class TestNesting:
    @pytest.mark.parametrize(
        "text",
        [
            "(" * 3000 + "a" + ")" * 3000,
            "!" * 3000 + "a",
            "!(" * 1500 + "a" + ")" * 1500,
            "!" * (MAX_NESTING + 1) + "a",
            "(" * MAX_NESTING + "!a" + ")" * MAX_NESTING,
        ],
        ids=["parentheses", "negations", "mixed", "negated-variable", "negation-inside"],
    )
    def test_deep_nesting_is_a_syntax_error(self, text):
        with pytest.raises(PropositionSyntaxError) as err:
            parse_formula(text, line=4)
        # the token that passes the limit is the (MAX_NESTING + 1)-th opener
        assert err.value.position == MAX_NESTING
        assert err.value.line == 4
        assert str(err.value) == (
            f"formula nests deeper than {MAX_NESTING} levels (line 4, position {MAX_NESTING})"
        )

    def test_nesting_at_the_limit_parses(self):
        half = MAX_NESTING // 2
        rest = MAX_NESTING - half
        deep = "!" * half + "(" * rest + "a" + ")" * rest
        node = parse_formula(deep)
        for _ in range(half):
            node = node.operand
        assert node == Var("a")
        assert parse_formula("(" * MAX_NESTING + "a" + ")" * MAX_NESTING) == Var("a")
        assert parse_formula("!" * MAX_NESTING + "a") == reduce(
            lambda node, _: Not(node), range(MAX_NESTING), Var("a")
        )

    def test_siblings_do_not_add_up(self):
        text = " & ".join(["(" * MAX_NESTING + "a" + ")" * MAX_NESTING] * 3)
        assert parse_formula(text).variables() == {"a"}

    def test_long_chains_are_not_nesting(self):
        names = [f"v{i}" for i in range(5000)]
        text = " | ".join(f"{v} & !{v}" for v in names)
        assert parse_formula(text).variables() == frozenset(names)

    def test_unexpected_character_after_a_deep_prefix(self):
        with pytest.raises(PropositionSyntaxError) as err:
            parse_formula("!" * MAX_NESTING + "a\n$")
        assert err.value.position == MAX_NESTING + 2
        assert "unexpected character '$'" in str(err.value)


class TestUnknownNodeClass:
    def test_evaluate_and_to_text_refuse_it(self):
        @dataclass(frozen=True, eq=False, repr=False)
        class Xor(Proposition):
            left: Proposition
            right: Proposition

        phi = Xor(Var("a"), Not(Var("b")))
        assert phi.variables() == {"a", "b"}
        with pytest.raises(TypeError, match="cannot evaluate a .*Xor node"):
            phi.evaluate({"a": 1, "b": 0})
        with pytest.raises(TypeError, match="cannot evaluate a .*Xor node"):
            (Var("a") & phi).evaluate({"a": 1, "b": 0})
        with pytest.raises(TypeError, match="cannot print a .*Xor node"):
            phi.to_text()
        # an operand the result does not depend on is never read
        assert (Var("a") | phi).evaluate({"a": 1}) is True
