"""Exception types shared across the package."""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Collection


class ChoiceCtxError(Exception):
    """Base class for all errors raised by this package."""


class UnboundVariable(ChoiceCtxError):
    """A restriction asked for a variable outside the assignment's domain."""


class UnknownContext(ChoiceCtxError):
    """A context was referenced that is not part of the scenario's cover."""


class VariableNotInContext(ChoiceCtxError):
    """A variable was queried against a context that does not contain it."""


class DomainMismatch(ChoiceCtxError):
    """An assignment's domain does not match the expected variable set."""


class TooLarge(ChoiceCtxError):
    """An input would exceed a bound: the configured variable bound,
    ``core.TABLE_ROWS_LIMIT`` on table rows or on the global sections a
    search lists, or ``core.VARIABLES_LIMIT`` on the variables a scenario
    lays out.  ``core.SCAN_ROWS_LIMIT`` raises nothing: over it, the
    section search takes the level-wise search."""


class TimeBudgetExceeded(ChoiceCtxError):
    """A cooperative search ran past its wall-clock deadline.

    Every budgeted loop reads the clock before each run of at most
    ``core.DEADLINE_STRIDE`` units of its work, so expiry is seen within one
    run.  ``partial_sections`` holds the sections found before expiry,
    ``partial_codes`` sorted and decoded by ``decode`` on first access;
    ``partial_count`` is their number, read without decoding (from the
    witness pass on the scan's bitset, without even listing them).  The Bell
    route counts no sections, so from it both are empty and the CLI reports
    no count.  The result is inconclusive, not a verdict.
    """

    def __init__(
        self,
        message: str = "time budget exceeded",
        partial_codes: Collection[int] = (),
        decode: Callable[[int], object] | None = None,
    ):
        super().__init__(message)
        self.partial_codes = partial_codes
        self._decode = decode

    @property
    def partial_count(self) -> int:
        return len(self.partial_codes)

    @cached_property
    def partial_sections(self) -> tuple:
        return tuple(map(self._decode, sorted(self.partial_codes)))


class ModelSyntaxError(ChoiceCtxError):
    """A model document is not syntactically valid JSON."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        loc = f" (line {line}, column {column})" if line is not None else ""
        super().__init__(message + loc)
        self.line = line
        self.column = column


class ModelSemanticError(ChoiceCtxError):
    """A model document is well-formed JSON but violates the format rules."""

    def __init__(self, message: str, path: str = "$"):
        super().__init__(f"{path}: {message}")
        self.path = path


class PropositionSyntaxError(ChoiceCtxError):
    """A formula does not conform to the proposition grammar."""

    def __init__(self, message: str, position: int, line: int | None = None):
        where = f"line {line}, " if line is not None else ""
        super().__init__(f"{message} ({where}position {position})")
        self.position = position
        self.line = line


class UnknownVariable(ChoiceCtxError):
    """A formula, event or context names a variable the scenario does not
    declare."""


class NotMeasurable(ChoiceCtxError):
    """A formula's variables do not fit inside any single cover context."""


class NotContradictory(ChoiceCtxError):
    """The inequality was invoked on formulas that are jointly satisfiable."""
