"""Shared exception types."""

from __future__ import annotations


class FramestabError(Exception):
    """Base class for library errors."""


class ParseError(FramestabError):
    """Malformed matrix text. Carries a 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class EnumerationLimit(FramestabError):
    """An exact computation would require enumerating more objects than the cap allows."""


# Node budget of a backtracking search when the caller sets none.
DEFAULT_BUDGET = 10**8

# A backtracking search calls its progress callback every this many nodes.
PROGRESS_INTERVAL = 100_000


class BudgetExceeded(FramestabError):
    """A backtracking search ran out of its node budget.

    ``partial`` holds whatever group was generated by the automorphisms found
    before the budget ran out; it is a lower bound only, never the full group.
    For a Z4-code, ``partial`` is part of the permutation image and
    ``kernel_order`` the order of the sign kernel, known in full.
    """

    def __init__(self, message: str, partial=None, kernel_order: int | None = None):
        super().__init__(message)
        self.partial = partial
        self.kernel_order = kernel_order
