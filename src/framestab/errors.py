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

    ``partial`` holds the generators found before the budget ran out; the
    group they generate is a lower bound only, never the full group. For a
    Z4-code they lie in the permutation image, and ``kernel_order`` is the
    order of the sign kernel, known in full. The searches that the stop
    passes through set both.
    """

    partial: list | None = None
    kernel_order: int | None = None


class NodeCounter:
    """The nodes of one search: tick counts one, reports progress every
    PROGRESS_INTERVAL nodes and raises BudgetExceeded past the budget."""

    def __init__(self, budget: int | None = None, progress=None):
        self.budget = budget if budget is not None else DEFAULT_BUDGET
        self.progress = progress
        self.count = 0

    def tick(self):
        self.count += 1
        if self.progress and self.count % PROGRESS_INTERVAL == 0:
            self.progress(self.count)
        if self.count > self.budget:
            raise BudgetExceeded(f"search exceeded {self.budget} nodes")
