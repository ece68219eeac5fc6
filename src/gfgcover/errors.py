"""Shared exception types and the search budget."""

from typing import Optional

from .words import check_int


class BudgetExceededError(RuntimeError):
    """A bounded search hit its cap before exhausting the space."""


class Budget:
    """The node budget all searches of one run draw from (``cap`` None:
    unbounded).  Past the cap, ``tick`` and ``check`` raise for good."""

    def __init__(self, cap: Optional[int] = None):
        check_int(cap, "cap")
        if cap is not None and cap < 1:
            raise ValueError("node budget must be at least 1, got %d" % cap)
        self.cap, self.nodes = cap, 0

    def check(self) -> None:
        if self.cap is not None and self.nodes > self.cap:
            raise BudgetExceededError("search budget exceeded (%d nodes)" % self.cap)

    def tick(self) -> None:
        self.nodes += 1
        self.check()
