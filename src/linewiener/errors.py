"""Exception types shared across the package.

Everything raised on bad input or exceeded limits derives from
LineWienerError so callers can catch domain failures in one clause while
letting programming errors propagate.
"""


class LineWienerError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(LineWienerError, ValueError):
    """A family or formula parameter is outside its documented range."""


class EmptyGraphError(LineWienerError, ValueError):
    """An operation that needs at least one vertex received an empty graph."""


class DisconnectedGraphError(LineWienerError, ValueError):
    """An operation defined only for connected graphs received a disconnected one."""


class NotATreeError(LineWienerError, ValueError):
    """An operation defined only for trees received a non-tree."""


class GraphFormatError(LineWienerError, ValueError):
    """Unparseable graph input. `offset` is the byte position of the problem."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class BudgetExceededError(LineWienerError, RuntimeError):
    """An iterated line graph would outgrow the vertex budget.

    `predicted` is the size the next application would reach, `budget` the
    configured limit.
    """

    def __init__(self, predicted: int, budget: int, step: int):
        super().__init__(
            f"line graph iteration {step} would need {predicted} vertices, "
            f"budget is {budget}"
        )
        self.predicted = predicted
        self.budget = budget
        self.step = step


class CrossCheckError(LineWienerError, ArithmeticError):
    """Two independent computations of one exact value disagree.

    Raised by the package's internal cross-checks, never by bad input: it
    means a fault in the code. A search also raises it when one of its
    worker processes dies before it reports, since that worker's trees
    went unchecked, and in place of any exception a worker raises, with
    the worker and that exception's repr as its text. Its constructor has
    no constraint: a worker sends back text alone, never an exception.
    """


class SearchLimitError(LineWienerError, ValueError):
    """An exhaustive search was requested above the configured order limit.

    The text asks for a higher limit, save where no caller can pass one.
    """

    def __init__(self, n: int, limit: int):
        super().__init__(
            f"exhaustive search at order {n} exceeds the limit {limit}; "
            f"pass a higher limit explicitly to run it"
        )
        self.n = n
        self.limit = limit
