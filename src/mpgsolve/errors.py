"""Exception types shared across the library.

Exit-code mapping used by the CLI: input problems (ValidationError,
ParseError, InvalidSpec, OverflowRisk) are exit 2, broken internal
invariants (InvariantViolation and friends) are exit 1, and exhausted
budgets (BudgetExceeded, TimeLimitExceeded) are exit 3.
"""


class GameError(Exception):
    """Base class for every error raised by this library."""


class ValidationError(GameError):
    """A game graph violates a structural invariant."""


class ZeroOutDegree(ValidationError):
    def __init__(self, vertex: int):
        super().__init__(f"vertex {vertex} has out-degree 0 (every vertex needs at least one edge)")
        self.vertex = vertex


class DanglingEdge(ValidationError):
    def __init__(self, edge):
        super().__init__(f"edge {edge} has an endpoint outside the vertex range")
        self.edge = edge


class InvalidStrategy(GameError):
    """A positional strategy is not total on its player's vertices or picks a non-successor."""


class EmptyKeepSet(GameError):
    """induced_subgame() was asked for the empty vertex set."""


class OverflowRisk(GameError):
    """Path-weight accumulations would exceed the supported 64-bit envelope."""


class PositiveTransformedEdge(GameError):
    """A relaxed edge had positive weight under the potential transformation.

    No solve raises it, only evaluate_strategy on a ``d_prev`` breaking (ii).
    """


class PreconditionViolated(GameError):
    """Strategy evaluation was entered with condition (i) or (ii) violated."""

    def __init__(self, which: str, detail: str = ""):
        super().__init__(f"evaluation entry condition ({which}) violated{': ' + detail if detail else ''}")
        self.which = which


class InvariantViolation(GameError):
    """A run-time invariant (monotone descent, iteration budget, ...) broke."""


class BudgetExceeded(GameError):
    def __init__(self, needed: int, budget: int, what: str = "states"):
        super().__init__(f"needs {needed} {what}, budget is {budget}")
        self.needed = needed
        self.budget = budget


class TimeLimitExceeded(GameError):
    """A solver ran past its wall-clock limit."""


class WitnessIncomplete(GameError):
    """Some adversary behavior survived witness verification (an implementation bug)."""


class ParseError(GameError):
    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


class InvalidSpec(GameError):
    """An input parameter (a bound, a generator spec field, a flag) is out of
    range or inconsistent."""
