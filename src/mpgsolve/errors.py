"""Exception types shared across the library.

Exit-code mapping used by the CLI: input problems (ValidationError,
ParseError, InvalidSpec, OverflowRisk) are exit 2, exhausted budgets
(BudgetExceeded, TimeLimitExceeded) are exit 3, and every other GameError
is a broken internal invariant, exit 1: the CLI never passes a strategy or
an evaluation's entry values of its own (InvalidStrategy,
PreconditionViolated), so only a bug raises one there.
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


class OverflowRisk(GameError):
    """Path-weight accumulations would exceed the supported 64-bit envelope."""


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


class WitnessIncomplete(InvariantViolation):
    """Some adversary behavior survived witness verification (an implementation bug)."""


class ParseError(GameError):
    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


class InvalidSpec(GameError):
    """An input parameter (a bound, a generator spec field, a flag) is out of
    range or inconsistent."""
