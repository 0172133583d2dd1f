"""Exception types shared across the package."""


class LzlError(Exception):
    """Base class for package errors."""


class UsageError(LzlError):
    """A command-line value is malformed."""


class GraphParseError(LzlError):
    """Malformed graph file. Carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class GraphValidationError(LzlError):
    """Structurally valid input describing an unacceptable graph."""


class SizeCapError(LzlError):
    """Instance exceeds the size cap of the engine it was given to."""

    def __init__(self, what: str, size: int, limit: int):
        self.size = size
        self.limit = limit
        super().__init__(f"{what}: size {size} exceeds cap {limit}")


class ScheduleError(LzlError):
    """A probe schedule violates its declared contract."""


class PolicyError(LzlError):
    """A policy emitted an invalid probe set."""


class StrategyPreconditionError(LzlError):
    """A strategy generator was invoked outside its preconditions."""


class GridVerificationError(AssertionError):
    """Grid sweep schedule failed mechanical verification.

    An engine fault, not a usage error: like every AssertionError it is
    not caught by the command line.
    """

    def __init__(self, message: str, trace=None):
        self.trace = trace
        super().__init__(message)


class InconsistentBoundsError(AssertionError):
    """A derived lower bound exceeds a derived upper bound for the same target.

    An engine fault: some bound rule or solver is wrong.
    """
