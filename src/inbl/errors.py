"""Exception hierarchy shared by all inbl modules."""


class InblError(Exception):
    """Base class for all errors raised by this package."""


class InvalidWireError(InblError):
    """A wire identifier is outside the configured system."""


class PatternError(InblError):
    """A bit pattern is malformed or does not fit the system size."""


class ParseError(InblError):
    """Syntax error in the superposition DSL or a phonebook file."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class MaxWaitExceeded(InblError):
    """No live clock found within the allowed scan window."""

    def __init__(self, t_start: int, max_wait: int):
        super().__init__(
            f"no nonzero amplitude in clocks [{t_start}, {t_start + max_wait}]"
        )
        self.t_start = t_start
        self.max_wait = max_wait


class IllegalClass(InblError):
    """A two-bit signal, or its probe readings, match no legal class."""


class OracleLimitExceeded(InblError):
    """Requested expansion exceeds the configured oracle size cap."""


class ProbeInconsistency(InblError):
    """A phonebook probe found no single wire of a digit whose grounding
    zeroes the collapsed signal."""


class NotBijective(InblError):
    """Inverse lookup requested on a book with duplicate numbers."""


class DuplicateName(InblError):
    """Phonebook construction with repeated names."""
