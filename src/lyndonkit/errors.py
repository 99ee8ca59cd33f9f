"""Exception types shared across the package."""


class LyndonKitError(Exception):
    """Base class for every error raised by lyndonkit."""


class UnknownSymbol(LyndonKitError):
    """A character of the input text is not in the alphabet."""

    def __init__(self, position: int, character: str):
        super().__init__(
            f"symbol {character!r} at position {position} is not in the alphabet"
        )
        self.position = position
        self.character = character


class AlphabetMismatch(LyndonKitError):
    """Operands belong to different alphabets."""


class EmptyWord(LyndonKitError):
    """The operation needs a nonempty word."""


class PreconditionFailed(LyndonKitError):
    pass


class NotLyndon(LyndonKitError):
    """The operation is defined for Lyndon words only."""


class TooShort(LyndonKitError):
    """Standard factorizations need at least two letters."""


class BadAddress(LyndonKitError):
    """A node address does not resolve to an internal node."""


class UniquenessViolation(LyndonKitError):
    """The number of nonincreasing factorizations found was not exactly one."""
