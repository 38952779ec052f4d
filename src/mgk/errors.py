"""Exception types shared across the package."""


class MgkError(ValueError):
    """Base class of every refusal; a ValueError, as each refuses a value."""


class ParseError(MgkError):
    """Malformed input text; carries the offending position."""

    def __init__(self, message, position=None):
        if position is not None:
            message = "%s (at position %d)" % (message, position)
        super().__init__(message)
        self.position = position


class WordSyntaxError(ParseError):
    pass


class TreeSyntaxError(ParseError):
    pass


class BudgetExceeded(MgkError):
    """A word over the letter budget or an alphabet over the alphabet budget."""


class UnknownGeneratorError(MgkError):
    pass


class UniverseMismatchError(MgkError):
    pass


class NotInKernelError(MgkError):
    """Word is not in the kernel of deleting the distinguished generator."""


class LinkFormatError(MgkError):
    pass


class CompositionError(MgkError):
    pass
