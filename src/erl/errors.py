"""Exception types shared across the package."""


class ErlError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(ErlError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownAgentError(ErlError):
    def __init__(self, name: str):
        super().__init__(f"unknown agent: {name!r}")
        self.name = name


class UnknownResourceError(ErlError):
    def __init__(self, name: str):
        super().__init__(f"unknown resource: {name!r}")
        self.name = name


class ConfigError(ErlError):
    """A budget or mode given by a flag or an ERL_* variable is invalid."""


class SignatureError(ErlError):
    """Raised when a signature fails validation at load time."""


class ModelError(ErlError):
    """Raised when a model file is malformed or inconsistent."""


class BudgetTooLarge(ErlError):
    """Model enumeration would exceed the configured stream cap."""


class NotHintikka(ErlError):
    """Countermodel extraction was attempted on a non-Hintikka branch;
    ``condition`` is the first condition it violates."""

    def __init__(self, condition: int, witness: dict):
        super().__init__(f"condition {condition} violated: {witness}")
        self.condition = condition
