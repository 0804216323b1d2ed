"""Exception types shared across the engine."""


class BaseMismatchError(ValueError):
    """Raised when classes or bundles over different spaces are combined."""


class InvalidLineClassError(ValueError):
    """Raised when a bundle summand's line class is not a single pulled-back
    generator (coefficient 1) or zero."""


class ConfigError(ValueError):
    """Raised on malformed configuration documents (unknown keys, bad values)."""


class GeneratorBudgetExceeded(RuntimeError):
    """Raised when a full sparse expansion would exceed the configured term
    budget (see the ENGINE_GENERATOR_BUDGET environment variable)."""

    def __init__(self, required: int, budget: int, what: str = "expansion"):
        self.required = required
        self.budget = budget
        # a term count can run to millions of digits, past Python's limit for
        # printing an int; the message then gives its power of two
        bits = required.bit_length()
        shown = required if bits <= 1024 else f"at least 2^{bits - 1}"
        super().__init__(
            f"{what} needs {shown} terms but the budget is {budget}; "
            f"raise ENGINE_GENERATOR_BUDGET to allow it"
        )


class CrossCheckDisagreement(RuntimeError):
    """Raised when two independent routes to one certified quantity disagree
    (say, the factorized Euler class and the Chern class component in its
    degree); the result cannot be certified either way."""
