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
    budget (see the ENGINE_GENERATOR_BUDGET environment variable).

    `required` is the term count while it is below 2^1024.  Past that it is
    None and `required_log2` holds the exponent k of the largest power of
    two 2^k not above it, so no refusal prints a count with millions of
    digits.  A count of 2^k terms can be given by its exponent alone
    (`required_log2` = k), and is then formed only below 1024 bits.
    """

    def __init__(self, required: int | None, budget: int, what: str = "expansion",
                 required_log2: int | None = None):
        if required_log2 is not None and required_log2 < 1024:
            required, required_log2 = 1 << required_log2, None
        elif required is not None and required.bit_length() > 1024:
            required, required_log2 = None, required.bit_length() - 1
        self.required = required
        self.required_log2 = required_log2
        self.budget = budget
        shown = required if required is not None else f"at least 2^{required_log2}"
        super().__init__(
            f"{what} needs {shown} terms but the budget is {budget}; "
            f"raise ENGINE_GENERATOR_BUDGET to allow it"
        )


class CrossCheckDisagreement(RuntimeError):
    """Raised when two independent routes to one certified quantity disagree
    (say, the factorized Euler class and the Chern class component in its
    degree); the result cannot be certified either way."""
