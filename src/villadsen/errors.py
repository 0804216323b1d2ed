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

    `required` is the term count.  A count of 2^k terms can be given by its
    exponent instead (`required_log2` = k): it is formed only while it fits
    in 1024 bits, and past that `required` is None, so no refusal builds or
    prints a power of two with millions of digits.
    """

    def __init__(self, required: int | None, budget: int, what: str = "expansion",
                 required_log2: int | None = None):
        if required_log2 is not None and required_log2 < 1024:
            required, required_log2 = 1 << required_log2, None
        self.required = required
        self.required_log2 = required_log2
        self.budget = budget
        # a term count can run to millions of digits, past Python's limit for
        # printing an int; past 1024 bits the message gives its power of two
        if required is None:
            shown = f"at least 2^{required_log2}"
        elif required.bit_length() <= 1024:
            shown = required
        else:
            shown = f"at least 2^{required.bit_length() - 1}"
        super().__init__(
            f"{what} needs {shown} terms but the budget is {budget}; "
            f"raise ENGINE_GENERATOR_BUDGET to allow it"
        )


class CrossCheckDisagreement(RuntimeError):
    """Raised when two independent routes to one certified quantity disagree
    (say, the factorized Euler class and the Chern class component in its
    degree); the result cannot be certified either way."""
