"""Growth functions shared by the type-II systems and the CFP witness.

All values are exact Python integers; they reach factorial scale quickly,
which is why nothing in this package ever goes through floating point.
The functions give one stage's value; `GrowthTable` holds every stage's
values up to n and extends them from a running factorial.  It is the one
generator of the per-stage tables: the type-II stage tower walks up it, and
the CFP witness base reads its factor dimensions off the infinite family's.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

from .spaces import read_int

INFINITE = None  # sentinel for the k = infinity family


def unit_multiplicity(n: int) -> int:
    """Multiplicity of the stage-n line-bundle block inside the unit bundle.

    Equals n * n! for n >= 1 and 1 for n = 0.  The partial sums telescope:
    sum_{j=0}^{n} unit_multiplicity(j) == (n+1)!.
    """
    if n < 0:
        raise ValueError("stage must be >= 0")
    if n == 0:
        return 1
    return n * factorial(n)


def cp_dimension(k: int | None, n: int) -> int:
    """Complex dimension of the projective-space factor added at stage n.

    For a finite family parameter k this is k * unit_multiplicity(n); for the
    infinite family (k is INFINITE) it is n * unit_multiplicity(n) = n^2 * n!.
    """
    if n < 1:
        raise ValueError("projective factors start at stage 1")
    if k is INFINITE:
        return n * unit_multiplicity(n)
    if k < 1:
        raise ValueError("family parameter must be >= 1 or INFINITE")
    return k * unit_multiplicity(n)


@dataclass(frozen=True)
class GrowthTable:
    """The growth numbers of stages 1..n of family k, from one running factorial.

    `unit[j-1]` is unit_multiplicity(j) and `dims[j-1]` is cp_dimension(k, j);
    `factorial` is n!, so `rank`, the stage-n unit rank, is (n+1)!.
    `up_to(m)` extends the table to stage m with three multiplications per
    new stage, so a walk up the stages never calls `math.factorial`.
    """

    k: int | None
    n: int = 0
    factorial: int = 1
    unit: tuple[int, ...] = ()
    dims: tuple[int, ...] = ()

    @property
    def rank(self) -> int:
        return self.factorial * (self.n + 1)

    def up_to(self, m: int) -> "GrowthTable":
        """This table extended to stage m >= n."""
        if m < self.n:
            raise ValueError("a growth table only extends upwards")
        fact, unit, dims = self.factorial, list(self.unit), list(self.dims)
        for j in range(self.n + 1, m + 1):
            fact *= j
            sigma = j * fact
            unit.append(sigma)
            dims.append((j if self.k is INFINITE else self.k) * sigma)
        return GrowthTable(self.k, m, fact, tuple(unit), tuple(dims))


def parse_family_parameter(text: str) -> int | None:
    """Parse the CLI's family parameter -k: a positive integer or 'inf'."""
    if text.strip().lower() in ("inf", "infinity", "oo"):
        return INFINITE
    k = read_int(text, "-k")
    if k < 1:
        raise ValueError("-k must be >= 1 or 'inf'")
    return k


def family_parameter_label(k: int | None) -> str:
    return "inf" if k is INFINITE else str(k)
