"""Growth functions shared by the type-II systems and the CFP witness.

All values are exact Python integers; they reach factorial scale quickly,
which is why nothing in this package ever goes through floating point.
The functions give one stage's value; `stage_growth` yields every stage's
values in turn from one running factorial.  It is the one generator of the
per-stage numbers: the type-II stage tower walks it, and the CFP witness
base reads its factor dimensions off the infinite family's.
"""

from __future__ import annotations

from itertools import count
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


def stage_growth(k: int | None):
    """Yield (n!, unit_multiplicity(n), cp_dimension(k, n)) for n = 1, 2, ...

    One running factorial: a stage costs three multiplications and no
    `math.factorial`.  Stage n's unit rank, (n+1)!, is n! + unit_multiplicity(n).
    """
    fact = 1
    for n in count(1):
        fact *= n
        sigma = n * fact
        yield fact, sigma, (n if k is INFINITE else k) * sigma


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
