"""The stage walk shared by the type-II systems and the CFP witness.

All values are exact Python integers; they reach factorial scale quickly,
which is why nothing in this package ever goes through floating point.
`tower` is the one generator of per-stage numbers: stage n+1 follows from
stage n alone by three multiplications and one addition, so a walk never
forms a factorial from scratch and can resume from any stage it yielded.
The type-II stage tower walks it for its family, and every number `cfp`
prints is read off one walk of the infinite family.

A family is its parameter k: a positive integer, or `INFINITE` for
k = infinity.  `tower` is where the library checks it, so every type-II
function that walks it raises one ValueError for k < 1;
`parse_family_parameter` reads the CLI's -k and `family_parameter_label`
writes k in a certificate.  A `Stage` is a `collections.namedtuple`.
"""

from __future__ import annotations

from collections import namedtuple

from .spaces import read_int

INFINITE = None  # sentinel for the k = infinity family


Stage = namedtuple("Stage", "n rank unit dim witness", module=__name__)
Stage.__doc__ = """Stage n: its unit rank (n+1)!, the multiplicity n*n! of the stage-n
line in the unit (1 at stage 0), the complex dimension of the projective
factor it adds, k*n*n! (n^2*n! for k = inf), and the witness rank, the sum
of those dimensions up to n.  Both are 0 at stage 0, which adds only the
first disk."""


def tower(k: int | None, after: Stage | None = None):
    """The stages of family k after the stage `after`, or from stage 0 when
    it is None.

    The unit multiplicities telescope: stage n+1's is (n+1) times stage n's
    unit rank, and its unit rank is n+2 times stage n's.  A record is made
    with `tuple.__new__`, as `Stage._make` does, so a step runs no
    Python-level constructor.  A k other than INFINITE below 1 is a
    ValueError, raised when the walk starts.
    """
    if k is not INFINITE and k < 1:
        raise ValueError("family parameter must be >= 1 or INFINITE")
    if after is None:
        after = Stage(0, 1, 1, 0, 0)
        yield after
    n, rank, _, _, witness = after
    while True:
        n += 1
        unit = n * rank
        dim = (n if k is INFINITE else k) * unit
        rank *= n + 1
        witness += dim
        yield tuple.__new__(Stage, (n, rank, unit, dim, witness))


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
