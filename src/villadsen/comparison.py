"""Certified sufficient criteria for Cuntz comparison of projections.

Over a finite-dimensional base only two kinds of certificates are ever used:
a rank gap of at least half the base dimension forces domination, and a
nonzero Euler class on the right-hand side forbids a trivial line
sub-bundle.  Everything else is honestly Unknown; the engine certifies, it
never decides.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .bundles import BundleExpr, euler_nonzero
from .errors import BaseMismatchError


class Outcome(enum.Enum):
    DOMINATES = "dominates"
    OBSTRUCTED = "obstructed"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class ComparisonVerdict:
    outcome: Outcome
    certificate: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"outcome": self.outcome.value, "certificate": self.certificate}


def _half_dimension(base) -> int:
    # ceiling; every base in the constructions is even-dimensional
    return (base.real_dimension + 1) // 2


def dominates_by_rank(x: BundleExpr, y: BundleExpr) -> ComparisonVerdict:
    """Domination by rank gap: rank(y) >= rank(x) + half the base dimension.

    The zero bundle is dominated by everything, with no gap needed.
    """
    if x.base != y.base:
        raise BaseMismatchError("comparison needs a common base")
    if x.rank == 0:
        return ComparisonVerdict(Outcome.DOMINATES, {"rule": "zero-bundle"})
    half = _half_dimension(x.base)
    cert = {
        "rule": "rank-gap",
        "rank_x": str(x.rank),
        "rank_y": str(y.rank),
        "half_dimension": str(half),
    }
    if y.rank >= x.rank + half:
        return ComparisonVerdict(Outcome.DOMINATES, cert)
    return ComparisonVerdict(Outcome.UNKNOWN, cert)


def trivial_line_subbundle_sufficient(y: BundleExpr) -> ComparisonVerdict:
    """Stable-range criterion for a trivial line sub-bundle of y:
    2*rank(y) - 1 >= dim(base)."""
    dim = y.base.real_dimension
    cert = {
        "rule": "stable-range",
        "rank_y": str(y.rank),
        "dimension": str(dim),
        "inequality": f"2*{y.rank}-1 >= {dim}",
    }
    if 2 * y.rank - 1 >= dim:
        return ComparisonVerdict(Outcome.DOMINATES, cert)
    return ComparisonVerdict(Outcome.UNKNOWN, cert)


def obstructed_by_euler(x: BundleExpr, y: BundleExpr) -> ComparisonVerdict:
    """Non-domination by Euler obstruction.

    Requires x to contain a trivial summand: a trivial line sub-bundle of y
    would force the Euler class of y to vanish, so e(y) != 0 obstructs
    x being dominated by y.
    """
    if x.base != y.base:
        raise BaseMismatchError("comparison needs a common base")
    if x.trivial_rank < 1:
        raise ValueError("obstruction argument needs a trivial summand in x")
    nonzero, route = euler_nonzero(y)
    cert = {
        "rule": "euler-obstruction",
        "euler_degree": str(2 * y.rank),
        "euler_nonzero": nonzero,
        "route": route,
    }
    if nonzero:
        return ComparisonVerdict(Outcome.OBSTRUCTED, cert)
    return ComparisonVerdict(Outcome.UNKNOWN, cert)

