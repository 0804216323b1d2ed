"""Formal vector bundles: sums of pulled-back line bundles plus trivial part.

A bundle expression records everything the comparison arguments ever use:
the base space, a trivial rank, and line summands with big-integer
multiplicities.  A line summand's first Chern class is a single generator
of the base's ring, so a summand is stored as that generator's position
(an index into `base.caps`) together with its multiplicity, and a
diagonal slot's carrier line is a position too.  Line classes are read
only from a bundle document (`parse_bundle`).  The Chern expansion builds
no line classes either: it hands each summand's truncated binomial series
to `line_series_product`, which multiplies series on distinct generators
as one Cartesian product; `chern_component` multiplies the same series
but keeps only the terms that can still reach one degree.  Multiplicities
grow factorially along the inductive systems, so they are never assumed
to fit a machine word.

Equality is normal-form equality (sorted, merged summands); this is the
working notion of isomorphism, and stable isomorphism is the same with
trivial ranks added on both sides.
"""

from __future__ import annotations

import os
from collections.abc import Iterable
from dataclasses import dataclass
from math import comb, prod

from .cohomology import GradedClass, line_series_product, pullback_positions
from .errors import (
    BaseMismatchError,
    CrossCheckDisagreement,
    GeneratorBudgetExceeded,
    InvalidLineClassError,
)
from .spaces import CONSTANT, SpaceDescriptor, SpaceMap, read_int

DEFAULT_BUDGET = 100_000


def expansion_budget() -> int:
    """Term budget for full sparse expansions, from ENGINE_GENERATOR_BUDGET."""
    raw = os.environ.get("ENGINE_GENERATOR_BUDGET", "")
    if not raw.strip():
        return DEFAULT_BUDGET
    value = read_int(raw, "ENGINE_GENERATOR_BUDGET")
    if value < 1:
        raise ValueError("ENGINE_GENERATOR_BUDGET must be positive")
    return value


class BundleExpr:
    """base, trivial rank, and line summands keyed by generator position.

    `parts` maps the generator position of each summand's line (an index
    into `base.caps`) to its multiplicity.  The constructor takes
    (position, multiplicity) pairs: summands on one line are merged, zero
    multiplicities dropped, and the order is that of the lines' exponent
    vectors (descending position).
    """

    __slots__ = ("base", "trivial_rank", "parts")

    def __init__(self, base: SpaceDescriptor, trivial_rank: int = 0,
                 parts: Iterable[tuple[int, int]] = ()):
        if trivial_rank < 0:
            raise ValueError("trivial rank must be >= 0")
        n = len(base.caps)
        merged: dict[int, int] = {}
        for pos, mult in parts:
            if mult < 0:
                raise ValueError("multiplicity must be >= 0")
            if not 0 <= pos < n:
                raise InvalidLineClassError(f"no generator at position {pos}")
            if mult:
                merged[pos] = merged.get(pos, 0) + mult
        self.base = base
        self.trivial_rank = trivial_rank
        self.parts = dict(sorted(merged.items(), reverse=True))

    @property
    def rank(self) -> int:
        return self.trivial_rank + sum(self.parts.values())

    def __eq__(self, other) -> bool:
        return (isinstance(other, BundleExpr)
                and self.base == other.base
                and self.trivial_rank == other.trivial_rank
                and self.parts == other.parts)

    def __hash__(self):
        return hash((self.base, self.trivial_rank, tuple(self.parts.items())))

    def __repr__(self):
        names = self.base.generator_names
        parts = [f"theta_{self.trivial_rank}"] if self.trivial_rank else []
        parts += [f"{m}*{names[pos]}" for pos, m in self.parts.items()]
        return "BundleExpr(" + " + ".join(parts or ["0"]) + ")"


def parse_bundle(base: SpaceDescriptor, doc: dict) -> BundleExpr:
    """Bundle from its JSON document (the `chern --bundle` format).

    Each summand's line is a graded class that must be zero or a single
    generator with coefficient one (InvalidLineClassError otherwise); a
    zero line adds its multiplicity to the trivial rank.
    """
    trivial = read_int(doc.get("trivial", 0), "trivial rank")
    if trivial < 0:
        raise ValueError("trivial rank must be >= 0")
    parts = []
    for summand in doc.get("summands", []):
        line = GradedClass.from_json(base, summand["line"])
        mult = read_int(summand["mult"], "multiplicity")
        if mult < 0:
            raise ValueError("multiplicity must be >= 0")
        if line.is_zero():
            trivial += mult
            continue
        if len(line.terms) != 1:
            raise InvalidLineClassError("line class must be a single generator or zero")
        (exps, coeff), = line.terms.items()
        if coeff != 1 or sum(exps) != 1:
            raise InvalidLineClassError("line class must be one generator with coefficient 1")
        parts.append((exps.index(1), mult))
    return BundleExpr(base, trivial, parts)


def trivial_bundle(base: SpaceDescriptor, rank: int) -> BundleExpr:
    return BundleExpr(base, rank)


def line_sum(base: SpaceDescriptor, parts: list[tuple[int, int]],
             trivial_rank: int = 0) -> BundleExpr:
    """Bundle from (factor_index, multiplicity) pairs plus a trivial part."""
    return BundleExpr(base, trivial_rank,
                      [(base.generator_position(idx), m) for idx, m in parts])


def top_powers(b: BundleExpr):
    """(position, multiplicity, top power) for each line summand.

    The top power of the summand's series (1 + y)^mult, truncated at the
    generator's cap, is min(mult, cap - 1).
    """
    caps = b.base.caps
    for pos, mult in b.parts.items():
        yield pos, mult, min(mult, caps[pos] - 1)


def chern_expansion_cost(b: BundleExpr) -> int:
    """Term count of the full Chern class expansion, exactly.

    Each summand's truncated series has nonzero coefficients on its own
    generator, so no two choices of powers meet on one term and none cancel.
    """
    return prod(top + 1 for _, _, top in top_powers(b))


def expansion_fits(b: BundleExpr, budget: int) -> bool:
    """Whether chern_expansion_cost(b) <= budget.

    Stops multiplying as soon as the partial product passes the budget; the
    full product runs to millions of digits on large witness bases.
    """
    cost = 1
    for _, _, top in top_powers(b):
        cost *= top + 1
        if cost > budget:
            return False
    return True


def chern(b: BundleExpr) -> GradedClass:
    """Total Chern class: the product of (1 + line)^multiplicity, capped.

    The trivial part contributes 1.  Refuses with GeneratorBudgetExceeded if
    the expansion would exceed the term budget of `expansion_budget()`.
    """
    budget = expansion_budget()
    if not expansion_fits(b, budget):
        raise GeneratorBudgetExceeded(chern_expansion_cost(b), budget,
                                      "Chern class expansion")
    # (1 + y)^mult truncated at the generator's cap: sum of C(mult, i) y^i
    return line_series_product(b.base, [
        (pos, [comb(mult, i) for i in range(top + 1)])
        for pos, mult, top in top_powers(b)])


def chern_component(b: BundleExpr, degree: int) -> GradedClass:
    """The homogeneous component of chern(b) in one degree, expanded alone.

    Multiplies the summands' truncated series (1 + y)^mult one at a time
    and prunes every partial term that can no longer reach the degree:
    one whose power sum already passes degree/2, or that the remaining
    summands' top powers cannot lift to it.  C(mult, i) is computed only
    for the powers i that survive.  In the Euler degree 2*rank at most one
    partial term survives each step, so that component needs no budget.
    Odd or negative degrees hold nothing and yield the zero class.
    """
    if degree < 0 or degree % 2:
        return GradedClass.zero(b.base)
    want = degree // 2
    tops = list(top_powers(b))
    reach = sum(top for _, _, top in tops)  # what the summands not yet taken can add
    partial = [((), 0, 1)]  # (powers chosen so far, their sum, coefficient)
    for pos, mult, top in tops:
        reach -= top
        partial = [(powers + (i,), total + i, coeff * comb(mult, i))
                   for powers, total, coeff in partial
                   for i in range(max(0, want - total - reach), min(top, want - total) + 1)]
    terms = {}
    for powers, total, coeff in partial:
        if total == want:
            key = [0] * len(b.base.caps)
            for (pos, _, _), i in zip(tops, powers):
                key[pos] = i
            terms[tuple(key)] = coeff
    return GradedClass._normal(b.base, terms)


def euler(b: BundleExpr) -> GradedClass:
    """Top Chern class, computed from the factorization over line summands.

    Equals the product of line^multiplicity over all summands and vanishes
    as soon as the bundle has a trivial part; each factor is the single
    monomial y^multiplicity, dead once the multiplicity reaches the cap, so
    this never needs a full expansion.
    """
    base = b.base
    if b.trivial_rank > 0:
        return GradedClass.zero(base)
    key = [0] * len(base.caps)
    for pos, mult in b.parts.items():
        if mult >= base.caps[pos]:
            return GradedClass.zero(base)
        key[pos] = mult
    return GradedClass(base, {tuple(key): 1})


def pullback_bundle(f: SpaceMap, b: BundleExpr) -> BundleExpr:
    """Pull a bundle back along a map; constants yield trivial bundles.

    Under a projection each summand moves to the position its generator
    pulls back to.
    """
    if b.base != f.target:
        raise BaseMismatchError("bundle does not live over the map's target")
    if f.kind == CONSTANT:
        return trivial_bundle(f.source, b.rank)
    moved = pullback_positions(f)
    return BundleExpr(f.source, b.trivial_rank,
                      [(moved[pos], m) for pos, m in b.parts.items()])


def tensor_line(b: BundleExpr, position: int) -> BundleExpr:
    """Tensor with the line bundle on the generator at `position`.

    First Chern classes add, so the trivial part becomes that many copies
    of the line.  A line summand would shift to its line plus the new one,
    which is no longer a single generator, so only bundles without line
    summands can be tensored with a line.
    """
    if b.parts:
        raise InvalidLineClassError("a line summand tensored with a line is not "
                                    "a single generator")
    return BundleExpr(b.base, 0, [(position, b.trivial_rank)])


@dataclass(frozen=True)
class DiagonalSlot:
    """One eigenvalue-map slot of a diagonal connecting map.

    The carrier is the generator position, in the ring of the map's source,
    of the line bundle the slot's projection is supported on (None meaning
    the trivial line); slots of the basic kind just pull back, constant
    slots convert everything they carry into carrier lines of the
    appropriate rank.
    """

    eigenvalue_map: SpaceMap
    multiplicity: int = 1
    carrier: int | None = None


def pushforward_diagonal(b: BundleExpr, slots: list[DiagonalSlot]) -> BundleExpr:
    """Image of a bundle under a diagonal map given by eigenvalue-map slots.

    All maps must share one source (the next stage space) and target the
    bundle's base.
    """
    if not slots:
        raise ValueError("diagonal map needs at least one slot")
    source = slots[0].eigenvalue_map.source
    for s in slots:
        if s.eigenvalue_map.source != source:
            raise BaseMismatchError("all eigenvalue maps must share a source")
        if s.eigenvalue_map.target != b.base:
            raise BaseMismatchError("eigenvalue map target differs from the bundle base")
    trivial_rank = 0
    parts = []
    for s in slots:
        piece = pullback_bundle(s.eigenvalue_map, b)
        if s.carrier is not None:
            piece = tensor_line(piece, s.carrier)
        trivial_rank += piece.trivial_rank * s.multiplicity
        parts.extend((pos, m * s.multiplicity) for pos, m in piece.parts.items())
    return BundleExpr(source, trivial_rank, parts)


def euler_nonzero(b: BundleExpr) -> tuple[bool, str]:
    """Whether the Euler class is nonzero, and which route decided it.

    The factorized class is cross-checked against the degree-2*rank
    component of the Chern class (`chern_component`), an independent route
    that needs no budget, so the route is always "factorized+full";
    CrossCheckDisagreement is raised unless the two agree.
    """
    fast = euler(b)
    if chern_component(b, 2 * b.rank) != fast:
        raise CrossCheckDisagreement(
            "factorized Euler class disagrees with the Chern class component "
            f"in degree {2 * b.rank}")
    return (not fast.is_zero(), "factorized+full")
