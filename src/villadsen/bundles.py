"""Formal vector bundles: sums of pulled-back line bundles plus trivial part.

A bundle expression records everything the comparison arguments ever use:
the base space, a trivial rank, and line summands with big-integer
multiplicities.  A line summand's first Chern class is a single generator
of the base's ring, so a summand is stored as that generator's position in
the ring presentation (`presentation_of`, built once per space) together
with its multiplicity.  A `GradedClass` for a line is built only where a
line class is the output: `summands` and `to_json`.  The Chern expansion
builds no line classes: it hands each summand's truncated binomial series
to `line_series_product`, which multiplies series on distinct generators
as one Cartesian product; `chern_component` multiplies the same series but
keeps only the terms that can still reach one degree.  Multiplicities grow
factorially along the inductive systems, so they are never assumed to fit
a machine word.

Equality is normal-form equality (sorted, merged summands); this is the
working notion of isomorphism, and stable isomorphism is the same with
trivial ranks added on both sides.
"""

from __future__ import annotations

import os
from collections.abc import Iterable
from dataclasses import dataclass
from math import comb, prod

from .cohomology import (
    GradedClass,
    line_series_product,
    presentation_of,
    pullback_positions,
)
from .errors import (
    BaseMismatchError,
    CrossCheckDisagreement,
    GeneratorBudgetExceeded,
    InvalidLineClassError,
)
from .spaces import CONSTANT, SpaceDescriptor, SpaceMap

DEFAULT_BUDGET = 100_000


def expansion_budget() -> int:
    """Term budget for full sparse expansions, from ENGINE_GENERATOR_BUDGET."""
    raw = os.environ.get("ENGINE_GENERATOR_BUDGET", "")
    if raw.strip():
        value = int(raw)
        if value < 1:
            raise ValueError("ENGINE_GENERATOR_BUDGET must be positive")
        return value
    return DEFAULT_BUDGET


def _line_generator_position(line: GradedClass) -> int | None:
    """Position of the line's generator, or None for the zero (trivial) line.

    Raises InvalidLineClassError unless the class is zero or a single
    generator with coefficient one.
    """
    if line.is_zero():
        return None
    if len(line.terms) != 1:
        raise InvalidLineClassError("line class must be a single generator or zero")
    (exps, coeff), = line.terms.items()
    if coeff != 1 or sum(exps) != 1:
        raise InvalidLineClassError("line class must be one generator with coefficient 1")
    return exps.index(1)


class BundleExpr:
    """base, trivial rank, and line summands keyed by generator position.

    `parts` maps the ring position of each summand's line (see
    `RingPresentation`) to its multiplicity.  Summands on one line are
    merged, zero multiplicities dropped, and the order is that of the
    lines' exponent vectors (descending position), which is the order
    `summands` and `to_json` list them in.

    The constructor takes (line class, multiplicity) pairs and checks each
    line; `from_positions` takes (position, multiplicity) pairs and builds
    no line class at all.
    """

    __slots__ = ("base", "presentation", "trivial_rank", "parts")

    def __init__(self, base: SpaceDescriptor, trivial_rank: int = 0,
                 summands: list[tuple[GradedClass, int]] | None = None):
        if trivial_rank < 0:
            raise ValueError("trivial rank must be >= 0")
        pres = presentation_of(base)
        parts = []
        extra_trivial = 0
        for line, mult in summands or []:
            if mult < 0:
                raise ValueError("multiplicity must be >= 0")
            if mult == 0:
                continue
            if line.presentation != pres:
                raise BaseMismatchError("summand line class lives over a different base")
            pos = _line_generator_position(line)
            if pos is None:
                extra_trivial += mult
            else:
                parts.append((pos, mult))
        self._fill(base, pres, trivial_rank + extra_trivial, parts)

    @classmethod
    def from_positions(cls, base: SpaceDescriptor, trivial_rank: int,
                       parts: Iterable[tuple[int, int]]) -> "BundleExpr":
        """Bundle from (generator position, multiplicity) pairs."""
        b = cls.__new__(cls)
        b._fill(base, presentation_of(base), trivial_rank, parts)
        return b

    def _fill(self, base, pres, trivial_rank, parts):
        if trivial_rank < 0:
            raise ValueError("trivial rank must be >= 0")
        n = len(pres.generators)
        merged: dict[int, int] = {}
        for pos, mult in parts:
            if mult < 0:
                raise ValueError("multiplicity must be >= 0")
            if not 0 <= pos < n:
                raise InvalidLineClassError(f"no generator at position {pos}")
            if mult:
                merged[pos] = merged.get(pos, 0) + mult
        self.base = base
        self.presentation = pres
        self.trivial_rank = trivial_rank
        self.parts = dict(sorted(merged.items(), reverse=True))

    @property
    def summands(self) -> tuple[tuple[GradedClass, int], ...]:
        """(line class, multiplicity) pairs; builds one line class per summand."""
        return tuple((GradedClass.generator_at(self.presentation, pos), m)
                     for pos, m in self.parts.items())

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
        parts = [f"theta_{self.trivial_rank}"] if self.trivial_rank else []
        parts += [f"{m}*({line!r})" for line, m in self.summands]
        return "BundleExpr(" + " + ".join(parts or ["0"]) + ")"

    def direct_sum(self, other: "BundleExpr") -> "BundleExpr":
        if self.base != other.base:
            raise BaseMismatchError("direct sum needs a common base")
        return BundleExpr.from_positions(self.base, self.trivial_rank + other.trivial_rank,
                                         [*self.parts.items(), *other.parts.items()])

    def add_trivial(self, extra: int) -> "BundleExpr":
        return BundleExpr.from_positions(self.base, self.trivial_rank + extra,
                                         self.parts.items())

    def to_json(self) -> dict:
        return {
            "base": self.base.to_json(),
            "trivial": str(self.trivial_rank),
            "summands": [{"line": line.to_json(), "mult": str(m)}
                         for line, m in self.summands],
        }

    @staticmethod
    def from_json(doc: dict) -> "BundleExpr":
        base = SpaceDescriptor.from_json(doc["base"])
        pres = presentation_of(base)
        summands = [(GradedClass.from_json(pres, s["line"]), int(s["mult"]))
                    for s in doc.get("summands", [])]
        return BundleExpr(base, int(doc.get("trivial", "0")), summands)


def trivial_bundle(base: SpaceDescriptor, rank: int) -> BundleExpr:
    return BundleExpr.from_positions(base, rank, ())


def generator_line(base: SpaceDescriptor, factor_index: int) -> GradedClass:
    """First Chern class of the tautological/Hopf line on one factor."""
    return GradedClass.generator(presentation_of(base), factor_index)


def line_sum(base: SpaceDescriptor, parts: list[tuple[int, int]],
             trivial_rank: int = 0) -> BundleExpr:
    """Bundle from (factor_index, multiplicity) pairs plus a trivial part."""
    pres = presentation_of(base)
    return BundleExpr.from_positions(
        base, trivial_rank, [(pres.generator_position(idx), m) for idx, m in parts])


def _cost_factors(b: BundleExpr):
    # each summand's truncated binomial series has min(mult, cap-1)+1 terms
    caps = b.presentation.caps
    for pos, mult in b.parts.items():
        yield min(mult, caps[pos] - 1) + 1


def chern_expansion_cost(b: BundleExpr) -> int:
    """Term count of the full Chern class expansion, exactly.

    Each summand's truncated series has nonzero coefficients on its own
    generator, so no two choices of powers meet on one term and none cancel.
    """
    return prod(_cost_factors(b))


def expansion_fits(b: BundleExpr, budget: int) -> bool:
    """Whether chern_expansion_cost(b) <= budget.

    Stops multiplying as soon as the partial product passes the budget; the
    full product runs to millions of digits on large witness bases.
    """
    cost = 1
    for factor in _cost_factors(b):
        cost *= factor
        if cost > budget:
            return False
    return True


def chern(b: BundleExpr, budget: int | None = None) -> GradedClass:
    """Total Chern class: the product of (1 + line)^multiplicity, capped.

    The trivial part contributes 1.  Refuses with GeneratorBudgetExceeded if
    the expansion would exceed the term budget; budget=None reads the
    environment and budget=0 disables the guard.
    """
    if budget is None:
        budget = expansion_budget()
    if budget and not expansion_fits(b, budget):
        raise GeneratorBudgetExceeded(chern_expansion_cost(b), budget,
                                      "Chern class expansion")
    # (1 + y)^mult truncated at the generator's cap: sum of C(mult, i) y^i
    caps = b.presentation.caps
    return line_series_product(b.presentation, [
        (pos, [comb(mult, i) for i in range(min(mult, caps[pos] - 1) + 1)])
        for pos, mult in b.parts.items()])


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
    pres = b.presentation
    if degree < 0 or degree % 2:
        return GradedClass.zero(pres)
    want = degree // 2
    caps = pres.caps
    tops = [(pos, mult, min(mult, caps[pos] - 1)) for pos, mult in b.parts.items()]
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
            key = [0] * len(caps)
            for (pos, _, _), i in zip(tops, powers):
                key[pos] = i
            terms[tuple(key)] = coeff
    return GradedClass._normal(pres, terms)


def euler(b: BundleExpr) -> GradedClass:
    """Top Chern class, computed from the factorization over line summands.

    Equals the product of line^multiplicity over all summands and vanishes
    as soon as the bundle has a trivial part; each factor is the single
    monomial y^multiplicity, dead once the multiplicity reaches the cap, so
    this never needs a full expansion.
    """
    pres = b.presentation
    if b.trivial_rank > 0:
        return GradedClass.zero(pres)
    key = [0] * len(pres.generators)
    for pos, mult in b.parts.items():
        if mult >= pres.caps[pos]:
            return GradedClass.zero(pres)
        key[pos] = mult
    return GradedClass(pres, {tuple(key): 1})


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
    return BundleExpr.from_positions(f.source, b.trivial_rank,
                                     [(moved[pos], m) for pos, m in b.parts.items()])


def tensor_line(b: BundleExpr, carrier: GradedClass) -> BundleExpr:
    """Tensor with the line bundle whose first Chern class is `carrier`.

    First Chern classes add, so the trivial part becomes that many copies
    of the carrier line.  A line summand would shift to its line plus the
    carrier, which is no longer a single generator, so only bundles without
    line summands can be tensored with a nontrivial carrier.
    """
    pos = _line_generator_position(carrier)
    if pos is None:
        return b
    if carrier.presentation != b.presentation:
        raise BaseMismatchError("carrier line class lives over a different base")
    if b.parts:
        raise InvalidLineClassError("a line summand shifted by the carrier is not "
                                    "a single generator")
    return BundleExpr.from_positions(b.base, 0, [(pos, b.trivial_rank)])


@dataclass(frozen=True)
class DiagonalSlot:
    """One eigenvalue-map slot of a diagonal connecting map.

    The carrier is the line bundle the slot's projection is supported on
    (None or zero meaning the trivial line); slots of the basic kind just
    pull back, constant slots convert everything they carry into carrier
    lines of the appropriate rank.
    """

    eigenvalue_map: SpaceMap
    multiplicity: int = 1
    carrier: GradedClass | None = None


def pushforward_diagonal(b: BundleExpr, slots: list) -> BundleExpr:
    """Image of a bundle under a diagonal map given by eigenvalue-map slots.

    Accepts DiagonalSlot instances or bare (map, multiplicity) pairs.  All
    maps must share one source (the next stage space) and target the
    bundle's base.
    """
    norm_slots = []
    for s in slots:
        if isinstance(s, DiagonalSlot):
            norm_slots.append(s)
        else:
            m, mult = s
            norm_slots.append(DiagonalSlot(m, mult))
    if not norm_slots:
        raise ValueError("diagonal map needs at least one slot")
    source = norm_slots[0].eigenvalue_map.source
    for s in norm_slots:
        if s.eigenvalue_map.source != source:
            raise BaseMismatchError("all eigenvalue maps must share a source")
        if s.eigenvalue_map.target != b.base:
            raise BaseMismatchError("eigenvalue map target differs from the bundle base")
    trivial_rank = 0
    parts = []
    for s in norm_slots:
        piece = pullback_bundle(s.eigenvalue_map, b)
        if s.carrier is not None and not s.carrier.is_zero():
            piece = tensor_line(piece, s.carrier)
        trivial_rank += piece.trivial_rank * s.multiplicity
        parts.extend((pos, m * s.multiplicity) for pos, m in piece.parts.items())
    return BundleExpr.from_positions(source, trivial_rank, parts)


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
