"""Formal vector bundles: sums of pulled-back line bundles plus trivial part.

A bundle expression records everything the comparison arguments ever use:
the base space, a trivial rank, and line summands with big-integer
multiplicities.  A line summand's first Chern class is a single generator
of the base's ring, so a summand is stored as that generator's position
(an index into `base.caps`) together with its multiplicity, and a
diagonal slot's carrier line is a position too.  The one bundle map is
`pushforward_diagonal`; a pullback is a diagonal map with one slot.  Line
classes are read only from a bundle document (`parse_bundle`).  The Chern
expansion builds no line classes either: `chern_series` checks the budget
and builds each summand's truncated binomial series, which
`cohomology.line_series_texts` multiplies into each degree's class text;
`chern_component`, the engine's one single-degree expansion, multiplies
them into one degree for the Euler checks and `vi --witness`.  The
library builds no total Chern class.  Multiplicities grow factorially
along the inductive systems, so they are never assumed to fit a machine word.

Equality is normal-form equality (merged summands, in any order); this is
the working notion of isomorphism, and stable isomorphism is the same with
trivial ranks added on both sides.  A `DiagonalSlot` is a named tuple,
checked when it is made.
"""

from __future__ import annotations

import os
from collections import namedtuple
from collections.abc import Iterable
from math import comb, prod

from .cohomology import GradedClass, pullback_positions
from .errors import (
    BaseMismatchError,
    CrossCheckDisagreement,
    GeneratorBudgetExceeded,
    InvalidLineClassError,
)
from .spaces import CONSTANT, SpaceDescriptor, SpaceMap, cproj, json_fields, json_list, read_int

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
    (position, multiplicity) pairs: summands on one line are merged and
    zero multiplicities dropped.  The parts keep the order of their first
    pairs; equality and hash ignore it, and the repr lists them in
    descending position.  The rank is summed once, while the parts are
    merged.
    """

    __slots__ = ("base", "trivial_rank", "parts", "rank")

    def __init__(self, base: SpaceDescriptor, trivial_rank: int = 0,
                 parts: Iterable[tuple[int, int]] = ()):
        if trivial_rank < 0:
            raise ValueError("trivial rank must be >= 0")
        self.base = base
        self.trivial_rank = trivial_rank
        self.parts = {}
        self.rank = trivial_rank + self._merge(parts)

    def _merge(self, parts: Iterable[tuple[int, int]]) -> int:
        # only while the bundle is being built: adds the pairs to the parts
        # and returns their total multiplicity
        n, merged, total = len(self.base.caps), self.parts, 0
        for pos, mult in parts:
            if mult < 0:
                raise ValueError("multiplicity must be >= 0")
            if not 0 <= pos < n:
                raise InvalidLineClassError(f"no generator at position {pos}")
            if mult:
                merged[pos] = merged.get(pos, 0) + mult
                total += mult
        return total

    def __eq__(self, other) -> bool:
        return (isinstance(other, BundleExpr)
                and self.base == other.base
                and self.trivial_rank == other.trivial_rank
                and self.parts == other.parts)

    def __hash__(self):
        return hash((self.base, self.trivial_rank, frozenset(self.parts.items())))

    def __repr__(self):
        names = self.base.generator_names
        parts = [f"theta_{self.trivial_rank}"] if self.trivial_rank else []
        parts += [f"{m}*{names[pos]}" for pos, m in sorted(self.parts.items(), reverse=True)]
        return "BundleExpr(" + " + ".join(parts or ["0"]) + ")"


def parse_bundle(base: SpaceDescriptor, doc: dict) -> BundleExpr:
    """Bundle from its JSON document (the `chern --bundle` format).

    Each summand's line is a graded class that must be zero or a single
    generator with coefficient one (InvalidLineClassError otherwise); a
    zero line adds its multiplicity to the trivial rank.  The bundle and
    each summand hold no key but their own (`spaces.json_fields`).
    """
    trivial = read_int(json_fields(doc, "bundle", {"trivial", "summands"}).get("trivial", 0),
                       "trivial rank")
    if trivial < 0:
        raise ValueError("trivial rank must be >= 0")
    parts = []
    for summand in json_list(doc.get("summands", []), "summands"):
        json_fields(summand, "summand", {"line", "mult"})
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


def capacity_sum(dims: list[int]) -> BundleExpr:
    """dims[s] copies of the line on each factor of CP^dims[0] x CP^dims[1]
    x ..., labelled cp1, cp2, ...: every line one power below its cap.  It
    is the type-II witness sum and the CFP capacity bundle; a stage space's
    disks are contractible and carry no generator, so no class sees them."""
    base = SpaceDescriptor(tuple(cproj(d, label=f"cp{s}") for s, d in enumerate(dims, start=1)))
    return BundleExpr(base, 0, enumerate(dims))


def top_powers(b: BundleExpr):
    """(position, multiplicity, top power) for each line summand.

    The top power of the summand's series (1 + y)^mult, truncated at the
    generator's cap, is min(mult, cap - 1).
    """
    caps = b.base.caps
    for pos, mult in b.parts.items():
        cap = caps[pos]
        # a comparison, not min(): a multiplicity below its cap is the top
        # power itself, with no subtraction of two big integers
        yield pos, mult, mult if mult < cap else cap - 1


def chern_expansion_cost(b: BundleExpr) -> int:
    """Term count of the full Chern class expansion, exactly.

    Each summand's truncated series has nonzero coefficients on its own
    generator, so no two choices of powers meet on one term and none cancel.
    The factors are multiplied in pairs, level by level: a running product
    of huge factors would cost time quadratic in their count.
    """
    factors = [top + 1 for _, _, top in top_powers(b)]
    while len(factors) > 1:
        factors = [prod(factors[i:i + 2]) for i in range(0, len(factors), 2)]
    return prod(factors)


def chern_series(b: BundleExpr) -> list[tuple[int, list[int]]]:
    """The factors of the total Chern class of b, the product of
    (1 + line)^multiplicity (the trivial part contributes 1): each summand's
    (1 + y)^mult truncated at its cap, as (position, [C(mult, i) for each
    power i up to the top]).  Refuses with GeneratorBudgetExceeded, before
    building any, if their product would exceed the term budget of
    `expansion_budget()`."""
    budget = expansion_budget()
    cost = chern_expansion_cost(b)
    if cost > budget:
        raise GeneratorBudgetExceeded(cost, budget, "Chern class expansion")
    return [(pos, [comb(mult, i) for i in range(top + 1)]) for pos, mult, top in top_powers(b)]


def chern_component(b: BundleExpr, degree: int) -> GradedClass:
    """The homogeneous component of the total Chern class of b in one
    degree, expanded alone.

    Multiplies the summands' truncated series (1 + y)^mult one at a time
    and prunes every partial term that can no longer reach the degree:
    one whose power sum already passes degree/2, or that the remaining
    summands' top powers cannot lift to it.  A partial term carries its
    slack, degree/2 minus its power sum minus the top powers still to
    come, as one running integer: taking a summand's top power leaves it
    as it is, so the bounds are two comparisons and no arithmetic on the
    degree.  Its chosen powers are links, (power, earlier link), read back
    into an exponent vector once at the end, and C(mult, i) is computed
    only for the powers 0 < i < mult that survive.  In the Euler degree
    2*rank at most one partial term survives each step, at its top power,
    so that component costs time linear in the summands and needs no
    budget.  Odd or negative degrees hold nothing and yield the zero class.
    """
    if degree < 0 or degree % 2:
        return GradedClass.zero(b.base)
    tops = list(top_powers(b))
    reach = sum(top for _, _, top in tops)  # what the summands not yet taken can add
    partial = [(None, degree // 2 - reach, 1)]  # (chosen powers, slack, coefficient)
    for pos, mult, top in tops:
        reach -= top
        step = []
        for chosen, slack, coeff in partial:
            # power top - j: j at most -slack, so the summands after it can
            # still lift the sum to degree/2, and at least -slack - reach,
            # so the sum does not pass it
            for j in range(-slack - reach if -slack > reach else 0, min(top, -slack) + 1):
                i = top - j if j else top  # the top power itself, with no subtraction
                # C(mult, 0) = C(mult, mult) = 1
                step.append(((i, chosen), slack + j,
                             coeff if i == 0 or i == mult else coeff * comb(mult, i)))
        partial = step
    terms = {}
    for chosen, slack, coeff in partial:
        if slack == 0:  # the power sum is degree/2
            key = [0] * len(b.base.caps)
            for pos, _, _ in reversed(tops):
                key[pos], chosen = chosen
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
    # one term, its exponents below their caps: normal without re-checking
    return GradedClass._normal(base, {tuple(key): 1})


class DiagonalSlot(namedtuple("DiagonalSlot", "eigenvalue_map multiplicity carrier")):
    """One eigenvalue-map slot of a diagonal connecting map.

    The carrier is the generator position, in the ring of the map's source,
    of the line bundle the slot's projection is supported on (None meaning
    the trivial line); slots of the basic kind just pull back, constant
    slots convert everything they carry into carrier lines of the
    appropriate rank.  A slot occurs at least once.  A named tuple, checked
    when it is made.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so `_replace` checks too

    def __new__(cls, eigenvalue_map: SpaceMap, multiplicity: int = 1,
                carrier: int | None = None):
        if multiplicity < 1:
            raise ValueError(f"slot multiplicity must be >= 1, got {multiplicity}")
        return tuple.__new__(cls, (eigenvalue_map, multiplicity, carrier))


def pushforward_diagonal(b: BundleExpr, slots: list[DiagonalSlot]) -> BundleExpr:
    """Image of a bundle under a diagonal map given by eigenvalue-map slots.

    All maps must share one source (the next stage space) and target the
    bundle's base.  Each slot pulls the bundle back in place, so a pullback
    is one slot: a constant map gives `b.rank` trivial lines, a projection
    moves each summand through `pullback_positions`.  A carrier turns the
    piece's trivial lines into copies of its line, and refuses a piece with
    a line summand (their tensor is no single generator).  The pieces,
    times their multiplicities, are merged into one bundle over the source.
    """
    if not slots:
        raise ValueError("diagonal map needs at least one slot")
    source = slots[0].eigenvalue_map.source
    for s in slots:
        if s.eigenvalue_map.source != source:
            raise BaseMismatchError("all eigenvalue maps must share a source")
        if s.eigenvalue_map.target != b.base:
            raise BaseMismatchError("eigenvalue map target differs from the bundle base")
    trivial_rank, parts = 0, []
    for s in slots:
        f, times = s.eigenvalue_map, s.multiplicity
        if f.kind == CONSTANT:
            trivial, piece = b.rank, []
        else:
            moved = pullback_positions(f)
            trivial, piece = b.trivial_rank, [(moved[pos], m) for pos, m in b.parts.items()]
        if s.carrier is not None:
            if piece:
                raise InvalidLineClassError("a line summand tensored with a line is not "
                                            "a single generator")
            # kept even at rank 0, so the constructor checks the position
            trivial, piece = 0, [(s.carrier, trivial)]
        trivial_rank += trivial * times
        parts.extend((pos, m * times) for pos, m in piece)
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
