"""Integral cohomology of the modeled spaces as capped sparse polynomial rings.

Every space built from disks, 2-spheres and complex projective spaces has
torsion-free cohomology concentrated in even degrees, generated by one
degree-2 class per sphere or projective factor subject to a single power
relation: the generator of a 2-sphere squares to zero (cap 2) and the
generator of CP^n vanishes at power n+1 (cap n+1).  The space itself
presents the ring (`SpaceDescriptor.caps`, by generator position).  A class
is stored as a sparse map from exponent vectors to arbitrary-precision
integers; any term whose exponent reaches its cap is identically zero and
is dropped on sight.
"""

from __future__ import annotations

from itertools import product
from math import prod

from .errors import BaseMismatchError
from .spaces import CONSTANT, PROJECTION, SpaceDescriptor, SpaceMap, read_int


class GradedClass:
    """A cohomology class: sparse exponent-vector -> big-integer coefficient.

    Instances are immutable by convention; all operations return new classes.
    The constructor normalizes: zero coefficients and capped exponents are
    dropped, so stored data always satisfies the ring relations.
    """

    __slots__ = ("space", "terms")

    def __init__(self, space: SpaceDescriptor, terms: dict | None = None):
        caps = space.caps
        clean = {}
        for exps, coeff in (terms or {}).items():
            if coeff == 0:
                continue
            exps = tuple(exps)
            if len(exps) != len(caps):
                raise ValueError("exponent vector length does not match generator count")
            if any(e < 0 for e in exps):
                raise ValueError("negative exponent")
            if any(e >= c for e, c in zip(exps, caps)):
                continue  # the term is zero in the ring
            clean[exps] = clean.get(exps, 0) + coeff
        self.space = space
        self.terms = {e: c for e, c in clean.items() if c != 0}

    @classmethod
    def _normal(cls, space: SpaceDescriptor, terms: dict) -> "GradedClass":
        # for kernels whose output is normal by construction: exponent tuples
        # of the right length, below their caps, each once, coefficients nonzero
        obj = cls.__new__(cls)
        obj.space = space
        obj.terms = terms
        return obj

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(space: SpaceDescriptor) -> "GradedClass":
        return GradedClass(space, {})

    @staticmethod
    def unit(space: SpaceDescriptor, coeff: int = 1) -> "GradedClass":
        return GradedClass(space, {(0,) * len(space.caps): coeff})

    @staticmethod
    def generator(space: SpaceDescriptor, factor_index: int) -> "GradedClass":
        """The generator of one factor, coefficient one."""
        exps = [0] * len(space.caps)
        exps[space.generator_position(factor_index)] = 1
        return GradedClass(space, {tuple(exps): 1})

    # -- basic structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (isinstance(other, GradedClass)
                and self.space == other.space
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.space, frozenset(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return "GradedClass(0)"
        gids = self.space.generator_names
        parts = []
        for exps, coeff in sorted(self.terms.items()):
            mono = "*".join(f"{gids[i]}^{e}" if e > 1 else gids[i]
                            for i, e in enumerate(exps) if e)
            if coeff != 1 or not mono:  # a unit coefficient is left off a monomial
                mono = f"{coeff}*{mono}" if mono else f"{coeff}"
            parts.append(mono)
        return "GradedClass(" + " + ".join(parts) + ")"

    def _check_same_space(self, other: "GradedClass"):
        if self.space != other.space:
            raise BaseMismatchError("classes live over different spaces")

    def __add__(self, other: "GradedClass") -> "GradedClass":
        self._check_same_space(other)
        merged = dict(self.terms)
        for exps, coeff in other.terms.items():
            merged[exps] = merged.get(exps, 0) + coeff
        return GradedClass(self.space, merged)

    def __neg__(self) -> "GradedClass":
        return GradedClass(self.space, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "GradedClass") -> "GradedClass":
        return self + (-other)

    def scale(self, factor: int) -> "GradedClass":
        return GradedClass(self.space, {e: factor * c for e, c in self.terms.items()})

    def support_positions(self) -> set[int]:
        """Positions of the generators with positive exponent in some term."""
        out: set[int] = set()
        for exps in self.terms:
            out.update(i for i, e in enumerate(exps) if e)
        return out

    def constant_term(self) -> int:
        return self.terms.get((0,) * len(self.space.caps), 0)

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        return {"terms": [{"exponents": list(e), "coefficient": str(c)}
                          for e, c in sorted(self.terms.items())]}

    @staticmethod
    def from_json(space: SpaceDescriptor, doc: dict) -> "GradedClass":
        terms = {tuple(read_int(x, "exponent") for x in t["exponents"]):
                 read_int(t["coefficient"], "coefficient")
                 for t in doc["terms"]}
        return GradedClass(space, terms)


def cup(a: GradedClass, b: GradedClass) -> GradedClass:
    """Cup product with cap deletion.

    All generators are even-degree, so the product is commutative; terms
    whose exponents reach a cap are zero and never stored.
    """
    a._check_same_space(b)
    space = a.space
    if not a.terms or not b.terms:
        return GradedClass.zero(space)
    caps = space.caps
    out: dict = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            key = tuple(x + y for x, y in zip(e1, e2))
            if any(e >= c for e, c in zip(key, caps)):
                continue
            out[key] = out.get(key, 0) + c1 * c2
    return GradedClass(space, out)


def product_all(classes: list[GradedClass]) -> GradedClass:
    """Cup together a nonempty list of classes.

    The empty list raises ValueError: it names no ring to take the unit of.
    """
    if not classes:
        raise ValueError("need a space; pass at least one class")
    acc = GradedClass.unit(classes[0].space)
    for c in classes:
        acc = cup(acc, c)
    return acc


def line_series_product(space: SpaceDescriptor,
                        factors: list[tuple[int, list[int]]]) -> GradedClass:
    """Product of one-generator polynomials on pairwise distinct positions.

    Each factor is (position, [c0, c1, ...]) and stands for the polynomial
    sum of c_i * g^i in the generator g at that position.  With distinct
    positions, at most cap coefficients per factor and none of them zero,
    every choice of one power per factor is a distinct, nonzero term below
    the caps, so the product is the Cartesian product of the factors with
    nothing to merge, cap or cancel.  The preconditions are checked once
    per factor (ValueError if one fails), not once per term.
    """
    caps = space.caps
    series: dict[int, list[int]] = {}
    for pos, coeffs in factors:
        if not 0 <= pos < len(caps):
            raise ValueError(f"no generator at position {pos}")
        if pos in series:
            raise ValueError(f"position {pos} carries two factors")
        if len(coeffs) > caps[pos]:
            raise ValueError(f"series at position {pos} reaches its cap {caps[pos]}")
        if not all(coeffs):
            raise ValueError(f"series at position {pos} has a zero coefficient")
        series[pos] = coeffs
    # itertools.product varies the last position fastest in both products,
    # so exponent tuples and coefficient choices come out aligned
    exponents = product(*[range(len(series[p])) if p in series else (0,)
                          for p in range(len(caps))])
    choices = product(*[series[p] for p in sorted(series)])
    return GradedClass._normal(space, {e: prod(c) for e, c in zip(exponents, choices)})


def graded_components(a: GradedClass) -> dict[int, GradedClass]:
    """The nonzero homogeneous components of a class, by degree, in one pass."""
    split: dict[int, dict] = {}
    for exps, coeff in a.terms.items():
        split.setdefault(2 * sum(exps), {})[exps] = coeff
    return {d: GradedClass._normal(a.space, split[d]) for d in sorted(split)}


def homogeneous_component(a: GradedClass, degree: int) -> GradedClass:
    """Terms of exactly the given (even, nonnegative) degree.

    Odd or negative degrees hold nothing in these rings, so they yield the
    zero class rather than an error.
    """
    if degree < 0 or degree % 2:
        return GradedClass.zero(a.space)
    want = degree // 2
    return GradedClass._normal(a.space,
                               {e: c for e, c in a.terms.items() if sum(e) == want})


def pullback_positions(f: SpaceMap) -> tuple[int, ...]:
    """Where a coordinate projection sends each target generator.

    Entry p is the source position of the generator that target position p
    pulls back to.
    """
    if f.kind != PROJECTION:
        raise ValueError("only coordinate projections move generators")
    # `positions` lists the target's generator factors in position order; a
    # valid projection selects a source factor of the same kind for each
    return tuple(f.source.generator_position(f.indices[idx]) for idx in f.target.positions)


def pullback_class(f: SpaceMap, a: GradedClass) -> GradedClass:
    """Pull a class back along a space map; a ring homomorphism.

    Under a coordinate projection each target generator goes to the source
    generator of the selected factor; under a constant map every positive
    degree dies and the constant term survives.
    """
    if a.space != f.target:
        raise BaseMismatchError("class does not live over the map's target")
    if f.kind == CONSTANT:
        return GradedClass.unit(f.source, a.constant_term())
    position_map = pullback_positions(f)
    out: dict = {}
    for exps, coeff in a.terms.items():
        key = [0] * len(f.source.caps)
        for pos, e in enumerate(exps):
            key[position_map[pos]] += e
        key = tuple(key)
        out[key] = out.get(key, 0) + coeff
    return GradedClass(f.source, out)


def kunneth_product_nonzero(classes: list[GradedClass]) -> bool:
    """Whether the cup product of classes on disjoint generator blocks is nonzero.

    Over these torsion-free rings a product of nonzero classes supported on
    pairwise disjoint generator sets can never cancel, so the answer is just
    "all factors nonzero"; this must (and does, see the tests) agree with
    expanding the full product and checking for emptiness.
    """
    if not classes:
        raise ValueError("need at least one class")
    for c in classes[1:]:
        classes[0]._check_same_space(c)
    seen: set[int] = set()
    for c in classes:
        block = c.support_positions()
        if block & seen:
            raise ValueError("classes overlap on shared generators")
        seen |= block
    return all(not c.is_zero() for c in classes)
