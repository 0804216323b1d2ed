"""Integral cohomology of the modeled spaces as capped sparse polynomial rings.

Every space built from disks, 2-spheres and complex projective spaces has
torsion-free cohomology concentrated in even degrees, generated by one
degree-2 class per sphere or projective factor subject to a single power
relation: the generator of a 2-sphere squares to zero (cap 2) and the
generator of CP^n vanishes at power n+1 (cap n+1).  A class is stored as a
sparse map from exponent vectors to arbitrary-precision integers; any term
whose exponent reaches its cap is identically zero and is dropped on sight.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from math import prod

from .errors import PresentationMismatchError
from .spaces import (CONSTANT, PROJECTION, SPACE_CACHE_SIZE, SpaceDescriptor, SpaceMap,
                     read_int)


@dataclass(frozen=True)
class Generator:
    gid: str
    cap: int
    factor_index: int


@dataclass(frozen=True, eq=False)
class RingPresentation:
    """The ring of a space: its degree-2 generators with their power caps.

    A generator's position in `generators` is its exponent slot in every
    class over the ring; `caps` lists the caps by position and `positions`
    maps a factor index to the position of its generator.
    """

    space: SpaceDescriptor
    generators: tuple[Generator, ...]
    caps: tuple[int, ...] = field(init=False, repr=False)
    positions: dict[int, int] = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "caps", tuple(g.cap for g in self.generators))
        object.__setattr__(self, "positions",
                           {g.factor_index: pos for pos, g in enumerate(self.generators)})

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, RingPresentation):
            return NotImplemented
        return self.space == other.space and self.generators == other.generators

    def __hash__(self) -> int:
        return hash(self.space)

    def generator_position(self, factor_index: int) -> int:
        try:
            return self.positions[factor_index]
        except KeyError:
            raise KeyError(f"factor {factor_index} carries no generator") from None


@lru_cache(maxsize=SPACE_CACHE_SIZE)
def presentation_of(space: SpaceDescriptor) -> RingPresentation:
    """The ring of a space, served from a cache of the last few spaces used."""
    gens = []
    for idx, atom in enumerate(space.factors):
        cap = atom.generator_cap
        if cap is None:
            continue
        prefix = "z" if cap == 2 else "y"
        gens.append(Generator(f"{prefix}{idx}", cap, idx))
    return RingPresentation(space, tuple(gens))


class GradedClass:
    """A cohomology class: sparse exponent-vector -> big-integer coefficient.

    Instances are immutable by convention; all operations return new classes.
    The constructor normalizes: zero coefficients and capped exponents are
    dropped, so stored data always satisfies the ring relations.
    """

    __slots__ = ("presentation", "terms")

    def __init__(self, presentation: RingPresentation, terms: dict | None = None):
        caps = presentation.caps
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
        self.presentation = presentation
        self.terms = {e: c for e, c in clean.items() if c != 0}

    @classmethod
    def _normal(cls, presentation: RingPresentation, terms: dict) -> "GradedClass":
        # for kernels whose output is normal by construction: exponent tuples
        # of the right length, below their caps, each once, coefficients nonzero
        obj = cls.__new__(cls)
        obj.presentation = presentation
        obj.terms = terms
        return obj

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(presentation: RingPresentation) -> "GradedClass":
        return GradedClass(presentation, {})

    @staticmethod
    def unit(presentation: RingPresentation, coeff: int = 1) -> "GradedClass":
        n = len(presentation.generators)
        return GradedClass(presentation, {(0,) * n: coeff})

    @staticmethod
    def generator(presentation: RingPresentation, factor_index: int) -> "GradedClass":
        """The generator of one factor, coefficient one."""
        exps = [0] * len(presentation.generators)
        exps[presentation.generator_position(factor_index)] = 1
        return GradedClass(presentation, {tuple(exps): 1})

    # -- basic structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (isinstance(other, GradedClass)
                and self.presentation == other.presentation
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.presentation, frozenset(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return "GradedClass(0)"
        gids = [g.gid for g in self.presentation.generators]
        parts = []
        for exps, coeff in sorted(self.terms.items()):
            mono = "*".join(f"{gids[i]}^{e}" if e > 1 else gids[i]
                            for i, e in enumerate(exps) if e)
            parts.append(f"{coeff}" + (f"*{mono}" if mono else ""))
        return "GradedClass(" + " + ".join(parts) + ")"

    def _check_same_ring(self, other: "GradedClass"):
        if self.presentation != other.presentation:
            raise PresentationMismatchError("classes live over different rings")

    def __add__(self, other: "GradedClass") -> "GradedClass":
        self._check_same_ring(other)
        merged = dict(self.terms)
        for exps, coeff in other.terms.items():
            merged[exps] = merged.get(exps, 0) + coeff
        return GradedClass(self.presentation, merged)

    def __neg__(self) -> "GradedClass":
        return GradedClass(self.presentation, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "GradedClass") -> "GradedClass":
        return self + (-other)

    def scale(self, factor: int) -> "GradedClass":
        return GradedClass(self.presentation, {e: factor * c for e, c in self.terms.items()})

    def support_positions(self) -> set[int]:
        """Generator positions appearing with positive exponent in some term."""
        out: set[int] = set()
        for exps in self.terms:
            out.update(i for i, e in enumerate(exps) if e)
        return out

    def constant_term(self) -> int:
        n = len(self.presentation.generators)
        return self.terms.get((0,) * n, 0)

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        return {"terms": [{"exponents": list(e), "coefficient": str(c)}
                          for e, c in sorted(self.terms.items())]}

    @staticmethod
    def from_json(presentation: RingPresentation, doc: dict) -> "GradedClass":
        terms = {tuple(read_int(x, "exponent") for x in t["exponents"]):
                 read_int(t["coefficient"], "coefficient")
                 for t in doc["terms"]}
        return GradedClass(presentation, terms)


def cup(a: GradedClass, b: GradedClass) -> GradedClass:
    """Cup product with cap deletion.

    All generators are even-degree, so the product is commutative; terms
    whose exponents reach a cap are zero and never stored.
    """
    a._check_same_ring(b)
    pres = a.presentation
    if not a.terms or not b.terms:
        return GradedClass.zero(pres)
    caps = pres.caps
    out: dict = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            key = tuple(x + y for x, y in zip(e1, e2))
            if any(e >= c for e, c in zip(key, caps)):
                continue
            out[key] = out.get(key, 0) + c1 * c2
    return GradedClass(pres, out)


def product_all(classes: list[GradedClass]) -> GradedClass:
    """Cup together a nonempty list of classes.

    The empty list raises ValueError: it names no ring to take the unit of.
    """
    if not classes:
        raise ValueError("need a presentation; pass at least one class")
    acc = GradedClass.unit(classes[0].presentation)
    for c in classes:
        acc = cup(acc, c)
    return acc


def line_series_product(pres: RingPresentation,
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
    caps = pres.caps
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
    return GradedClass._normal(pres, {e: prod(c) for e, c in zip(exponents, choices)})


def graded_components(a: GradedClass) -> dict[int, GradedClass]:
    """The nonzero homogeneous components of a class, by degree, in one pass."""
    split: dict[int, dict] = {}
    for exps, coeff in a.terms.items():
        split.setdefault(2 * sum(exps), {})[exps] = coeff
    return {d: GradedClass._normal(a.presentation, split[d]) for d in sorted(split)}


def homogeneous_component(a: GradedClass, degree: int) -> GradedClass:
    """Terms of exactly the given (even, nonnegative) degree.

    Odd or negative degrees hold nothing in these rings, so they yield the
    zero class rather than an error.
    """
    if degree < 0 or degree % 2:
        return GradedClass.zero(a.presentation)
    want = degree // 2
    return GradedClass._normal(a.presentation,
                               {e: c for e, c in a.terms.items() if sum(e) == want})


def pullback_positions(f: SpaceMap) -> tuple[int, ...]:
    """Where a coordinate projection sends each target generator.

    Entry p is the source position of the generator that target position p
    pulls back to.
    """
    if f.kind != PROJECTION:
        raise ValueError("only coordinate projections move generators")
    source_pres = presentation_of(f.source)
    out = []
    for g in presentation_of(f.target).generators:
        try:
            out.append(source_pres.generator_position(f.indices[g.factor_index]))
        except KeyError as exc:  # cannot happen for valid projections
            raise PresentationMismatchError(f"generator {g.gid} has no image") from exc
    return tuple(out)


def pullback_class(f: SpaceMap, a: GradedClass) -> GradedClass:
    """Pull a class back along a space map; a ring homomorphism.

    Under a coordinate projection each target generator goes to the source
    generator of the selected factor; under a constant map every positive
    degree dies and the constant term survives.
    """
    if a.presentation != presentation_of(f.target):
        raise PresentationMismatchError("class does not live over the map's target")
    source_pres = presentation_of(f.source)
    if f.kind == CONSTANT:
        return GradedClass.unit(source_pres, a.constant_term())
    position_map = pullback_positions(f)
    n_src = len(source_pres.generators)
    out: dict = {}
    for exps, coeff in a.terms.items():
        key = [0] * n_src
        for pos, e in enumerate(exps):
            key[position_map[pos]] += e
        key = tuple(key)
        out[key] = out.get(key, 0) + coeff
    return GradedClass(source_pres, out)


def kunneth_product_nonzero(classes: list[GradedClass]) -> bool:
    """Whether the cup product of classes on disjoint generator blocks is nonzero.

    Over these torsion-free rings a product of nonzero classes supported on
    pairwise disjoint generator sets can never cancel, so the answer is just
    "all factors nonzero"; this must (and does, see the tests) agree with
    expanding the full product and checking for emptiness.
    """
    if not classes:
        raise ValueError("need at least one class")
    pres = classes[0].presentation
    for c in classes[1:]:
        if c.presentation != pres:
            raise PresentationMismatchError("classes live over different rings")
    seen: set[int] = set()
    for c in classes:
        block = c.support_positions()
        if block & seen:
            raise ValueError("classes overlap on shared generators")
        seen |= block
    return all(not c.is_zero() for c in classes)
