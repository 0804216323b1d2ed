"""Formal descriptors for the CW complexes the engine works over.

A space is an ordered product of atoms: powers of the 2-disk (contractible,
carrying dimension only), 2-spheres, and complex projective spaces.  The
factor list fixes the cohomology ring, so a space is also its own ring
presentation: one degree-2 generator per sphere or projective factor, in
factor order, with its power cap.  Maps between such products are
coordinate projections or constant maps.  Points are opaque labels, never
coordinates.  `read_int` is the one reader of the integers in input
documents and on the command line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

DISK = "disk"
SPHERE2 = "s2"
CPROJ = "cp"

# Entries kept by each space-keyed cache (stage spaces, witness bases).
# A CLI call walks its stages in order and touches stage m next to m-1 or
# m+1.  Measured with cold caches per call, as the benchmark runs them, on
# all three workloads of `bench/workloads.py` (seeds 201 and 202): every hit
# is to one of the last 2 distinct keys of its cache, except in at most one
# lookup per call, where `v2 --rc` or an infinite-family `v2 --comparability`
# comes back to a stage after a sweep past it and rebuilds it once.
SPACE_CACHE_SIZE = 2

_DECIMAL = re.compile(r"-?[0-9]+")


def read_int(value, what: str) -> int:
    """An integer slot of an input document, option or environment variable:
    a JSON integer that is not a boolean, or a string of ASCII decimal
    digits with an optional minus."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str) and _DECIMAL.fullmatch(value):
        return int(value)
    raise ValueError(f"{what} must be an integer or a decimal string, not {value!r}")


@dataclass(frozen=True)
class SpaceAtom:
    """One factor of a product space.

    kind/size: ("disk", d) is the d-fold power of the 2-disk, ("s2", 1) a
    2-sphere, ("cp", n) the complex projective space of complex dimension n.
    """

    kind: str
    size: int
    label: str = ""

    def __post_init__(self):
        if self.kind not in (DISK, SPHERE2, CPROJ):
            raise ValueError(f"unknown atom kind {self.kind!r}")
        if self.kind == DISK and self.size < 0:
            raise ValueError("disk power must be >= 0")
        if self.kind == CPROJ and self.size < 1:
            raise ValueError("projective space needs complex dimension >= 1")
        if self.kind == SPHERE2 and self.size != 1:
            raise ValueError("a 2-sphere atom has no size parameter")

    @property
    def real_dimension(self) -> int:
        return 2 * self.size

    @property
    def generator_cap(self) -> int | None:
        """Nilpotency cap of the atom's degree-2 generator; None for disks."""
        if self.kind == SPHERE2:
            return 2
        if self.kind == CPROJ:
            return self.size + 1
        return None

    @staticmethod
    def from_json(doc: dict) -> "SpaceAtom":
        kind = doc["kind"]
        if kind == DISK:
            return SpaceAtom(DISK, read_int(doc["d"], "disk power d"), doc.get("label", ""))
        if kind == CPROJ:
            return SpaceAtom(CPROJ, read_int(doc["n"], "cp dimension n"), doc.get("label", ""))
        if kind == SPHERE2:
            return SpaceAtom(SPHERE2, 1, doc.get("label", ""))
        raise ValueError(f"unknown atom kind {kind!r}")


def disk(power: int, label: str = "") -> SpaceAtom:
    return SpaceAtom(DISK, power, label)


def sphere2(label: str = "") -> SpaceAtom:
    return SpaceAtom(SPHERE2, 1, label)


def cproj(n: int, label: str = "") -> SpaceAtom:
    return SpaceAtom(CPROJ, n, label)


@dataclass(frozen=True, eq=False)
class SpaceDescriptor:
    """An ordered finite product of atoms, and the presentation of its ring.

    Factor order is canonical (stage of introduction, then position within
    the stage) and is preserved by serialization, so factor indices are
    stable identifiers for projections and ring generators.

    A generator's position (its exponent slot in every class over the
    space) counts the sphere and projective factors before it.  `caps` lists
    the power caps by position, `positions` maps a generator's factor index
    to its position, and `generator_names` holds the names `z<factor>`
    (sphere) and `y<factor>` (projective space) that reprs print.

    Descriptors key the stage caches, so the hash and the ring data are
    computed once, when the descriptor is built, and equality compares
    hashes before factors.
    """

    factors: tuple[SpaceAtom, ...] = field(default_factory=tuple)
    _hash: int = field(init=False, repr=False)
    caps: tuple[int, ...] = field(init=False, repr=False)
    generator_names: tuple[str, ...] = field(init=False, repr=False)
    positions: dict[int, int] = field(init=False, repr=False)

    def __post_init__(self):
        factors = tuple(self.factors)
        ring = [(idx, cap) for idx, atom in enumerate(factors)
                if (cap := atom.generator_cap) is not None]
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "_hash", hash(factors))
        object.__setattr__(self, "caps", tuple(cap for _, cap in ring))
        object.__setattr__(self, "generator_names",
                           tuple(f"{'z' if cap == 2 else 'y'}{idx}" for idx, cap in ring))
        object.__setattr__(self, "positions", {idx: pos for pos, (idx, _) in enumerate(ring)})

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, SpaceDescriptor):
            return NotImplemented
        return self._hash == other._hash and self.factors == other.factors

    def __hash__(self) -> int:
        return self._hash

    def generator_position(self, factor_index: int) -> int:
        """The position of a factor's generator; KeyError for a disk."""
        try:
            return self.positions[factor_index]
        except KeyError:
            raise KeyError(f"factor {factor_index} carries no generator") from None

    @property
    def real_dimension(self) -> int:
        return sum(a.real_dimension for a in self.factors)

    @staticmethod
    def from_json(doc: dict) -> "SpaceDescriptor":
        return SpaceDescriptor(tuple(SpaceAtom.from_json(a) for a in doc["factors"]))


def spheres(n: int) -> SpaceDescriptor:
    """The n-fold product of 2-spheres."""
    return SpaceDescriptor(tuple(sphere2() for _ in range(n)))


PROJECTION = "proj"
CONSTANT = "const"


@dataclass(frozen=True)
class SpaceMap:
    """A structure-preserving map between product spaces.

    A projection selects source factors matching the target's factor list
    exactly (indices are 0-based positions in the source).  A constant map
    records only an opaque point label.
    """

    source: SpaceDescriptor
    target: SpaceDescriptor
    kind: str
    indices: tuple[int, ...] = ()
    point: str = ""

    def __post_init__(self):
        if self.kind == PROJECTION:
            if len(self.indices) != len(self.target.factors):
                raise ValueError("projection must select one source factor per target factor")
            if len(set(self.indices)) != len(self.indices):
                raise ValueError("projection must select distinct source factors")
            for pos, idx in enumerate(self.indices):
                if not 0 <= idx < len(self.source.factors):
                    raise ValueError(f"projection index {idx} out of range")
                if self.source.factors[idx] != self.target.factors[pos]:
                    raise ValueError(
                        f"selected source factor {idx} does not match target factor {pos}"
                    )
        elif self.kind == CONSTANT:
            if not self.point:
                raise ValueError("constant map needs a point label")
        else:
            raise ValueError(f"unknown map kind {self.kind!r}")


def projection(source: SpaceDescriptor, target: SpaceDescriptor,
               indices: tuple[int, ...]) -> SpaceMap:
    return SpaceMap(source, target, PROJECTION, indices=tuple(indices))


def constant(source: SpaceDescriptor, target: SpaceDescriptor, point: str) -> SpaceMap:
    return SpaceMap(source, target, CONSTANT, point=point)
