"""Formal descriptors for the CW complexes the engine works over.

A space is an ordered product of atoms: powers of the 2-disk (contractible,
carrying dimension only), 2-spheres, and complex projective spaces.  Maps
between such products are coordinate projections or constant maps, and
composing two of them folds to one of the two kinds again.  Points are
opaque labels, never coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import CompositionError

DISK = "disk"
SPHERE2 = "s2"
CPROJ = "cp"

# Entries kept by each space-keyed cache (rings, stage spaces, witness bases).
# A CLI call walks its stages in order and touches stage m next to m-1 or
# m+1.  Measured with cold caches per call, as the benchmark runs them, on
# all three workloads of `bench/workloads.py` (seeds 201 and 202): every hit
# is to one of the last 2 distinct keys of its cache, except in at most one
# lookup per call, where `v2 --rc` or an infinite-family `v2 --comparability`
# comes back to a stage after a sweep past it and rebuilds it once.
SPACE_CACHE_SIZE = 2


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

    def to_json(self) -> dict:
        doc: dict = {"kind": self.kind}
        if self.kind == DISK:
            doc["d"] = self.size
        elif self.kind == CPROJ:
            doc["n"] = self.size
        if self.label:
            doc["label"] = self.label
        return doc

    @staticmethod
    def from_json(doc: dict) -> "SpaceAtom":
        kind = doc["kind"]
        if kind == DISK:
            return SpaceAtom(DISK, int(doc["d"]), doc.get("label", ""))
        if kind == CPROJ:
            return SpaceAtom(CPROJ, int(doc["n"]), doc.get("label", ""))
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
    """An ordered finite product of atoms.

    Factor order is canonical (stage of introduction, then position within
    the stage) and is preserved by serialization, so factor indices are
    stable identifiers for projections and ring generators.

    Descriptors key the ring and stage caches, so the hash is computed once,
    when the descriptor is built, and equality compares hashes before
    factors.
    """

    factors: tuple[SpaceAtom, ...] = field(default_factory=tuple)
    _hash: int = field(init=False, repr=False)

    def __post_init__(self):
        factors = tuple(self.factors)
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "_hash", hash(factors))

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, SpaceDescriptor):
            return NotImplemented
        return self._hash == other._hash and self.factors == other.factors

    def __hash__(self) -> int:
        return self._hash

    @property
    def real_dimension(self) -> int:
        return sum(a.real_dimension for a in self.factors)

    def product(self, other: "SpaceDescriptor") -> "SpaceDescriptor":
        return SpaceDescriptor(self.factors + other.factors)

    def to_json(self) -> dict:
        return {"factors": [a.to_json() for a in self.factors]}

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
    records only an opaque point label; `compose` chains two maps.
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

    def to_json(self) -> dict:
        doc = {
            "kind": self.kind,
            "source": self.source.to_json(),
            "target": self.target.to_json(),
        }
        if self.kind == PROJECTION:
            doc["indices"] = list(self.indices)
        else:
            doc["point"] = self.point
        return doc

    @staticmethod
    def from_json(doc: dict) -> "SpaceMap":
        src = SpaceDescriptor.from_json(doc["source"])
        tgt = SpaceDescriptor.from_json(doc["target"])
        kind = doc["kind"]
        if kind == PROJECTION:
            return projection(src, tgt, tuple(int(i) for i in doc["indices"]))
        if kind == CONSTANT:
            return constant(src, tgt, doc["point"])
        raise ValueError(f"unknown map kind {kind!r}")


def projection(source: SpaceDescriptor, target: SpaceDescriptor,
               indices: tuple[int, ...]) -> SpaceMap:
    return SpaceMap(source, target, PROJECTION, indices=tuple(indices))


def constant(source: SpaceDescriptor, target: SpaceDescriptor, point: str) -> SpaceMap:
    return SpaceMap(source, target, CONSTANT, point=point)


def identity(space: SpaceDescriptor) -> SpaceMap:
    return projection(space, space, tuple(range(len(space.factors))))


def compose(f: SpaceMap, g: SpaceMap) -> SpaceMap:
    """The composite f after g, folded to a basic kind.

    g is applied first, so g.target must equal f.source.  A projection after
    a projection folds by index substitution; if f is constant the composite
    is constant at f's point; if g is constant the composite is constant at
    the (opaque) image of g's point, which keeps g's label.
    """
    if g.target != f.source:
        raise CompositionError("maps do not chain: g.target != f.source")
    if f.kind == CONSTANT:
        return constant(g.source, f.target, f.point)
    if g.kind == CONSTANT:
        return constant(g.source, f.target, g.point)
    folded = tuple(g.indices[i] for i in f.indices)
    return projection(g.source, f.target, folded)
