"""Formal descriptors for the CW complexes the engine works over.

A space is an ordered product of atoms: powers of the 2-disk (contractible,
carrying dimension only), 2-spheres, and complex projective spaces.  The
factor list fixes the cohomology ring, so a space is also its own ring
presentation: one degree-2 generator per sphere or projective factor, in
factor order, with its power cap.  `SpaceDescriptor.extend` appends
factors to a space and derives the product's ring data from the space's,
which is how a walk up the type-II stage tower builds each stage from the
one before.
Maps between such products are coordinate projections or constant maps.
Points are opaque labels, never coordinates.  `read_int` is the one reader
of the integers in input documents and on the command line.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field

DISK = "disk"
SPHERE2 = "s2"
CPROJ = "cp"

_DECIMAL = re.compile(r"-?[0-9]+")


def read_int(value, what: str) -> int:
    """An integer slot of an input document, option or environment variable:
    a JSON integer that is not a boolean, or a string of ASCII decimal
    digits with an optional minus."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str) and _DECIMAL.fullmatch(value):
        try:
            return int(value)
        except ValueError:  # past the interpreter's int<->str digit limit
            raise ValueError(f"{what} has {len(value.lstrip('-'))} digits, past the "
                             f"limit of {sys.get_int_max_str_digits()}") from None
    raise ValueError(f"{what} must be an integer or a decimal string, not {value!r}")


def json_list(value, what: str) -> list:
    """A list slot of an input document: a string or an object there would be
    read by its characters or keys, so anything but a JSON list is a ValueError."""
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a JSON list, not {value!r}")
    return value


def json_object(value, what: str) -> dict:
    """An object slot of an input document: anything but a JSON object is a
    ValueError, not a list or string read by its items."""
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, not {value!r}")
    return value


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
    the power caps by position and `positions` maps a generator's factor
    index to its position.

    The ring data and the real dimension are computed once, when the
    descriptor is built, so `extend` derives them from its predecessor's
    and visits only the new atoms.  Equality and hash are those of the
    factor tuple.
    """

    factors: tuple[SpaceAtom, ...] = field(default_factory=tuple)
    caps: tuple[int, ...] = field(init=False, repr=False)
    positions: dict[int, int] = field(init=False, repr=False)
    real_dimension: int = field(init=False, repr=False)

    def __post_init__(self):
        atoms = tuple(self.factors)
        for name, value in _EMPTY_PRODUCT.items():
            object.__setattr__(self, name, value)
        self._append(atoms)

    def extend(self, atoms) -> "SpaceDescriptor":
        """This space times `atoms`, which follow its factors.

        Equal to `SpaceDescriptor(self.factors + tuple(atoms))`; this
        space's tuples and dict are copied, not rebuilt.
        """
        space = object.__new__(SpaceDescriptor)
        space.__dict__.update(self.__dict__)
        space._append(tuple(atoms))
        return space

    def _append(self, atoms: tuple[SpaceAtom, ...]) -> None:
        # only while the descriptor is being built: it is frozen afterwards
        dim = self.real_dimension
        idx, pos = len(self.factors), len(self.caps)
        caps, positions = [], {}
        for atom in atoms:
            dim += atom.real_dimension
            cap = atom.generator_cap
            if cap is not None:
                caps.append(cap)
                positions[idx] = pos
                pos += 1
            idx += 1
        object.__setattr__(self, "factors", self.factors + atoms)
        object.__setattr__(self, "caps", self.caps + tuple(caps))
        object.__setattr__(self, "positions", {**self.positions, **positions})
        object.__setattr__(self, "real_dimension", dim)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, SpaceDescriptor):
            return NotImplemented
        return self.factors == other.factors

    def __hash__(self) -> int:
        return hash(self.factors)

    @property
    def generator_names(self) -> tuple[str, ...]:
        """The names reprs print, by position: `z<factor>` for a generator
        of cap 2, `y<factor>` for a longer projective one."""
        return tuple(f"{'z' if self.caps[pos] == 2 else 'y'}{idx}"
                     for idx, pos in self.positions.items())

    def generator_position(self, factor_index: int) -> int:
        """The position of a factor's generator; KeyError for a disk."""
        try:
            return self.positions[factor_index]
        except KeyError:
            raise KeyError(f"factor {factor_index} carries no generator") from None

    @staticmethod
    def from_json(doc: dict) -> "SpaceDescriptor":
        return SpaceDescriptor(tuple(SpaceAtom.from_json(a)
                                     for a in json_list(doc["factors"], "factors")))


# the fields of the product of no factors, where every descriptor starts
_EMPTY_PRODUCT = {"factors": (), "caps": (), "positions": {}, "real_dimension": 0}


def spheres(n: int) -> SpaceDescriptor:
    """The n-fold product of 2-spheres."""
    return SpaceDescriptor(tuple(sphere2() for _ in range(n)))


PROJECTION = "proj"
CONSTANT = "const"


@dataclass(frozen=True)
class SpaceMap:
    """A structure-preserving map between product spaces.

    A projection selects source factors matching the target's factor list
    exactly (indices are 0-based positions in the source).  A projection
    onto the first factors of its source, in order, stores its indices as
    `range(t)` (`onto_prefix`), any other as a tuple.  A constant map
    records only an opaque point label.
    """

    source: SpaceDescriptor
    target: SpaceDescriptor
    kind: str
    indices: tuple[int, ...] | range = ()
    point: str = ""

    def __post_init__(self):
        if self.kind == PROJECTION:
            factors, target, t = self.source.factors, self.target.factors, len(self.indices)
            if t != len(target):
                raise ValueError("projection must select one source factor per target factor")
            if self.indices == range(t) or tuple(self.indices) == tuple(range(t)):
                # a tower stage onto the stage before: one tuple comparison,
                # in which the atoms the two share compare by identity
                object.__setattr__(self, "indices", range(t))
                if t > len(factors):
                    raise ValueError(f"projection index {t - 1} out of range")
                selected = factors[:t]
            else:
                indices = tuple(self.indices)
                object.__setattr__(self, "indices", indices)
                if len(set(indices)) != t:
                    raise ValueError("projection must select distinct source factors")
                for idx in indices:
                    if not 0 <= idx < len(factors):
                        raise ValueError(f"projection index {idx} out of range")
                selected = tuple(factors[idx] for idx in indices)
            if selected != target:
                pos = next(pos for pos, atom in enumerate(selected) if atom != target[pos])
                raise ValueError(f"selected source factor {self.indices[pos]} does not "
                                 f"match target factor {pos}")
        elif self.kind == CONSTANT:
            if not self.point:
                raise ValueError("constant map needs a point label")
        else:
            raise ValueError(f"unknown map kind {self.kind!r}")

    @property
    def onto_prefix(self) -> bool:
        """Whether this projects onto the first factors of its source, in
        order, so that every target generator keeps its position."""
        return self.kind == PROJECTION and isinstance(self.indices, range)


def projection(source: SpaceDescriptor, target: SpaceDescriptor, indices) -> SpaceMap:
    return SpaceMap(source, target, PROJECTION, indices=indices)


def constant(source: SpaceDescriptor, target: SpaceDescriptor, point: str) -> SpaceMap:
    return SpaceMap(source, target, CONSTANT, point=point)
