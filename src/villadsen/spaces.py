"""Formal descriptors for the CW complexes the engine works over.

A space is an ordered product of atoms: powers of the 2-disk (contractible,
carrying dimension only), 2-spheres, and complex projective spaces.  The
factor list fixes the cohomology ring, so a space is also its own ring
presentation: one degree-2 generator per sphere or projective factor, in
factor order, with its power cap, computed in one pass over the factors.
Maps between such products are coordinate projections or constant maps.
Points are opaque labels, never coordinates.  An atom and a map are named
tuples, checked when they are made, so their equality and hash are the
tuple's; a descriptor is a `Frozen` slotted class that builds its ring in
its constructor.  `read_int` reads every integer of an input document or
the command line, and `json_fields` refuses unknown keys in a document.
"""

from __future__ import annotations

import re
import reprlib
import sys
from collections import namedtuple

from .errors import ConfigError

DISK = "disk"
SPHERE2 = "s2"
CPROJ = "cp"

_DECIMAL = re.compile(r"-?[0-9]+")
# the keys of an atom document, by kind: a disk's power d and a cp's dimension n
_ATOM_KEYS = {DISK: {"kind", "label", "d"}, CPROJ: {"kind", "label", "n"},
              SPHERE2: {"kind", "label"}}


def shown(value) -> str:
    """`value` in an error line: `reprlib`'s short repr, or, if that is cut,
    the value's type and length and at most 80 characters of the repr."""
    text = reprlib.repr(value)
    if "..." not in text and len(text) <= 80:
        return text
    size = f" of length {len(value)}" if isinstance(value, (str, list, dict)) else ""
    return f"a {type(value).__name__}{size}, {text[:80]}"


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
    raise ValueError(f"{what} must be an integer or a decimal string, not {shown(value)}")


def json_list(value, what: str) -> list:
    """A list slot of an input document: a string or an object there would be
    read by its characters or keys, so anything but a JSON list is a ValueError."""
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a JSON list, not {shown(value)}")
    return value


def json_object(value, what: str) -> dict:
    """An object slot of an input document: anything but a JSON object is a
    ValueError, not a list or string read by its items."""
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, not {shown(value)}")
    return value


def json_fields(value, what: str, keys) -> dict:
    """An object slot of an input document (`json_object`) whose keys are
    all among `keys`: a misspelt or stray key would be dropped silently, so
    it is a ConfigError."""
    unknown = json_object(value, what).keys() - keys
    if unknown:
        raise ConfigError(f"unknown {what} keys: {shown(sorted(unknown))}")
    return value


class SpaceAtom(namedtuple("SpaceAtom", "kind size label")):
    """One factor of a product space.

    kind/size: ("disk", d) is the d-fold power of the 2-disk, ("s2", 1) a
    2-sphere, ("cp", n) the complex projective space of complex dimension n.
    A named tuple, checked when it is made, so equality and hash are the
    tuple's own.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so `_replace` checks too

    def __new__(cls, kind: str, size: int, label: str = ""):
        if kind not in (DISK, SPHERE2, CPROJ):
            raise ValueError(f"unknown atom kind {shown(kind)}")
        if kind == DISK and size < 0:
            raise ValueError("disk power must be >= 0")
        if kind == CPROJ and size < 1:
            raise ValueError("projective space needs complex dimension >= 1")
        if kind == SPHERE2 and size != 1:
            raise ValueError("a 2-sphere atom has no size parameter")
        if not isinstance(label, str):  # hashed with the atom, so a JSON list would not do
            raise ValueError(f"an atom label must be a string, not {shown(label)}")
        return tuple.__new__(cls, (kind, size, label))

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
        kind = json_object(doc, "atom")["kind"]
        if kind not in (DISK, CPROJ, SPHERE2):  # compared, so an unhashable kind is named too
            raise ValueError(f"unknown atom kind {shown(kind)}")
        label = json_fields(doc, "atom", _ATOM_KEYS[kind]).get("label", "")
        if kind == DISK:
            return SpaceAtom(DISK, read_int(doc["d"], "disk power d"), label)
        if kind == CPROJ:
            return SpaceAtom(CPROJ, read_int(doc["n"], "cp dimension n"), label)
        return SpaceAtom(SPHERE2, 1, label)


def disk(power: int, label: str = "") -> SpaceAtom:
    return SpaceAtom(DISK, power, label)


def sphere2(label: str = "") -> SpaceAtom:
    return SpaceAtom(SPHERE2, 1, label)


def cproj(n: int, label: str = "") -> SpaceAtom:
    return SpaceAtom(CPROJ, n, label)


class Frozen:
    """A slotted record whose attributes only its constructor sets, through
    `object.__setattr__`: setting or deleting one later is an AttributeError,
    so a subclass rebuilds its copies through its constructor (`__reduce__`)."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class SpaceDescriptor(Frozen):
    """An ordered finite product of atoms, and the presentation of its ring.

    Factor order is canonical (stage of introduction, then position within
    the stage) and is preserved by serialization, so factor indices are
    stable identifiers for projections and ring generators.

    A generator's position (its exponent slot in every class over the
    space) counts the sphere and projective factors before it.  `caps` lists
    the power caps by position and `positions` maps a generator's factor
    index to its position.

    The ring data and the real dimension are computed once, in one pass
    over the factors, when the descriptor is built, and no attribute can be
    set afterwards.  Equality and hash are those of the factor tuple.
    """

    __slots__ = ("factors", "caps", "positions", "real_dimension")

    def __init__(self, factors: tuple[SpaceAtom, ...] = ()):
        factors = tuple(factors)
        caps, positions, dim = [], {}, 0
        for idx, atom in enumerate(factors):
            dim += atom.real_dimension
            cap = atom.generator_cap
            if cap is not None:
                positions[idx] = len(caps)
                caps.append(cap)
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "caps", tuple(caps))
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "real_dimension", dim)

    def __repr__(self) -> str:
        return f"SpaceDescriptor(factors={self.factors!r})"

    def __reduce__(self):  # a copy or pickle is rebuilt by the constructor
        return SpaceDescriptor, (self.factors,)

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
        return SpaceDescriptor(tuple(SpaceAtom.from_json(a) for a in json_list(
            json_fields(doc, "space", {"factors"})["factors"], "factors")))


def spheres(n: int) -> SpaceDescriptor:
    """The n-fold product of 2-spheres."""
    return SpaceDescriptor(tuple(sphere2() for _ in range(n)))


PROJECTION = "proj"
CONSTANT = "const"


class SpaceMap(namedtuple("SpaceMap", "source target kind indices point")):
    """A structure-preserving map between product spaces.

    A projection selects source factors matching the target's factor list
    exactly (indices are 0-based positions in the source, stored as a
    tuple).  A constant map records only an opaque point label.  A named
    tuple, checked when it is made.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so `_replace` checks too

    def __new__(cls, source: SpaceDescriptor, target: SpaceDescriptor, kind: str,
                indices=(), point: str = ""):
        if kind == PROJECTION:
            factors, target_factors = source.factors, target.factors
            indices = tuple(indices)
            if len(indices) != len(target_factors):
                raise ValueError("projection must select one source factor per target factor")
            if len(set(indices)) != len(indices):
                raise ValueError("projection must select distinct source factors")
            for idx in indices:
                if not 0 <= idx < len(factors):
                    raise ValueError(f"projection index {idx} out of range")
            selected = tuple(factors[idx] for idx in indices)
            if selected != target_factors:
                pos = next(pos for pos, atom in enumerate(selected)
                           if atom != target_factors[pos])
                raise ValueError(f"selected source factor {indices[pos]} does not "
                                 f"match target factor {pos}")
        elif kind == CONSTANT:
            if not point:
                raise ValueError("constant map needs a point label")
        else:
            raise ValueError(f"unknown map kind {shown(kind)}")
        return tuple.__new__(cls, (source, target, kind, indices, point))


def projection(source: SpaceDescriptor, target: SpaceDescriptor, indices) -> SpaceMap:
    return SpaceMap(source, target, PROJECTION, indices=indices)


def constant(source: SpaceDescriptor, target: SpaceDescriptor, point: str) -> SpaceMap:
    return SpaceMap(source, target, CONSTANT, point=point)
