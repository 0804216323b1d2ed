"""Shared helpers: independent brute-force oracles and random generators.

The oracles here deliberately avoid the engine's own code paths: the
polynomial oracle works on plain dicts keyed by frozensets, and the chain
oracle enumerates eigenvalue-map composites explicitly.  The ring
references `cup`, `homogeneous_component` and `pullback_class` multiply,
filter and move exponent vectors term by term, so the engine's kernels
(`line_series_product`, `chern_component`, `pullback_positions`) are
checked against them, not against themselves.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import islice, product as iproduct

from villadsen import type_two
from villadsen.bundles import BundleExpr, chern_component, pushforward_diagonal
from villadsen.cohomology import GradedClass, line_series_product
from villadsen.errors import BaseMismatchError
from villadsen.growth import INFINITE, cp_dimension, unit_multiplicity
from villadsen.spaces import CONSTANT, SpaceDescriptor, cproj, disk, sphere2
from villadsen.type_one import StepSpec


def fraction(doc: dict) -> Fraction:
    """The rational a report prints as {"num", "den"}."""
    return Fraction(int(doc["num"]), int(doc["den"]))


def unit_class(space: SpaceDescriptor, coeff: int = 1) -> GradedClass:
    """The constant class `coeff`."""
    return GradedClass(space, {(0,) * len(space.caps): coeff})


def cup(a: GradedClass, b: GradedClass) -> GradedClass:
    """Reference cup product: every pair of terms, exponents added; the
    validating constructor drops the terms that reach a cap."""
    if a.space != b.space:
        raise BaseMismatchError("classes live over different spaces")
    out: dict = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            key = tuple(x + y for x, y in zip(e1, e2))
            out[key] = out.get(key, 0) + c1 * c2
    return GradedClass(a.space, out)


def homogeneous_component(a: GradedClass, degree: int) -> GradedClass:
    """Reference component: the terms of exactly `degree` (none if odd or negative)."""
    return GradedClass(a.space, {e: c for e, c in a.terms.items() if 2 * sum(e) == degree})


def pullback_class(f, a: GradedClass) -> GradedClass:
    """Reference pullback along a projection or constant map.

    A target generator goes to the generator of source factor f.indices[t],
    whose position is the number of generator-carrying source factors before
    it; a constant map keeps only the constant term.
    """
    if a.space != f.target:
        raise BaseMismatchError("class does not live over the map's target")
    if f.kind == CONSTANT:
        return unit_class(f.source, a.terms.get((0,) * len(a.space.caps), 0))
    moved = [sum(atom.generator_cap is not None for atom in f.source.factors[:f.indices[t]])
             for t, atom in enumerate(f.target.factors) if atom.generator_cap is not None]
    out: dict = {}
    for exps, coeff in a.terms.items():
        key = [0] * len(f.source.caps)
        for pos, e in zip(moved, exps):
            key[pos] += e
        out[tuple(key)] = out.get(tuple(key), 0) + coeff
    return GradedClass(f.source, out)


def connecting_maps(params, start: int, stop: int) -> list:
    """(n, slots of the type-II connecting map from stage n to n+1) for
    start <= n < stop, from one walk of the stage tower."""
    stages = list(islice(type_two._stages(params, start), stop - start + 1))
    return [(stage.n, type_two._slots(stage, following))
            for stage, following in zip(stages, stages[1:])]


def push_through_stages(params, bundle: BundleExpr, start: int, stop: int) -> BundleExpr:
    """A stage-`start` bundle pushed through the connecting maps to stage `stop`."""
    for _, slots in connecting_maps(params, start, stop):
        bundle = pushforward_diagonal(bundle, slots)
    return bundle


def pushforward_from_scratch(b: BundleExpr, slots) -> BundleExpr:
    """Oracle: a diagonal pushforward built in one constructor call.

    A projection slot moves each summand to the source position of its
    factor, counted over the source's factors as `pullback_class` does; a
    constant slot turns the whole rank into its carrier line, or into
    trivial lines without one.  Every slot's pieces, times its multiplicity,
    go to one `BundleExpr`, with no bundle extended or reused.
    """
    source = slots[0].eigenvalue_map.source
    trivial, parts = 0, []
    for s in slots:
        f = s.eigenvalue_map
        if f.kind == CONSTANT:
            pieces, rest = [], b.rank
        else:
            moved = [sum(atom.generator_cap is not None for atom in source.factors[:f.indices[t]])
                     for t, atom in enumerate(f.target.factors) if atom.generator_cap is not None]
            pieces, rest = [(moved[pos], m) for pos, m in b.parts.items()], b.trivial_rank
        if s.carrier is not None:
            if pieces:
                raise ValueError("a line summand tensored with a line")
            pieces, rest = [(s.carrier, rest)], 0
        trivial += rest * s.multiplicity
        parts += [(pos, m * s.multiplicity) for pos, m in pieces]
    return BundleExpr(source, trivial, parts)


def dict_poly_top_coefficient(n: int, mults: list[int]) -> tuple[int, int]:
    """Oracle: expand prod (1 + m_l z_{l,s}) over square-zero generators.

    Returns (generator count, coefficient of the full product monomial).
    Keys are frozensets of generator indices, so this shares nothing with
    the engine's exponent-tuple representation.
    """
    gens = n * len(mults)
    poly = {frozenset(): 1}
    for l, m in enumerate(mults):
        for s in range(n):
            g = l * n + s
            new = dict(poly)
            for mono, c in poly.items():
                if g in mono:
                    continue
                key = mono | {g}
                new[key] = new.get(key, 0) + c * m
            poly = new
    return gens, poly.get(frozenset(range(gens)), 0)


def enumerate_chain_stats(steps: list[StepSpec], start: int, stop: int):
    """Oracle: explicit eigenvalue-map chains of a composed diagonal map.

    Each chain picks one eigenvalue map per step; the composite is a
    coordinate projection exactly when every link is, and distinct
    projection chains compose to distinct projections.  Returns
    (distinct, with_multiplicity, total).
    """
    per_step = []
    for t, step in enumerate(steps[start:stop]):
        maps = []
        for pid, m in step.projection_multiplicities:
            maps.extend(("proj", pid) for _ in range(m))
        maps.extend(("const", f"pt{t}_{e}") for e in range(step.point_evaluations))
        per_step.append(maps)
    total = 0
    with_mult = 0
    distinct = set()
    for chain in iproduct(*per_step):
        total += 1
        if all(kind == "proj" for kind, _ in chain):
            with_mult += 1
            distinct.add(tuple(pid for _, pid in chain))
    return len(distinct), with_mult, total


def stage_space_from_scratch(params, n: int) -> SpaceDescriptor:
    """Oracle: the type-II stage-n space built from stage 0 in one list of
    atoms, each growth value computed on its own with `math.factorial`
    (the engine's builder before the stages formed a tower)."""
    def disk_power(m):
        if params.k is not INFINITE:
            return params.k
        return 1 if m == 0 else m * unit_multiplicity(m) ** 2

    atoms = [disk(disk_power(0), label="d0")]
    for j in range(1, n + 1):
        increment = disk_power(j) - disk_power(j - 1)
        if increment > 0:
            atoms.append(disk(increment, label=f"d{j}"))
        atoms.append(cproj(cp_dimension(params.k, j), label=f"cp{j}"))
    return SpaceDescriptor(tuple(atoms))


def random_space(rng: random.Random, max_factors: int = 4,
                 spheres_only: bool = False) -> SpaceDescriptor:
    atoms = []
    for _ in range(rng.randint(1, max_factors)):
        if spheres_only or rng.random() < 0.6:
            atoms.append(sphere2())
        else:
            atoms.append(cproj(rng.randint(1, 4)))
    return SpaceDescriptor(tuple(atoms))


def random_class(rng: random.Random, space: SpaceDescriptor,
                 max_terms: int = 4, coeff_range: int = 5) -> GradedClass:
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randrange(0, c) for c in space.caps)
        coeff = rng.randint(-coeff_range, coeff_range)
        if coeff:
            terms[exps] = terms.get(exps, 0) + coeff
    return GradedClass(space, terms)


def direct_sum(a: BundleExpr, b: BundleExpr) -> BundleExpr:
    """The direct sum of two bundles over one base: trivial ranks add and
    line summands merge."""
    return BundleExpr(a.base, a.trivial_rank + b.trivial_rank,
                      [*a.parts.items(), *b.parts.items()])


def random_step(rng: random.Random, max_projections: int = 3,
                max_mult: int = 3, max_points: int = 2) -> StepSpec:
    n_proj = rng.randint(0, max_projections)
    mults = tuple((f"p{i}", rng.randint(1, max_mult)) for i in range(n_proj))
    points = rng.randint(0 if n_proj else 1, max_points)
    return StepSpec(mults, points)


def kernel_dropping_top_term(space, factors):
    """`line_series_product` with its highest-degree term dropped.

    Patched in for the engine's kernel, it makes every expansion-based
    cross-check disagree with its closed-form route.
    """
    product = line_series_product(space, factors)
    if product.terms:
        del product.terms[max(product.terms, key=sum)]
    return product


def component_dropping_top_term(b, degree):
    """`bundles.chern_component` with one of its terms dropped.

    Patched in for the engine's, it makes the Euler cross-check of every
    bundle with a nonzero Euler class (a one-term component) disagree with
    the factorized route.
    """
    part = chern_component(b, degree)
    if part.terms:
        del part.terms[max(part.terms)]
    return part
