"""Shared helpers: independent brute-force oracles and random generators.

The oracles here deliberately avoid the engine's own code paths: the
polynomial oracle works on plain dicts keyed by frozensets, and the chain
oracle enumerates eigenvalue-map composites explicitly.
"""

from __future__ import annotations

import random
from itertools import product as iproduct

from villadsen.bundles import BundleExpr, chern_component
from villadsen.cohomology import GradedClass, line_series_product
from villadsen.growth import INFINITE, cp_dimension, unit_multiplicity
from villadsen.spaces import SpaceDescriptor, cproj, disk, sphere2
from villadsen.type_one import StepSpec


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
