"""Shared helpers: independent brute-force oracles and random generators.

The oracles here deliberately avoid the engine's own code paths: the
polynomial oracle works on plain dicts keyed by frozensets, and the chain
oracle enumerates eigenvalue-map composites explicitly.  The ring
references `cup`, `homogeneous_component` and `pullback_class` multiply,
filter and move exponent vectors term by term, so the engine's kernels
(`line_series_texts`, `chern_component`, `pullback_positions`) are
checked against them, not against themselves: `series_product` is the
cup product of each factor's series class, the reference for
`line_series_texts` (`series_texts` reads its components as text, and
`series_cut` is where it cuts the factors into its two blocks).  The
`component_*` functions are `chern_component` broken on purpose, patched
in to show that each cross-check of a component catches the break.
`graded_components` and `class_document` split a
class by degree and write it as one dict per term, the references for the
class text the engine writes directly.  The library builds no total Chern
class; `chern_class` reads the engine's back from the texts `chern`
prints, for the Whitney-sum, naturality and Euler tests.
`reference_parser` is the argparse parser the CLI used before its option
table, the reference for `cli._parse`.  `unit_multiplicity` and
`cp_dimension` give one stage's growth numbers on their own, with
`math.factorial`: the pointwise closed forms of the stage walk
`growth.tower`.  `trace_table_from_fractions`, `radius_from_fractions` and
`comparability_traces_from_fractions` are the type-II certificates as the
engine built them with `Fraction` before it wrote integer pairs, and
`ratio_contradiction_from_fractions` and `ratio_trajectory_from_fractions`
the type-I ones: the references for the engine's cross-multiplied verdicts
and its one-gcd writer.  `comparability_records` and `lower_bound_records`
are the record lists of `comparability_triple` and `cfp.verify_lower` as
the engine built them, one dict per record, before it wrote each list as
canonical text: the references for its row templates.  `plain` reads a
certificate's `reports.Encoded` fragments back as the JSON they write.
`unlimited_int_digits` lifts Python's int->str digit limit for a block, as
`cli.main` does for a call's checks and report.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from contextlib import contextmanager
from fractions import Fraction
from itertools import product as iproduct
from math import factorial, prod

from villadsen import cli, type_two
from villadsen.bundles import BundleExpr, chern_component, chern_series, pushforward_diagonal
from villadsen.cohomology import GradedClass, line_series_texts
from villadsen.comparison import trivial_line_subbundle_sufficient
from villadsen.errors import BaseMismatchError
from villadsen.growth import INFINITE
from villadsen.reports import Encoded
from villadsen.spaces import CONSTANT, SpaceDescriptor, cproj, disk, read_int, sphere2
from villadsen.type_one import StageStats, StepSpec


@contextmanager
def unlimited_int_digits():
    """Lift the int->str digit limit inside the block, restore it after; an
    interpreter without the limit has none to lift."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def unit_multiplicity(n: int) -> int:
    """Multiplicity of the stage-n line block inside the unit bundle: n * n!
    for n >= 1 and 1 for n = 0, so the sum over j <= n telescopes to (n+1)!."""
    return 1 if n == 0 else n * factorial(n)


def cp_dimension(k: int | None, n: int) -> int:
    """Complex dimension of the projective factor added at stage n >= 1:
    k * n * n!, and n^2 * n! for the infinite family."""
    return (n if k is INFINITE else k) * unit_multiplicity(n)


def fraction(doc) -> Fraction:
    """The rational a report prints as {"num", "den"}, given as that dict or
    as the `reports.Encoded` fragment of its text."""
    doc = plain(doc)
    return Fraction(int(doc["num"]), int(doc["den"]))


def fraction_pair(x: Fraction) -> dict:
    """The {"num", "den"} pair of a Fraction, as its own properties give it."""
    return {"num": str(x.numerator), "den": str(x.denominator)}


def witness_rank(k: int | None, n: int) -> int:
    """Rank of the type-II stage-n witness sum: the projective dimensions
    of stages 1..n, each formed on its own."""
    return sum(cp_dimension(k, j) for j in range(1, n + 1))


def stage_dimension(k: int | None, n: int) -> int:
    """Real dimension of the type-II stage-n space: twice its disk power
    (k, or for k = inf 1 at stage 0 and n * (n * n!)^2 after) plus twice the
    projective dimensions."""
    if k is not INFINITE:
        disks = k
    else:
        disks = 1 if n == 0 else n * unit_multiplicity(n) ** 2
    return 2 * (disks + witness_rank(k, n))


def trace_table_from_fractions(k: int | None, n: int) -> dict:
    """Reference `type_two.trace_table`: every trace a `Fraction`."""
    rank = factorial(n + 1)
    unit_rank = sum(unit_multiplicity(j) for j in range(n + 1))
    cert = {"stage": n, "dimension": str(stage_dimension(k, n)), "rank": str(unit_rank),
            "unit_trace": fraction_pair(Fraction(unit_rank, rank)),
            "trivial_line_trace": fraction_pair(Fraction(1, unit_rank))}
    if n >= 1:
        cert["witness_sum_trace"] = fraction_pair(Fraction(witness_rank(k, n), rank))
    return cert


def radius_from_fractions(k: int | None, max_stage: int) -> dict:
    """Reference `type_two.radius_of_comparison`: every ratio a `Fraction`,
    every verdict a `Fraction` comparison.  Each stage adds dim copies of
    its new line, below that factor's cap dim + 1, so every witness is
    obstructed."""
    passed = True
    stages, witnesses, previous = [], [], None
    for m in range(max_stage + 1):
        rank = factorial(m + 1)
        dimension = stage_dimension(k, m)
        value = Fraction(dimension, 2 * rank)
        rec = {"stage": m, "dimension": str(dimension), "rank": str(rank),
               "value": fraction_pair(value)}
        if k is not INFINITE:
            rec["equals_parameter"] = holds = value == k
        else:
            rec["nondecreasing"] = holds = previous is None or value >= previous
        passed &= holds
        stages.append(rec)
        previous = value
        if m == 0:
            continue
        q_sum = Fraction(witness_rank(k, m), rank)
        rec = {"stage": m, "trace_trivial_line": fraction_pair(Fraction(1, rank)),
               "trace_witness_sum": fraction_pair(q_sum), "obstructed": True}
        if k is not INFINITE:
            rec["lower_bound"] = fraction_pair(k - Fraction(k + 1, rank))
        else:
            bound = Fraction(m * m, m + 1)
            rec["divergence_lower_bound"] = fraction_pair(bound)
            rec["bound_holds"] = holds = q_sum >= bound
            passed &= holds
        witnesses.append(rec)
    return {"k": "inf" if k is INFINITE else str(k), "max_stage": max_stage,
            "divergent": k is INFINITE, "stages": stages, "witnesses": witnesses,
            "passed": passed}


def comparability_traces_from_fractions(k: int | None, n: int) -> dict:
    """Reference `traces` of `type_two.comparability_triple` at witness
    stage n: every trace a `Fraction`."""
    rank = factorial(n + 1)
    q_sum = Fraction(witness_rank(k, n), rank)
    traces: dict = {"unit_line": fraction_pair(Fraction(1, rank)), "q_sum": fraction_pair(q_sum)}
    if k is not INFINITE:
        assert Fraction(k * rank - k, rank) == q_sum
        traces["limit"] = str(k)
        traces["divergent"] = False
    else:
        traces["entries"] = [
            {"stage": m, "exact": fraction_pair(Fraction(witness_rank(k, m), factorial(m + 1))),
             "lower_bound": fraction_pair(Fraction(m * m, m + 1))}
            for m in range(1, n + 1)]
        traces["divergent"] = True
    return traces


def comparability_records(k: int | None, n: int, verify_stage: int) -> dict:
    """Reference `line_subbundle` and `chain` of `type_two.comparability_triple`:
    one dict per record, each number from the closed forms here."""
    line_subbundle = []
    for i in range(1, n + 1):
        doubled = 2 * cp_dimension(k, i)
        line_subbundle.append({"i": i, "cp_dimension": str(cp_dimension(k, i)),
                               "rank": str(doubled),
                               **trivial_line_subbundle_sufficient(doubled, doubled)})
    chain = []
    for ell in range(n, verify_stage):
        carried = witness_rank(k, ell)
        new_coeff = (ell + 1) * carried
        capacity = cp_dimension(k, ell + 1)
        chain.append({"from_stage": ell, "to_stage": ell + 1,
                      "pushed_rank": str(carried + new_coeff),
                      "new_line_multiplicity": str(new_coeff), "capacity": str(capacity),
                      "within_capacity": new_coeff <= capacity})
    return {"line_subbundle": line_subbundle, "chain": chain}


def lower_bound_records(witness_stages: list[int], verify_stage: int) -> dict:
    """Reference `rows`, `stretch` and `pushed_table` of `cfp.verify_lower`
    for the witness stages `witness_stages`: one dict per record, each number
    from the k = inf closed forms here, the pushed coefficients of a term
    entering stage t as dominated rank * t * t! / (prev+1)!."""
    def cap(s):
        return cp_dimension(INFINITE, s)

    first = witness_stages[0]
    rows = [{"term": 1, "stage": first, "added_copies": str(cap(first) // 2),
             "cap": str(cap(first)), "ok": True}]
    for index, (prev, cur) in enumerate(zip(witness_stages, witness_stages[1:]), start=2):
        dominated = witness_rank(INFINITE, prev)
        intermediate = []
        for t in range(prev + 1, cur + 1):
            pushed = dominated * t * factorial(t) // factorial(prev + 1)
            total = pushed + cap(cur) // 2 if t == cur else pushed
            intermediate.append({"stage": t, "pushed": str(pushed), "total": str(total),
                                 "cap": str(cap(t)), "ok": total <= cap(t)})
        rows.append({"term": index, "from_stage": prev, "to_stage": cur,
                     "dominated_rank": str(dominated), "growth_lhs": str(pushed),
                     "growth_rhs_half_cap": str(cap(cur) // 2),
                     "growth_ok": 2 * pushed <= cap(cur), "combined": str(total),
                     "cap": str(cap(cur)), "combined_ok": total <= cap(cur),
                     "intermediate": intermediate})
    stretch = []
    for s in range(witness_stages[-1], verify_stage):
        new = (s + 1) * witness_rank(INFINITE, s)
        stretch.append({"from_stage": s, "to_stage": s + 1, "new_multiplicity": str(new),
                        "cap": str(cap(s + 1)), "ok": new <= cap(s + 1)})
    copies = {s: cap(s) // 2 for s in witness_stages}
    pushed_table, pushed_sum = [], 0
    for s in range(1, verify_stage + 1):
        coefficient = s * pushed_sum + copies.get(s, 0)
        pushed_sum += coefficient
        pushed_table.append({"stage": s, "coefficient": str(coefficient),
                             "cap": str(cap(s)), "ok": coefficient <= cap(s)})
    return {"rows": rows, "stretch": stretch, "pushed_table": pushed_table}


def plain(certificate):
    """`certificate` with each `reports.Encoded` fragment, a record list or
    a rational, read back as the JSON value its text writes."""
    if isinstance(certificate, Encoded):
        return json.loads(certificate.text)
    if isinstance(certificate, dict):
        return {key: plain(value) for key, value in certificate.items()}
    if isinstance(certificate, list):
        return [plain(value) for value in certificate]
    return certificate


def ratio_contradiction_from_fractions(n: int, stats: StageStats) -> dict:
    """Reference `type_one.ratio_contradiction_check`: every ratio a
    `Fraction`, every verdict a `Fraction` comparison."""
    ratio = Fraction(stats.distinct_projections, stats.total_multiplicity)
    threshold = Fraction(2 * n - 1, 2 * n)
    hypothesis = ratio >= threshold
    rank_bound = (n * stats.distinct_projections
                  <= n * stats.total_multiplicity - 2 * stats.distinct_projections)
    forced_square = Fraction(n - 1, n) ** 2
    return {"n": n, "ratio": fraction_pair(ratio), "threshold": fraction_pair(threshold),
            "hypothesis_holds": hypothesis, "rank_bound_holds": rank_bound,
            "fixed_point_bound": fraction_pair(Fraction(n, n + 2)),
            "forced_square": fraction_pair(forced_square),
            "strict_drop": forced_square < Fraction(n - 1, n),
            "contradiction": hypothesis and not rank_bound}


def ratio_trajectory_from_fractions(composed: list[StageStats]) -> tuple[bool, dict]:
    """Reference verdict and certificate of the `ratio_trajectory` check of
    `vi` over the running stats `composed` (`type_one.running_stats`): each
    prefix's distinct ratio a `Fraction`, nonincreasing by `Fraction`
    comparison of neighbours."""
    values = [Fraction(p.distinct_projections, p.total_multiplicity) for p in composed[1:]]
    return (all(a >= b for a, b in zip(values, values[1:])),
            {"values": [fraction_pair(v) for v in values]})


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


def series_product(space: SpaceDescriptor, factors: list[tuple[int, list[int]]]) -> GradedClass:
    """Reference product of line series: the cup product of each factor's
    class, the sum of c_i * g^i in the generator g at its position."""
    product = unit_class(space)
    for pos, coeffs in factors:
        series = {}
        for i, c in enumerate(coeffs):
            exps = [0] * len(space.caps)
            exps[pos] = i
            series[tuple(exps)] = c
        product = cup(product, GradedClass(space, series))
    return product


def series_cut(lengths: list[int]) -> int:
    """Reference cut of `line_series_texts` writing every degree, for
    factors of these term counts in position order: the prefix block is the
    first `cut` factors.  Each prefix term writes one run per power sum of
    the suffix block, so the cut minimises P * G + S, with P the prefix
    terms, G the suffix block's power sums and S its terms; on a tie, the
    terms both blocks hold, P + S; and then it is the first such cut."""
    def runs_and_suffix_terms(cut: int) -> tuple[int, int]:
        prefix, suffix = prod(lengths[:cut]), lengths[cut:]
        return (prefix * (sum(suffix) - len(suffix) + 1) + prod(suffix),
                prefix + prod(suffix))
    return min(range(len(lengths) + 1), key=runs_and_suffix_terms)


def series_texts(space: SpaceDescriptor, factors: list[tuple[int, list[int]]]) -> dict[int, str]:
    """The components `line_series_texts` writes, as their texts."""
    return {d: part.text for d, part in line_series_texts(space, factors).items()}


def chern_class(b: BundleExpr, degrees=None) -> GradedClass:
    """The engine's total Chern class of b: the class texts `chern` prints
    (`line_series_texts` of `chern_series`), read back and merged; only
    those of `degrees`, if given."""
    terms: dict = {}
    for degree, component in line_series_texts(b.base, chern_series(b)).items():
        if degrees is None or degree in degrees:
            terms.update(GradedClass.from_json(b.base, json.loads(component.text)).terms)
    return GradedClass(b.base, terms)


def homogeneous_component(a: GradedClass, degree: int) -> GradedClass:
    """Reference component: the terms of exactly `degree` (none if odd or negative)."""
    return GradedClass(a.space, {e: c for e, c in a.terms.items() if 2 * sum(e) == degree})


def graded_components(a: GradedClass) -> dict[int, GradedClass]:
    """Reference split: the nonzero homogeneous components, by degree."""
    split: dict[int, dict] = {}
    for exps, coeff in a.terms.items():
        split.setdefault(2 * sum(exps), {})[exps] = coeff
    return {d: GradedClass(a.space, split[d]) for d in sorted(split)}


def class_document(a: GradedClass) -> dict:
    """Reference class document: one object per term, in exponent order."""
    return {"terms": [{"exponents": list(e), "coefficient": str(c)}
                      for e, c in sorted(a.terms.items())]}


def dict_form_text(a: GradedClass) -> str:
    """The class document encoded the way `reports.canonical_json` encodes a
    report."""
    return json.dumps(class_document(a), sort_keys=True, separators=(",", ":"))


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


def connecting_maps(k: int | None, start: int, stop: int) -> list:
    """(n, slots of the type-II connecting map from stage n to n+1) for
    start <= n < stop, between stage spaces built from scratch."""
    spaces = [stage_space_from_scratch(k, n) for n in range(start, stop + 1)]
    return [(n, type_two._slots(n, space, following))
            for n, space, following in zip(range(start, stop), spaces, spaces[1:])]


def push_through_stages(k: int | None, bundle: BundleExpr, start: int, stop: int) -> BundleExpr:
    """A stage-`start` bundle pushed through the connecting maps to stage `stop`."""
    for _, slots in connecting_maps(k, start, stop):
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


def stage_space_from_scratch(k: int | None, n: int) -> SpaceDescriptor:
    """Oracle: the type-II stage-n space built from stage 0 in one list of
    atoms, each growth value computed on its own with `math.factorial`
    (the engine's builder before the stages formed a tower)."""
    def disk_power(m):
        if k is not INFINITE:
            return k
        return 1 if m == 0 else m * unit_multiplicity(m) ** 2

    atoms = [disk(disk_power(0), label="d0")]
    for j in range(1, n + 1):
        increment = disk_power(j) - disk_power(j - 1)
        if increment > 0:
            atoms.append(disk(increment, label=f"d{j}"))
        atoms.append(cproj(cp_dimension(k, j), label=f"cp{j}"))
    return SpaceDescriptor(tuple(atoms))


def unit_from_scratch(k: int | None, n: int) -> BundleExpr:
    """Oracle: the type-II stage-n unit bundle, one trivial line plus
    j * j! copies of each stage-j line, over `stage_space_from_scratch`."""
    space = stage_space_from_scratch(k, n)
    return BundleExpr(space, 1, [(j - 1, j * factorial(j)) for j in range(1, n + 1)])


def witness_sum_from_scratch(k: int | None, n: int) -> BundleExpr:
    """Oracle: the type-II stage-n witness sum, k * j * j! copies of each
    stage-j line (j * j * j! for k = inf), over `stage_space_from_scratch`."""
    space = stage_space_from_scratch(k, n)
    return BundleExpr(space, 0, [
        (j - 1, (j if k is INFINITE else k) * j * factorial(j))
        for j in range(1, n + 1)])


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


def component_dropping_top_term(b, degree):
    """`bundles.chern_component` with one of its terms dropped.

    Patched in for the engine's, it makes the Euler cross-check of every
    bundle with a nonzero Euler class (a one-term component) disagree with
    the factorized route, and `vi --witness` find no top term.
    """
    part = chern_component(b, degree)
    if part.terms:
        del part.terms[max(part.terms)]
    return part


def _with_top_term(b, degree, change) -> GradedClass:
    """`chern_component(b, degree)` with its last term replaced by the
    terms `change(exponents, coefficient)` returns."""
    terms = dict(chern_component(b, degree).terms)
    top = max(terms)
    changed = change(top, terms.pop(top))
    return GradedClass(b.base, {**terms, **changed})


def component_zeroing_a_top_exponent(b, degree):
    """`chern_component` whose last term has 0 as its first exponent."""
    return _with_top_term(b, degree, lambda e, c: {(0, *e[1:]): c})


def component_raising_the_top_coefficient(b, degree):
    """`chern_component` whose last term has its coefficient plus one."""
    return _with_top_term(b, degree, lambda e, c: {e: c + 1})


def component_adding_a_term(b, degree):
    """`chern_component` with the unit term beside its right ones, so the
    component is no single term though its top coefficient is right."""
    return _with_top_term(b, degree, lambda e, c: {e: c, (0,) * len(e): 1})


def component_of_the_degree_below(b, degree):
    """`chern_component` asked for the degree two below the one it is given."""
    return chern_component(b, degree - 2)


class _Parser(argparse.ArgumentParser):
    # usage errors must exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _int_option(text: str) -> int:
    """An integer option, read like the integers of input documents."""
    try:
        return read_int(text, "the value")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def reference_parser() -> argparse.ArgumentParser:
    """The CLI's argparse parser before the option table, with prefix
    abbreviations off: the reference for `cli._parse` on the argv forms the
    table accepts."""
    parser = _Parser(prog="villadsen", allow_abbrev=False,
                     description="Exact verification of comparison obstructions "
                                 "in Villadsen-type inductive systems")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_chern = sub.add_parser("chern", allow_abbrev=False,
                             help="Chern and Euler classes of a bundle spec")
    p_chern.add_argument("--space", required=True, help="space descriptor JSON file")
    p_chern.add_argument("--bundle", required=True, help="bundle JSON file")
    p_chern.set_defaults(func=cli._run_chern)

    p_vi = sub.add_parser("vi", allow_abbrev=False, help="type-I stage diagnostics and witnesses")
    p_vi.add_argument("--config", required=True, help="system config JSON file")
    p_vi.add_argument("--from", dest="start", type=_int_option, default=0,
                      help="first stage of the composed range (default 0)")
    p_vi.add_argument("--stage", type=_int_option, default=None,
                      help="last stage of the composed range (default: all)")
    p_vi.add_argument("--witness", type=_int_option, default=None,
                      help="witness size n for the top-Chern and contradiction checks")
    p_vi.set_defaults(func=cli._run_vi)

    p_v2 = sub.add_parser("v2", allow_abbrev=False, help="type-II traces, comparability, radius")
    p_v2.add_argument("-k", required=True, help="family parameter (integer or 'inf')")
    p_v2.add_argument("-n", type=_int_option, required=True, help="stage")
    p_v2.add_argument("--stage", type=_int_option, default=None,
                      help="verification stage for --comparability (default n)")
    p_v2.add_argument("--trace", action="store_true", help="emit the trace table")
    p_v2.add_argument("--comparability", action="store_true",
                      help="verify the comparability triple")
    p_v2.add_argument("--rc", action="store_true",
                      help="verify the radius of comparison up to stage n")
    p_v2.set_defaults(func=cli._run_v2)

    p_cfp = sub.add_parser("cfp", allow_abbrev=False,
                           help="witness sequences and both verification halves")
    p_cfp.add_argument("--terms", type=_int_option, default=2,
                       help="number of witness terms")
    p_cfp.add_argument("--stage", type=_int_option, default=None,
                       help="verification stage for the lower bound")
    p_cfp.add_argument("--override-l", default="",
                       help="comma-separated witness stages overriding the minimal choice")
    p_cfp.set_defaults(func=cli._run_cfp)
    return parser
