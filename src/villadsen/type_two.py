"""Type-II inductive systems: stage spaces, unit bundles, traces, comparison.

Each family is indexed by a parameter k (a positive integer or infinity).
Stage n lives over a product of a disk power and one projective space per
earlier stage; the connecting map has two slots: a coordinate projection
carrying the trivial line, and one point evaluation of multiplicity n+1
carrying the new stage's tautological line.  Iterating from a rank-one projection produces
the unit bundle, whose rank telescopes to (n+1)!.  The unique trace of a
projection at stage n is rank/(n+1)!, an exact rational.

The stages form a tower: stage n+1 is stage n times one new projective
factor (and a disk increment for k = infinity).  `_stages` walks it: a
stage carries its growth numbers (`growth.GrowthTable`), and the next stage
extends it by its new atoms.  The witness sums ride the same tower: stage
n+1's is stage n's plus one block of the new stage line
(`BundleExpr.extend`), and the connecting map projects onto a prefix of
the factors, which moves no generator, so a pushforward copies the parts
and adds one summand.  The radius sweep carries only the witness rank and
its Euler verdict.  So each sweep and each comparability chain does a fixed
amount of Python work per stage, not work in proportion to the stage.  The
sweeps walk the tower once each; `build_stage`, `trace_value`,
`obstruction_bundle` and `trace_table` build their one stage cold.  Nothing
is held between calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

from .bundles import (
    BundleExpr,
    DiagonalSlot,
    line_sum,
    pushforward_diagonal,
    trivial_bundle,
)
from .comparison import obstructed_by_euler, trivial_line_subbundle_sufficient
from .errors import BaseMismatchError, CrossCheckDisagreement
from .growth import INFINITE, GrowthTable, family_parameter_label
from .reports import fraction_json
from .spaces import SpaceDescriptor, constant, cproj, disk, projection


@dataclass(frozen=True)
class SystemParams:
    """Family parameter: a positive integer, or INFINITE (None)."""

    k: int | None

    def __post_init__(self):
        if self.k is not INFINITE and self.k < 1:
            raise ValueError("family parameter must be >= 1 or INFINITE")

    @property
    def label(self) -> str:
        return family_parameter_label(self.k)


def _disk_power(params: SystemParams, growth: GrowthTable, j: int) -> int:
    """Total disk power at stage j: k for finite families, j*sigma(j)^2 else."""
    if params.k is not INFINITE:
        return params.k
    if j == 0:
        return 1
    return growth.dims[j - 1] * growth.unit[j - 1]


def _new_atoms(params: SystemParams, growth: GrowthTable, j: int) -> list:
    """The factors stage j adds to the stage before it."""
    atoms = []
    increment = _disk_power(params, growth, j) - _disk_power(params, growth, j - 1)
    if increment > 0:
        atoms.append(disk(increment, label=f"d{j}"))
    atoms.append(cproj(growth.dims[j - 1], label=f"cp{j}"))
    return atoms


@dataclass(frozen=True)
class _Stage:
    n: int
    space: SpaceDescriptor
    growth: GrowthTable


def _stages(params: SystemParams, n: int = 0):
    """The tower from stage n: stage n built from its atoms in one list, then
    each later stage extending the one before by its new atoms."""
    if n < 0:
        raise ValueError("stage must be >= 0")
    growth = GrowthTable(params.k).up_to(n)
    atoms = [disk(_disk_power(params, growth, 0), label="d0")]
    for j in range(1, n + 1):
        atoms += _new_atoms(params, growth, j)
    stage = _Stage(n, SpaceDescriptor(tuple(atoms)), growth)
    while True:
        yield stage
        m, growth = stage.n + 1, stage.growth.up_to(stage.n + 1)
        stage = _Stage(m, stage.space.extend(_new_atoms(params, growth, m)), growth)


def _unit(stage: _Stage) -> BundleExpr:
    bundle = BundleExpr(stage.space, 1, enumerate(stage.growth.unit))
    if bundle.rank != stage.growth.rank:
        raise CrossCheckDisagreement("unit rank bookkeeping is inconsistent")
    return bundle


def _witness_sum(stage: _Stage) -> BundleExpr:
    return BundleExpr(stage.space, 0, enumerate(stage.growth.dims))


def _trace(stage: _Stage, bundle: BundleExpr) -> Fraction:
    if bundle.base != stage.space:
        raise BaseMismatchError("bundle does not live over the given stage")
    return Fraction(bundle.rank, stage.growth.rank)


def _slots(stage: _Stage, following: _Stage) -> list[DiagonalSlot]:
    tgt, src = stage.space, following.space
    return [DiagonalSlot(projection(src, tgt, range(len(tgt.factors)))),
            DiagonalSlot(constant(src, tgt, f"y{stage.n}"), stage.n + 1, stage.n)]


def build_stage(params: SystemParams, n: int) -> tuple[SpaceDescriptor, BundleExpr]:
    """The stage-n base space and unit bundle: one trivial line plus sigma(j)
    copies of each stage line, its rank checked against (n+1)!.  Factors are
    ordered by stage of introduction (the disk increments of k = inf apart),
    so the map to the stage before is a coordinate projection."""
    stage = next(_stages(params, n))
    return stage.space, _unit(stage)


def trace_value(params: SystemParams, n: int, bundle: BundleExpr) -> Fraction:
    """Exact trace of a stage-n projection: rank over (n+1)!."""
    return _trace(next(_stages(params, n)), bundle)


def obstruction_bundle(params: SystemParams, n: int) -> BundleExpr:
    """The stage-n witness sum: cp_dimension(k, i) copies of each stage line."""
    return _witness_sum(next(_stages(params, n)))


def trace_table(params: SystemParams, n: int) -> dict:
    """The stage-n trace certificate: dimension, unit rank, and the exact
    traces of the unit, of a trivial line and, from stage 1, of the witness
    sum.  The unit trace is 1 whenever the unit is built, since building it
    cross-checks the unit rank against (n+1)!."""
    stage = next(_stages(params, n))
    unit = _unit(stage)
    cert = {
        "stage": n,
        "dimension": str(stage.space.real_dimension),
        "rank": str(unit.rank),
        "unit_trace": fraction_json(_trace(stage, unit)),
        "trivial_line_trace": fraction_json(Fraction(1, unit.rank)),
    }
    if n >= 1:
        cert["witness_sum_trace"] = fraction_json(_trace(stage, _witness_sum(stage)))
    return cert


def comparability_triple(params: SystemParams, n: int,
                         verify_stage: int | None = None) -> dict:
    """Certify the three comparability facts for the stage-n projections.

    (a) each doubled block dominates a trivial line by the stable-range
    criterion on its own projective factor; (b) the witness sum pushes
    forward within capacity stage by stage up to `verify_stage`, where its
    Euler class is nonzero, obstructing domination of a trivial line; (c)
    the exact trace values, with the divergent sequence spelled out for the
    infinite family.

    The Euler certificate is the factorized class, cross-checked at every
    stage against the degree-targeted Chern component (`euler_nonzero`).
    Returns the report's certificate; "passed" holds when all three facts
    are certified.
    """
    if n < 1:
        raise ValueError("stage must be >= 1")
    j = n if verify_stage is None else verify_stage
    if j < n:
        raise ValueError("verify stage must be >= the witness stage")

    passed = True
    line_records = []
    tower = _stages(params, n)
    stage = next(tower)
    growth = stage.growth
    for i, dim in enumerate(growth.dims, start=1):
        one_factor = SpaceDescriptor((cproj(dim, label=f"cp{i}"),))
        doubled = line_sum(one_factor, [(0, 2 * dim)])
        verdict = trivial_line_subbundle_sufficient(doubled)
        passed &= verdict["outcome"] == "dominates"
        line_records.append({"i": i, "cp_dimension": str(dim),
                             "rank": str(doubled.rank), **verdict})

    chain_records = []
    current = _witness_sum(stage)
    q_sum = _trace(stage, current)
    for ell, following in zip(range(n, j), tower):
        pushed = pushforward_diagonal(current, _slots(stage, following))
        # the stage-(ell+1) line sits at generator position ell; its
        # multiplicity in the witness sum is that stage's capacity.  Pushing
        # along the prefix projection keeps every earlier summand where the
        # witness sum has it, so only the new position is checked
        capacity = following.growth.dims[ell]
        target = current.extend(following.space, [(ell, capacity)])
        new_coeff = pushed.parts.get(ell, 0)
        ok = new_coeff <= capacity
        passed &= ok
        chain_records.append({
            "from_stage": ell,
            "to_stage": ell + 1,
            "pushed_rank": str(pushed.rank),
            "new_line_multiplicity": str(new_coeff),
            "capacity": str(capacity),
            "within_capacity": ok,
        })
        current, stage = target, following

    witness = current
    verdict = obstructed_by_euler(trivial_bundle(witness.base, 1), witness)
    passed &= verdict["outcome"] == "obstructed"
    euler_record = {**verdict, "witness_rank": str(witness.rank)}

    unit_line_trace = Fraction(1, growth.rank)
    traces: dict = {
        "unit_line": fraction_json(unit_line_trace),
        "q_sum": fraction_json(q_sum),
    }
    if params.k is not INFINITE:
        closed = Fraction(params.k * growth.rank - params.k, growth.rank)
        if closed != q_sum:
            raise CrossCheckDisagreement("closed-form q-sum trace disagrees with rank count")
        traces["limit"] = str(params.k)
        traces["divergent"] = False
    else:
        entries = []
        witness_rank = 0
        for stage in islice(_stages(params, 1), n):
            m = stage.n
            witness_rank += stage.growth.dims[m - 1]
            exact = Fraction(witness_rank, stage.growth.rank)
            lower = Fraction(m * m, m + 1)
            if exact < lower:
                raise CrossCheckDisagreement("divergence lower bound fails")
            entries.append({"stage": m, "exact": fraction_json(exact),
                            "lower_bound": fraction_json(lower)})
        traces["entries"] = entries
        traces["divergent"] = True

    return {"k": params.label, "stage": n, "verify_stage": j,
            "line_subbundle": line_records, "chain": chain_records,
            "euler_obstruction": euler_record, "traces": traces, "passed": passed}


def radius_of_comparison(params: SystemParams, max_stage: int) -> dict:
    """Exact per-stage dimension-to-rank ratios plus trace witnesses.

    For a finite parameter the ratio dim/(2*rank) equals the parameter at
    every stage, and each stage n also yields the lower-bound witness: the
    trivial line has trace 1/(n+1)!, the witness sum has trace within
    (k+1)/(n+1)! of k, and domination fails by the Euler obstruction.  For
    the infinite family the ratios and witness traces are reported as a
    divergent sequence instead.  Returns the report's certificate; "passed"
    holds when every stage and witness record holds.
    """
    if max_stage < 0:
        raise ValueError("need a stage >= 0")
    passed = True
    stages = []
    witnesses = []
    previous = None
    # stage m's witness sum is stage m-1's plus dims[m-1] copies of the new
    # stage line, at position m-1: its rank and factorized Euler verdict
    # are carried up the tower, the verdict nonzero while every multiplicity
    # stays below its cap
    witness_rank, obstructed = 0, True
    for stage in islice(_stages(params), max_stage + 1):
        m, space, rank = stage.n, stage.space, stage.growth.rank
        value = Fraction(space.real_dimension, 2 * rank)
        rec = {"stage": m, "dimension": str(space.real_dimension), "rank": str(rank),
               "value": fraction_json(value)}
        if params.k is not INFINITE:
            rec["equals_parameter"] = holds = value == params.k
        else:
            rec["nondecreasing"] = holds = previous is None or value >= previous
        passed &= holds
        stages.append(rec)
        previous = value
        if m == 0:
            continue

        multiplicity = stage.growth.dims[m - 1]
        witness_rank += multiplicity
        obstructed = obstructed and multiplicity < space.caps[m - 1]
        q_sum = Fraction(witness_rank, rank)
        passed &= obstructed
        rec = {
            "stage": m,
            "trace_trivial_line": fraction_json(Fraction(1, rank)),
            "trace_witness_sum": fraction_json(q_sum),
            "obstructed": obstructed,
        }
        if params.k is not INFINITE:
            rec["lower_bound"] = fraction_json(params.k - Fraction(params.k + 1, rank))
        else:
            # witness traces grow at least like m^2/(m+1), which diverges
            bound = Fraction(m * m, m + 1)
            rec["divergence_lower_bound"] = fraction_json(bound)
            rec["bound_holds"] = holds = q_sum >= bound
            passed &= holds
        witnesses.append(rec)

    return {"k": params.label, "max_stage": max_stage, "divergent": params.k is INFINITE,
            "stages": stages, "witnesses": witnesses, "passed": passed}
