"""Type-II inductive systems: stage spaces, unit bundles, traces, comparison.

Each family is indexed by a parameter k (a positive integer or infinity).
Stage n lives over a product of a disk power and one projective space per
earlier stage; the connecting map has two slots: a coordinate projection
carrying the trivial line, and one point evaluation of multiplicity n+1
carrying the new stage's tautological line.  Iterating from a rank-one projection produces
the unit bundle, whose rank telescopes to (n+1)!.  The unique trace of a
projection at stage n is rank/(n+1)!, an exact rational.

The stages form a tower: stage n+1 is stage n times one new projective
factor (and a disk increment for k = infinity).  The package's one stage
walk, `growth.tower`, walks it as numbers: a stage is its unit rank, its
unit multiplicity, its projective dimension and its witness rank, the sum
of the projective dimensions so far, and its real dimension is a closed
form in them.  The radius sweep and the comparability chain carry numbers
up the tower, not spaces: the sweep carries the witness rank's Euler verdict, and the chain
the witness rank, since a connecting map keeps the witness sum and adds n+1
point evaluations of it on the new stage line.  The rank criteria read
numbers, so `trace_table`, the sweep and a chain's stable-range records
build nothing, and spaces and bundles are built only where a class is
computed: a chain builds its verification stage's witness sum
(`bundles.capacity_sum`) for the Euler class, and the stage before it to
push one witness sum through a real connecting map against the carried
numbers.  So each sweep and each comparability chain does a fixed amount
of Python work per stage.
Nothing is held between calls.

Every trace and ratio is an integer pair, which `reports.fraction_json`
reduces by one gcd where it is printed.  Every verdict on them is decided
by cross-multiplying positive denominators, so no `fractions` arithmetic
runs: value = k when dim = 2k*rank, and a witness trace meets m^2/(m+1)
when (m+1)*witness >= m^2*rank.  The record lists that grow with the stage
count, the sweep's `stages` and `witnesses` and the chain's
`line_subbundle`, `chain` and k = inf `traces.entries`, are each one
`reports.Encoded` fragment: every record is written as canonical text by
its kind's one row template, keys in canonical order and rationals as
`fraction_json`'s text, in the step that decides it, and no record dict is
built.

`trace_table`, `comparability_triple` and `radius_of_comparison` take the
family parameter k itself, an int or `growth.INFINITE`; `growth.tower`
checks it, and a certificate prints it as `growth.family_parameter_label`.
"""

from __future__ import annotations

from itertools import islice

from .bundles import BundleExpr, DiagonalSlot, capacity_sum, pushforward_diagonal
from .comparison import obstructed_by_euler, trivial_line_subbundle_sufficient
from .errors import CrossCheckDisagreement
from .growth import INFINITE, Stage, family_parameter_label, tower
from .reports import JSON_BOOL, Encoded, encoded_rows, fraction_json
from .spaces import SpaceDescriptor, constant, projection


def _dimension(k: int | None, stage: Stage) -> int:
    """The stage space's real dimension, 2*(disk power + witness rank): the
    disk power is k, or for k = inf 1 at stage 0 and n*sigma(n)^2 = dim*unit
    at stage n, and the projective dimensions sum to the witness rank."""
    disks = max(1, stage.dim * stage.unit) if k is INFINITE else k
    return 2 * (disks + stage.witness)


def _slots(n: int, space: SpaceDescriptor, following: SpaceDescriptor) -> list[DiagonalSlot]:
    """The connecting map from stage n, over `space`, to stage n+1."""
    return [DiagonalSlot(projection(following, space, range(len(space.factors)))),
            DiagonalSlot(constant(following, space, f"y{n}"), n + 1, n)]


def trace_table(k: int | None, n: int) -> dict:
    """The stage-n trace certificate: dimension, unit rank, and the exact
    traces of the unit, of a trivial line and, from stage 1, of the witness
    sum.  The unit's rank (one trivial line plus sigma(j) copies of each
    stage line) is summed over the walk and cross-checked against (n+1)!,
    so the unit trace is 1 whenever the table is returned."""
    if n < 0:
        raise ValueError("stage must be >= 0")
    unit_rank = 0
    for stage in islice(tower(k), n + 1):
        unit_rank += stage.unit
    if unit_rank != stage.rank:
        raise CrossCheckDisagreement("unit rank bookkeeping is inconsistent")
    cert = {
        "stage": n,
        "dimension": str(_dimension(k, stage)),
        "rank": str(unit_rank),
        "unit_trace": Encoded(fraction_json(unit_rank, stage.rank)),
        "trivial_line_trace": Encoded(fraction_json(1, unit_rank)),
    }
    if n >= 1:
        cert["witness_sum_trace"] = Encoded(fraction_json(stage.witness, stage.rank))
    return cert


def comparability_triple(k: int | None, n: int,
                         verify_stage: int | None = None) -> dict:
    """Certify the three comparability facts for the stage-n projections.

    (a) each doubled block dominates a trivial line by the stable-range
    criterion on its own projective factor; (b) the witness sum pushes
    forward within capacity stage by stage up to `verify_stage`, where its
    Euler class is nonzero, obstructing domination of a trivial line; (c)
    the exact trace values, with the divergent sequence spelled out for the
    infinite family.

    The chain carries the witness rank; its last step is also pushed through
    a real connecting map, and CrossCheckDisagreement is raised unless the
    bundle matches its record.  The Euler certificate is the factorized
    class, cross-checked against the degree-targeted Chern component
    (`euler_nonzero`).  Returns the report's certificate; "passed" holds
    when all three facts are certified.
    """
    if n < 1:
        raise ValueError("stage must be >= 1")
    j = n if verify_stage is None else verify_stage
    if j < n:
        raise ValueError("verify stage must be >= the witness stage")

    passed = True
    walk = tower(k)
    stages = list(islice(walk, n + 1))
    line_records = []
    for stage in stages[1:]:
        # the doubled block's rank, and the real dimension of its own factor
        doubled = 2 * stage.dim
        verdict = trivial_line_subbundle_sufficient(doubled, doubled)
        passed &= verdict["outcome"] == "dominates"
        # the verdict's strings hold digits, letters and "*- >=": nothing to escape
        cert = verdict["certificate"]
        line_records.append(
            f'{{"certificate":{{"dimension":"{cert["dimension"]}",'
            f'"inequality":"{cert["inequality"]}","rank_y":"{cert["rank_y"]}",'
            f'"rule":"{cert["rule"]}"}},"cp_dimension":"{stage.dim}","i":{stage.n},'
            f'"outcome":"{verdict["outcome"]}","rank":"{doubled}"}}')

    # the connecting map from stage ell keeps the witness sum, of rank R, and
    # adds ell+1 point evaluations of it on the new stage line: (ell+1)*R
    # copies, within capacity while that is at most the new stage's cp
    # dimension.  The stage-(ell+1) witness sum adds that many copies, so
    # only R is carried up the tower
    rank, witness_rank = stages[-1].rank, stages[-1].witness
    q_sum = Encoded(fraction_json(witness_rank, rank))
    dims = [stage.dim for stage in stages[1:]]
    chain_records = []
    for ell, following in zip(range(n, j), walk):
        dims.append(following.dim)
        new_coeff = (ell + 1) * witness_rank
        ok = new_coeff <= following.dim
        passed &= ok
        chain_records.append(
            f'{{"capacity":"{following.dim}","from_stage":{ell},"new_line_multiplicity":'
            f'"{new_coeff}","pushed_rank":"{witness_rank + new_coeff}","to_stage":{ell + 1},'
            f'"within_capacity":{JSON_BOOL[ok]}}}')
        witness_rank = following.witness

    witness = capacity_sum(dims)
    if j > n:
        # the last step through a real connecting map, from the witness sum over
        # stage j's first j-1 factors: earlier summands stay, the new line gets copies
        before = BundleExpr(SpaceDescriptor(witness.base.factors[:-1]), 0, enumerate(dims[:-1]))
        pushed = pushforward_diagonal(before, _slots(j - 1, before.base, witness.base))
        if pushed != BundleExpr(witness.base, 0, [*before.parts.items(), (j - 1, new_coeff)]):
            raise CrossCheckDisagreement(
                f"pushforward from stage {j - 1} disagrees with the carried witness rank")
    verdict = obstructed_by_euler(witness)
    passed &= verdict["outcome"] == "obstructed"
    euler_record = {**verdict, "witness_rank": str(witness.rank)}

    traces: dict = {"unit_line": Encoded(fraction_json(1, rank)), "q_sum": q_sum}
    if k is not INFINITE:
        if k * rank - k != stages[-1].witness:
            raise CrossCheckDisagreement("closed-form q-sum trace disagrees with rank count")
        traces["limit"] = str(k)
        traces["divergent"] = False
    else:
        entries = []
        for stage in stages[1:]:
            m = stage.n
            if (m + 1) * stage.witness < m * m * stage.rank:
                raise CrossCheckDisagreement("divergence lower bound fails")
            entries.append(f'{{"exact":{fraction_json(stage.witness, stage.rank)},'
                           f'"lower_bound":{fraction_json(m * m, m + 1)},"stage":{m}}}')
        traces["entries"] = encoded_rows(entries)
        traces["divergent"] = True

    return {"k": family_parameter_label(k), "stage": n, "verify_stage": j,
            "line_subbundle": encoded_rows(line_records), "chain": encoded_rows(chain_records),
            "euler_obstruction": euler_record, "traces": traces, "passed": passed}


def radius_of_comparison(k: int | None, max_stage: int) -> dict:
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
    # the previous stage's dimension and rank, for the k = inf verdict; 0/1
    # before stage 0, which therefore holds
    previous_dimension, previous_rank = 0, 1
    # stage m's witness sum is stage m-1's plus `dim` copies of the new line:
    # its Euler verdict, carried up the tower, is nonzero while the copies
    # each stage adds stay below the cap dim + 1 of the new factor
    witness_rank, obstructed = 0, True
    verdict_key = "nondecreasing" if k is INFINITE else "equals_parameter"
    for stage in islice(tower(k), max_stage + 1):
        m, rank = stage.n, stage.rank
        dimension = _dimension(k, stage)
        if k is not INFINITE:
            holds = dimension == 2 * k * rank
        else:
            # dim/(2*rank) against the previous stage's: the factors 2 cancel
            holds = dimension * previous_rank >= previous_dimension * rank
        passed &= holds
        stages.append(f'{{"dimension":"{dimension}","{verdict_key}":{JSON_BOOL[holds]},'
                      f'"rank":"{rank}","stage":{m},"value":{fraction_json(dimension, 2 * rank)}}}')
        previous_dimension, previous_rank = dimension, rank
        if m == 0:
            continue

        obstructed = obstructed and stage.witness - witness_rank < stage.dim + 1
        witness_rank = stage.witness
        passed &= obstructed
        trivial, witness_sum = fraction_json(1, rank), fraction_json(witness_rank, rank)
        if k is not INFINITE:
            witnesses.append(
                f'{{"lower_bound":{fraction_json(k * rank - k - 1, rank)},'
                f'"obstructed":{JSON_BOOL[obstructed]},"stage":{m},'
                f'"trace_trivial_line":{trivial},"trace_witness_sum":{witness_sum}}}')
        else:
            # witness traces grow at least like m^2/(m+1), which diverges
            holds = (m + 1) * witness_rank >= m * m * rank
            passed &= holds
            witnesses.append(
                f'{{"bound_holds":{JSON_BOOL[holds]},'
                f'"divergence_lower_bound":{fraction_json(m * m, m + 1)},'
                f'"obstructed":{JSON_BOOL[obstructed]},"stage":{m},'
                f'"trace_trivial_line":{trivial},"trace_witness_sum":{witness_sum}}}')

    return {"k": family_parameter_label(k), "max_stage": max_stage, "divergent": k is INFINITE,
            "stages": encoded_rows(stages), "witnesses": encoded_rows(witnesses),
            "passed": passed}
