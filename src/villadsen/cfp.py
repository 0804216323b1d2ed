"""Finite-stage witnesses for the failure of the Corona Factorization Property.

The infinite-parameter system admits a sequence of bundle classes, one per
witness stage, each of which dominates the unit after five-fold
amplification (a rank-gap certificate) while no finite portion of their sum
ever dominates a trivial line (an Euler-class certificate fed by exact
coefficient bookkeeping).  Witness stages are chosen minimally subject to a
divisibility condition and a growth inequality; everything here is exact
big-integer arithmetic, never floating point.

Every number is read off one walk of the k = infinity stage tower
(`growth.tower`): a stage's projective dimension is the cap of its line,
its witness rank half the real dimension of the product of the projective
factors so far, and its rank the unit rank (n+1)!.  A witness term is the
record of its stage, holding half its factor dimension in copies of the
stage's line.  `build_witness` walks only as far as its witness stages need
and keeps the records it walked, and `verify_lower` extends that list once,
from the last witness stage to the verification stage, so one `cfp` call
generates each stage once.  `witness_stages`, `verify_upper` and
`verify_lower` take the witness or one of its terms and return the
certificates the report prints; each is its certificate's one writer.
`verify_lower`'s record lists, `rows` (each with its `intermediate`
records), `stretch` and `pushed_table`, are each one `reports.Encoded`
fragment, every record written as canonical text by its kind's one row
template, keys in canonical order, in the step that decides it.
The walk is always the k = infinity one, so nothing here takes a family
parameter.  The rank gap reads only ranks and a dimension, so the one
space and bundle built here is the capacity bundle whose Euler class
`verify_lower` checks, `bundles.capacity_sum` of the factor dimensions:
the witness sum of the k = infinity type-II chain at the same stage.
A `CfpWitness` is a `spaces.Frozen` slotted class, weak-referenceable,
that compares and hashes by its terms.
"""

from __future__ import annotations

from itertools import islice
from math import factorial

from .bundles import capacity_sum
from .comparison import obstructed_by_euler, dominates_by_rank
from .errors import ConfigError, CrossCheckDisagreement
from .growth import INFINITE, Stage, tower
from .reports import JSON_BOOL, encoded_rows
from .spaces import Frozen


def _walk_to(stages: list[Stage], n: int) -> Stage:
    """Stage n of the k = infinity walk whose stages so far, from stage 0
    on, are `stages`: the walk goes on from the last of them as far as
    needed."""
    if n >= len(stages):
        stages += islice(tower(INFINITE, stages[-1] if stages else None), n + 1 - len(stages))
    return stages[n]


# -- choice of witness stages -------------------------------------------------

_GROWTH_BASE = 1  # lam(m+1) >= 5*lam(m) holds from here on, see note below


def _growth_fact_holds(m: int) -> bool:
    # (m+1)^3 >= 5 m^2: exact check; for m >= 2 it follows from
    # (m+1)^3 - 5m^2 = m^2 (m - 2) + 3m + 1 > 0, and m = 1 gives 8 >= 5
    return (m + 1) ** 3 >= 5 * m * m


def _ratio_induction_base(stages: list[Stage]) -> int:
    # smallest stage where the quarter bound holds; the growth fact then
    # propagates it to every later stage
    m = 1
    while 4 * _walk_to(stages, m - 1).witness > _walk_to(stages, m).dim:
        m += 1
    return m


def first_stage_certificate(stages: list[Stage]) -> dict:
    """The first witness stage, with the finite checks and the symbolic tail
    facts behind it, read off the walk `stages` (walked on as far as needed).

    Divisibility by four holds for all m >= 4 (4 divides m! there) and the
    ratio condition holds for all m >= the induction base, so only the stages
    up to the larger of the two need explicit checking: the first stage
    follows the last failing stage below it.
    """
    ratio_base = _ratio_induction_base(stages)
    base = max(ratio_base, 4)
    _walk_to(stages, base)
    # the ratio condition: five quarters of the new factor dimension covers
    # the whole half-dimension
    checks = [{"stage": s.n, "divisible_by_4": s.dim % 4 == 0,
               "ratio_ok": 5 * s.dim >= 4 * s.witness} for s in stages[1:base + 1]]
    return {
        "value": max([c["stage"] + 1 for c in checks[:-1]
                      if not (c["divisible_by_4"] and c["ratio_ok"])], default=1),
        "finite_checks": checks,
        "tail": {
            "divisibility_from": 4,
            "divisibility_reason": "4 divides m! for every m >= 4",
            "ratio_induction_base": ratio_base,
            "ratio_reason": ("sum of earlier factor dimensions stays within a "
                             "quarter of the next one because each dimension "
                             "grows at least fivefold"),
            "growth_checks": [
                {"stage": m, "fivefold": _growth_fact_holds(m)}
                for m in range(_GROWTH_BASE, _GROWTH_BASE + 4)
            ],
            "growth_reason": ("(m+1)^3 - 5*m^2 = m^2*(m-2) + 3*m + 1 > 0 "
                              "for m >= 2; m = 1 gives 8 >= 5"),
        },
    }


def next_witness_stage(prev: Stage) -> int:
    """Minimal stage m > prev.n with the pushforward growth inequality.

    The inequality prev.witness * sigma(m) / prev.rank <= m * sigma(m) / 2,
    whose sides are the pushed coefficient of the dominated sum and half the
    stage-m factor dimension, reduces, after dividing out sigma(m), to
    m >= 2 * prev.witness / prev.rank, whose least integer solution is an
    exact ceiling.
    """
    if prev.n < 1:
        raise ValueError("previous stage must be >= 1")
    return max(prev.n + 1, -(-2 * prev.witness // prev.rank))


class CfpWitness(Frozen):
    """The witness: its terms, the walk's records of the witness stages,
    each term dim // 2 copies of its stage's line (twice below cap) and
    numbered by its position from 1; the walk's records of stages 0 to the
    last witness stage, the terms among them; and the certificate behind
    the first stage (`first_stage_certificate`) when the stages were chosen
    minimally, none when they were given.  No attribute can be set after it
    is made; equality, hash and repr read the terms alone."""

    __slots__ = ("terms", "stages", "first_stage", "__weakref__")

    def __init__(self, terms: tuple[Stage, ...], stages: tuple[Stage, ...],
                 first_stage: dict | None = None):
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "stages", stages)
        object.__setattr__(self, "first_stage", first_stage)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.terms,))

    def __repr__(self) -> str:
        return f"CfpWitness(terms={self.terms!r})"

    def __reduce__(self):  # a copy or pickle is rebuilt by the constructor
        return CfpWitness, (self.terms, self.stages, self.first_stage)


def build_witness(num_terms: int, override_stages: list[int] | None = None) -> CfpWitness:
    """Build the first `num_terms` witnesses, minimally or from overrides,
    walking the stages only as far as they need."""
    if num_terms < 1:
        raise ConfigError("need at least one term")
    stages: list[Stage] = []
    first_stage = None
    if override_stages is not None:
        if len(override_stages) != num_terms:
            raise ConfigError("override list length must match the term count")
        if any(b <= a for a, b in zip(override_stages, override_stages[1:])):
            raise ConfigError("override stages must be strictly increasing")
        below = [s for s in override_stages if s < 1]
        if below:
            raise ConfigError(f"override stages start at stage 1, not {below}")
        chosen = list(override_stages)
    else:
        first_stage = first_stage_certificate(stages)
        chosen = [first_stage["value"]]
        while len(chosen) < num_terms:
            chosen.append(next_witness_stage(_walk_to(stages, chosen[-1])))
    terms = tuple(_walk_to(stages, m) for m in chosen)
    for record in terms:
        if record.dim % 2:
            raise ConfigError(f"stage {record.n} has odd factor dimension {record.dim}; "
                              "half of it is not an integer")
    return CfpWitness(terms, tuple(stages[:chosen[-1] + 1]), first_stage)


def witness_stages(witness: CfpWitness) -> dict:
    """The report's `witness_stages` certificate: each term's index, stage
    and copies, whether the stages were given, and the certificate behind
    the first stage when they were chosen minimally."""
    terms = [{"index": i, "stage": t.n, "copies": str(t.dim // 2)}
             for i, t in enumerate(witness.terms, start=1)]
    cert = {"witness": {"terms": terms, "overridden": witness.first_stage is None}}
    if witness.first_stage is not None:
        cert["first_stage"] = witness.first_stage
    return cert


def verify_upper(record: Stage) -> dict:
    """Certify that five copies of the witness term of the stage `record`
    dominate the unit, by rank gap.

    Over the product of the stage's first projective factors, 5 * copies
    exceeds the unit rank (stage+1)! plus half the base dimension, the
    stage's witness rank, exactly when the stage entry conditions hold; the
    criterion reads only these numbers off the record, so no base or bundle
    is built.
    Returns the report's certificate: the stage and the term's copies, and
    the rank-gap verdict, whose outcome is "dominates" when it holds.
    """
    copies = record.dim // 2
    return {"stage": record.n, "copies": str(copies),
            **dominates_by_rank(record.rank, 5 * copies, 2 * record.witness)}


def verify_lower(witness: CfpWitness, stage: int | None = None) -> dict:
    """Certify that the pushed witness sum never dominates a trivial line.

    Two bookkeeping passes feed the certificate.  The dominating replay
    follows the induction: once the sum is within capacity at a witness
    stage, pushing the full capacity bundle forward yields coefficients
    (sum of caps) * sigma(t) / (prev+1)! at the intermediate stages, and the
    growth inequality puts the new-stage coefficient plus the next witness
    back under cap.  The exact pass pushes the actual coefficient vector
    stage by stage.  Both must stay within the per-stage caps, and the
    capacity bundle at the final stage has nonzero Euler class, which
    obstructs any trivial line sub-bundle.  Returns the report's
    certificate; "passed" holds when no step failed.
    """
    terms = witness.terms
    last = terms[-1]
    j = last.n if stage is None else stage
    if j < last.n:
        raise ValueError(f"verification stage {j} must reach the last witness "
                         f"stage {last.n}")

    # stages[s] is the walk's stage-s record: the witness's walk, extended
    # once to stage j.  Its dim is the cap of the stage-s line, and cap[s]
    # that cap's decimal string, converted once for every row that prints it.
    # The capacity bundle's Euler check runs before any row is written, so
    # the memory it works in is free again for the rows' strings
    stages = [*witness.stages, *islice(tower(INFINITE, last), j - last.n)]
    verdict = obstructed_by_euler(capacity_sum([s.dim for s in stages[1:]]))
    cap = [str(s.dim) for s in stages]
    failures: list[str] = []
    first = terms[0]
    # term 1's row has no step to check: its copies, half its stage's cap,
    # are within that cap for any cap
    rows = [f'{{"added_copies":"{first.dim // 2}","cap":"{cap[first.n]}","ok":true,'
            f'"stage":{first.n},"term":1}}']
    for index, (prev_term, term) in enumerate(zip(terms, terms[1:]), start=2):
        prev, cur = prev_term.n, term.n
        dominated_rank = prev_term.witness
        intermediate = []
        # dominated_rank * sigma(t) / (prev+1)! = t * scaled, with
        # scaled = dominated_rank * t!/(prev+1)! carried as a running product
        scaled = dominated_rank
        for t in range(prev + 1, cur + 1):
            coeff = t * scaled
            pushed_text = str(coeff)
            # the witness joins at its own stage; before it the total is the push
            total = coeff + term.dim // 2 if t == cur else coeff
            total_text = str(total) if t == cur else pushed_text
            ok_t = total <= stages[t].dim
            if not ok_t:
                failures.append(f"dominating coefficient exceeds cap at stage {t}")
            intermediate.append(f'{{"cap":"{cap[t]}","ok":{JSON_BOOL[ok_t]},'
                                f'"pushed":"{pushed_text}","stage":{t},"total":"{total_text}"}}')
            scaled *= t + 1
        growth_lhs = coeff
        # closed form of the last coefficient, dominated_rank * cur * cur! /
        # (prev+1)!, with cur! formed apart from the walk, so the running
        # product is never trusted alone
        if growth_lhs * prev_term.rank != dominated_rank * cur * factorial(cur):
            raise CrossCheckDisagreement(
                "running pushforward coefficient disagrees with its closed form")
        growth_ok = 2 * growth_lhs <= term.dim
        if not growth_ok:
            failures.append(f"growth inequality fails entering stage {cur}")
        rows.append(f'{{"cap":"{cap[cur]}","combined":"{total_text}",'
                    f'"combined_ok":{JSON_BOOL[total <= term.dim]},'
                    f'"dominated_rank":"{dominated_rank}","from_stage":{prev},'
                    f'"growth_lhs":"{pushed_text}","growth_ok":{JSON_BOOL[growth_ok]},'
                    f'"growth_rhs_half_cap":"{term.dim // 2}",'
                    f'"intermediate":[{",".join(intermediate)}],"term":{index},"to_stage":{cur}}}')

    # the capacity bundle of each stage from the last witness stage on, of
    # its witness rank, pushed one stage on along the walk
    stretch = []
    for before, following in zip(stages[last.n:], stages[last.n + 1:]):
        new = following.n * before.witness
        ok_t = new <= following.dim
        if not ok_t:
            failures.append(f"capacity push fails from stage {before.n}")
        stretch.append(f'{{"cap":"{cap[following.n]}","from_stage":{before.n},'
                       f'"new_multiplicity":"{new}","ok":{JSON_BOOL[ok_t]},"to_stage":{following.n}}}')

    # the exact push: pushing one stage on adds s times the sum so far to the
    # stage-s line, and a witness joins the sum at its own stage
    arrivals = {t.n: t.dim // 2 for t in terms}
    pushed_table = []
    pushed_sum = 0
    for record in stages[1:]:
        s = record.n
        coefficient = s * pushed_sum + arrivals.get(s, 0)
        pushed_sum += coefficient
        ok_s = coefficient <= record.dim
        if not ok_s:
            failures.append(f"exact pushed coefficient exceeds cap at stage {s}")
        pushed_table.append(f'{{"cap":"{cap[s]}","coefficient":"{coefficient}",'
                            f'"ok":{JSON_BOOL[ok_s]},"stage":{s}}}')

    if verdict["outcome"] != "obstructed":
        failures.append("capacity bundle Euler class is not certified nonzero")
    return {"stage": j, "rows": encoded_rows(rows), "stretch": encoded_rows(stretch),
            "pushed_table": encoded_rows(pushed_table), "euler": verdict,
            "failures": failures, "passed": not failures}
