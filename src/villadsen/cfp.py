"""Finite-stage witnesses for the failure of the Corona Factorization Property.

The infinite-parameter system admits a sequence of bundle classes, one per
witness stage, each of which dominates the unit after five-fold
amplification (a rank-gap certificate) while no finite portion of their sum
ever dominates a trivial line (an Euler-class certificate fed by exact
coefficient bookkeeping).  Witness stages are chosen minimally subject to a
divisibility condition and a growth inequality; everything here is exact
big-integer and big-rational arithmetic, never floating point.
`verify_upper` and `verify_lower` return the certificates the report prints.
The rank gap reads only ranks and a dimension, so the one space and bundle
built here is the capacity bundle whose Euler class `verify_lower` checks,
`bundles.capacity_sum` of the factor dimensions: the witness sum of the
k = infinity type-II chain at the same stage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from math import factorial

from .bundles import capacity_sum
from .comparison import obstructed_by_euler, dominates_by_rank
from .errors import ConfigError, CrossCheckDisagreement
from .growth import INFINITE, cp_dimension, stage_growth, unit_multiplicity


def factor_dimension(s: int) -> int:
    """Complex dimension of the s-th projective factor, s^2 * s!.

    This same number caps the multiplicity a line block may reach before its
    Euler factor dies, which is what the whole construction runs on.
    """
    return cp_dimension(INFINITE, s)


def half_dimension_sum(j: int) -> int:
    """Half the real dimension of the product of the first j projective
    factors: the sum of factor_dimension(s) for s = 1..j, off the infinite
    family's growth."""
    return sum(dim for _, _, dim in islice(stage_growth(INFINITE), j))


# -- choice of witness stages -------------------------------------------------

def _divisible_by_four(m: int) -> bool:
    return factor_dimension(m) % 4 == 0


def _ratio_ok(m: int) -> bool:
    # five quarters of the new factor dimension covers the whole half-dimension
    return 5 * factor_dimension(m) >= 4 * half_dimension_sum(m)


_GROWTH_BASE = 1  # lam(m+1) >= 5*lam(m) holds from here on, see note below


def _growth_fact_holds(m: int) -> bool:
    # (m+1)^3 >= 5 m^2: exact check; for m >= 2 it follows from
    # (m+1)^3 - 5m^2 = m^2 (m - 2) + 3m + 1 > 0, and m = 1 gives 8 >= 5
    return (m + 1) ** 3 >= 5 * m * m


def _ratio_induction_base() -> int:
    # smallest stage where the quarter bound holds; the growth fact then
    # propagates it to every later stage
    m = 1
    while 4 * half_dimension_sum(m - 1) > factor_dimension(m):
        m += 1
    return m


def first_witness_stage() -> int:
    """Minimal stage from which every later stage passes both entry conditions."""
    return first_stage_certificate()["value"]


def first_stage_certificate() -> dict:
    """The first witness stage, with the finite checks and the symbolic tail
    facts behind it.

    Divisibility by four holds for all m >= 4 (4 divides m! there) and the
    ratio condition holds for all m >= the induction base, so only the stages
    up to the larger of the two need explicit checking: the first stage
    follows the last failing stage below it.
    """
    ratio_base = _ratio_induction_base()
    base = max(ratio_base, 4)
    checks = [{"stage": m, "divisible_by_4": _divisible_by_four(m), "ratio_ok": _ratio_ok(m)}
              for m in range(1, base + 1)]
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


def next_witness_stage(prev: int) -> int:
    """Minimal stage m > prev with the pushforward growth inequality.

    The inequality (sum of earlier factor dimensions) * sigma(m) / (prev+1)!
    <= factor_dimension(m) / 2 reduces, after dividing out sigma(m), to
    m >= 2 * (sum of earlier factor dimensions) / (prev+1)!, whose least
    integer solution is an exact ceiling.
    """
    if prev < 1:
        raise ValueError("previous stage must be >= 1")
    return max(prev + 1, -(-2 * half_dimension_sum(prev) // factorial(prev + 1)))


@dataclass(frozen=True)
class WitnessTerm:
    """One witness: `copies` of the stage line, with copies twice below cap."""

    index: int
    stage: int
    copies: int

    def to_json(self) -> dict:
        return {"index": self.index, "stage": self.stage, "copies": str(self.copies)}


@dataclass(frozen=True)
class CfpWitness:
    """The witness terms, and the certificate behind the first stage
    (`first_stage_certificate`) when the stages were chosen minimally; the
    stages were given (overridden) when there is none."""

    terms: tuple[WitnessTerm, ...]
    first_stage: dict | None = field(default=None, compare=False, repr=False)

    @property
    def overridden(self) -> bool:
        return self.first_stage is None

    def to_json(self) -> dict:
        return {"terms": [t.to_json() for t in self.terms],
                "overridden": self.overridden}


def build_witness(num_terms: int, override_stages: list[int] | None = None) -> CfpWitness:
    """Build the first `num_terms` witnesses, minimally or from overrides."""
    if num_terms < 1:
        raise ConfigError("need at least one term")
    first_stage = None
    if override_stages is not None:
        if len(override_stages) != num_terms:
            raise ConfigError("override list length must match the term count")
        if any(b <= a for a, b in zip(override_stages, override_stages[1:])):
            raise ConfigError("override stages must be strictly increasing")
        below = [s for s in override_stages if s < 1]
        if below:
            raise ConfigError(f"override stages start at stage 1, not {below}")
        stages = list(override_stages)
    else:
        first_stage = first_stage_certificate()
        stages = [first_stage["value"]]
        while len(stages) < num_terms:
            stages.append(next_witness_stage(stages[-1]))
    terms = []
    for i, stage in enumerate(stages, start=1):
        dim = factor_dimension(stage)
        if dim % 2:
            raise ConfigError(f"stage {stage} has odd factor dimension {dim}; "
                              "half of it is not an integer")
        terms.append(WitnessTerm(i, stage, dim // 2))
    return CfpWitness(tuple(terms), first_stage)


def verify_upper(term: WitnessTerm) -> dict:
    """Certify that five copies of the witness dominate the unit, by rank gap.

    Over the product of the stage's first projective factors, 5 * copies
    exceeds the unit rank (stage+1)! plus half the base dimension exactly
    when the stage entry conditions hold; the criterion reads only these
    numbers, so no base or bundle is built.
    Returns the report's certificate: the term's stage and copies, and the
    rank-gap verdict, whose outcome is "dominates" when it holds.
    """
    return {"stage": term.stage, "copies": str(term.copies),
            **dominates_by_rank(factorial(term.stage + 1), 5 * term.copies,
                                2 * half_dimension_sum(term.stage))}


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
    j = terms[-1].stage if stage is None else stage
    if j < terms[-1].stage:
        raise ValueError("verification stage must reach the last witness stage")

    # dim[s] is the stage-s factor dimension, the cap of the stage-s line, and
    # cap[s] its decimal string, converted once for every row that prints it
    dim = [0] + [d for _, _, d in islice(stage_growth(INFINITE), j)]
    cap = [str(d) for d in dim]
    failures: list[str] = []
    rows = []
    first = terms[0]
    ok0 = first.copies <= dim[first.stage]
    if not ok0:
        failures.append(f"term 1 exceeds its cap at stage {first.stage}")
    rows.append({
        "term": 1, "stage": first.stage,
        "added_copies": str(first.copies),
        "cap": cap[first.stage],
        "ok": ok0,
    })
    for term, prev_term in zip(terms[1:], terms):
        prev, cur = prev_term.stage, term.stage
        dominated_rank = sum(dim[1:prev + 1])
        intermediate = []
        # dominated_rank * sigma(t) / (prev+1)! = t * scaled, with
        # scaled = dominated_rank * t!/(prev+1)! carried as a running product
        scaled = dominated_rank
        for t in range(prev + 1, cur + 1):
            coeff = t * scaled
            pushed_text = str(coeff)
            # the witness joins at its own stage; before it the total is the push
            total = coeff + term.copies if t == cur else coeff
            total_text = str(total) if t == cur else pushed_text
            ok_t = total <= dim[t]
            if not ok_t:
                failures.append(f"dominating coefficient exceeds cap at stage {t}")
            intermediate.append({"stage": t, "pushed": pushed_text, "total": total_text,
                                 "cap": cap[t], "ok": ok_t})
            scaled *= t + 1
        growth_lhs = coeff
        # closed form of the last coefficient, so the running product is never
        # trusted alone
        if growth_lhs * factorial(prev + 1) != dominated_rank * unit_multiplicity(cur):
            raise CrossCheckDisagreement(
                "running pushforward coefficient disagrees with its closed form")
        growth_ok = 2 * growth_lhs <= dim[cur]
        if not growth_ok:
            failures.append(f"growth inequality fails entering stage {cur}")
        rows.append({
            "term": term.index, "from_stage": prev, "to_stage": cur,
            "dominated_rank": str(dominated_rank),
            "growth_lhs": pushed_text,
            "growth_rhs_half_cap": str(dim[cur] // 2),
            "growth_ok": growth_ok,
            "combined": total_text,
            "cap": cap[cur],
            "combined_ok": total <= dim[cur],
            "intermediate": intermediate,
        })

    stretch = []
    rank_t = sum(dim[1:terms[-1].stage + 1])
    for t in range(terms[-1].stage, j):
        new = (t + 1) * rank_t
        ok_t = new <= dim[t + 1]
        if not ok_t:
            failures.append(f"capacity push fails from stage {t}")
        stretch.append({"from_stage": t, "to_stage": t + 1,
                        "new_multiplicity": str(new),
                        "cap": cap[t + 1], "ok": ok_t})
        rank_t += dim[t + 1]

    pushed = exact_pushed_coefficients(witness, j)
    pushed_table = []
    for s in range(1, j + 1):
        ok_s = pushed[s] <= dim[s]
        if not ok_s:
            failures.append(f"exact pushed coefficient exceeds cap at stage {s}")
        pushed_table.append({"stage": s, "coefficient": str(pushed[s]),
                             "cap": cap[s], "ok": ok_s})

    verdict = obstructed_by_euler(capacity_sum(dim[1:]))  # the capacity bundle
    if verdict["outcome"] != "obstructed":
        failures.append("capacity bundle Euler class is not certified nonzero")
    return {"stage": j, "rows": rows, "stretch": stretch, "pushed_table": pushed_table,
            "euler": verdict, "failures": failures, "passed": not failures}


def exact_pushed_coefficients(witness: CfpWitness, j: int) -> dict[int, int]:
    """Exact per-stage line multiplicities of the pushed witness sum.

    Pushing one stage multiplies nothing and adds (t+1) * (current rank)
    copies of the next stage's line; witnesses join the sum at their own
    stage.  Returns {stage: coefficient} for stages 1..j.
    """
    arrivals = {t.stage: t.copies for t in witness.terms}
    coeffs = {s: 0 for s in range(1, j + 1)}
    start = witness.terms[0].stage
    coeffs[start] = total = arrivals[start]
    for t in range(start, j):
        added = (t + 1) * total + arrivals.get(t + 1, 0)
        coeffs[t + 1] += added
        total += added
    return coeffs
