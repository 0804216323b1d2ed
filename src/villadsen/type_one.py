"""Type-I inductive systems: multiplicity bookkeeping and finite-stage verifiers.

A connecting step is described by which coordinate projections occur among
its eigenvalue maps (with multiplicities) and how many point evaluations it
carries.  Three integers summarize a composed map: the number of distinct
coordinate projections, their total multiplicity, and the multiplicity of
the whole map; all three multiply under composition, and the two ratios
they define over the total are the quantities every argument about these
systems runs on.  A ratio is an integer pair, which `reports.fraction_json`
prints in lowest terms, and every verdict on ratios cross-multiplies
positive denominators, so no `fractions` arithmetic runs.  The two
witness checks, `top_chern_witness` and `ratio_contradiction_check`,
return the certificate the report prints; the first checks its closed
form against the top-degree component of the witness lines' Chern class,
from `bundles.chern_component`, the engine's one single-degree expansion
of a product of line series.  `StepSpec`, `StageStats` and `SystemConfig`
are named tuples, the first two checked when they are made.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import accumulate
from math import prod

from .bundles import BundleExpr, chern_component, expansion_budget
from .errors import ConfigError, CrossCheckDisagreement, GeneratorBudgetExceeded
from .reports import Encoded, fraction_json
from .spaces import json_fields, json_list, json_object, read_int, spheres


class StepSpec(namedtuple("StepSpec", "projection_multiplicities point_evaluations")):
    """One connecting step: projection id -> multiplicity, plus point evaluations."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so `_replace` checks too

    def __new__(cls, projection_multiplicities: tuple[tuple[str, int], ...],
                point_evaluations: int = 0):
        self = tuple.__new__(cls, (projection_multiplicities, point_evaluations))
        ids = [pid for pid, _ in projection_multiplicities]
        if len(set(ids)) != len(ids):
            raise ConfigError("duplicate projection id in step")
        for pid, m in projection_multiplicities:
            if m < 1:
                raise ConfigError(f"projection {pid!r} needs multiplicity >= 1")
        if point_evaluations < 0:
            raise ConfigError("point evaluation count must be >= 0")
        if self.total_multiplicity < 1:
            raise ConfigError("a step needs at least one eigenvalue map")
        return self

    @property
    def total_multiplicity(self) -> int:
        return self.point_evaluations + sum(m for _, m in self.projection_multiplicities)

    def stats(self) -> "StageStats":
        alpha = sum(m for _, m in self.projection_multiplicities)
        return StageStats(len(self.projection_multiplicities), alpha,
                          alpha + self.point_evaluations)

    @staticmethod
    def from_json(doc: dict) -> "StepSpec":
        json_fields(doc, "step", {"proj_mults", "point_evals"})
        mults = tuple(sorted((str(k), read_int(v, f"multiplicity of {k!r}"))
                             for k, v in json_object(doc.get("proj_mults", {}),
                                                     "proj_mults").items()))
        return StepSpec(mults, read_int(doc.get("point_evals", 0), "point_evals"))


class StageStats(namedtuple("StageStats", "distinct_projections projection_multiplicity "
                                          "total_multiplicity")):
    """Composite multiplicity data of a composed connecting map."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so `_replace` checks too

    def __new__(cls, distinct_projections: int, projection_multiplicity: int,
                total_multiplicity: int):
        if not 0 <= distinct_projections <= projection_multiplicity <= total_multiplicity:
            raise ValueError("need 0 <= distinct <= with-multiplicity <= total")
        if total_multiplicity < 1:
            raise ValueError("total multiplicity must be >= 1")
        return tuple.__new__(cls, (distinct_projections, projection_multiplicity,
                                   total_multiplicity))


IDENTITY_STATS = StageStats(1, 1, 1)


def compose_stats(a: StageStats, b: StageStats) -> StageStats:
    """Stats of the composite map: all three counts multiply."""
    return StageStats(a.distinct_projections * b.distinct_projections,
                      a.projection_multiplicity * b.projection_multiplicity,
                      a.total_multiplicity * b.total_multiplicity)


def running_stats(steps: list[StepSpec], start: int, stop: int) -> list[StageStats]:
    """Composite stats of steps[start:t] for t = start, ..., stop, from one
    running composition: IDENTITY_STATS first and the whole range's last."""
    if not 0 <= start <= stop <= len(steps):
        raise IndexError("stage range out of bounds")
    return list(accumulate((s.stats() for s in steps[start:stop]), compose_stats,
                           initial=IDENTITY_STATS))


def composed_projection_multiplicities(steps: list[StepSpec], start: int,
                                       stop: int) -> list[int]:
    """Multiplicities of the distinct composed coordinate projections.

    A composed projection is a chain of per-step choices, so its
    multiplicity is the product along the chain; the list has one entry per
    distinct chain.  The count multiplies across steps, so it is held to the
    expansion budget (ENGINE_GENERATOR_BUDGET).
    """
    budget = expansion_budget()
    mults = [1]
    for step in steps[start:stop]:
        step_mults = [m for _, m in step.projection_multiplicities]
        if len(mults) * max(len(step_mults), 1) > budget:
            raise GeneratorBudgetExceeded(len(mults) * len(step_mults), budget,
                                          "projection chain enumeration")
        mults = [a * b for a in mults for b in step_mults]
    return mults


def top_chern_witness(n: int, multiplicities: list[int]) -> dict:
    """The `top_chern_witness` certificate of a sum of pulled-back witness
    bundles: the sphere power it lives over, the degree and coefficient of
    its top Chern class, and the count of distinct projections.

    The witness bundle over an n-fold sphere power is a sum of n pulled-back
    lines; pushing it through a composed map whose distinct projections have
    the given multiplicities yields a bundle over a sphere power of size
    n * len(multiplicities) whose top Chern class is the full product of all
    generators with coefficient prod(m^n), nonzero as every m is.  Computed
    both in closed form and by expansion: the witness factors (1 + m * z)
    are the Chern series of m copies of each generator's line, whose
    component in the top degree 2 * n * count (`bundles.chern_component`)
    must be the closed form's one term.  CrossCheckDisagreement is raised
    unless it is, with the expanded coefficient of the full monomial and
    the count of the component's other terms and the first of them.  The
    whole product has 2^(n * count) terms, and is refused with
    GeneratorBudgetExceeded past the term budget (ENGINE_GENERATOR_BUDGET),
    though the top degree alone expands one partial term per generator.
    """
    if n < 1:
        raise ValueError("witness size n must be >= 1")
    if not multiplicities:
        raise ValueError("need at least one distinct projection")
    if any(m < 1 for m in multiplicities):
        raise ValueError("multiplicities must be positive")
    count = len(multiplicities)
    gens = n * count
    budget = expansion_budget()
    # 2^gens > budget exactly when gens reaches the budget's bit length, so
    # no power of two past the budget is formed
    if gens >= budget.bit_length():
        raise GeneratorBudgetExceeded(None, budget,
                                      f"top Chern witness expansion over {gens} generators",
                                      required_log2=gens)
    closed = prod(multiplicities) ** n  # prod(m^n)

    # independent route: expand prod_{l,s} (1 + m_l z_{l*n+s}) over (S^2)^{n*count}
    # in the top degree, which holds the single monomial z_1 ... z_gens
    bundle = BundleExpr(spheres(gens), 0, enumerate(m for m in multiplicities for _ in range(n)))
    terms, top = chern_component(bundle, 2 * gens).terms, (1,) * gens
    if terms != {top: closed}:
        stray = [exponents for exponents in terms if exponents != top]
        raise CrossCheckDisagreement(
            f"top Chern coefficient mismatch: closed {closed}, expanded {terms.get(top, 0)}, "
            f"stray terms {len(stray)}" + (f", first at exponents {list(stray[0])}" if stray else ""))
    return {"sphere_power": gens, "degree": str(gens), "coefficient": str(closed),
            "distinct_projections": str(count)}


def ratio_contradiction_check(n: int, stats: StageStats) -> dict:
    """The `ratio_contradiction` certificate: a high distinct-projection
    ratio contradicts the rank bound.

    The obstruction argument forces distinct*n <= total*n - 2*distinct for
    the stage data (`rank_bound_holds`; its fixed point is ratio <= n/(n+2)).
    Together with the hypothesis ratio >= (2n-1)/(2n) (`hypothesis_holds`)
    this pins the ratio under ((n-1)/n)^2, which lies strictly below
    (n-1)/n and hence below the hypothesis: an exact contradiction, which
    `contradiction` records.
    """
    if n < 2:
        raise ValueError("the argument needs n >= 2")
    distinct, total = stats.distinct_projections, stats.total_multiplicity
    # distinct/total >= (2n-1)/(2n), and ((n-1)/n)^2 < (n-1)/n, cross-multiplied
    hypothesis = 2 * n * distinct >= (2 * n - 1) * total
    rank_bound = n * distinct <= n * total - 2 * distinct
    return {
        "n": n,
        "ratio": Encoded(fraction_json(distinct, total)),
        "threshold": Encoded(fraction_json(2 * n - 1, 2 * n)),
        "hypothesis_holds": hypothesis,
        "rank_bound_holds": rank_bound,
        "fixed_point_bound": Encoded(fraction_json(n, n + 2)),
        "forced_square": Encoded(fraction_json((n - 1) ** 2, n * n)),
        "strict_drop": (n - 1) ** 2 * n < (n - 1) * n * n,
        "contradiction": hypothesis and not rank_bound,
    }


class SystemConfig(namedtuple("SystemConfig", "seed_dimension steps")):
    """A type-I system: the seed dimension and the connecting steps."""

    __slots__ = ()

    @staticmethod
    def from_json(doc: dict) -> "SystemConfig":
        json_fields(doc, "config", {"seed_dim", "steps"})
        if "seed_dim" not in doc or "steps" not in doc:
            raise ConfigError("config needs 'seed_dim' and 'steps'")
        seed = read_int(doc["seed_dim"], "seed_dim")
        if seed < 0:
            raise ConfigError("seed_dim must be >= 0")
        steps = tuple(StepSpec.from_json(json_object(s, f"step {i}"))
                      for i, s in enumerate(json_list(doc["steps"], "steps")))
        return SystemConfig(seed, steps)
