"""Type-I inductive systems: multiplicity bookkeeping and finite-stage verifiers.

A connecting step is described by which coordinate projections occur among
its eigenvalue maps (with multiplicities) and how many point evaluations it
carries.  Three integers summarize a composed map: the number of distinct
coordinate projections, their total multiplicity, and the multiplicity of
the whole map; all three multiply under composition, and the two ratios
they define over the total are the quantities every argument about these
systems runs on.  All ratio arithmetic is exact.  The two witness checks,
`top_chern_witness` and `ratio_contradiction_check`, return the
certificate the report prints.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

from .bundles import expansion_budget
from .cohomology import line_series_product
from .errors import ConfigError, CrossCheckDisagreement, GeneratorBudgetExceeded
from .reports import fraction_json
from .spaces import json_list, json_object, read_int, spheres


@dataclass(frozen=True)
class StepSpec:
    """One connecting step: projection id -> multiplicity, plus point evaluations."""

    projection_multiplicities: tuple[tuple[str, int], ...]
    point_evaluations: int = 0

    def __post_init__(self):
        ids = [pid for pid, _ in self.projection_multiplicities]
        if len(set(ids)) != len(ids):
            raise ConfigError("duplicate projection id in step")
        for pid, m in self.projection_multiplicities:
            if m < 1:
                raise ConfigError(f"projection {pid!r} needs multiplicity >= 1")
        if self.point_evaluations < 0:
            raise ConfigError("point evaluation count must be >= 0")
        if self.total_multiplicity < 1:
            raise ConfigError("a step needs at least one eigenvalue map")

    @property
    def total_multiplicity(self) -> int:
        return self.point_evaluations + sum(m for _, m in self.projection_multiplicities)

    def stats(self) -> "StageStats":
        alpha = sum(m for _, m in self.projection_multiplicities)
        return StageStats(len(self.projection_multiplicities), alpha,
                          alpha + self.point_evaluations)

    @staticmethod
    def from_json(doc: dict) -> "StepSpec":
        unknown = set(doc) - {"proj_mults", "point_evals"}
        if unknown:
            raise ConfigError(f"unknown step keys: {sorted(unknown)}")
        mults = tuple(sorted((str(k), read_int(v, f"multiplicity of {k!r}"))
                             for k, v in json_object(doc.get("proj_mults", {}),
                                                     "proj_mults").items()))
        return StepSpec(mults, read_int(doc.get("point_evals", 0), "point_evals"))


@dataclass(frozen=True)
class StageStats:
    """Composite multiplicity data of a composed connecting map."""

    distinct_projections: int
    projection_multiplicity: int
    total_multiplicity: int

    def __post_init__(self):
        if not (0 <= self.distinct_projections
                <= self.projection_multiplicity
                <= self.total_multiplicity):
            raise ValueError("need 0 <= distinct <= with-multiplicity <= total")
        if self.total_multiplicity < 1:
            raise ValueError("total multiplicity must be >= 1")

    @property
    def distinct_ratio(self) -> Fraction:
        return Fraction(self.distinct_projections, self.total_multiplicity)

    @property
    def projection_ratio(self) -> Fraction:
        return Fraction(self.projection_multiplicity, self.total_multiplicity)

    def to_json(self) -> dict:
        return {
            "distinct_projections": str(self.distinct_projections),
            "projection_multiplicity": str(self.projection_multiplicity),
            "total_multiplicity": str(self.total_multiplicity),
        }


IDENTITY_STATS = StageStats(1, 1, 1)


def compose_stats(a: StageStats, b: StageStats) -> StageStats:
    """Stats of the composite map: all three counts multiply."""
    return StageStats(a.distinct_projections * b.distinct_projections,
                      a.projection_multiplicity * b.projection_multiplicity,
                      a.total_multiplicity * b.total_multiplicity)


def stats_over_range(steps: list[StepSpec], start: int, stop: int) -> StageStats:
    """Composite stats of steps[start:stop] (IDENTITY_STATS when empty)."""
    if not 0 <= start <= stop <= len(steps):
        raise IndexError("stage range out of bounds")
    return reduce(compose_stats, (s.stats() for s in steps[start:stop]), IDENTITY_STATS)


def ratio_trajectory(steps: list[StepSpec], start: int) -> list[Fraction]:
    """The nonincreasing sequence of distinct-projection ratios from a stage."""
    if not 0 <= start <= len(steps):
        raise IndexError("start stage out of bounds")
    out = []
    acc = IDENTITY_STATS
    for step in steps[start:]:
        acc = compose_stats(acc, step.stats())
        out.append(acc.distinct_ratio)
    return out


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
    generators with coefficient prod(m^n).  Computed both in closed form and
    by full sparse expansion; CrossCheckDisagreement is raised unless the
    two agree on a nonzero coefficient.  The expansion has 2^(n * count)
    terms and refuses with GeneratorBudgetExceeded past the term budget
    (ENGINE_GENERATOR_BUDGET).
    """
    if n < 1:
        raise ValueError("witness size n must be >= 1")
    if not multiplicities:
        raise ValueError("need at least one distinct projection")
    if any(m < 1 for m in multiplicities):
        raise ValueError("multiplicities must be positive")
    count = len(multiplicities)
    gens = n * count
    cost, budget = 2 ** gens, expansion_budget()
    if cost > budget:
        raise GeneratorBudgetExceeded(cost, budget,
                                      f"top Chern witness expansion over {gens} generators")
    closed = 1
    for m in multiplicities:
        closed *= m ** n

    # independent route: expand prod_{l,s} (1 + m_l z_{l,s}) over (S^2)^{n*count};
    # the top degree of (S^2)^gens holds the single monomial z_1 ... z_gens
    product = line_series_product(spheres(gens), [
        (l * n + s, [1, m]) for l, m in enumerate(multiplicities) for s in range(n)])
    expanded = product.terms.get((1,) * gens, 0)
    if expanded != closed:
        raise CrossCheckDisagreement(
            f"top Chern coefficient mismatch: closed {closed}, expanded {expanded}")
    if closed == 0:
        raise CrossCheckDisagreement("top Chern coefficient vanished; witness is broken")
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
    ratio = stats.distinct_ratio
    threshold = Fraction(2 * n - 1, 2 * n)
    hypothesis = ratio >= threshold
    rank_bound = (n * stats.distinct_projections
                  <= n * stats.total_multiplicity - 2 * stats.distinct_projections)
    forced_square = (Fraction(n - 1, n)) ** 2
    return {
        "n": n,
        "ratio": fraction_json(ratio),
        "threshold": fraction_json(threshold),
        "hypothesis_holds": hypothesis,
        "rank_bound_holds": rank_bound,
        "fixed_point_bound": fraction_json(Fraction(n, n + 2)),
        "forced_square": fraction_json(forced_square),
        "strict_drop": forced_square < Fraction(n - 1, n),
        "contradiction": hypothesis and not rank_bound,
    }


@dataclass(frozen=True)
class SystemConfig:
    seed_dimension: int
    steps: tuple[StepSpec, ...]

    @staticmethod
    def from_json(doc: dict) -> "SystemConfig":
        unknown = set(doc) - {"seed_dim", "steps"}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "seed_dim" not in doc or "steps" not in doc:
            raise ConfigError("config needs 'seed_dim' and 'steps'")
        seed = read_int(doc["seed_dim"], "seed_dim")
        if seed < 0:
            raise ConfigError("seed_dim must be >= 0")
        steps = tuple(StepSpec.from_json(json_object(s, f"step {i}"))
                      for i, s in enumerate(json_list(doc["steps"], "steps")))
        return SystemConfig(seed, steps)
