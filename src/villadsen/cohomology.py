"""Integral cohomology of the modeled spaces as capped sparse polynomial rings.

Every space built from disks, 2-spheres and complex projective spaces has
torsion-free cohomology concentrated in even degrees, generated by one
degree-2 class per sphere or projective factor subject to a single power
relation: the generator of a 2-sphere squares to zero (cap 2) and the
generator of CP^n vanishes at power n+1 (cap n+1).  The space itself
presents the ring (`SpaceDescriptor.caps`, by generator position).  A class
is stored as a sparse map from exponent vectors to arbitrary-precision
integers; any term whose exponent reaches its cap is identically zero and
is dropped on sight.

`line_series_texts` writes a product of line series as canonical JSON
text, degree by degree, with no class and no per-term object built for an
encoder to walk: each degree's class document `{"terms":[...]}` has one
`{"coefficient":"<decimal>","exponents":[...]}` row per term, in exponent
order, keys sorted and no whitespace, as `reports.canonical_json` writes
it, in runs of rows made as they are written, with no Python loop per
term.  It is the engine's one all-degrees expansion of a product of line
series, which `chern` prints; one degree alone is
`bundles.chern_component`'s job.
"""

from __future__ import annotations

from math import prod

from .reports import Encoded
from .spaces import PROJECTION, SpaceDescriptor, SpaceMap, json_fields, json_list, read_int

# what ends one row's exponent text and starts the next row, up to its coefficient
_NEXT_ROW = ']},{"coefficient":"'


class _Runs:
    """A component's pieces, made anew by each iteration: its opening text,
    then each of its `runs` (`line_series_texts`) as it is reached, as 3
    slots per row preset to the prefix's exponent text, filled by two slice
    assignments and joined once, so no bytecode runs per term."""

    __slots__ = ("runs",)

    def __init__(self, runs: list):
        self.runs = runs

    def __iter__(self):
        yield '{"terms":[{"coefficient":"'
        for left, (middle, times, (coeffs, tails)) in enumerate(self.runs, 1 - len(self.runs)):
            row = [middle] * (3 * len(coeffs))
            row[0::3] = map(str, map(times, coeffs))
            row[2::3] = tails
            if not left:  # `left` is 0 at the last run, whose last row closes the class
                row[-1] = tails[-1][:-len(_NEXT_ROW)] + "]}]}"
            yield "".join(row)


class GradedClass:
    """A cohomology class: sparse exponent-vector -> big-integer coefficient.

    Instances are immutable by convention.  The constructor normalizes:
    zero coefficients and capped exponents are dropped, so stored data
    always satisfies the ring relations.
    """

    __slots__ = ("space", "terms")

    def __init__(self, space: SpaceDescriptor, terms: dict | None = None):
        caps = space.caps
        clean = {}
        for exps, coeff in (terms or {}).items():
            if coeff == 0:
                continue
            exps = tuple(exps)
            if len(exps) != len(caps):
                raise ValueError("exponent vector length does not match generator count")
            if any(e < 0 for e in exps):
                raise ValueError("negative exponent")
            if any(e >= c for e, c in zip(exps, caps)):
                continue  # the term is zero in the ring
            clean[exps] = clean.get(exps, 0) + coeff
        self.space = space
        self.terms = {e: c for e, c in clean.items() if c != 0}

    @classmethod
    def _normal(cls, space: SpaceDescriptor, terms: dict) -> "GradedClass":
        # for kernels whose output is normal by construction: exponent tuples
        # of the right length, below their caps, each once, coefficients nonzero
        obj = cls.__new__(cls)
        obj.space = space
        obj.terms = terms
        return obj

    @staticmethod
    def zero(space: SpaceDescriptor) -> "GradedClass":
        return GradedClass(space, {})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (isinstance(other, GradedClass)
                and self.space == other.space
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.space, frozenset(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return "GradedClass(0)"
        gids = self.space.generator_names
        parts = []
        for exps, coeff in sorted(self.terms.items()):
            mono = "*".join(f"{gids[i]}^{e}" if e > 1 else gids[i]
                            for i, e in enumerate(exps) if e)
            if coeff != 1 or not mono:  # a unit coefficient is left off a monomial
                mono = f"{coeff}*{mono}" if mono else f"{coeff}"
            parts.append(mono)
        return "GradedClass(" + " + ".join(parts) + ")"

    @staticmethod
    def from_json(space: SpaceDescriptor, doc: dict) -> "GradedClass":
        """The class of a `{"terms": [...]}` document, adding the coefficients
        of repeated exponent vectors.  The terms and each exponent vector must
        be JSON lists (`spaces.json_list`), and the class and each term hold
        no key but their own (`spaces.json_fields`)."""
        terms: dict = {}
        for t in json_list(json_fields(doc, "class", {"terms"})["terms"], "class terms"):
            json_fields(t, "term", {"exponents", "coefficient"})
            exps = tuple(read_int(x, "exponent") for x in json_list(t["exponents"], "exponents"))
            terms[exps] = terms.get(exps, 0) + read_int(t["coefficient"], "coefficient")
        return GradedClass(space, terms)


def _series_by_position(space: SpaceDescriptor, factors: list) -> dict[int, list[int]]:
    """The factors by position, if `line_series_texts`' preconditions hold."""
    caps = space.caps
    series: dict[int, list[int]] = {}
    for pos, coeffs in factors:
        if not 0 <= pos < len(caps):
            raise ValueError(f"no generator at position {pos}")
        if pos in series:
            raise ValueError(f"position {pos} carries two factors")
        if len(coeffs) > caps[pos]:
            raise ValueError(f"series at position {pos} reaches its cap {caps[pos]}")
        if not all(coeffs):
            raise ValueError(f"series at position {pos} has a zero coefficient")
        series[pos] = coeffs
    return series


def _expand(text: str, levels: list) -> list[tuple[str, int, int]]:
    """Every choice of one power per level, in exponent order, as (exponent
    text, power sum, coefficient), starting from `text`; each prefix of a
    choice is built once for all the choices that extend it."""
    terms = [(text, 0, 1)]
    for pieces, coeffs in levels:
        terms = [(prefix + piece, total + i, coeff * c)
                 for prefix, total, coeff in terms
                 for i, (piece, c) in enumerate(zip(pieces, coeffs))]
    return terms


def line_series_texts(space: SpaceDescriptor,
                      factors: list[tuple[int, list[int]]]) -> dict[int, Encoded]:
    """Product of one-generator polynomials on pairwise distinct positions,
    each degree's component as the lazy `Encoded` fragment of its
    class document's canonical text, with no class built.

    Each factor is (position, [c0, c1, ...]), the sum of c_i * g^i in the
    generator g at that position.  With distinct positions, at most cap
    coefficients per factor and none of them zero, every choice of one power
    per factor is a distinct, nonzero term below the caps: nothing to merge,
    cap or cancel.  The preconditions are checked once per factor
    (ValueError if one fails), not once per term.

    The factors, in position order, are cut into a prefix block and a suffix
    block, and each block is expanded alone (`_expand`).  The suffix terms
    are grouped by power sum, and each prefix writes its rows with each
    group as one run, listed as (prefix exponent text, coefficient
    multiplier, group) before this returns and made as it is written
    (`_Runs`): a coefficient past the digit limit is a ValueError there.
    The cut minimises the runs plus the suffix terms, P * G + S for P prefix
    terms, G suffix power sums and S suffix terms, and on a tie the terms
    held, P + S.  Terms come out in exponent order, so each degree's rows
    are already sorted, and every power sum up to the top one is reached."""
    series = _series_by_position(space, factors)
    order, n = sorted(series), len(space.caps)
    head = ",".join(["0"] * (order[0] if order else n))  # the exponents before the first factor
    # per factor: each power's text, with the zeros up to the next factor, and its coefficient
    levels = [([("," if pos else "") + str(i) + ",0" * (end - pos - 1)
                for i in range(len(series[pos]))], series[pos])
              for pos, end in zip(order, order[1:] + [n])]
    terms = prod(len(coeffs) for _, coeffs in levels)
    if not terms:
        return {}  # an empty series: the product is zero
    # the cut: levels[:cut] are the prefix block, whose terms each write one
    # run per suffix group; the suffix block's terms are expanded once.  It
    # minimises the runs plus the suffix terms; of cuts that tie, the one
    # whose blocks hold the fewest terms, and then the one with the fewest
    # prefix factors
    size, count, best = 1, 1, None  # the suffix block's terms and power sums
    for c in range(len(levels), -1, -1):
        prefix = terms // size
        cost = (prefix * count + size, prefix + size)
        if best is None or cost <= best:
            best, cut, sums = cost, c, count
        if c:
            size *= len(levels[c - 1][1])
            count += len(levels[c - 1][1]) - 1
    # the suffix terms by power sum: their coefficients, and each one's
    # exponent text, closing its row and opening the next.  The expansion
    # is freed once its terms are grouped, before any prefix is written
    groups: list[tuple[list[int], list[str]]] = [([], []) for _ in range(sums)]
    for text, total, coeff in _expand("", levels[cut:]):
        coeffs, tails = groups[total]
        coeffs.append(coeff)
        tails.append(text + _NEXT_ROW)
    prefixes = _expand(head, levels[:cut])
    runs: list[list] = [[] for _ in range(prefixes[-1][1] + sums)]
    for text, total, coeff in prefixes:
        middle, times = '","exponents":[' + text, coeff.__mul__
        for t, group in enumerate(groups, total):
            runs[t].append((middle, times, group))
    return {2 * t: Encoded.lazy(_Runs(part)) for t, part in enumerate(runs)}


def pullback_positions(f: SpaceMap) -> tuple[int, ...]:
    """Where a coordinate projection sends each target generator.

    Entry p is the source position of the generator that target position p
    pulls back to.
    """
    if f.kind != PROJECTION:
        raise ValueError("only coordinate projections move generators")
    # `positions` lists the target's generator factors in position order; a
    # valid projection selects a source factor of the same kind for each
    return tuple(f.source.generator_position(f.indices[idx]) for idx in f.target.positions)
