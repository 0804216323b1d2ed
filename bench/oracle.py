"""Independent expected reports for the benchmark's correctness check.

Nothing here imports the engine.  Expected values come from closed forms
and from a dict-polynomial expansion:

- ranks (n+1)!, stage dimensions, and the traces `unit_trace` = 1 and
  `witness_sum_trace` = k - k/(n+1)! for finite k;
- per-stage dimension-to-rank values equal to k;
- the CFP witness stages, found by brute force over the entry conditions
  and the growth inequality, with copies s^2 s!/2;
- the top-Chern coefficient prod m^n of a type-I witness;
- the Chern components of a bundle document, by multiplying out the
  truncated binomial series over plain dicts, with the Euler class read
  off as the top-degree component.

`compare_report` checks check names, outcomes and these numbers.  It does
not look at route strings or `wall_time_ms`, and it ignores keys it does not
expect, so a legitimate change of route or an added diagnostic is not a
failure.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import comb, factorial

FIRST_STAGE_SEARCH = 60


class ExactKeys(dict):
    """An expected object whose key set must match the report's exactly."""


def frac(x) -> dict:
    x = Fraction(x)
    return {"num": str(x.numerator), "den": str(x.denominator)}


def sigma(n: int) -> int:
    return 1 if n == 0 else n * factorial(n)


def cp_dimension(k, n: int) -> int:
    return n * sigma(n) if k is None else k * sigma(n)


def stage_dimension(k, n: int) -> int:
    if k is not None:
        return 2 * k * factorial(n + 1)
    disks = 1 if n == 0 else n * sigma(n) ** 2
    return 2 * (disks + sum(j * j * factorial(j) for j in range(1, n + 1)))


def witness_rank(k, n: int) -> int:
    """Rank of the stage-n witness sum: cp_dimension(k, i) copies per line."""
    if k is not None:
        return k * (factorial(n + 1) - 1)
    return sum(i * i * factorial(i) for i in range(1, n + 1))


def _label(k) -> str:
    return "inf" if k is None else str(k)


def _check(name: str, certificate=None, ok: bool = True) -> dict:
    doc = {"name": name, "outcome": "pass" if ok else "fail"}
    if certificate is not None:
        doc["certificate"] = certificate
    return doc


# -- v2 --------------------------------------------------------------------

def _trace_table(k, n: int) -> dict:
    rank = factorial(n + 1)
    cert = {"stage": n, "dimension": str(stage_dimension(k, n)), "rank": str(rank),
            "unit_trace": frac(1), "trivial_line_trace": frac(Fraction(1, rank))}
    if n >= 1:
        q = k - Fraction(k, rank) if k is not None else Fraction(witness_rank(k, n), rank)
        cert["witness_sum_trace"] = frac(q)
    return cert


def _radius(k, n: int) -> dict:
    stages, previous = [], None
    for m in range(n + 1):
        rank = factorial(m + 1)
        dim = stage_dimension(k, m)
        value = Fraction(dim, 2 * rank)
        rec = {"stage": m, "dimension": str(dim), "rank": str(rank)}
        if k is not None:
            rec["value"] = frac(k)
            rec["equals_parameter"] = True
        else:
            rec["value"] = frac(value)
            rec["nondecreasing"] = previous is None or value >= previous
        stages.append(rec)
        previous = value
    witnesses = []
    for m in range(1, n + 1):
        rank = factorial(m + 1)
        q = Fraction(witness_rank(k, m), rank)
        rec = {"stage": m, "trace_trivial_line": frac(Fraction(1, rank)),
               "trace_witness_sum": frac(q), "obstructed": True}
        if k is not None:
            rec["lower_bound"] = frac(k - Fraction(k + 1, rank))
        else:
            bound = Fraction(m * m, m + 1)
            rec["divergence_lower_bound"] = frac(bound)
            rec["bound_holds"] = q >= bound
        witnesses.append(rec)
    return {"k": _label(k), "max_stage": n, "divergent": k is None,
            "stages": stages, "witnesses": witnesses, "passed": True}


def _comparability(k, n: int, j: int) -> dict:
    lines = []
    for i in range(1, n + 1):
        dim = cp_dimension(k, i)
        lines.append({"i": i, "cp_dimension": str(dim), "rank": str(2 * dim),
                      "outcome": "dominates",
                      "certificate": {"rule": "stable-range", "rank_y": str(2 * dim),
                                      "dimension": str(2 * dim)}})
    chain = []
    for ell in range(n, j):
        # one pulled-back copy plus ell+1 copies of the new line per unit of rank
        rank = witness_rank(k, ell)
        new = (ell + 1) * rank
        capacity = cp_dimension(k, ell + 1)
        chain.append({"from_stage": ell, "to_stage": ell + 1,
                      "pushed_rank": str((ell + 2) * rank),
                      "new_line_multiplicity": str(new), "capacity": str(capacity),
                      "within_capacity": new <= capacity})
    top = witness_rank(k, j)
    euler = {"outcome": "obstructed", "witness_rank": str(top),
             "certificate": {"rule": "euler-obstruction", "euler_degree": str(2 * top),
                             "euler_nonzero": True}}
    traces = {"unit_line": frac(Fraction(1, factorial(n + 1))),
              "q_sum": frac(Fraction(witness_rank(k, n), factorial(n + 1)))}
    if k is not None:
        traces.update(limit=str(k), divergent=False)
    else:
        traces["entries"] = [
            {"stage": m, "exact": frac(Fraction(witness_rank(k, m), factorial(m + 1))),
             "lower_bound": frac(Fraction(m * m, m + 1))} for m in range(1, n + 1)]
        traces["divergent"] = True
    return {"k": _label(k), "stage": n, "verify_stage": j, "line_subbundle": lines,
            "chain": chain, "euler_obstruction": euler, "traces": traces, "passed": True}


def _expect_v2(spec: dict) -> list:
    k, n = spec["k"], spec["n"]
    checks = []
    if spec["trace"] or not (spec["rc"] or spec["comparability"]):
        checks.append(_check("trace_table", _trace_table(k, n)))
    if spec["comparability"]:
        j = n if spec["stage"] is None else spec["stage"]
        checks.append(_check("comparability_triple", _comparability(k, n, j)))
    if spec["rc"]:
        checks.append(_check("radius_of_comparison", _radius(k, n)))
    return checks


# -- cfp -------------------------------------------------------------------

def factor_dimension(s: int) -> int:
    return s * s * factorial(s)


def half_dimension(j: int) -> int:
    return sum(factor_dimension(s) for s in range(1, j + 1))


def first_witness_stage() -> int:
    """Least m0 from which every stage up to the search limit passes both
    entry conditions: 4 divides the factor dimension, and five times it
    covers four times the half-dimension of the base."""
    good = [factor_dimension(m) % 4 == 0
            and 5 * factor_dimension(m) >= 4 * half_dimension(m)
            for m in range(1, FIRST_STAGE_SEARCH + 1)]
    m0 = FIRST_STAGE_SEARCH
    while m0 > 1 and good[m0 - 2]:
        m0 -= 1
    return m0


def witness_stages(terms: int) -> list:
    """Each next stage is the least m whose pushed capacity coefficient
    H(prev) * sigma(m) / (prev+1)! fits in half the factor dimension."""
    stages = [first_witness_stage()]
    while len(stages) < terms:
        prev = stages[-1]
        m = prev + 1
        while 2 * half_dimension(prev) * sigma(m) > factor_dimension(m) * factorial(prev + 1):
            m += 1
        stages.append(m)
    return stages


def pushed_coefficients(stages: list, copies: list, j: int) -> dict:
    """Line multiplicities of the witness sum pushed stage by stage to j."""
    arrivals = dict(zip(stages, copies))
    coeffs = {s: 0 for s in range(1, j + 1)}
    rank = 0
    for t in range(stages[0], j + 1):
        # entering stage t, every unit of rank adds t copies of the new line
        coeffs[t] = t * rank + arrivals.get(t, 0)
        rank += coeffs[t]
    return coeffs


def _expect_cfp(spec: dict) -> list:
    stages = witness_stages(spec["terms"])
    copies = [factor_dimension(s) // 2 for s in stages]
    j = stages[-1] if spec["stage"] is None else spec["stage"]
    checks = [_check("witness_stages", {
        "witness": {"terms": [{"index": i, "stage": s, "copies": str(c)}
                              for i, (s, c) in enumerate(zip(stages, copies), 1)],
                    "overridden": False},
        "first_stage": {"value": stages[0]}})]
    for i, (s, c) in enumerate(zip(stages, copies), 1):
        checks.append(_check(f"upper_term_{i}", {
            "stage": s, "copies": str(c), "outcome": "dominates",
            "certificate": {"rule": "rank-gap", "rank_x": str(factorial(s + 1)),
                            "rank_y": str(5 * c), "half_dimension": str(half_dimension(s))}}))
    rows = [{"term": 1, "stage": stages[0], "added_copies": str(copies[0]),
             "cap": str(factor_dimension(stages[0])), "ok": True}]
    for i in range(1, len(stages)):
        rows.append({"term": i + 1, "from_stage": stages[i - 1], "to_stage": stages[i],
                     "growth_ok": True, "combined_ok": True})
    stretch = []
    for t in range(stages[-1], j):
        new = (t + 1) * half_dimension(t)
        stretch.append({"from_stage": t, "to_stage": t + 1, "new_multiplicity": str(new),
                        "cap": str(factor_dimension(t + 1)),
                        "ok": new <= factor_dimension(t + 1)})
    pushed = pushed_coefficients(stages, copies, j)
    table = [{"stage": s, "coefficient": str(pushed[s]), "cap": str(factor_dimension(s)),
              "ok": pushed[s] <= factor_dimension(s)} for s in range(1, j + 1)]
    checks.append(_check("lower_bound", {
        "stage": j, "rows": rows, "stretch": stretch, "pushed_table": table,
        "euler": {"outcome": "obstructed",
                  "certificate": {"rule": "euler-obstruction",
                                  "euler_degree": str(2 * half_dimension(j)),
                                  "euler_nonzero": True}},
        "failures": [], "passed": True}))
    return checks


# -- chern -----------------------------------------------------------------

def _class_json(poly: dict) -> dict:
    return {"terms": [{"exponents": list(e), "coefficient": str(c)}
                      for e, c in sorted(poly.items())]}


def chern_polynomial(space: dict, bundle: dict) -> tuple:
    """(rank, {exponent tuple: coefficient}) of the total Chern class.

    Multiplies (1 + y_g)^m, truncated at y_g^cap, summand by summand over a
    plain dict; no summands are merged first.
    """
    caps = []
    for atom in space["factors"]:
        if atom["kind"] == "s2":
            caps.append(2)
        elif atom["kind"] == "cp":
            caps.append(int(atom["n"]) + 1)
    rank = int(bundle.get("trivial", "0"))
    poly = {(0,) * len(caps): 1}
    for summand in bundle.get("summands", []):
        mult = int(summand["mult"])
        rank += mult
        terms = summand["line"]["terms"]
        if not terms:
            continue
        g = list(terms[0]["exponents"]).index(1)
        series = [comb(mult, i) for i in range(min(mult, caps[g] - 1) + 1)]
        out: dict = {}
        for mono, coeff in poly.items():
            for i, b in enumerate(series):
                if mono[g] + i >= caps[g]:
                    break
                key = mono[:g] + (mono[g] + i,) + mono[g + 1:]
                out[key] = out.get(key, 0) + coeff * b
        poly = out
    return rank, poly


def _expect_chern(spec: dict) -> list:
    rank, poly = chern_polynomial(spec["space"], spec["bundle"])
    by_degree: dict = {}
    for mono, coeff in poly.items():
        by_degree.setdefault(2 * sum(mono), {})[mono] = coeff
    components = ExactKeys((str(d), _class_json(by_degree[d])) for d in sorted(by_degree))
    top = by_degree.get(2 * rank, {})
    return [
        _check("chern_components", {"rank": str(rank), "components": components}),
        _check("euler_class", {"degree": str(2 * rank), "nonzero": bool(top),
                               "class": _class_json(top)}),
    ]


# -- vi --------------------------------------------------------------------

def _expect_vi(spec: dict) -> list:
    steps = spec["config"]["steps"]
    n = spec["witness"]
    distinct = multiplicity = total = 1
    trajectory, chains = [], [1]
    for step in steps:
        mults = [int(m) for m in step.get("proj_mults", {}).values()]
        distinct *= len(mults)
        multiplicity *= sum(mults)
        total *= sum(mults) + int(step.get("point_evals", 0))
        trajectory.append(Fraction(distinct, total))
        chains = [a * b for a in chains for b in mults]
    ratio = Fraction(distinct, total)
    stats = {"from_stage": 0, "to_stage": len(steps),
             "distinct_projections": str(distinct),
             "projection_multiplicity": str(multiplicity),
             "total_multiplicity": str(total),
             "distinct_ratio": frac(ratio),
             "projection_ratio": frac(Fraction(multiplicity, total))}
    coefficient = 1
    for m in chains:
        coefficient *= m ** n
    hypothesis = ratio >= Fraction(2 * n - 1, 2 * n)
    rank_bound = n * distinct <= n * total - 2 * distinct
    contradiction = hypothesis and not rank_bound
    return [
        _check("stage_stats", stats),
        _check("ratio_trajectory", {"values": [frac(v) for v in trajectory]},
               ok=all(a >= b for a, b in zip(trajectory, trajectory[1:]))),
        _check("projection_ratio_estimate", {
            "value": frac(Fraction(multiplicity, total)), "finite_stage": True,
            "from_stage": 0, "to_stage": len(steps)}),
        _check("top_chern_witness", {
            "sphere_power": n * len(chains), "degree": str(n * len(chains)),
            "coefficient": str(coefficient), "distinct_projections": str(len(chains))}),
        _check("ratio_contradiction", {
            "n": n, "ratio": frac(ratio), "threshold": frac(Fraction(2 * n - 1, 2 * n)),
            "hypothesis_holds": hypothesis, "rank_bound_holds": rank_bound,
            "fixed_point_bound": frac(Fraction(n, n + 2)),
            "forced_square": frac(Fraction(n - 1, n) ** 2), "strict_drop": True,
            "contradiction": contradiction}, ok=(not hypothesis) or contradiction),
    ]


def expected_checks(spec: dict) -> list:
    """The checks a correct report for this invocation carries, in order."""
    return {"v2": _expect_v2, "cfp": _expect_cfp, "chern": _expect_chern,
            "vi": _expect_vi}[spec["command"]](spec)


# -- comparison ------------------------------------------------------------

def _short(value) -> str:
    text = repr(value)
    return text if len(text) <= 80 else text[:77] + "..."


def mismatches(expected, actual, path: str = "") -> list:
    """Where `actual` differs from `expected`; keys not expected are ignored."""
    if expected == actual and type(expected) is type(actual):
        return []
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return [f"{path}: expected an object, got {_short(actual)}"]
        out = []
        if isinstance(expected, ExactKeys) and set(expected) != set(actual):
            out.append(f"{path}: keys {sorted(actual)} instead of {sorted(expected)}")
        for key, value in expected.items():
            if key in actual:
                out += mismatches(value, actual[key], f"{path}.{key}")
            elif not isinstance(expected, ExactKeys):
                out.append(f"{path}.{key}: missing")
        return out
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{path}: expected {len(expected)} items, got {_short(actual)}"]
        out = []
        for i, (e, a) in enumerate(zip(expected, actual)):
            out += mismatches(e, a, f"{path}[{i}]")
        return out
    return [f"{path}: expected {_short(expected)}, got {_short(actual)}"]


def compare_report(expected: list, exit_code: int, stdout: str, validator) -> list:
    """Problems with one invocation's result; empty when it is correct.

    A failure is a non-zero exit, a report that is not one schema-valid JSON
    document, `ok` other than true, or a check whose name, outcome or
    expected numbers differ.
    """
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    try:
        doc = json.loads(stdout)
    except ValueError:
        return problems + ["stdout is not a JSON document"]
    errors = sorted(validator.iter_errors(doc), key=str)
    if errors:
        return problems + [f"schema: {errors[0].message[:120]}"]
    if doc["ok"] is not True:
        problems.append("report ok is not true")
    got = [(c["name"], c["outcome"]) for c in doc["checks"]]
    want = [(c["name"], c["outcome"]) for c in expected]
    if got != want:
        return problems + [f"checks {got} instead of {want}"]
    for exp, act in zip(expected, doc["checks"]):
        if "certificate" in exp:
            problems += mismatches(exp["certificate"], act.get("certificate"), exp["name"])
    return problems
