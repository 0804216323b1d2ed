"""Seeded generators for the three benchmark workloads.

Each generator turns a seed into a list of CLI invocations: an argv for
`villadsen.cli.main`, the JSON documents that argv names (written into a
work directory), and a `spec` holding the parameters the independent
oracle (`oracle.py`) needs to recompute the expected report.  The engine
sees only the argv and the files.

Grids are stratified: the seed shuffles the order and jitters parameters
inside fixed strata (family parameter x stage level, expansion-cost level,
generator count), so every seed yields the same spread of costs and the
run-to-run spread of the percentiles stays small.

Known defects outside the grids (kept out so that no operation fails, and
so that the grid bounds are not read as hiding them):
- `v2 -n 1700 --trace` exits 1: (n+1)! passes Python's 4300-digit limit
  for int-to-str conversion.  `cfp --terms 10` (stage 2048) is expected to
  hit the same limit.  The grids stop at stage 67 and `--terms 7`.
- `vi --witness` has no expansion budget (18 generators took 4.7 s), so
  the grid stays at 14 generators or fewer.
- `vi --witness 1` always exits 1, because `ratio_contradiction_check`
  needs n >= 2; the grid uses n >= 2.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

import oracle

WORKLOADS = ("v2-stage-sweep", "cfp-witness", "chern-expansion")

FAMILY_PARAMETERS = ("1", "2", "3", "5", "inf")

# Every grid puts about 40% of a pass in a cluster of like cost around the
# median and about 20% in a cluster at the top, so that the 50th and 90th
# percentiles fall inside a cluster, not in a gap between costs, and stay
# steady from run to run.

# v2-stage-sweep: stage levels up to where one `v2 --rc --trace` takes
# about a second; each level runs once per family parameter, with the
# stage offsets (-1, -1, 0, 1, 1) dealt out by the seed.  Stages 21..27
# are the median cluster, 62..66 the top one.
V2_LEVELS = (7, 11, 16, 21, 23, 25, 27, 42, 62, 66)
V2_OFFSETS = (-1, -1, 0, 1, 1)

# cfp-witness: every term count up to 7 (last witness stage 256), once at
# the last witness stage and once stretched by a seeded number of stages.
CFP_TERMS = (1, 2, 3, 4, 5, 6, 7)
CFP_STRETCH = {1: (8, 16), 2: (8, 16), 3: (12, 20), 4: (12, 20),
               5: (16, 24), 6: (16, 24), 7: (8, 16)}
# Factorized-only comparability: the witness stage n is past the point where
# the full Euler expansion exceeds the default budget of 100000 terms.  The
# verification stage lies n + stretch (+0..2) up; stretch 6 is the median
# cluster, and stretch 16 joins cfp --terms 6 in the top one.
FACTORIZED_FIRST_STAGE = {"1": 5}   # every other parameter: 4
COMPARABILITY_STRETCH = (0, 6, 6, 6, 16)

# chern-expansion: expansion-cost levels of the mixed documents, and the
# generator counts (cost 2**g) of the square-zero documents.  Both stop
# near 2*10**4 terms, where the class JSON reaches about 1 MB.  Costs near
# 2000, with vi at 12 generators, make the median cluster; 8192..19500
# the top one.
CHERN_COST_LEVELS = (2000, 2000, 2000, 2000, 2000, 5000, 5000, 11000, 11000, 19500)
SQUARE_ZERO_GENERATORS = (11, 11, 11, 11, 11, 12, 12, 13, 13, 13, 14)
# vi --witness: (n, distinct composed projections); n * count <= 14.
VI_SHAPES = ((2, 4), (3, 3), (2, 6), (3, 4), (4, 3), (6, 2), (2, 6), (3, 4), (7, 2))


@dataclass
class Invocation:
    """One CLI call of a workload, with what the oracle needs to check it."""

    index: int
    argv: list
    spec: dict
    expected: list | None = None

    def expect(self) -> list:
        """Expected checks, computed once by the benchmark's own oracle."""
        if self.expected is None:
            self.expected = oracle.expected_checks(self.spec)
        return self.expected


def generate(workload: str, seed: int, workdir: str, tiny: bool = False) -> list:
    """The seeded invocation list of one grid pass, with its files written."""
    rng = random.Random(f"{workload}:{seed}")
    grid_makers = {
        "v2-stage-sweep": _v2_stage_sweep,
        "cfp-witness": _cfp_witness,
        "chern-expansion": _chern_expansion,
    }
    if workload not in grid_makers:
        raise ValueError(f"unknown workload {workload!r}")
    drafts = grid_makers[workload](rng, tiny)
    rng.shuffle(drafts)
    invocations = []
    for index, (argv, spec, files) in enumerate(drafts):
        paths = {}
        for role, doc in files.items():
            path = os.path.join(workdir, f"inv{index}-{role}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            paths[role] = path
        argv = [paths.get(a[1:], a) if a.startswith("@") else a for a in argv]
        invocations.append(Invocation(index, argv, spec))
    return invocations


def _k_value(label: str):
    return None if label == "inf" else int(label)


def _v2(k: str, n: int, *, stage=None, rc=False, comparability=False, trace=False):
    argv = ["v2", "-k", k, "-n", str(n)]
    if stage is not None:
        argv += ["--stage", str(stage)]
    argv += (["--rc"] if rc else []) + (["--comparability"] if comparability else [])
    argv += ["--trace"] if trace else []
    spec = {"command": "v2", "k": _k_value(k), "n": n, "stage": stage, "rc": rc,
            "comparability": comparability, "trace": trace}
    return argv, spec, {}


def _v2_stage_sweep(rng: random.Random, tiny: bool) -> list:
    levels = (3, 6) if tiny else V2_LEVELS
    drafts = []
    for level in levels:
        offsets = list(V2_OFFSETS)
        rng.shuffle(offsets)
        for k, offset in zip(FAMILY_PARAMETERS, offsets):
            drafts.append(_v2(k, level + offset, rc=True, trace=True))
    return drafts


def _cfp(terms: int, stage=None):
    argv = ["cfp", "--terms", str(terms)]
    if stage is not None:
        argv += ["--stage", str(stage)]
    return argv, {"command": "cfp", "terms": terms, "stage": stage}, {}


def _cfp_witness(rng: random.Random, tiny: bool) -> list:
    drafts = []
    for terms in ((1, 2) if tiny else CFP_TERMS):
        last = oracle.witness_stages(terms)[-1]
        lo, hi = CFP_STRETCH[terms]
        drafts.append(_cfp(terms))
        drafts.append(_cfp(terms, last + rng.randint(lo, hi)))
    stretches = (0, 2) if tiny else COMPARABILITY_STRETCH
    for k in FAMILY_PARAMETERS:
        first = FACTORIZED_FIRST_STAGE.get(k, 4)
        for extra in stretches:
            n = first + (0 if tiny else rng.randint(0, 2))
            stage = n + extra + (0 if tiny or not extra else rng.randint(0, 2))
            drafts.append(_v2(k, n, stage=stage, comparability=True))
    return drafts


def _line(generators: int, position: int) -> dict:
    exponents = [0] * generators
    exponents[position] = 1
    return {"terms": [{"exponents": exponents, "coefficient": "1"}]}


def _bundle_doc(rng: random.Random, generators: int, mults: dict) -> dict:
    """Summands for {generator position: multiplicity}; some split in two."""
    summands = []
    for position, mult in mults.items():
        if mult >= 2 and rng.random() < 0.3:
            first = rng.randint(1, mult - 1)
            parts = (first, mult - first)
        else:
            parts = (mult,)
        for part in parts:
            summands.append({"line": _line(generators, position), "mult": str(part)})
    rng.shuffle(summands)
    return {"trivial": str(rng.choice((0, 0, 0, 1, 3))), "summands": summands}


def _square_zero_doc(rng: random.Random, used: int) -> tuple:
    """A product of 2-spheres with `used` of them carrying a summand."""
    generators = used + rng.randint(0, 2)
    space = {"factors": [{"kind": "s2"} for _ in range(generators)]}
    positions = rng.sample(range(generators), used)
    mults = {p: rng.randint(1, 999) for p in sorted(positions)}
    return space, _bundle_doc(rng, generators, mults)


def _mixed_doc(rng: random.Random, level: int) -> tuple:
    """cp/s2/disk factors whose expansion cost lies within 10% of `level`."""
    lo, hi = int(level * 0.9), int(level * 1.1)
    while True:
        cost, atoms = 1, []   # atoms: (factor doc, multiplicity or None)
        while cost < lo and hi // cost >= 2:
            width = rng.randint(2, min(7, hi // cost))
            if width == 2 and rng.random() < 0.4:
                atoms.append(({"kind": "s2"}, rng.randint(1, 9)))
            else:
                n = rng.randint(width - 1, width + 1)
                mult = rng.randint(n, n + 3) if n == width - 1 else width - 1
                atoms.append(({"kind": "cp", "n": n}, mult))
            cost *= width
        if lo <= cost <= hi:
            break
    for _ in range(rng.randint(1, 2)):
        atoms.append(({"kind": "disk", "d": rng.randint(1, 3)}, None))
    rng.shuffle(atoms)
    space = {"factors": [doc for doc, _ in atoms]}
    generators = sum(1 for _, m in atoms if m is not None)
    mults, position = {}, 0
    for _, mult in atoms:
        if mult is not None:
            mults[position] = mult
            position += 1
    return space, _bundle_doc(rng, generators, mults)


def _chern(space: dict, bundle: dict):
    argv = ["chern", "--space", "@space", "--bundle", "@bundle"]
    spec = {"command": "chern", "space": space, "bundle": bundle}
    return argv, spec, {"space": space, "bundle": bundle}


def _vi_config(rng: random.Random, count: int) -> dict:
    """Steps whose projection counts multiply to `count`."""
    factors, rest = [], count
    for p in (2, 3, 5, 7):
        while rest % p == 0:
            factors.append(p)
            rest //= p
    if len(factors) > 1 and rng.random() < 0.5:
        factors = [count]
    steps = [{"proj_mults": {f"p{i}": rng.randint(1, 5) for i in range(f)},
              "point_evals": rng.randint(0, 3)} for f in factors]
    return {"seed_dim": rng.randint(1, 8), "steps": steps}


def _vi(config: dict, witness: int):
    argv = ["vi", "--config", "@config", "--witness", str(witness)]
    spec = {"command": "vi", "config": config, "witness": witness}
    return argv, spec, {"config": config}


def _chern_expansion(rng: random.Random, tiny: bool) -> list:
    drafts = []
    for used in ((3,) if tiny else SQUARE_ZERO_GENERATORS):
        drafts.append(_chern(*_square_zero_doc(rng, used)))
    for level in ((40,) if tiny else CHERN_COST_LEVELS):
        drafts.append(_chern(*_mixed_doc(rng, level)))
    for k in FAMILY_PARAMETERS:
        # full Euler cross-check: the stage-3 obstruction bundle (stage 4
        # for k = 1) stays within the expansion budget
        top = 4 if k == "1" else 3
        drafts.append(_v2(k, rng.randint(1, 3), comparability=True))
        if not tiny:
            n = rng.randint(1, 2)
            drafts.append(_v2(k, n, stage=rng.randint(3, top), comparability=True))
    for n, count in (((2, 2),) if tiny else VI_SHAPES):
        drafts.append(_vi(_vi_config(rng, count), n))
    return drafts
