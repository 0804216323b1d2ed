"""Construction counts of the radius-of-comparison sweep and of CLI calls.

The option table does not depend on argv, so a process builds it once, at
import, and a CLI call builds no table and no parser; each call validates
its report once.

A space carries its ring, so a stage's ring is built once, with its space.
The type-II tower is walked as numbers (a stage's rank, growth numbers and
witness rank), and a stage's real dimension is a closed form in them, so
the radius sweep, which carries the witness rank's Euler verdict, and the
trace table build no atom, space, bundle or class at all.  Nothing is
held between calls: each sweep walks the stage tower from stage 0, so a
CLI call may build again at most one space of an earlier walk, and the
same call made twice builds the same things.  A stage's numbers follow
from the stage before by one step of a running factorial, so a sweep
computes no factorial from scratch.  A comparability chain carries the
witness rank up the tower and pushes one witness sum through a real
connecting map, at its last step, so a sweep or a chain step hands a
fixed number of summands to the bundle constructors and compares no atom.
The rank-gap and stable-range criteria read numbers, so `cfp` and a chain
build a space or bundle only where an Euler class or a pushforward is
computed.  A `cfp` call reads every number off one walk of the k = inf
tower, so it generates each stage once and forms a factorial only in the
closed-form cross-check of each lower-bound row.
A `chern` call writes each nonzero degree of the Chern class, and the
Euler class, as one text fragment, not as an object per term.  It writes
the degrees straight from the summands' series: the only class it builds
past the parsed line classes is the Euler class, and it sorts no terms.
The Euler degree of a Chern class takes each summand's top power, so its
component computes no binomial.  `vi --witness` expands only the top degree
of its witness lines' Chern class, one partial term per generator, so a
witness over 60 generators costs one binomial per generator.
"""

from __future__ import annotations

import itertools
import json
import math
import sys

import pytest

from villadsen import bundles, cfp, cli, cohomology, growth, reports, type_one, type_two
from villadsen.bundles import BundleExpr
from villadsen.cli import main
from villadsen.cohomology import GradedClass
from villadsen.growth import INFINITE
from villadsen.spaces import SpaceAtom, SpaceDescriptor
from villadsen.type_two import radius_of_comparison

from conftest import connecting_maps, plain


def count_constructions(monkeypatch, n: int) -> tuple[list, int]:
    """Rings built (by space) and classes built during one sweep to stage n."""
    return count_during(monkeypatch, lambda: radius_of_comparison(2, n))


def count_during(monkeypatch, action) -> tuple[list, int]:
    """Rings built (by space) and classes built while `action` runs."""
    rings, classes = [], []
    ring_init, class_init = SpaceDescriptor.__init__, GradedClass.__init__

    def counting_ring_init(self, *args, **kwargs):
        ring_init(self, *args, **kwargs)
        rings.append(self)

    def counting_class_init(self, *args, **kwargs):
        classes.append(1)
        class_init(self, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(SpaceDescriptor, "__init__", counting_ring_init)
        patch.setattr(GradedClass, "__init__", counting_class_init)
        action()
    return rings, len(classes)


@pytest.mark.parametrize("k", [1, 2, INFINITE])
def test_radius_sweep_builds_no_space(monkeypatch, k):
    rings, classes = count_during(monkeypatch, lambda: radius_of_comparison(k, 40))
    assert rings == [] and classes == 0


@pytest.mark.parametrize("n", [20, 40])
def test_one_ring_per_distinct_space(monkeypatch, n):
    rings, _ = count_constructions(monkeypatch, n)
    assert len(rings) == len(set(rings))
    assert len(rings) <= n + 1


def test_class_constructions_grow_linearly(monkeypatch):
    _, at_20 = count_constructions(monkeypatch, 20)
    _, at_40 = count_constructions(monkeypatch, 40)
    assert at_20 <= 2 * 20
    assert at_40 <= 2 * at_20


@pytest.mark.parametrize("argv", [
    ["v2", "-k", "2", "-n", "20", "--rc", "--trace"],
    ["v2", "-k", "inf", "-n", "4", "--stage", "12", "--comparability"],
    ["v2", "-k", "3", "-n", "4", "--stage", "10", "--comparability"],
    ["cfp", "--terms", "6", "--stage", "140"],
])
def test_cli_call_rebuilds_at_most_one_ring(monkeypatch, capsys, argv):
    codes = []
    rings, _ = count_during(monkeypatch, lambda: codes.append(main(argv)))
    err = capsys.readouterr().err
    assert codes == [0], err
    assert len(rings) <= len(set(rings)) + 1


@pytest.mark.parametrize("k", [1, 2, INFINITE])
def test_connecting_map_has_two_slots(k):
    for n, slots in connecting_maps(k, 0, 6):
        assert len(slots) == 2
        assert [(s.multiplicity, s.carrier) for s in slots] == [(1, None), (n + 1, n)]


def spaces_and_bundles_built(monkeypatch, argv) -> tuple[int, int]:
    """SpaceDescriptor and BundleExpr constructions during one CLI call."""
    built = []
    bundle_init = BundleExpr.__init__

    def counting_bundle_init(self, *args, **kwargs):
        built.append(1)
        bundle_init(self, *args, **kwargs)

    codes = []
    with monkeypatch.context() as patch:
        patch.setattr(BundleExpr, "__init__", counting_bundle_init)
        rings, _ = count_during(monkeypatch, lambda: codes.append(main(argv)))
    assert codes == [0]
    return len(rings), len(built)


def test_comparability_chain_bundles_grow_linearly(monkeypatch, capsys):
    # 40 more chain steps build no more bundles: a step carries the witness
    # rank, and only the last one pushes a bundle through its two slots
    argv = ["v2", "-k", "2", "-n", "4", "--comparability", "--stage"]
    _, at_40 = spaces_and_bundles_built(monkeypatch, argv + ["40"])
    _, at_80 = spaces_and_bundles_built(monkeypatch, argv + ["80"])
    capsys.readouterr()
    assert at_80 == at_40


@pytest.mark.parametrize("argv, expected", [
    # the capacity bundle whose Euler class is checked
    (["cfp", "--terms", "7"], (1, 1)),
    (["cfp", "--terms", "3", "--stage", "40"], (1, 1)),
    # the witness sum whose Euler class is checked
    (["v2", "-k", "2", "-n", "200", "--comparability"], (1, 1)),
    # the trace table and the radius sweep read numbers only
    (["v2", "-k", "2", "-n", "25", "--trace"], (0, 0)),
    (["v2", "-k", "inf", "-n", "62", "--trace"], (0, 0)),
    (["v2", "-k", "inf", "-n", "62", "--rc", "--trace"], (0, 0)),
    # the witness sums of the last two stages, the pushed sum of the one
    # pushforward, and the bundle it is compared with: the pushforward
    # builds each slot's piece in place, so no pullback or tensored piece
    (["v2", "-k", "2", "-n", "4", "--stage", "200", "--comparability"], (2, 4)),
])
def test_criteria_build_no_space_to_read_a_rank(monkeypatch, capsys, argv, expected):
    # the rank-gap and stable-range criteria read ranks and dimensions, so a
    # space or bundle is built only where a class is computed
    assert spaces_and_bundles_built(monkeypatch, argv) == expected
    capsys.readouterr()


def factorials_and_atoms(monkeypatch, argv) -> tuple[int, int]:
    """`math.factorial` calls and `SpaceAtom` constructions during one CLI
    call."""
    factorials, atoms = [], []
    atom_new = SpaceAtom.__new__

    def counting_factorial(n):
        factorials.append(n)
        return math.factorial(n)

    def counting_atom_new(cls, *args, **kwargs):
        atoms.append(1)
        return atom_new(cls, *args, **kwargs)

    codes = []
    with monkeypatch.context() as patch:
        for name, module in list(sys.modules.items()):
            if name.startswith("villadsen") and getattr(module, "factorial", None) \
                    is math.factorial:
                patch.setattr(module, "factorial", counting_factorial)
        patch.setattr(SpaceAtom, "__new__", counting_atom_new)
        count_during(monkeypatch, lambda: codes.append(main(argv)))
    assert codes == [0]
    return len(factorials), len(atoms)


def test_repeated_call_builds_the_same(monkeypatch, capsys):
    # a call's certificate and cost do not depend on the calls before it
    def one_call():
        certificates = []
        rings, classes = count_during(monkeypatch, lambda: certificates.append(
            radius_of_comparison(2, 30)))
        argv = ["v2", "-k", "2", "-n", "30", "--rc", "--trace"]
        _, atoms = factorials_and_atoms(monkeypatch, argv)
        return [plain(c) for c in certificates], len(rings), classes, atoms

    first, second = one_call(), one_call()
    capsys.readouterr()
    assert first == second
    # the sweep builds no space, and neither it nor the trace table an atom
    assert first[1] == 0 and first[3] == 0


def test_stage_sweep_builds_linearly_many_factorials_and_atoms(monkeypatch, capsys):
    # each stage follows the one before by one step of a running factorial;
    # rebuilding every stage from stage 0 is quadratic
    at_40 = factorials_and_atoms(monkeypatch, ["v2", "-k", "2", "-n", "40", "--rc"])
    at_80 = factorials_and_atoms(monkeypatch, ["v2", "-k", "2", "-n", "80", "--rc"])
    capsys.readouterr()
    for small, large in zip(at_40, at_80):
        assert large <= 2 * small + 10


def test_cli_calls_build_no_parser_and_no_validator(monkeypatch, capsys, tmp_path):
    space, bundle, config = (tmp_path / name for name in ("s.json", "b.json", "c.json"))
    space.write_text(json.dumps({"factors": [{"kind": "s2"}, {"kind": "s2"}]}))
    bundle.write_text(json.dumps({"summands": [
        {"line": {"terms": [{"exponents": [1, 0], "coefficient": "1"}]}, "mult": "2"}]}))
    config.write_text(json.dumps({"seed_dim": 6, "steps": [
        {"proj_mults": {"p1": 1, "p2": 1}, "point_evals": 1}]}))
    argvs = [["v2", "-k", "2", "-n", "4", "--rc", "--trace"],
             ["cfp", "--terms", "2"],
             ["vi", "--config", str(config), "--witness", "2"],
             ["chern", "--space", str(space), "--bundle", str(bundle)]]
    tables, validated = [], []
    parse, validate = cli._parse, reports.validate_report

    def parsing(argv):
        tables.append(cli._COMMANDS)
        return parse(argv)

    def validating(report):
        validated.append(report)
        return validate(report)

    table = cli._COMMANDS
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_parse", parsing)
        patch.setattr(reports, "validate_report", validating)
        codes = [main(argvs[i % len(argvs)]) for i in range(20)]
    capsys.readouterr()
    assert codes == [0] * 20
    assert len(tables) == 20 and all(seen is table for seen in [*tables, cli._COMMANDS])
    assert len(validated) == 20


def summands_and_atom_comparisons(monkeypatch, argv) -> int:
    """(position, multiplicity) pairs handed to `BundleExpr`, plus
    `SpaceAtom.__eq__` calls, during one CLI call."""
    seen = []
    bundle_init, atom_eq = BundleExpr.__init__, SpaceAtom.__eq__

    def counting_init(self, base, trivial_rank=0, parts=()):
        parts = list(parts)
        seen.extend(parts)
        bundle_init(self, base, trivial_rank, parts)

    def counting_eq(self, other):
        seen.append(None)
        return atom_eq(self, other)

    codes = []
    with monkeypatch.context() as patch:
        patch.setattr(BundleExpr, "__init__", counting_init)
        patch.setattr(SpaceAtom, "__eq__", counting_eq)
        codes.append(main(argv))
    assert codes == [0]
    return len(seen)


@pytest.mark.parametrize("argv", [
    ["v2", "-k", "2", "-n", "4", "--comparability", "--stage", "{}"],
    ["v2", "-k", "2", "-n", "{}", "--rc"],
])
def test_tower_walks_do_constant_work_per_stage(monkeypatch, capsys, argv):
    # rebuilding each stage's witness sum, or re-checking each projection
    # factor by factor, makes the count grow with the square of the stage
    at_200, at_400 = (summands_and_atom_comparisons(
        monkeypatch, [word.format(stage) for word in argv]) for stage in (200, 400))
    capsys.readouterr()
    assert at_400 <= 2 * at_200 + 20


@pytest.mark.parametrize("k", ["2", "inf"])
def test_comparability_chain_pushes_one_bundle_forward(monkeypatch, capsys, k):
    # the chain carries the witness rank; only its last step goes through a
    # real connecting map, and a chain of no steps through none
    pushed = []
    push = type_two.pushforward_diagonal

    def recording_push(b, slots):
        pushed.append(b)
        return push(b, slots)

    monkeypatch.setattr(type_two, "pushforward_diagonal", recording_push)
    for stage, expected in (("4", 0), ("5", 1), ("40", 1), ("200", 1)):
        pushed.clear()
        assert main(["v2", "-k", k, "-n", "4", "--stage", stage, "--comparability"]) == 0
        assert len(pushed) == expected, stage
    capsys.readouterr()


def test_cfp_builds_its_first_stage_certificate_once(monkeypatch, capsys):
    calls = []
    base = cfp._ratio_induction_base

    def counting_base(stages):
        calls.append(1)
        return base(stages)

    monkeypatch.setattr(cfp, "_ratio_induction_base", counting_base)
    for argv, expected in ((["cfp", "--terms", "7"], 1), (["cfp", "--terms", "3", "--stage", "40"], 1),
                           (["cfp", "--terms", "2", "--override-l", "4,9"], 0)):
        calls.clear()
        assert main(argv) == 0
        assert len(calls) == expected, argv
    capsys.readouterr()


@pytest.mark.parametrize("argv, last, factorials", [
    (["cfp", "--terms", "7"], 256, 6),
    (["cfp", "--terms", "3", "--stage", "40"], 40, 2),
    (["cfp", "--terms", "2", "--override-l", "4,9"], 9, 1),
])
def test_cfp_walks_each_stage_once(monkeypatch, capsys, argv, last, factorials):
    # one walk of the k = inf tower feeds the witness choice, the rank gaps,
    # the rows and the stretch: each stage up to the last witness or
    # verification stage is generated once, and the only factorials are
    # those of the one closed-form cross-check per row
    generated = []
    walk = cfp.tower

    def counting_walk(k, after=None):
        for stage in walk(k, after):
            generated.append(stage.n)
            yield stage

    with monkeypatch.context() as patch:
        patch.setattr(cfp, "tower", counting_walk)
        counted, _ = factorials_and_atoms(monkeypatch, argv)
    capsys.readouterr()
    assert generated == list(range(last + 1))
    assert counted == factorials


def test_chern_writes_one_fragment_per_class(monkeypatch, capsys, tmp_path):
    # 12 spheres, each carrying one line summand: c = prod(1 + x_i) has
    # 2**12 terms in 13 nonzero degrees, and the Euler class is the top one
    generators = 12
    space, bundle = tmp_path / "space.json", tmp_path / "bundle.json"
    space.write_text(json.dumps({"factors": [{"kind": "s2"}] * generators}))
    bundle.write_text(json.dumps({"summands": [
        {"line": {"terms": [{"exponents": [int(i == p) for i in range(generators)],
                             "coefficient": "1"}]}, "mult": "1"}
        for p in range(generators)]}))
    fragments = []
    encoded_init = reports.Encoded.__init__

    def counting_init(self, *pieces):
        fragments.append(pieces)
        encoded_init(self, *pieces)

    monkeypatch.setattr(reports.Encoded, "__init__", counting_init)
    # every class, whether built by the validating constructor or `_normal`
    built = []
    class_init, normal = GradedClass.__init__, GradedClass._normal.__func__

    def counting_class_init(self, space, terms=None):
        class_init(self, space, terms)
        built.append(self)

    def counting_normal(cls, space, terms):
        built.append(normal(cls, space, terms))
        return built[-1]

    monkeypatch.setattr(GradedClass, "__init__", counting_class_init)
    monkeypatch.setattr(GradedClass, "_normal", classmethod(counting_normal))
    sorts = []

    def counting_sorted(items, **kwargs):
        items = sorted(items, **kwargs)
        sorts.append(len(items))
        return items

    for module in (bundles, cli, cohomology):
        monkeypatch.setattr(module, "sorted", counting_sorted, raising=False)
    assert main(["chern", "--space", str(space), "--bundle", str(bundle)]) == 0
    components = json.loads(capsys.readouterr().out)["checks"][0]["certificate"]["components"]
    assert len(components) == generators + 1
    assert sum(len(part["terms"]) for part in components.values()) == 2 ** generators
    # a fragment per component and the Euler class, and the two echoed
    # input documents, each written once where it is read
    assert len(fragments) == len(components) + 1 + 2
    assert [json.loads(text) for text, in fragments[:2]] == [
        json.loads(space.read_text()), json.loads(bundle.read_text())]
    # the summands' line classes, as the bundle document is read, then the
    # Euler class, x_0 * ... * x_11, three times: factorized and as its
    # Chern component for the cross-check, and factorized for its text;
    # nothing else
    lines = [{tuple(int(i == p) for i in range(generators)): 1} for p in range(generators)]
    assert [c.terms for c in built] == lines + [{(1,) * generators: 1}] * 3
    # what is sorted is the 12 summand positions and the Euler class's one
    # term (in its json_text), never the 2**12 terms of the Chern class
    assert sorts == [generators, 1]
    assert not hasattr(cohomology, "graded_components")
    assert not hasattr(GradedClass, "to_json")


def test_euler_component_computes_no_binomial(monkeypatch):
    # the Euler degree of the Chern class of the k = 2 witness sum to stage
    # 200 takes each summand's top power, its multiplicity, whose binomial
    # C(mult, mult) is 1, so no binomial of the factorial-scale
    # multiplicities is computed
    dims = [stage.dim for stage in itertools.islice(growth.tower(2), 1, 201)]
    b = bundles.capacity_sum(dims)
    calls = []
    comb = math.comb

    def counting_comb(n, k):
        calls.append(k)
        return comb(n, k)

    monkeypatch.setattr(bundles, "comb", counting_comb)
    assert bundles.chern_component(b, 2 * b.rank) == bundles.euler(b)
    assert calls == []
    # below the Euler degree the binomials are computed as before
    assert not bundles.chern_component(b, 2 * b.rank - 2).is_zero()
    assert calls


def test_vi_witness_expands_one_term_per_generator(monkeypatch, capsys, tmp_path):
    # the top degree of a product of 2^60 terms: one kernel call, at degree
    # 120, and one binomial C(m, 1) per generator, not 2^30 prefix terms
    monkeypatch.setenv("ENGINE_GENERATOR_BUDGET", str(2 ** 61))
    degrees, binomials = [], []
    component, comb = bundles.chern_component, math.comb

    def spy(b, degree):
        degrees.append(degree)
        return component(b, degree)

    def counting_comb(n, k):
        binomials.append(k)
        return comb(n, k)

    monkeypatch.setattr(type_one, "chern_component", spy)
    monkeypatch.setattr(bundles, "comb", counting_comb)
    config = tmp_path / "vi.json"
    config.write_text(json.dumps({"seed_dim": 1, "steps": [
        {"proj_mults": {"p1": 2, "p2": 3}, "point_evals": 1}]}))
    assert main(["vi", "--config", str(config), "--witness", "30"]) == 0
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    witness = checks["top_chern_witness"]
    assert witness["outcome"] == "pass"
    assert witness["certificate"]["coefficient"] == str(6 ** 30)
    assert witness["certificate"]["sphere_power"] == 60
    assert degrees == [120]
    assert len(binomials) <= 60
