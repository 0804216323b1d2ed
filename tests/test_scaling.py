"""Construction counts of the radius-of-comparison sweep and of CLI calls.

A space carries its ring, so a stage's ring is built once, with its space,
and a stage's witness is checked with one class: both counts must grow at
most linearly with the number of stages.  The space-keyed caches hold only
a few entries, so a CLI call may rebuild at most one space: a stage it
looks up again after sweeping past it.  A
type-II connecting map has two slots whatever the stage, so each step of a
comparability chain builds a fixed number of bundles.
"""

from __future__ import annotations

import pytest

from villadsen.bundles import BundleExpr
from villadsen.cfp import witness_base
from villadsen.cli import main
from villadsen.cohomology import GradedClass
from villadsen.growth import INFINITE
from villadsen.spaces import SpaceDescriptor
from villadsen.type_two import SystemParams, connecting_slots, radius_of_comparison, stage_space


def count_constructions(monkeypatch, n: int) -> tuple[list, int]:
    """Rings built (by space) and classes built during one sweep to stage n."""
    return count_during(monkeypatch, lambda: radius_of_comparison(SystemParams(2), n))


def count_during(monkeypatch, action) -> tuple[list, int]:
    """Rings built (by space) and classes built while `action` runs, caches cold."""
    for cache in (stage_space, witness_base):
        cache.cache_clear()
    rings, classes = [], []
    ring_init, class_init = SpaceDescriptor.__post_init__, GradedClass.__init__

    def counting_ring_init(self):
        ring_init(self)
        rings.append(self)

    def counting_class_init(self, *args, **kwargs):
        classes.append(1)
        class_init(self, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(SpaceDescriptor, "__post_init__", counting_ring_init)
        patch.setattr(GradedClass, "__init__", counting_class_init)
        action()
    return rings, len(classes)


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
    params = SystemParams(k)
    for n in range(6):
        slots = connecting_slots(params, n)
        assert len(slots) == 2
        assert [(s.multiplicity, s.carrier) for s in slots] == [(1, None), (n + 1, n)]


def bundles_built(monkeypatch, argv) -> int:
    """BundleExpr constructions during one CLI call, caches cold."""
    built = []
    bundle_init = BundleExpr.__init__

    def counting_bundle_init(self, *args, **kwargs):
        built.append(1)
        bundle_init(self, *args, **kwargs)

    codes = []
    with monkeypatch.context() as patch:
        patch.setattr(BundleExpr, "__init__", counting_bundle_init)
        count_during(monkeypatch, lambda: codes.append(main(argv)))
    assert codes == [0]
    return len(built)


def test_comparability_chain_bundles_grow_linearly(monkeypatch, capsys):
    # 40 more chain steps, each one pushforward of two slots: a fixed number
    # of bundles per step, not one per point evaluation
    argv = ["v2", "-k", "2", "-n", "4", "--comparability", "--stage"]
    at_40 = bundles_built(monkeypatch, argv + ["40"])
    at_80 = bundles_built(monkeypatch, argv + ["80"])
    capsys.readouterr()
    assert at_80 - at_40 <= 6 * 40
