"""Unit tests for Appendix A adaptation: discovery and retirement."""

import pytest

from repro.core.ctrtree import CTRTree
from repro.core.geometry import Rect
from repro.core.params import CTParams
from repro.storage.pager import Pager
from tests.conftest import assert_verified

DOMAIN = Rect((0, 0), (1000, 1000))


def promo_params(**overrides):
    defaults = dict(t_list=1, t_buf_num=5, t_buf_time=100.0, t_remove=1e9)
    defaults.update(overrides)
    return CTParams(**defaults)


def fill_cluster(tree, center, count, start_id=0, t0=0.0, dt=10.0, spread=3.0):
    """Insert ``count`` objects clustered at ``center`` with rising timestamps."""
    cx, cy = center
    t = t0
    for i in range(count):
        t += dt
        offset = (i % 7) * spread / 7.0
        tree.insert(start_id + i, (cx + offset, cy + offset / 2.0), now=t)
    return t


class TestDiscovery:
    def test_stable_buffer_leaf_promoted(self, pager):
        tree = CTRTree(pager, DOMAIN, [Rect((0, 0), (50, 50))], max_entries=8,
                       ct_params=promo_params())
        regions_before = tree.region_count
        # A new gathering spot far outside any region: objects stream in.
        fill_cluster(tree, (600.0, 600.0), 30, t0=0.0, dt=20.0)
        assert tree.adaptation.promotions >= 1
        assert tree.region_count > regions_before
        assert_verified(tree)

    def test_promoted_region_overlaps_the_cluster(self, pager):
        tree = CTRTree(pager, DOMAIN, [Rect((0, 0), (50, 50))], max_entries=8,
                       ct_params=promo_params())
        fill_cluster(tree, (600.0, 600.0), 30, t0=0.0, dt=20.0)
        cluster_box = Rect((599.0, 599.0), (604.0, 602.0))
        promoted = [
            qs
            for _, qs in tree.iter_qs_entries()
            if qs.rect.intersects(cluster_box) and qs.object_count() > 0
        ]
        assert promoted

    def test_promotion_enables_lazy_updates(self, pager):
        from repro.core.overflow import DataPage

        tree = CTRTree(pager, DOMAIN, [Rect((0, 0), (50, 50))], max_entries=8,
                       ct_params=promo_params())
        end = fill_cluster(tree, (600.0, 600.0), 30, t0=0.0, dt=20.0)
        # Pick an object that ended up in a promoted region's chain and move
        # it within that region's rectangle: must take the 3-I/O lazy path.
        page = pager.inspect(tree.hash.peek(3))
        assert isinstance(page, DataPage) and page.tolerance is not None
        inside = page.tolerance.center
        lazy_before = tree.lazy_hits
        tree.update(3, (0.0, 0.0), inside, now=end + 10)
        assert tree.lazy_hits == lazy_before + 1

    def test_promotion_updates_hash_pointers(self, pager):
        tree = CTRTree(pager, DOMAIN, [Rect((0, 0), (50, 50))], max_entries=8,
                       ct_params=promo_params())
        fill_cluster(tree, (600.0, 600.0), 30, t0=0.0, dt=20.0)
        assert_verified(tree)  # hash exactness included

    def test_no_promotion_when_adaptive_disabled(self, pager):
        tree = CTRTree(pager, DOMAIN, [Rect((0, 0), (50, 50))], max_entries=8,
                       ct_params=promo_params(), adaptive=False)
        fill_cluster(tree, (600.0, 600.0), 30, t0=0.0, dt=20.0)
        assert tree.adaptation.promotions == 0
        assert tree.region_count == 1

    def test_no_promotion_below_population_threshold(self, pager):
        tree = CTRTree(pager, DOMAIN, [Rect((0, 0), (50, 50))], max_entries=8,
                       ct_params=promo_params(t_buf_num=50))
        fill_cluster(tree, (600.0, 600.0), 30, t0=0.0, dt=20.0)
        assert tree.adaptation.promotions == 0

    def test_no_promotion_before_stability_window(self, pager):
        tree = CTRTree(pager, DOMAIN, [Rect((0, 0), (50, 50))], max_entries=8,
                       ct_params=promo_params(t_buf_time=1e12))
        fill_cluster(tree, (600.0, 600.0), 30, t0=0.0, dt=20.0)
        assert tree.adaptation.promotions == 0
        assert tree.adaptation.candidate_count >= 0  # candidate may be pending

    def test_scattered_objects_not_promoted(self, pager):
        """A leaf spanning a huge area fails the T_area condition."""
        tree = CTRTree(pager, DOMAIN, [Rect((0, 0), (50, 50))], max_entries=8,
                       ct_params=promo_params(t_area=100.0))
        t = 0.0
        for i in range(30):
            t += 20.0
            tree.insert(100 + i, (600.0 + i * 30.0, 600.0), now=t)
        assert tree.adaptation.promotions == 0


class TestRetirement:
    def make_churning_tree(self, pager, t_remove):
        params = CTParams(t_list=8, t_remove=t_remove, t_time=50.0)
        region = Rect((100, 100), (160, 160))
        tree = CTRTree(pager, DOMAIN, [region, Rect((800, 800), (860, 860))],
                       max_entries=8, ct_params=params)
        # Objects constantly pass through the region: enter then leave.
        t = 0.0
        for i in range(60):
            t += 5.0
            tree.insert(i, (130.0, 130.0), now=t)
        for i in range(60):
            t += 5.0
            tree.update(i, (130.0, 130.0), (500.0, 500.0), now=t)  # leave
        return tree

    def test_churning_region_retired(self, pager):
        tree = self.make_churning_tree(pager, t_remove=0.05)
        assert tree.adaptation.retirements >= 1
        assert_verified(tree)

    def test_high_threshold_keeps_region(self, pager):
        tree = self.make_churning_tree(pager, t_remove=1e9)
        assert tree.adaptation.retirements == 0
        assert tree.region_count == 2

    def test_retired_objects_remain_searchable(self, pager):
        params = CTParams(t_list=8, t_remove=0.05, t_time=50.0)
        region = Rect((100, 100), (160, 160))
        tree = CTRTree(pager, DOMAIN, [region], max_entries=8, ct_params=params)
        t = 0.0
        for i in range(40):
            t += 5.0
            tree.insert(i, (130.0 + (i % 5), 130.0), now=t)
        # Half the population churns out, triggering retirement.
        for i in range(20):
            t += 5.0
            tree.update(i, (130.0 + (i % 5), 130.0), (500.0, 500.0), now=t)
        # Every object must still be findable wherever it ended up.
        found = sorted(oid for oid, _ in tree.range_search(Rect((0, 0), (1000, 1000))))
        assert found == list(range(40))
        assert_verified(tree)

    def test_retirement_disabled_without_adaptive(self, pager):
        params = CTParams(t_list=8, t_remove=0.0001, t_time=50.0)
        tree = CTRTree(pager, DOMAIN, [Rect((100, 100), (160, 160))],
                       max_entries=8, ct_params=params, adaptive=False)
        t = 0.0
        for i in range(30):
            t += 5.0
            tree.insert(i, (130.0, 130.0), now=t)
        for i in range(30):
            t += 5.0
            tree.delete(i, now=t)
        assert tree.adaptation.retirements == 0
        assert tree.region_count == 1


class TestInteraction:
    def test_promote_then_structural_split_stays_consistent(self, pager):
        """Promotions insert new qs-regions; enough of them split structural
        nodes, which must re-home any buffered objects correctly."""
        params = promo_params(t_buf_num=3, t_buf_time=50.0)
        tree = CTRTree(pager, DOMAIN, [Rect((0, 0), (30, 30))], max_entries=4,
                       ct_params=params)
        t = 0.0
        centers = [(200, 200), (400, 400), (600, 600), (800, 800), (200, 800)]
        for k, center in enumerate(centers):
            t = fill_cluster(tree, center, 12, start_id=100 * k, t0=t, dt=15.0)
        assert tree.adaptation.promotions >= 2
        assert_verified(tree)
        got = sorted(oid for oid, _ in tree.range_search(Rect((0, 0), (1000, 1000))))
        assert len(got) == 60

    def test_counters_reported(self, pager):
        tree = CTRTree(pager, DOMAIN, [Rect((0, 0), (50, 50))], max_entries=8,
                       ct_params=promo_params())
        fill_cluster(tree, (600.0, 600.0), 30)
        text = repr(tree.adaptation)
        assert "promotions=" in text
