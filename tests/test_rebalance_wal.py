"""Online rebalancing under a write-ahead log.

The WAL is one log whatever the partition, so a re-cut mid-stream changes
nothing on disk: replay goes through the restored router, which re-derives
every cross-shard move from its owner map.  Crash images taken after a
rebalance must recover to the acked position ledger.
"""

import shutil

from repro.durability import DurabilityManager, recover
from repro.health.verify import verify_index
from repro.storage.iostats import IOCategory
from tests.test_shard_executor import _hot_script, _rebalanced_engine


def test_crash_images_after_a_rebalance_recover_the_acked_ledger(tmp_path):
    start, script = _hot_script()
    engine = _rebalanced_engine()
    live = tmp_path / "live"
    manager = DurabilityManager(live, sync="always").attach(engine)
    stats = engine.pager.stats
    ledger = {}
    with stats.category(IOCategory.UPDATE):
        for i, (oid, point) in enumerate(sorted(start.items())):
            engine.insert(oid, point, now=1000.0 + i)
            ledger[oid] = point
    manager.checkpoint()
    images = []  # (image dir, acked ledger at the crash)
    for op in script:
        if op[0] == "query":
            with stats.category(IOCategory.QUERY):
                engine.range_search(op[1])
            continue
        _tag, oid, old, new, t = op
        manager.log_update(oid, old, new, t)
        with stats.category(IOCategory.UPDATE):
            engine.update(oid, old, new, now=t)
        manager.note_applied(1)
        ledger[oid] = new
        if engine.rebalances and not images:
            # Replays past the pre-rebalance baseline on the old partition.
            images.append((tmp_path / "after-rebalance", dict(ledger)))
            shutil.copytree(live, images[-1][0])
            manager.checkpoint()  # the next image restores the re-cut one
    images.append((tmp_path / "end", dict(ledger)))
    shutil.copytree(live, images[-1][0])
    manager.close()
    assert engine.rebalances >= 1

    for image, acked in images:
        recovered, report = recover(image)
        assert report.kind == "sharded"
        assert report.gap_at_seq == 0
        assert recovered.position_map() == acked, image.name
        assert report.verify_ok, report.verify_violations
        assert verify_index(recovered).ok
