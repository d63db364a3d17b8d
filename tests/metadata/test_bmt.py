"""BMT walker: traversal traffic with stop-at-cached-ancestor."""

import pytest

from repro.common.config import MDCConfig
from repro.metadata.bmt import BMTWalker
from repro.metadata.caches import MetadataCaches
from tests.conftest import EmitLog


@pytest.fixture
def mdc():
    return MetadataCaches(MDCConfig(), partition_id=0, emit=EmitLog())


def walk(walker, mdc, leaf_index, is_write):
    """One walk: the transfers it emitted."""
    start = len(mdc.emit)
    walker.walk(mdc, leaf_index=leaf_index, is_write=is_write)
    return mdc.emit[start:]


class TestWalk:
    def test_cold_walk_touches_interior_levels(self, mdc):
        walker = BMTWalker(protected_bytes=4 * 1024**3 // 12)  # 4 levels
        transfers = walk(walker, mdc, 0, False)
        # Levels 1..3 fetched (the root register is free).
        assert len([t for t in transfers if not t.is_write]) == walker.levels - 1
        assert all(t.kind == "bmt" and not t.critical for t in transfers)

    def test_warm_walk_stops_at_first_hit(self, mdc):
        walker = BMTWalker(protected_bytes=4 * 1024**3 // 12)
        walker.walk(mdc, leaf_index=0, is_write=False)
        transfers = walk(walker, mdc, 0, False)
        assert not transfers  # whole path cached: trusted ancestor at L1
        assert walker.nodes_touched == walker.levels - 1 + 1

    def test_sibling_leaves_share_path(self, mdc):
        walker = BMTWalker(protected_bytes=4 * 1024**3 // 12)
        walker.walk(mdc, leaf_index=0, is_write=False)
        transfers = walk(walker, mdc, 1, False)
        assert not transfers  # leaf 1's parent == leaf 0's parent

    def test_write_walk_dirties_nodes(self, mdc):
        walker = BMTWalker(protected_bytes=4 * 1024**3 // 12)
        walker.walk(mdc, leaf_index=0, is_write=True)
        start = len(mdc.emit)
        mdc.flush()
        flushed = mdc.emit[start:]
        assert any(t.kind == "bmt" and t.is_write for t in flushed)

    def test_walk_counts(self, mdc):
        walker = BMTWalker(protected_bytes=16 * 1024 * 1024)
        walker.walk(mdc, leaf_index=0, is_write=False)
        assert walker.walks == 1
        assert walker.nodes_touched >= 1

    def test_small_memory_single_level(self, mdc):
        walker = BMTWalker(protected_bytes=16 * 1024)
        transfers = walk(walker, mdc, 0, False)
        assert not transfers  # only the root above the leaf: free
