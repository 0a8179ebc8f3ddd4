"""Unit tests for configurable valid/dirty-bit granularity (§3.3)."""

import pytest

from repro.core.svf import StackValueFile

BASE = 0x7FF00000


def svf(granularity, capacity=1024):
    unit = StackValueFile(capacity_bytes=capacity, granularity=granularity)
    unit.update_sp(BASE)
    return unit


class TestValidation:
    def test_granularity_must_be_multiple_of_word(self):
        with pytest.raises(ValueError):
            StackValueFile(1024, granularity=12)
        with pytest.raises(ValueError):
            StackValueFile(1024, granularity=0)

    def test_capacity_must_be_multiple_of_granularity(self):
        with pytest.raises(ValueError):
            StackValueFile(1000, granularity=16)

    @pytest.mark.parametrize("granularity", [24, 40, 48])
    def test_granularity_must_be_power_of_two(self, granularity):
        # Granules are found by masking, so 40 would map 0x1028 to
        # 0x1008: not a granule boundary.
        with pytest.raises(ValueError, match="power of two"):
            StackValueFile(granularity * 16, granularity=granularity)

    @pytest.mark.parametrize("granularity", [8, 16, 32, 64])
    def test_power_of_two_granularity_masks_to_boundaries(
        self, granularity
    ):
        unit = StackValueFile(granularity * 16, granularity=granularity)
        for addr in range(0x1000, 0x1100, 8):
            granule = addr & unit._granule_mask
            assert granule % granularity == 0
            assert granule <= addr < granule + granularity


class TestCoarseGranules:
    def test_quad_word_store_to_coarse_granule_fills(self):
        """The paper's warning: coarser than 64 bits costs traffic —
        an 8-byte store no longer covers a whole granule, so the rest
        must be read in."""
        unit = svf(granularity=32)
        outcome = unit.access(BASE + 8, 8, is_store=True)
        assert outcome.filled == 4  # whole 32-byte granule
        assert unit.qw_in == 4

    def test_fine_granularity_store_free(self):
        unit = svf(granularity=8)
        outcome = unit.access(BASE + 8, 8, is_store=True)
        assert outcome.filled == 0

    def test_neighbors_in_same_granule_share_validity(self):
        unit = svf(granularity=32)
        unit.access(BASE + 0, 8, is_store=True)  # fills granule 0
        outcome = unit.access(BASE + 24, 8, is_store=False)
        assert outcome.hit  # same granule, already valid

    def test_writeback_is_whole_granule(self):
        unit = svf(granularity=16, capacity=256)
        unit.access(BASE + 248, 8, is_store=True)  # dirty top granule
        written = unit.update_sp(BASE - 64)
        assert written == 2  # 16-byte granule = 2 quad-words

    def test_context_switch_flushes_granules(self):
        unit = svf(granularity=32)
        unit.access(BASE, 8, is_store=True)
        flushed = unit.context_switch()
        assert flushed == 32

    def test_valid_words_scale_with_granularity(self):
        unit = svf(granularity=32)
        unit.access(BASE, 8, is_store=True)
        assert unit.valid_words == 4

    @pytest.mark.parametrize("granularity", [8, 16, 32, 64])
    def test_traffic_never_decreases_with_coarseness(self, granularity):
        """Monotonicity on a fixed access pattern."""
        fine = svf(granularity=8, capacity=512)
        coarse = svf(granularity=granularity, capacity=512)
        pattern = [
            ("sp", -128), ("store", 0), ("store", 8), ("load", 16),
            ("sp", +128), ("sp", -256), ("store", 64), ("load", 64),
            ("sp", +256),
        ]
        for unit in (fine, coarse):
            sp = BASE
            for kind, argument in pattern:
                if kind == "sp":
                    sp += argument
                    unit.update_sp(sp)
                else:
                    unit.access(sp + argument, 8, kind == "store")
        assert (
            coarse.qw_in + coarse.qw_out >= fine.qw_in + fine.qw_out
        )


class TestPipelinePlumbing:
    def test_granularity_reaches_the_pipeline_svf(self, gzip_trace):
        from repro.uarch.config import table2_config
        from repro.uarch.pipeline import simulate

        base = table2_config(16)
        fine = simulate(
            gzip_trace, base.with_svf(mode="svf", ports=2, granularity=8)
        )
        coarse = simulate(
            gzip_trace,
            base.with_svf(mode="svf", ports=2, granularity=32),
        )
        # Coarse granularity can only add fills, never remove them.
        assert coarse.svf_fills >= fine.svf_fills
