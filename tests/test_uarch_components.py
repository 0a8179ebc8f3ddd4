"""Unit tests for predictors, caches, resource pools and configs."""

import pytest

from repro.isa.instructions import OpClass
from repro.trace.records import TraceRecord
from repro.uarch.bpred import GSharePredictor, PerfectPredictor, make_predictor
from repro.uarch.cache import Cache, build_hierarchy
from repro.uarch.config import (
    CacheConfig,
    MachineConfig,
    SVFConfig,
    table2_config,
)
from repro.uarch.resources import CyclePool, acquire_all


def branch_record(pc, taken):
    return TraceRecord(
        index=0, pc=pc, op="bne", op_class=OpClass.BRANCH, srcs=(1,),
        dst=None, is_branch=True, is_conditional=True, taken=taken,
    )


class TestPredictors:
    def test_perfect_never_mispredicts(self):
        predictor = PerfectPredictor()
        assert predictor.predict(branch_record(0x1000, True))
        assert predictor.predict(branch_record(0x1000, False))

    def test_gshare_learns_a_bias(self):
        predictor = GSharePredictor()
        record = branch_record(0x1000, True)
        for _ in range(100):
            predictor.predict(record)
        assert predictor.predict(record)  # saturated taken

    def test_gshare_mispredicts_on_flip(self):
        predictor = GSharePredictor(history_bits=4, table_bits=6)
        for _ in range(10):
            predictor.predict(branch_record(0x1000, True))
        misses_before = predictor.mispredictions
        predictor.predict(branch_record(0x1000, False))
        assert predictor.mispredictions == misses_before + 1

    def test_gshare_ignores_unconditional(self):
        predictor = GSharePredictor()
        record = TraceRecord(
            index=0, pc=0x1000, op="br", op_class=OpClass.BRANCH, srcs=(),
            dst=None, is_branch=True, is_conditional=False, taken=True,
        )
        assert predictor.predict(record)
        assert predictor.lookups == 0

    def test_gshare_rate_on_alternating_pattern(self):
        predictor = GSharePredictor()
        for i in range(2000):
            predictor.predict(branch_record(0x1000, i % 2 == 0))
        # Alternation is perfectly history-predictable after warmup.
        assert predictor.misprediction_rate < 0.1

    def test_factory(self):
        assert isinstance(make_predictor("perfect"), PerfectPredictor)
        assert isinstance(make_predictor("gshare"), GSharePredictor)
        with pytest.raises(ValueError):
            make_predictor("tage")


class TestCache:
    def config(self, **kw):
        defaults = dict(size=1024, assoc=2, line_size=32, latency=3)
        defaults.update(kw)
        return CacheConfig(**defaults)

    def test_hit_latency(self):
        cache = Cache(self.config(), memory_latency=60)
        cache.access(0)  # compulsory miss
        assert cache.access(0) == 3
        assert cache.access(24) == 3  # same line

    def test_miss_latency_includes_memory(self):
        cache = Cache(self.config(), memory_latency=60)
        assert cache.access(0) == 63

    def test_hierarchy_latencies(self):
        dl1, l2 = build_hierarchy(
            CacheConfig(size=1024, assoc=2, latency=3),
            CacheConfig(size=8192, assoc=4, latency=16, line_size=64),
            memory_latency=60,
        )
        first = dl1.access(0)
        assert first == 3 + 16 + 60  # DL1 miss, L2 miss, memory
        assert dl1.access(0) == 3  # now resident
        # Evict from DL1 but not L2: conflict in DL1's set.
        way_stride = 1024 // 2
        dl1.access(way_stride)
        dl1.access(2 * way_stride)
        assert dl1.access(0) == 3 + 16  # back from L2

    def test_lru_replacement(self):
        cache = Cache(self.config(assoc=2, size=128, line_size=32),
                      memory_latency=60)
        # Set 0 holds lines 0 and 64 (2 sets of 2 ways, stride 64).
        cache.access(0)
        cache.access(64)
        cache.access(0)  # touch 0: 64 becomes LRU
        cache.access(128)  # evicts 64
        assert cache.probe(0)
        assert not cache.probe(64)

    def test_dirty_writeback_counted(self):
        cache = Cache(self.config(assoc=1, size=64, line_size=32),
                      memory_latency=60)
        cache.access(0, is_write=True)
        cache.access(64, is_write=False)  # evicts dirty line 0
        assert cache.writebacks == 1

    def test_miss_rate(self):
        cache = Cache(self.config(), memory_latency=60)
        cache.access(0)
        cache.access(0)
        assert cache.miss_rate == 0.5

    def test_dirty_line_refilled_by_read_is_clean(self):
        # Evicting a dirty line must clear its dirty bit: once it is
        # refilled by a read, evicting it again writes nothing back.
        cache = Cache(self.config(assoc=1, size=64, line_size=32),
                      memory_latency=60)
        cache.access(0, is_write=True)
        cache.access(64)  # evicts dirty line 0
        assert cache.writebacks == 1
        cache.access(0)  # read refill of line 0, evicts clean line 64
        cache.access(64)  # evicts the clean copy of line 0
        assert cache.writebacks == 1

    def test_mru_and_non_mru_hits_keep_lru_order(self):
        # One 4-way set: fill A..D, hit the MRU line (order unchanged)
        # and a middle line (moves to MRU), then two misses must evict
        # A and then C, in that order.
        cache = Cache(self.config(assoc=4, size=128, line_size=32),
                      memory_latency=60)
        a, b, c, d, e, f = (32 * i for i in range(6))
        for addr in (a, b, c, d):
            cache.access(addr)
        assert cache.access(d) == 3  # MRU hit
        assert cache.access(b) == 3  # non-MRU hit: order a, c, d, b
        cache.access(e)
        assert not cache.probe(a)
        assert all(cache.probe(x) for x in (b, c, d, e))
        cache.access(f)
        assert not cache.probe(c)
        assert all(cache.probe(x) for x in (b, d, e, f))
        assert (cache.hits, cache.misses) == (2, 6)

    def test_probe_changes_nothing(self):
        cache = Cache(self.config(assoc=2, size=128, line_size=32),
                      memory_latency=60)
        cache.access(0)
        cache.access(64)  # same set: order 0, 64
        assert cache.probe(0) and cache.probe(32 + 64 * 7) is False
        assert (cache.hits, cache.misses) == (0, 2)
        cache.access(128)  # probing 0 did not refresh it: 0 is evicted
        assert not cache.probe(0)
        assert cache.probe(64) and cache.probe(128)


class TestCyclePool:
    def test_respects_per_cycle_limit(self):
        pool = CyclePool("issue", 2)
        assert pool.acquire(5) == 5
        assert pool.acquire(5) == 5
        assert pool.acquire(5) == 6

    def test_acquire_all_requires_common_slot(self):
        first = CyclePool("a", 1)
        second = CyclePool("b", 1)
        first.take(3)
        second.take(4)
        assert acquire_all([first, second], 3) == 5

    def test_invalid_pool(self):
        with pytest.raises(ValueError):
            CyclePool("x", 0)


class TestMachineConfig:
    def test_table2_widths(self):
        for width, ruu, lsq, ifq in ((4, 64, 32, 16), (8, 128, 64, 32),
                                     (16, 256, 128, 64)):
            config = table2_config(width)
            assert config.decode_width == width
            assert config.ruu_size == ruu
            assert config.lsq_size == lsq
            assert config.ifq_size == ifq

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            table2_config(32)

    def test_shared_memory_parameters(self):
        config = table2_config(8)
        assert config.dl1.size == 64 * 1024 and config.dl1.assoc == 4
        assert config.l2.size == 512 * 1024
        assert config.dl1.latency == 3
        assert config.store_forward_latency == 3
        assert config.memory_latency == 60

    def test_with_svf_returns_modified_copy(self):
        base = table2_config(16)
        modified = base.with_svf(mode="svf", ports=4)
        assert base.svf.mode == "none"
        assert modified.svf.mode == "svf"
        assert modified.svf.ports == 4
        assert modified.decode_width == base.decode_width

    def test_invalid_svf_mode(self):
        with pytest.raises(ValueError):
            SVFConfig(mode="magic")

    def test_with_overrides(self):
        config = table2_config(16, dl1_ports=1)
        assert config.dl1_ports == 1
        assert config.with_(dl1_ports=4).dl1_ports == 4
