"""Unit tests for the trace analyses behind Figures 1-3."""

from repro.emulator.memory import STACK_BASE
from repro.isa.instructions import OpClass
from repro.isa.registers import FP, SP
from repro.trace.analysis import (
    AccessDistribution,
    OffsetLocality,
    StackDepthProfile,
)
from repro.trace.records import TraceRecord
from repro.trace.regions import AccessMethod


def make_record(index=0, is_load=False, is_store=False, addr=0,
                base_reg=None, sp_value=STACK_BASE, sp_update=False,
                op="addq", op_class=OpClass.IALU):
    return TraceRecord(
        index=index, pc=0x1000 + 4 * index, op=op, op_class=op_class,
        srcs=(), dst=None, is_load=is_load, is_store=is_store, addr=addr,
        size=8, base_reg=base_reg, sp_value=sp_value, sp_update=sp_update,
    )


class TestAccessDistribution:
    def test_counts_by_method(self):
        dist = AccessDistribution()
        dist.append(make_record(0))  # non-memory
        dist.append(make_record(1, is_load=True, addr=STACK_BASE - 8,
                                base_reg=SP))
        dist.append(make_record(2, is_store=True, addr=STACK_BASE - 16,
                                base_reg=FP))
        dist.append(make_record(3, is_load=True, addr=STACK_BASE - 24,
                                base_reg=3))
        dist.append(make_record(4, is_load=True, addr=0x10000000,
                                base_reg=3))
        assert dist.total_instructions == 5
        assert dist.memory_references == 4
        assert dist.memory_fraction == 0.8
        assert dist.counts[AccessMethod.STACK_SP] == 1
        assert dist.counts[AccessMethod.STACK_FP] == 1
        assert dist.counts[AccessMethod.STACK_GPR] == 1
        assert dist.counts[AccessMethod.GLOBAL] == 1
        assert dist.stack_fraction == 0.75

    def test_sp_fraction_of_stack(self):
        dist = AccessDistribution()
        for i in range(8):
            dist.append(make_record(i, is_load=True, addr=STACK_BASE - 8,
                                    base_reg=SP))
        dist.append(make_record(9, is_load=True, addr=STACK_BASE - 8,
                                base_reg=3))
        assert abs(dist.sp_fraction_of_stack - 8 / 9) < 1e-9

    def test_empty_distribution(self):
        dist = AccessDistribution()
        assert dist.memory_fraction == 0.0
        assert dist.stack_fraction == 0.0
        assert dist.sp_fraction_of_stack == 0.0


class TestStackDepthProfile:
    def test_depth_in_64bit_units(self):
        profile = StackDepthProfile(stack_base=STACK_BASE)
        profile.append(make_record(0, sp_value=STACK_BASE - 80,
                                   sp_update=True))
        assert profile.samples == [(0, 10)]
        assert profile.max_depth == 10

    def test_non_updates_ignored(self):
        profile = StackDepthProfile(stack_base=STACK_BASE)
        profile.append(make_record(0, sp_value=STACK_BASE - 80))
        assert profile.samples == []

    def test_depth_series_resamples(self):
        profile = StackDepthProfile(stack_base=STACK_BASE)
        for i in range(100):
            profile.append(make_record(i, sp_value=STACK_BASE - 8 * i,
                                       sp_update=True))
        series = profile.depth_series(points=10)
        assert len(series) == 10
        assert series[0] == 0
        assert series[-1] > series[0]

    def test_stable_range_skips_initialization(self):
        profile = StackDepthProfile(stack_base=STACK_BASE)
        # Init spike to depth 100, then steady 10..20.
        profile.append(make_record(0, sp_value=STACK_BASE - 800,
                                   sp_update=True))
        for i in range(1, 50):
            depth = 10 + (i % 11)
            profile.append(make_record(i, sp_value=STACK_BASE - 8 * depth,
                                       sp_update=True))
        low, high = profile.stable_range(skip_fraction=0.2)
        assert low >= 10
        assert high <= 20

    def test_empty_profile(self):
        profile = StackDepthProfile(stack_base=STACK_BASE)
        assert profile.depth_series() == []
        assert profile.stable_range() == (0, 0)


class TestOffsetLocality:
    def test_offsets_relative_to_tos(self):
        locality = OffsetLocality()
        sp = STACK_BASE - 1024
        locality.append(make_record(0, is_load=True, addr=sp + 16,
                                    base_reg=SP, sp_value=sp))
        locality.append(make_record(1, is_store=True, addr=sp + 48,
                                    base_reg=SP, sp_value=sp))
        assert locality.total == 2
        assert locality.average_offset == 32.0

    def test_beyond_tos_counted_separately(self):
        locality = OffsetLocality()
        sp = STACK_BASE - 1024
        locality.append(make_record(0, is_load=True, addr=sp - 8,
                                    base_reg=SP, sp_value=sp))
        assert locality.total == 0
        assert locality.beyond_tos == 1

    def test_non_stack_ignored(self):
        locality = OffsetLocality()
        locality.append(make_record(0, is_load=True, addr=0x10000000,
                                    base_reg=3))
        assert locality.total == 0

    def test_fraction_within(self):
        locality = OffsetLocality()
        sp = STACK_BASE - 65536
        for offset in (0, 8, 16, 300, 9000):
            locality.append(make_record(0, is_load=True, addr=sp + offset,
                                        base_reg=SP, sp_value=sp))
        assert locality.fraction_within(16) == 3 / 5
        assert locality.fraction_within(8192) == 4 / 5

    def test_cdf_monotone_and_ends_at_one(self):
        locality = OffsetLocality()
        sp = STACK_BASE - 65536
        for offset in (0, 8, 8, 64, 512):
            locality.append(make_record(0, is_load=True, addr=sp + offset,
                                        base_reg=SP, sp_value=sp))
        cdf = locality.cdf()
        fractions = [f for _, f in cdf]
        assert fractions == sorted(fractions)
        assert fractions[-1] == 1.0

    def test_log_cdf_grid(self):
        locality = OffsetLocality()
        sp = STACK_BASE - 65536
        for offset in (0, 8, 64, 512):
            locality.append(make_record(0, is_load=True, addr=sp + offset,
                                        base_reg=SP, sp_value=sp))
        log_cdf = locality.log_cdf(buckets=8)
        assert len(log_cdf) == 8
        assert log_cdf[-1][1] == 1.0


class TestOnRealTrace:
    def test_crafty_is_sp_dominated(self, crafty_trace):
        dist = AccessDistribution()
        for record in crafty_trace:
            dist.append(record)
        assert dist.stack_fraction > 0.5
        assert dist.sp_fraction_of_stack > 0.6

    def test_crafty_depth_oscillates(self, crafty_trace):
        profile = StackDepthProfile(stack_base=STACK_BASE)
        for record in crafty_trace:
            profile.append(record)
        low, high = profile.stable_range()
        assert high - low > 50  # deep recursion swings

    def test_no_references_beyond_tos(self, crafty_trace):
        """Paper Section 2: no refs beyond the top of stack."""
        locality = OffsetLocality()
        for record in crafty_trace:
            locality.append(record)
        assert locality.beyond_tos == 0
        assert locality.total > 0
