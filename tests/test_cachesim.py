import random
import re
from array import array
from collections import Counter

import pytest

from cacheopt import cachesim
from cacheopt.cachesim import (
    ASSOCIATIVITIES,
    DEFAULT_BASELINE,
    CacheConfig,
    config_sim_seed,
    geometry_problems,
    n_sets,
    simulate,
)
from cacheopt.errors import ConfigError, FlagTextError, InfeasibleConfigError
from cacheopt.trace import AccessKind, TraceRecord, gen_synthetic
from cache_reference import CacheUnit

R, W, F = AccessKind.READ, AccessKind.WRITE, AccessKind.IFETCH


def cfg(**overrides) -> CacheConfig:
    base = dict(
        isize=512, ibsize=8, irepl="l", iassoc=1, ifetch="d",
        dsize=512, dbsize=8, drepl="l", dassoc=1, dfetch="d", dwback="a",
    )
    base.update(overrides)
    return CacheConfig(**base)


def random_trace(rng, length, span=1 << 12, kinds=(R, W)):
    return [
        TraceRecord(rng.choice(kinds), rng.randrange(span) & ~0x3)
        for _ in range(length)
    ]


# --- validation ---------------------------------------------------------

def test_validate_oversized_set_span_infeasible():
    problems = geometry_problems(cfg(isize=512, ibsize=32, iassoc=64))
    assert len(problems) == 1
    assert "I-cache" in problems[0]
    assert "2048" in problems[0]


def test_validate_baseline_feasible():
    assert geometry_problems(DEFAULT_BASELINE) == ()
    assert n_sets(16384, 32, 4) == 128


def test_validate_fully_associative_boundary():
    assert geometry_problems(cfg(isize=512, ibsize=8, iassoc=64)) == ()
    assert n_sets(512, 8, 64) == 1


def test_validate_names_data_side():
    problems = geometry_problems(cfg(dsize=512, dbsize=64, dassoc=16))
    assert len(problems) == 1
    assert problems[0].startswith("D-cache")


def test_config_domain_enforced():
    with pytest.raises(ConfigError, match="isize"):
        cfg(isize=768)
    with pytest.raises(ConfigError, match="drepl"):
        cfg(drepl="x")


# --- flag text ----------------------------------------------------------

def test_flags_round_trip():
    text = DEFAULT_BASELINE.to_flags()
    assert text.startswith("-l1-isize 16384 -l1-ibsize 32 -l1-irepl l")
    assert CacheConfig.from_flags(text) == DEFAULT_BASELINE


def test_flags_missing_flag_named():
    text = DEFAULT_BASELINE.to_flags().replace(" -l1-dwback a", "")
    with pytest.raises(FlagTextError, match="-l1-dwback"):
        CacheConfig.from_flags(text)


def test_flags_dangling_last_flag_named():
    # Canonical order up to a last flag with no value: no fast path may build it.
    text = DEFAULT_BASELINE.to_flags().replace(" -l1-dwback a", " -l1-dwback")
    with pytest.raises(FlagTextError, match="dangling token: '-l1-dwback'"):
        CacheConfig.from_flags(text)


def test_flags_duplicate_and_unknown():
    text = DEFAULT_BASELINE.to_flags()
    with pytest.raises(FlagTextError, match="duplicate"):
        CacheConfig.from_flags(text + " -l1-isize 512")
    with pytest.raises(FlagTextError, match="unknown flag"):
        CacheConfig.from_flags(text + " -l1-bogus 1")


@pytest.mark.parametrize("token", ["016384", "16_384", "+16384", "16384.0"])
@pytest.mark.parametrize("reorder", [False, True], ids=["canonical-order", "any-order"])
def test_flags_integer_only_in_its_canonical_spelling(token, reorder):
    # One configuration has one flag text: an integer is written as str(value).
    flags = DEFAULT_BASELINE.to_flags().replace("-l1-isize 16384", f"-l1-isize {token}")
    if reorder:
        head, tail = flags.split(" -l1-ibsize ")
        flags = f"-l1-ibsize {tail} {head}"
    with pytest.raises(FlagTextError, match=f"-l1-isize .*'{re.escape(token)}'"):
        CacheConfig.from_flags(flags)


def test_flags_value_outside_domain():
    text = DEFAULT_BASELINE.to_flags().replace("-l1-isize 16384", "-l1-isize 100")
    with pytest.raises(ConfigError, match="isize"):
        CacheConfig.from_flags(text)


# --- step ----------------------------------------------------------------

def test_step_cold_miss_then_hit():
    unit = CacheUnit("i", 64, 16, 1, "l", "d")
    assert unit.step(TraceRecord(F, 0x0)).hit is False
    assert unit.step(TraceRecord(F, 0x0)).hit is True
    assert unit.stats.accesses == 2
    assert unit.stats.demand_misses == 1


def test_step_kind_mismatch():
    unit = CacheUnit("i", 64, 16, 1, "l", "d")
    with pytest.raises(ValueError, match="READ"):
        unit.step(TraceRecord(R, 0x0))
    dunit = CacheUnit("d", 64, 16, 1, "l", "d")
    with pytest.raises(ValueError, match="IFETCH"):
        dunit.step(TraceRecord(F, 0x0))


def test_step_always_prefetch_on_hit_fills_next_block():
    unit = CacheUnit("i", 512, 16, 4, "l", "a")
    unit.step(TraceRecord(F, 0x0))  # miss, fills block 0 and prefetches block 1
    out = unit.step(TraceRecord(F, 0x10))  # hit on the prefetched block
    assert out.hit is True and out.prefetch_fills == 1  # block 2 pulled in
    again = unit.step(TraceRecord(F, 0x10))
    assert again.hit is True and again.prefetch_fills == 0  # block 2 already present


def test_prefetch_counts_are_not_accesses():
    unit = CacheUnit("i", 64, 16, 1, "l", "m")
    unit.step(TraceRecord(F, 0x0))
    assert unit.stats.accesses == 1
    assert unit.stats.demand_misses == 1
    assert unit.stats.prefetch_fills == 1


def test_direct_mapped_conflict():
    unit = CacheUnit("i", 64, 16, 1, "l", "d")
    for addr in (0x0, 0x40, 0x0):  # blocks 0 and 4 collide in set 0 of 4
        unit.step(TraceRecord(F, addr))
    assert unit.stats.demand_misses == 3


# --- simulate ------------------------------------------------------------

def test_simulate_routes_by_kind():
    trace = [TraceRecord(F, 0x0), TraceRecord(R, 0x0), TraceRecord(W, 0x40)]
    istats, dstats = simulate(cfg(), trace)
    assert istats.accesses == 1
    assert dstats.accesses == 2


def test_simulate_rejects_infeasible():
    with pytest.raises(InfeasibleConfigError):
        simulate(cfg(isize=512, ibsize=32, iassoc=64), [])


def test_accesses_equal_hits_plus_misses():
    rng = random.Random(0)
    for trial in range(20):
        config = cfg(
            dsize=rng.choice((512, 1024)),
            dbsize=rng.choice((8, 16, 32)),
            dassoc=rng.choice((1, 2, 4)),
            drepl=rng.choice(("l", "f", "r")),
            dfetch=rng.choice(("m", "d", "a")),
            dwback=rng.choice(("a", "n")),
        )
        trace = random_trace(rng, 400)
        _, dstats = simulate(config, trace, rng_seed=trial)
        assert dstats.demand_misses <= dstats.accesses
        assert dstats.accesses == 400


def test_direct_mapped_identical_across_replacement_policies():
    rng = random.Random(1)
    trace = random_trace(rng, 600)
    results = [
        simulate(cfg(drepl=repl, dassoc=1), trace, rng_seed=9)[1]
        for repl in ("l", "f", "r")
    ]
    assert results[0] == results[1] == results[2]


@pytest.mark.parametrize("n", ASSOCIATIVITIES)
def test_random_victim_is_the_one_choice_draws(n):
    # The random loop draws a full set's victim index inline, as
    # random.Random.choice draws it; CacheUnit calls choice. Fill one n-way
    # set with only choice's pick dirty, then miss once: that pick must go.
    blocks = array("Q", range(n + 1))
    for seed in range(300):
        pick = random.Random(seed).choice(range(n))
        writes = bytes(b == pick for b in blocks)
        counts = cachesim._fill_order(blocks, writes, 0, n, "r", "d", random.Random(seed))
        assert counts == (n + 1, 0, 1, 0)


def test_distinct_block_count_stops_above_its_cap():
    # The count only tells whether a side can fit in the largest cache, so
    # it stops a slice after passing cap instead of holding every block.
    assert cachesim._count_distinct(array("Q", [b % 50 for b in range(20_000)]), 8192) == 50
    assert cachesim._count_distinct(array("Q", range(8192)) * 3, 8192) == 8192
    assert 8192 < cachesim._count_distinct(array("Q", range(100_000)), 8192) <= 8192 + 4096


def test_open_pass_counts_one_share_per_set_count(monkeypatch):
    # 512 B/4-way and 1024 B/8-way sides of 8 B blocks both have 16 sets, so
    # the open pass counts its per-set share for 16 sets once, for both.
    streams = cachesim.SideStreams([TraceRecord(F, 8 * (i % 40)) for i in range(400)])
    builds = []

    def counting_counter(*args):
        builds.append(args)
        return Counter(*args)

    monkeypatch.setattr(cachesim, "Counter", counting_counter)
    for size, assoc in ((512, 4), (1024, 8)):
        got = cachesim._open_counts(streams, "i", size, 8, assoc, "d")
        assert got == cachesim._run_side(streams, "i", size, 8, assoc, "l", "d", 0)
    assert len(builds) == 1


def test_seed_only_matters_for_random_replacement():
    rng = random.Random(2)
    trace = random_trace(rng, 800, span=1 << 13)
    for repl in ("l", "f"):
        a = simulate(cfg(drepl=repl, dassoc=4, dsize=1024), trace, rng_seed=1)[1]
        b = simulate(cfg(drepl=repl, dassoc=4, dsize=1024), trace, rng_seed=2)[1]
        assert a == b
    a = simulate(cfg(drepl="r", dassoc=4, dsize=1024), trace, rng_seed=1)[1]
    b = simulate(cfg(drepl="r", dassoc=4, dsize=1024), trace, rng_seed=1)[1]
    assert a == b  # per-seed determinism


def test_distinct_blocks_lower_bound_misses():
    rng = random.Random(3)
    for trial in range(10):
        trace = random_trace(rng, 500)
        config = cfg(dsize=512, dbsize=16, dassoc=2)
        _, dstats = simulate(config, trace)
        distinct = len({r.address // 16 for r in trace})
        assert distinct <= dstats.demand_misses


def test_prefetch_helps_on_sequential():
    trace = gen_synthetic("sequential", 2000, 0)
    base = simulate(cfg(ifetch="d"), trace)[0].demand_misses
    for fetch in ("m", "a"):
        assert simulate(cfg(ifetch=fetch), trace)[0].demand_misses <= base


def test_prefetch_fills_zero_on_demand_policy():
    trace = gen_synthetic("mixed", 2000, 5)
    istats, dstats = simulate(cfg(ifetch="d", dfetch="d"), trace)
    assert istats.prefetch_fills == 0
    assert dstats.prefetch_fills == 0


def test_icache_never_writes():
    trace = gen_synthetic("mixed", 2000, 6)
    istats, _ = simulate(cfg(ifetch="a"), trace)
    assert istats.write_backs == 0
    assert istats.write_throughs == 0
    assert istats.final_flush == 0


def test_lru_inclusion_fully_associative():
    rng = random.Random(4)
    for trial in range(10):
        trace = random_trace(rng, 300, span=1 << 10)
        # size = block * assoc, so n_sets = 1 on the data side
        small = CacheConfig(512, 8, "l", 64, "d", 512, 16, "l", 32, "d", "a")
        big = CacheConfig(1024, 8, "l", 128, "d", 1024, 16, "l", 64, "d", "a")
        m_small = simulate(small, trace)[1].demand_misses
        m_big = simulate(big, trace)[1].demand_misses
        assert m_big <= m_small


def test_write_back_counts_evictions_and_flush():
    unit = CacheUnit("d", 32, 8, 1, "l", "d", wback="a")
    unit.step(TraceRecord(W, 0x0))   # allocate dirty in set 0
    unit.step(TraceRecord(W, 0x8))   # allocate dirty in set 1
    unit.step(TraceRecord(R, 0x20))  # evicts dirty block 0 (set 0)
    assert unit.stats.write_backs == 1
    assert unit.stats.write_throughs == 0
    assert unit.count_dirty() == 1   # block at 0x8 still dirty


def test_write_through_counts_every_write():
    unit = CacheUnit("d", 32, 8, 1, "l", "d", wback="n")
    unit.step(TraceRecord(W, 0x0))
    unit.step(TraceRecord(W, 0x0))
    unit.step(TraceRecord(R, 0x20))
    assert unit.stats.write_throughs == 2
    assert unit.stats.write_backs == 0
    assert unit.count_dirty() == 0


def test_write_miss_allocates():
    unit = CacheUnit("d", 32, 8, 1, "l", "d", wback="n")
    assert unit.step(TraceRecord(W, 0x0)).hit is False
    assert unit.step(TraceRecord(R, 0x0)).hit is True


def test_final_flush_not_in_write_backs():
    trace = [TraceRecord(W, a) for a in range(0, 256, 8)]
    _, dstats = simulate(cfg(dwback="a"), trace)
    assert dstats.write_backs == 0  # nothing evicted, cache is big enough
    assert dstats.final_flush == len(trace)


def test_config_sim_seed_stable():
    a = config_sim_seed(DEFAULT_BASELINE)
    assert a == config_sim_seed(DEFAULT_BASELINE)
    assert a != config_sim_seed(DEFAULT_BASELINE, base=1)
    assert a != config_sim_seed(cfg())
