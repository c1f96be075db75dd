"""Acceptance gate: one test per release criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import random
import time

import pytest

from cacheopt.cachesim import CacheConfig, DEFAULT_BASELINE, simulate
from cacheopt.charmodel import CharTable, DramParams, surrogate_generate
from cacheopt.cli import main
from cacheopt.evolve import Evaluator, GEParams, evolve
from cacheopt.grammar import DEFAULT_GRAMMAR, map_genotype, parse_bnf
from cacheopt.objectives import config_metrics, fitness, metrics_from_stats
from cacheopt.oracle import Subspace, exhaustive, reference_lru
from cacheopt.trace import AccessKind, TraceRecord, gen_synthetic
from cache_reference import CacheUnit
from grammar_reference import derivation_count

R, W, F = AccessKind.READ, AccessKind.WRITE, AccessKind.IFETCH

GRAMMAR = parse_bnf(DEFAULT_GRAMMAR)
DRAM = DramParams()


def _pass(name: str, t0: float, bound: float) -> None:
    elapsed = time.perf_counter() - t0
    assert elapsed < bound, f"{name} took {elapsed:.1f}s, bound {bound}s"
    print(f"PASS {name} ({elapsed:.2f}s)")


def test_golden_mapping():
    t0 = time.perf_counter()
    phenotype = map_genotype([20, 35, 71, 96, 123, 210, 137, 7, 5], GRAMMAR)
    config = CacheConfig.from_flags(phenotype)
    assert config.isize == 8192      # 20 mod 8
    assert config.ibsize == 64       # 35 mod 4
    assert config.irepl == "r"       # 71 mod 3
    assert config.iassoc == 1        # 96 mod 8
    assert config.ifetch == "m"      # 123 mod 3
    assert config.dsize == 2048      # 210 mod 8
    assert config.dbsize == 16       # 137 mod 4
    assert config.drepl == "f"       # 7 mod 3
    # 5 mod 8 = 5 selects the sixth alternative, 32. Hand-decodes of this
    # genotype sometimes give 4 here, but 4 sits at index 2 and cannot
    # result from 5 mod 8 under the zero-indexed rule; 32 is deliberate
    # (see README, "Decoding example").
    assert config.dassoc == 32
    assert config.dfetch == "a"      # wrap: 20 mod 3
    assert config.dwback == "n"      # wrap: 35 mod 2
    _pass("golden-mapping", t0, 1.0)


def test_simulator_oracle_suite():
    t0 = time.perf_counter()

    # 1. cold miss then hit
    unit = CacheUnit("i", 64, 16, 1, "l", "d")
    assert unit.step(TraceRecord(F, 0x0)).hit is False
    assert unit.step(TraceRecord(F, 0x0)).hit is True
    assert unit.stats.accesses == 2 and unit.stats.demand_misses == 1

    # 2. direct-mapped conflict: blocks 0 and 4 share set 0 of 4
    unit = CacheUnit("i", 64, 16, 1, "l", "d")
    hits = [unit.step(TraceRecord(F, a)).hit for a in (0x0, 0x40, 0x0)]
    assert unit.stats.demand_misses == 3 and hits == [False, False, False]

    # 3. LRU vs FIFO discriminator on a single 2-way set;
    #    A,B,A,C,B: LRU evicts B at C (4 misses), FIFO evicts A (B still hits)
    addrs = (0x0, 0x10, 0x0, 0x20, 0x10)
    lru = CacheUnit("d", 32, 16, 2, "l", "d")
    lru_hits = [lru.step(TraceRecord(R, a)).hit for a in addrs]
    assert lru.stats.demand_misses == 4
    assert lru_hits == [False, False, True, False, False]
    fifo = CacheUnit("d", 32, 16, 2, "f", "d")
    fifo_hits = [fifo.step(TraceRecord(R, a)).hit for a in addrs]
    assert fifo.stats.demand_misses == 3
    assert fifo_hits == [False, False, True, False, True]

    # 4. prefetch-on-miss fills exactly the next block, not an access
    unit = CacheUnit("i", 512, 16, 4, "l", "m")
    assert unit.step(TraceRecord(F, 0x0)) == (False, 1)  # miss + prefetch of block 1
    assert unit.step(TraceRecord(F, 0x10)) == (True, 0)  # prefetched block hits
    assert unit.stats.accesses == 2
    assert unit.stats.demand_misses == 1
    assert unit.stats.prefetch_fills == 1

    # 5. write-through vs write-back counter split
    wb = CacheUnit("d", 32, 8, 1, "l", "d", wback="a")
    for record in (TraceRecord(W, 0x0), TraceRecord(W, 0x0), TraceRecord(W, 0x8),
                   TraceRecord(R, 0x20)):
        wb.step(record)
    assert wb.stats.write_backs == 1      # dirty block 0 evicted by 0x20
    assert wb.stats.write_throughs == 0
    assert wb.count_dirty() == 1          # block at 0x8 still dirty
    wt = CacheUnit("d", 32, 8, 1, "l", "d", wback="n")
    for record in (TraceRecord(W, 0x0), TraceRecord(W, 0x0), TraceRecord(W, 0x8),
                   TraceRecord(R, 0x20)):
        wt.step(record)
    assert wt.stats.write_throughs == 3
    assert wt.stats.write_backs == 0
    assert wt.count_dirty() == 0

    # randomized cross-check against the independent recency-list oracle
    config = CacheConfig(512, 8, "l", 64, "d", 512, 16, "l", 32, "d", "a")
    rng = random.Random(2024)
    for _ in range(100):
        trace = [
            TraceRecord(rng.choice((R, W)), rng.randrange(1 << 12) & ~0x3)
            for _ in range(1000)
        ]
        _, dstats = simulate(config, trace)
        assert dstats.demand_misses == reference_lru(trace, 32, block_size=16)

    _pass("simulator-oracle-suite", t0, 10.0)


def test_model_identities():
    t0 = time.perf_counter()
    trace = gen_synthetic("mixed", 2000, 1)
    table = surrogate_generate(1)
    baseline = config_metrics(DEFAULT_BASELINE, trace, table, DRAM)
    assert fitness(baseline, baseline) == pytest.approx(1.0, abs=1e-12)

    from cacheopt.cachesim import SimStats

    istats = SimStats(accesses=120, demand_misses=30, prefetch_fills=7)
    dstats = SimStats(accesses=45, demand_misses=9, prefetch_fills=2)
    i2 = SimStats(accesses=240, demand_misses=60, prefetch_fills=14)
    d2 = SimStats(accesses=90, demand_misses=18, prefetch_fills=4)
    # one row per side: 16384/32/4 for I, 8192/32/4 for D
    config = DEFAULT_BASELINE._replace(dsize=8192)
    rows = CharTable([((16384, 32, 4), (1e-9, 1e-11)), ((8192, 32, 4), (2e-9, 3e-11))])
    once = metrics_from_stats(istats, dstats, rows, config, DRAM)
    twice = metrics_from_stats(i2, d2, rows, config, DRAM)
    for x1, x2 in zip(once, twice):  # time, then energy
        assert x2 == pytest.approx(2 * x1, rel=1e-12)

    # frozen hand evaluation with the default main-memory constants:
    # 100*1e-11 + 10*1e-11*32 + 10*1.051*(3.9889e-9 + 32/6.7108864e9)
    hand = metrics_from_stats(
        SimStats(accesses=100, demand_misses=10), SimStats(), rows, config, DRAM,
    ).energy
    assert hand == pytest.approx(9.623892432714842e-08, abs=1e-10)
    _pass("model-identities", t0, 10.0)


def test_search_space_count():
    t0 = time.perf_counter()
    assert derivation_count(GRAMMAR) == 10_616_832
    assert Subspace().cardinality() == 10_616_832
    _pass("search-space-count", t0, 1.0)


def test_ge_finds_exhaustive_optimum():
    t0 = time.perf_counter()
    trace = gen_synthetic("mixed", 10_000, 1)
    table = surrogate_generate(1)
    baseline = config_metrics(DEFAULT_BASELINE, trace, table, DRAM)
    sub = Subspace(
        isize=(512, 65536), ibsize=(8, 64), irepl=("l",), iassoc=(1, 2),
        ifetch=("d",), dsize=(512, 65536), dbsize=(8, 64), drepl=("l",),
        dassoc=(1,), dfetch=("d",), dwback=("a", "n"),
    )
    assert sub.cardinality() == 64
    optimum = exhaustive(sub, trace, table, DRAM, baseline).ranked[0].fitness
    grammar = parse_bnf(sub.grammar_text())
    evaluator = Evaluator(trace, table, DRAM, DEFAULT_BASELINE)
    hits = 0
    for seed in range(10):
        params = GEParams(generations=20, population=20, rng_seed=seed)
        result = evolve(params, grammar, evaluator)
        hits += result.best.fitness == optimum
        assert optimum <= result.best.fitness  # oracle lower-bounds the search
    assert hits >= 9, f"GE matched the exhaustive optimum in only {hits}/10 seeds"
    _pass(f"ge-vs-oracle ({hits}/10 seeds)", t0, 120.0)


def test_memoization_property():
    t0 = time.perf_counter()
    trace = gen_synthetic("mixed", 10_000, 1)
    table = surrogate_generate(1)
    evaluator = Evaluator(trace, table, DRAM, DEFAULT_BASELINE)
    result = evolve(GEParams(rng_seed=0), GRAMMAR, evaluator)  # pop 50 x 100 gens
    stats = evaluator.stats()
    max_evals = 50 * 100
    ratio = stats.sim_invocations / max_evals
    assert ratio <= 0.20, f"unique evaluation ratio {ratio:.1%} above 20%"
    assert result.log[-1].unique_evals == stats.sim_invocations
    _pass(f"memoization ({ratio:.1%} of {max_evals} evaluations)", t0, 600.0)


def test_determinism_across_runs(tmp_path):
    t0 = time.perf_counter()
    trace_path = tmp_path / "t.din"
    assert main(["gentrace", "--profile", "mixed", "-n", "2000",
                 "--seed", "7", "-o", str(trace_path)]) == 0
    args = ["optimize", "--trace", str(trace_path), "--runs", "2",
            "--generations", "6", "--population", "12", "--seed", "3"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main([*args, "-o", str(a)]) == 0
    assert main([*args, "-o", str(b)]) == 0
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    _pass("determinism", t0, 120.0)


def test_lru_inclusion():
    t0 = time.perf_counter()
    rng = random.Random(99)
    for _ in range(50):
        trace = [
            TraceRecord(R, rng.randrange(1 << 9) & ~0x3) for _ in range(400)
        ]
        misses = {}
        for capacity in (4, 8):
            unit = CacheUnit("d", capacity * 16, 16, capacity, "l", "d")
            for record in trace:
                unit.step(record)
            misses[capacity] = unit.stats.demand_misses
            assert misses[capacity] == reference_lru(trace, capacity, block_size=16)
        assert misses[8] <= misses[4]
    _pass("lru-inclusion", t0, 30.0)