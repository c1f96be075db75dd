import math

import pytest

from cacheopt.cachesim import DEFAULT_BASELINE, CacheConfig, SideStreams, SimStats, simulate
from cacheopt.charmodel import CharTable, DramParams, surrogate_generate
from cacheopt.errors import CharLookupError, ValidationError
from cacheopt.objectives import (
    INFEASIBLE_FITNESS,
    FitnessWeights,
    Metrics,
    MissMode,
    config_metrics,
    fitness,
    metrics_from_stats,
)
from cacheopt.trace import gen_synthetic

DRAM = DramParams()
ICHAR = (1e-9, 1e-11)
DCHAR = (2e-9, 3e-11)
# The I side keeps the baseline's 16384/32/4 row and the D side reads the
# 8192/32/4 row, so each side is priced with its own characterization.
CONFIG = DEFAULT_BASELINE._replace(dsize=8192)
TABLE = CharTable([((16384, 32, 4), ICHAR), ((8192, 32, 4), DCHAR)])


def stats(accesses=0, misses=0, prefetch=0) -> SimStats:
    return SimStats(accesses=accesses, demand_misses=misses, prefetch_fills=prefetch)


def price(istats, dstats, dram=DRAM, miss_mode=MissMode.DEMAND_PLUS_PREFETCH) -> Metrics:
    return metrics_from_stats(istats, dstats, TABLE, CONFIG, dram, miss_mode)


def test_zero_counters_zero_cost():
    z = stats()
    assert price(z, z) == (0.0, 0.0)


def test_exec_time_hand_example():
    # Ia=100, Im=10, It=1e-9, DRAM t=4e-9, Il=32, BW=6.4e9, D side silent:
    # 100e-9 + 40e-9 + 10*32/6.4e9 = 1.9e-7
    dram = DramParams(access_time=4e-9, bandwidth=6.4e9)
    got = price(stats(100, 10), stats(), dram).exec_time
    assert got == pytest.approx(1.9e-7, rel=1e-12)


def test_exec_time_linear_in_misses():
    dram = DramParams(access_time=4e-9, bandwidth=6.4e9)
    base = price(stats(100, 0), stats(), dram).exec_time
    one = price(stats(100, 10), stats(), dram).exec_time
    two = price(stats(100, 20), stats(), dram).exec_time
    assert two - base == pytest.approx(2 * (one - base), rel=1e-12)
    assert base == pytest.approx(100 * ICHAR[0], rel=1e-12)


def test_energy_hand_example():
    # Ia=100, Im=10, Ie=1e-11, Il=32, DRAM power 1.051 W, t=3.9889e-9,
    # BW=6.7108864e9, D side silent:
    # 1e-9 + 3.2e-9 + 10*1.051*(3.9889e-9 + 32/6.7108864e9)
    assert ICHAR == (1e-9, 1e-11)
    got = price(stats(100, 10), stats()).energy
    assert got == pytest.approx(9.623892432714842e-08, abs=1e-10)


def test_energy_reduces_to_access_terms_without_misses():
    got = price(stats(100), stats(50)).energy
    assert got == 100 * ICHAR[1] + 50 * DCHAR[1]


def test_models_linear_in_all_counters():
    a = SimStats(accesses=120, demand_misses=30, prefetch_fills=7)
    d = SimStats(accesses=45, demand_misses=9, prefetch_fills=2)
    a2 = SimStats(accesses=240, demand_misses=60, prefetch_fills=14)
    d2 = SimStats(accesses=90, demand_misses=18, prefetch_fills=4)
    for once, twice in zip(price(a, d), price(a2, d2)):  # time, then energy
        assert twice == pytest.approx(2 * once, rel=1e-12)


def test_miss_mode_prices_prefetch_traffic():
    with_pf = stats(100, 10, prefetch=5)
    for demand, both, fifteen in zip(  # time, then energy
        price(with_pf, stats(), miss_mode=MissMode.DEMAND_ONLY),
        price(with_pf, stats(), miss_mode=MissMode.DEMAND_PLUS_PREFETCH),
        price(stats(100, 15), stats(), miss_mode=MissMode.DEMAND_ONLY),
    ):
        assert both == pytest.approx(fifteen, rel=1e-12)
        assert both > demand


def test_negative_and_nonfinite_inputs_rejected():
    with pytest.raises(ValidationError, match="counter accesses"):
        SimStats(accesses=-1)
    with pytest.raises(ValidationError, match="counter prefetch_fills"):
        stats(prefetch=float("nan"))
    with pytest.raises(ValidationError):  # a bad row is refused when the table is built
        CharTable([((8192, 32, 4), (2e-9, -1.0))])
    with pytest.raises(ValidationError):
        CharTable([((16384, 32, 4), (float("nan"), 1e-11))])
    with pytest.raises(ValidationError):
        Metrics(exec_time=-1.0, energy=0.0)
    with pytest.raises(ValidationError):
        Metrics(exec_time=float("inf"), energy=0.0)


def test_fitness_identity_and_linearity():
    baseline = Metrics(2e-3, 5e-6)
    assert fitness(baseline, baseline) == pytest.approx(1.0, abs=1e-12)
    half = Metrics(1e-3, 2.5e-6)
    assert fitness(half, baseline) == pytest.approx(0.5, abs=1e-12)


def test_fitness_weights():
    baseline = Metrics(2e-3, 5e-6)
    candidate = Metrics(1e-3, 5e-6)
    assert fitness(candidate, baseline, FitnessWeights(1.0)) == \
        pytest.approx(0.5, abs=1e-12)
    assert fitness(candidate, baseline, FitnessWeights(0.0)) == \
        pytest.approx(1.0, abs=1e-12)
    assert (FitnessWeights().w_time, FitnessWeights().w_energy) == (0.5, 0.5)
    assert FitnessWeights(0.3).w_energy == 1.0 - 0.3
    for w_time in (-0.1, 1.1, float("nan")):
        with pytest.raises(ValidationError, match=r"lie in \[0, 1\]"):
            FitnessWeights(w_time)


def test_fitness_requires_positive_baseline():
    with pytest.raises(ValidationError, match="baseline"):
        fitness(Metrics(1.0, 1.0), Metrics(0.0, 1.0))


def test_fitness_scale_invariance():
    baseline = Metrics(3e-3, 7e-6)
    candidate = Metrics(1e-3, 9e-6)
    ref = fitness(candidate, baseline)
    for scale in (1e-3, 1.0, 1e6):
        scaled = fitness(
            Metrics(candidate.exec_time * scale, candidate.energy * scale),
            Metrics(baseline.exec_time * scale, baseline.energy * scale),
        )
        assert scaled == pytest.approx(ref, rel=1e-12)


def test_fitness_monotonic_in_candidate():
    baseline = Metrics(3e-3, 7e-6)
    f = fitness(Metrics(1e-3, 2e-6), baseline)
    assert fitness(Metrics(1.1e-3, 2e-6), baseline) > f
    assert fitness(Metrics(1e-3, 2.2e-6), baseline) > f


def test_energy_rescaling_preserves_ordering():
    # Scaling the characterization energy column by a common factor scales
    # every candidate's energy linearly, so the argmin never moves.
    trace = gen_synthetic("mixed", 2000, 9)
    dram = DRAM
    candidates = [
        DEFAULT_BASELINE,
        CacheConfig(512, 8, "l", 1, "d", 512, 8, "l", 1, "d", "a"),
        CacheConfig(4096, 16, "f", 2, "m", 2048, 32, "l", 4, "d", "n"),
        CacheConfig(65536, 64, "l", 8, "a", 65536, 64, "f", 8, "a", "a"),
    ]
    table = surrogate_generate(1)
    baseline = config_metrics(DEFAULT_BASELINE, trace, table, dram)
    for scale in (0.5, 3.0, 10.0):
        plain, scaled = [], []
        for config in candidates:
            m = config_metrics(config, trace, table, dram)
            plain.append(fitness(m, baseline))
            m2 = Metrics(m.exec_time, m.energy * scale)
            b2 = Metrics(baseline.exec_time, baseline.energy * scale)
            scaled.append(fitness(m2, b2))
        assert plain.index(min(plain)) == scaled.index(min(scaled))


def test_config_metrics_checks_each_side_once(monkeypatch):
    """A SimStats is checked when built. Each memoized side builds one per
    write policy, once; pricing a point again, or its write-policy twin,
    builds and checks none."""
    streams = SideStreams(gen_synthetic("mixed", 200, 1))
    table = surrogate_generate(0)
    built = []
    real = SimStats.__new__
    monkeypatch.setattr(SimStats, "__new__",
                        lambda cls, *args: (built.append(args), real(cls, *args))[1])
    metrics = config_metrics(DEFAULT_BASELINE, streams, table, DRAM)
    assert len(built) == 4  # one I side and one D side, each for both write policies
    assert config_metrics(DEFAULT_BASELINE, streams, table, DRAM) == metrics
    config_metrics(DEFAULT_BASELINE._replace(dwback="n"), streams, table, DRAM)
    assert len(built) == 4
    istats, dstats = simulate(DEFAULT_BASELINE, streams)
    _, through = simulate(DEFAULT_BASELINE._replace(dwback="n"), streams)
    assert built == [tuple(istats), tuple(istats), tuple(dstats), tuple(through)]
    assert metrics == metrics_from_stats(istats, dstats, table, DEFAULT_BASELINE, DRAM)


@pytest.mark.parametrize("rows, missing", [
    ([((8192, 32, 4), DCHAR)], "size=16384 block=32 assoc=4"),
    ([((16384, 32, 4), ICHAR)], "size=8192 block=32 assoc=4"),
    ([], "size=16384 block=32 assoc=4"),
], ids=["no-I-row", "no-D-row", "no-rows"])
def test_a_missing_row_is_named_the_I_row_first(rows, missing):
    """Both pricing entry points name the missing row as CharTable.lookup
    does, the I side's before the D side's."""
    table = CharTable(rows)
    message = f"^no characterization row for {missing}$"
    with pytest.raises(CharLookupError, match=message):
        metrics_from_stats(stats(10, 1), stats(10, 1), table, CONFIG, DRAM)
    streams = SideStreams(gen_synthetic("mixed", 50, 1))
    with pytest.raises(CharLookupError, match=message):
        config_metrics(CONFIG, streams, table, DRAM)


def test_infeasible_sentinel_value():
    assert INFEASIBLE_FITNESS == 1.0e9
    assert math.isfinite(INFEASIBLE_FITNESS)
