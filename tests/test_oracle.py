import random
from collections import Counter
from dataclasses import fields
from itertools import product, starmap

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from cacheopt import cachesim, objectives, oracle
from cacheopt.cachesim import (
    DEFAULT_BASELINE, DOMAINS, FLAG_ORDER, CacheConfig, CacheUnit, SideStreams,
    geometry_problems, simulate,
)
from cacheopt.charmodel import CharTable, DramParams, surrogate_generate
from cacheopt.errors import (
    CharLookupError, InfeasibleConfigError, MappingError, SubspaceCapError, ValidationError,
)
from cacheopt.evolve import Evaluator, GEParams, evolve
from cacheopt.grammar import DEFAULT_GRAMMAR, map_genotype, parse_bnf
from cacheopt.objectives import Metrics, MissMode, config_metrics, fitness
from cacheopt.oracle import Subspace, exhaustive, reference_lru
from cacheopt.trace import PROFILES, AccessKind, TraceRecord, gen_synthetic

TABLE = surrogate_generate(1)
DRAM = DramParams()


def small_subspace(**overrides) -> Subspace:
    values = dict(
        isize=(512,), ibsize=(8,), irepl=("l",), iassoc=(1,), ifetch=("d",),
        dsize=(512,), dbsize=(8,), drepl=("l",), dassoc=(1,), dfetch=("d",),
        dwback=("a",),
    )
    values.update(overrides)
    return Subspace(**values)


def baseline_metrics(trace):
    return config_metrics(DEFAULT_BASELINE, trace, TABLE, DRAM)


def test_full_space_cardinality():
    assert Subspace().cardinality() == 10_616_832


def test_subspace_validation():
    with pytest.raises(ValidationError, match="nonempty"):
        small_subspace(isize=())
    with pytest.raises(ValidationError, match="duplicate"):
        small_subspace(ibsize=(8, 8))
    with pytest.raises(ValidationError, match="outside"):
        small_subspace(dassoc=(3,))


def test_subspace_grammar_round_trip():
    sub = small_subspace(isize=(512, 65536), dwback=("a", "n"))
    grammar = parse_bnf(sub.grammar_text())
    from cacheopt.grammar import derivation_count, map_genotype

    assert derivation_count(grammar) == sub.cardinality() == 4
    config = CacheConfig.from_flags(map_genotype([1] * 11, grammar))
    assert config.isize == 65536 and config.dwback == "n"


def test_domains_fix_every_parameter_order():
    names = list(DOMAINS)
    assert len(names) == 11
    assert list(FLAG_ORDER) == [f"-l1-{name}" for name in names]
    assert list(CacheConfig._fields) == names
    assert [f.name for f in fields(Subspace)] == names
    assert all(getattr(Subspace(), name) == DOMAINS[name] for name in names)


@settings(max_examples=300, deadline=None)
@given(
    codons=st.lists(st.integers(0, 255), min_size=1, max_size=30),
    max_wraps=st.integers(1, 4),
)
def test_full_subspace_grammar_decodes_like_default_grammar(codons, max_wraps):
    """The literal DEFAULT_GRAMMAR and the grammar derived from DOMAINS
    pick the same value at every decision."""
    decoded = []
    for text in (DEFAULT_GRAMMAR, Subspace().grammar_text()):
        try:
            decoded.append(map_genotype(codons, parse_bnf(text), max_wraps))
        except MappingError:
            decoded.append(None)
    assert decoded[0] == decoded[1]


def test_subspace_triples_are_the_feasible_side_geometries():
    sub = small_subspace(isize=(512, 1024), ibsize=(64,), iassoc=(8, 16),
                         dsize=(2048,), dbsize=(8,), dassoc=(1,))
    # 512 B cannot hold 64 B x 16 ways
    assert sub.triples() == {(512, 64, 8), (1024, 64, 8), (1024, 64, 16), (2048, 8, 1)}
    # no feasible D side: no point is feasible, so nothing is looked up
    assert small_subspace(dsize=(512,), dbsize=(64,), dassoc=(16,)).triples() == set()


def test_exhaustive_checks_each_point_once(monkeypatch):
    """simulate tests each feasible point's geometry inline, so
    geometry_problems runs only for the infeasible point, once."""
    trace = gen_synthetic("mixed", 300, 4)
    baseline = baseline_metrics(trace)
    checked = []

    def counting_problems(config):
        checked.append(config)
        return real_problems(config)

    real_problems = cachesim.geometry_problems
    for module in (cachesim, objectives, oracle):
        monkeypatch.setattr(module, "geometry_problems", counting_problems, raising=False)
    sub = small_subspace(isize=(512, 1024), ibsize=(64,), iassoc=(8, 16))
    result = exhaustive(sub, trace, TABLE, DRAM, baseline)
    assert (len(result.ranked), len(result.infeasible)) == (3, 1)
    assert checked == [result.infeasible[0][0]]


def count_passes(monkeypatch) -> list[tuple[str, str]]:
    """Record (kind, side) for every engine ("engine") and open ("open")
    pass that simulate runs from now on."""
    passes = []
    for kind, name in (("engine", "_run_side"), ("open", "_run_open")):
        def counting(streams, side, *args, _kind=kind, _real=getattr(cachesim, name)):
            passes.append((_kind, side))
            return _real(streams, side, *args)

        monkeypatch.setattr(cachesim, name, counting)
    return passes


def test_exhaustive_runs_each_distinct_side_once(monkeypatch):
    """The sweep_lru_demand shape: 720 points share 24 I-sides and 15
    D-sides, each under both write policies. Each side that evicts runs one
    engine pass; the sides that never evict share one open pass per (side,
    block, fetch). A random side runs once too, since it is seeded from its
    own flags."""
    trace = gen_synthetic("mixed", 300, 5)
    baseline = baseline_metrics(trace)
    passes = count_passes(monkeypatch)
    sweep = dict(
        isize=cachesim.CACHE_SIZES, ibsize=(32,), iassoc=(1, 4, 16),
        dsize=cachesim.CACHE_SIZES, dbsize=(32,), dassoc=(4, 32), dwback=("a", "n"),
    )
    result = exhaustive(small_subspace(**sweep), trace, TABLE, DRAM, baseline)
    assert (len(result.ranked), len(result.infeasible)) == (720, 48)
    assert Counter(passes) == {
        ("engine", "d"): 6, ("engine", "i"): 4, ("open", "d"): 1, ("open", "i"): 1,
    }

    passes.clear()
    sub = small_subspace(
        isize=(512, 1024), irepl=("r",), iassoc=(1, 4),
        dsize=(512, 1024), dwback=("a", "n"),
    )
    result = exhaustive(sub, trace, TABLE, DRAM, baseline)
    assert len(result.ranked) == 16
    assert Counter(passes) == {
        ("engine", "d"): 2, ("engine", "i"): 3, ("open", "d"): 1, ("open", "i"): 1,
    }

    # A direct-mapped side has one victim, so its l, f and r twins share a
    # pass, whatever the seed base: one engine pass per (size, fetch) for
    # 512 and 1024 B, and one open pass per fetch for 4096 B, which never evicts.
    passes.clear()
    sub = small_subspace(
        isize=(512, 1024, 4096), irepl=("l", "f", "r"), iassoc=(1,), ifetch=("d", "m", "a"),
    )
    result = exhaustive(sub, trace, TABLE, DRAM, baseline, sim_seed_base=5)
    assert len(result.ranked) == 27
    assert Counter(passes) == {("engine", "d"): 1, ("engine", "i"): 6, ("open", "i"): 3}
    for r in result.ranked:
        assert r.metrics == readme_metrics(*replay_stats(r.config, trace, 5), r.config)


def test_sides_that_never_evict_share_one_open_pass(monkeypatch):
    """Every size, associativity and replacement policy of one (side,
    block, fetch) that never evicts reads one open pass, random sides under
    any seed base included."""
    trace = gen_synthetic("mixed", 300, 5)
    streams = SideStreams(trace)
    baseline = baseline_metrics(trace)
    passes = count_passes(monkeypatch)
    sub = small_subspace(
        isize=(8192, 16384, 65536), ibsize=(32,), irepl=("l", "f", "r"), iassoc=(2, 8, 32),
        ifetch=("a",), dsize=(16384, 65536), dbsize=(16,), drepl=("l", "r"), dassoc=(4, 64),
        dfetch=("m",),
    )
    for base in (0, 5):
        result = exhaustive(sub, streams, TABLE, DRAM, baseline, sim_seed_base=base)
        assert len(result.ranked) == 216
        for r in result.ranked[::13]:
            assert r.metrics == readme_metrics(*replay_stats(r.config, trace, base), r.config)
    assert Counter(passes) == {("open", "d"): 1, ("open", "i"): 1}

    # 512 B holds 16 blocks of 32 B, no fewer than the 14 the I-side reads,
    # but 2 ways of 8 sets overflow, so it runs the engine after the open pass.
    passes.clear()
    exhaustive(small_subspace(isize=(512, 8192), ibsize=(32,), iassoc=(2,), ifetch=("a",)),
               trace, TABLE, DRAM, baseline)
    assert Counter(passes) == {("engine", "d"): 1, ("engine", "i"): 1, ("open", "i"): 1}


def replay_stats(config, trace, rng_seed):
    """A point's (I, D) counters from a fresh CacheUnit replay of each side,
    with its own replacement policy and generator."""
    units = {
        side: CacheUnit(
            side, size, block, assoc, repl, fetch, wback,
            rng=random.Random(f"{rng_seed} {side} {size} {block} {assoc} {fetch}"),
        )
        for side, size, block, assoc, repl, fetch, wback in (
            ("i", config.isize, config.ibsize, config.iassoc, config.irepl, config.ifetch, "a"),
            ("d", config.dsize, config.dbsize, config.dassoc, config.drepl, config.dfetch,
             config.dwback),
        )
    }
    for record in trace:
        units["i" if record.kind == AccessKind.IFETCH else "d"].step(record)
    return units["i"].stats, units["d"].stats


def readme_metrics(istats, dstats, config, miss_mode=MissMode.DEMAND_PLUS_PREFETCH):
    """The README's T and E models written out term by term in its order,
    independently of objectives' pricing code."""
    It, Ie = TABLE.lookup(config.isize, config.ibsize, config.iassoc)
    Dt, De = TABLE.lookup(config.dsize, config.dbsize, config.dassoc)
    Ia, Da = istats.accesses, dstats.accesses
    Im, Dm = istats.demand_misses, dstats.demand_misses
    if miss_mode is MissMode.DEMAND_PLUS_PREFETCH:
        Im, Dm = Im + istats.prefetch_fills, Dm + dstats.prefetch_fills
    Il, Dl = config.ibsize, config.dbsize
    Tm, BW, P = DRAM.access_time, DRAM.bandwidth, DRAM.access_power
    T = Ia*It + Im*Tm + Im*Il/BW + Da*Dt + Dm*Tm + Dm*Dl/BW
    E = (Ia*Ie + Da*De + Im*Ie*Il + Dm*De*Dl
         + Im*(P*(Tm + Il/BW)) + Dm*(P*(Tm + Dl/BW)))
    return objectives.Metrics(T, E)


def test_exhaustive_prices_every_point_with_the_seed_base():
    """Each ranked point equals pricing it alone with sim_seed_base as the
    seed base, random sides included."""
    trace = gen_synthetic("mixed", 300, 4)
    baseline = baseline_metrics(trace)
    sub = small_subspace(
        isize=(512, 1024), irepl=("l", "r"), iassoc=(4,), drepl=("l", "f", "r"), dassoc=(4,),
        dwback=("a", "n"),
    )
    result = exhaustive(sub, trace, TABLE, DRAM, baseline, sim_seed_base=9)
    assert len(result.ranked) == 24
    for r in result.ranked:
        assert r.metrics == config_metrics(r.config, trace, TABLE, DRAM, rng_seed=9)


def test_exhaustive_two_point_space():
    trace = gen_synthetic("mixed", 1000, 2)
    result = exhaustive(
        small_subspace(dwback=("a", "n")), trace, TABLE, DRAM, baseline_metrics(trace)
    )
    assert len(result.ranked) == 2
    assert not result.infeasible


def test_exhaustive_sorted_and_deterministic():
    trace = gen_synthetic("mixed", 1000, 3)
    sub = small_subspace(isize=(512, 2048), ibsize=(8, 32), dwback=("a", "n"))
    a = exhaustive(sub, trace, TABLE, DRAM, baseline_metrics(trace))
    b = exhaustive(sub, trace, TABLE, DRAM, baseline_metrics(trace))
    fits = [r.fitness for r in a.ranked]
    assert fits == sorted(fits)
    assert [r.config for r in a.ranked] == [r.config for r in b.ranked]
    assert [r.fitness for r in a.ranked] == [r.fitness for r in b.ranked]


@st.composite
def listed_subspaces(draw, max_points=48):
    """Subspaces of at most max_points points over every policy class,
    each parameter's values listed in a drawn order."""
    values, room = {}, max_points
    for name in draw(st.permutations(list(DOMAINS))):
        most = min(len(DOMAINS[name]), 3, room)
        values[name] = tuple(draw(st.lists(st.sampled_from(DOMAINS[name]), min_size=1,
                                           max_size=most, unique=True)))
        room //= len(values[name])
    return Subspace(**values)


# A failure reports unshrunk: shrinking one took minutes.
@settings(max_examples=60, deadline=None,
          phases=[phase for phase in Phase if phase is not Phase.shrink])
@given(sub=listed_subspaces(),
       trace=st.builds(gen_synthetic, st.sampled_from(PROFILES), st.integers(20, 300),
                       st.integers(0, 2**32 - 1)),
       base=st.integers(0, 2**64 - 1))
def test_flag_ordered_walk_ranks_as_the_flag_text_sort(sub, trace, base):
    """exhaustive walks the points in flag-text order and sorts on fitness
    alone; that equals the rule it replaces, a sort on (fitness, flag
    text), bit for bit, while infeasible points keep flag-text order. So
    the result does not depend on the order each value list is given in."""
    configs = sorted(starmap(CacheConfig, product(*(getattr(sub, n) for n in DOMAINS))),
                     key=CacheConfig.to_flags)
    assert [CacheConfig(*i, *d) for (i, _), (d, _) in product(*sub.parts())] == configs
    baseline = baseline_metrics(trace)
    result = exhaustive(sub, trace, TABLE, DRAM, baseline, sim_seed_base=base)
    reversed_sub = Subspace(**{name: getattr(sub, name)[::-1] for name in DOMAINS})
    assert exhaustive(reversed_sub, trace, TABLE, DRAM, baseline, sim_seed_base=base) == result
    points = []
    for config in configs:
        if not geometry_problems(config):
            metrics = config_metrics(config, trace, TABLE, DRAM, rng_seed=base)
            points.append(oracle.RankedConfig(config, metrics, fitness(metrics, baseline)))
    expected = sorted(points, key=lambda r: (r.fitness, r.config.to_flags()))
    assert repr(result.ranked) == repr(tuple(expected))
    assert result.infeasible == tuple(
        (config, geometry_problems(config)) for config in configs if geometry_problems(config))


CLASSES = [(repl, fetch) for repl in DOMAINS["irepl"] for fetch in DOMAINS["ifetch"]]


@st.composite
def class_subspaces(draw, repl, fetch):
    """Subspaces of at most 64 points of small caches, both sides of the
    given policy class among others, both write policies; associativity 64
    makes some points infeasible."""
    def some(domain, first=None, most=2):
        drawn = draw(st.lists(st.sampled_from(domain), min_size=1, max_size=most, unique=True))
        return tuple(dict.fromkeys(drawn if first is None else (first, *drawn)))[:most]

    return Subspace(
        isize=some(cachesim.CACHE_SIZES[:3]), ibsize=some(cachesim.BLOCK_SIZES, most=1),
        irepl=some(DOMAINS["irepl"], repl), iassoc=some((1, 2, 4, 64)),
        ifetch=some(DOMAINS["ifetch"], fetch, most=1),
        dsize=some(cachesim.CACHE_SIZES[:3], most=1), dbsize=some(cachesim.BLOCK_SIZES, most=1),
        drepl=some(DOMAINS["drepl"], repl), dassoc=some((1, 2, 4, 64)),
        dfetch=some(DOMAINS["dfetch"], fetch, most=1), dwback=("a", "n"),
    )


# Each example replays up to 64 points record by record; a failure reports
# unshrunk.
@pytest.mark.parametrize("repl,fetch", CLASSES)
@settings(max_examples=15, deadline=None,
          phases=[phase for phase in Phase if phase is not Phase.shrink])
@given(data=st.data(),
       profile=st.sampled_from(PROFILES), records=st.integers(50, 300),
       trace_seed=st.integers(0, 2**32 - 1),
       bases=st.lists(st.integers(0, 2**64 - 1), min_size=2, max_size=2, unique=True),
       w_time=st.floats(0.0, 1.0), as_streams=st.booleans())
def test_exhaustive_equals_a_cacheunit_replay(repl, fetch, data, profile, records, trace_seed,
                                               bases, w_time, as_streams):
    """Independently of objectives' pricing: under both miss modes, each
    ranked point's metrics equal the README's models applied to a CacheUnit
    replay's counters, and its fitness equals fitness(), bit for bit.
    simulate raises the text of geometry_problems for each infeasible point, given
    records or a SideStreams, and a direct-mapped side's l, f and r twins
    share one memo entry. Both seed bases price through one SideStreams
    when as_streams."""
    sub = data.draw(class_subspaces(repl, fetch))
    trace = gen_synthetic(profile, records, trace_seed)
    streams = SideStreams(trace)
    weights = objectives.FitnessWeights(w_time)
    baseline = readme_metrics(*replay_stats(DEFAULT_BASELINE, trace, 0), DEFAULT_BASELINE)
    for base in bases:
        replays = {}
        for mode in MissMode:
            result = exhaustive(sub, streams if as_streams else trace, TABLE, DRAM, baseline,
                                weights, mode, sim_seed_base=base)
            assert len(result.ranked) + len(result.infeasible) == sub.cardinality()
            for r in result.ranked:
                if r.config not in replays:
                    replays[r.config] = replay_stats(r.config, trace, base)
                metrics = readme_metrics(*replays[r.config], r.config, mode)
                assert tuple(r.metrics) == tuple(metrics), (mode, r.config.to_flags())
                assert r.fitness == fitness(metrics, baseline, weights), r.config.to_flags()
    for config, problems in result.infeasible:
        assert problems == geometry_problems(config) and problems
        for given_trace in (trace, streams):
            with pytest.raises(InfeasibleConfigError) as info:
                simulate(config, given_trace, base)
            assert str(info.value) == "; ".join(problems)

    for r in result.ranked:
        for side in [side for side in "id" if getattr(r.config, side + "assoc") == 1]:
            twins = [simulate(r.config._replace(**{side + "repl": p}), streams, base)
                     for p in DOMAINS["irepl"]]
            got = [pair[side == "d"] for pair in twins]
            assert got[0] is got[1] is got[2], (side, r.config.to_flags())
    for memo in (streams._imemo, streams._dmemo):
        for (values, seed), pair in memo.items():
            size, block, _, assoc, fetch = values
            if assoc == 1:  # served by the one canonical entry: FIFO, seed base 0
                assert memo[(size, block, "f", 1, fetch), 0] is pair, (values, seed)


@settings(max_examples=200, deadline=None)
@given(sub=listed_subspaces(max_points=300))
def test_subspace_points_equal_checked_configs(sub):
    """exhaustive's walk over the product of Subspace.parts() and canonical
    from_flags build points from values already checked, without
    CacheConfig's domain test: each equals the checked point, is exactly a
    CacheConfig and hashes alike; and the parts' verdicts give geometry_problems's
    verdict on each point, which exhaustive ranks exactly when feasible. On
    an empty trace every point prices at 0, so the stable ranking keeps the
    walk's order, as the infeasible points do."""
    flag_order = sorted(starmap(CacheConfig, product(*(getattr(sub, n) for n in DOMAINS))),
                        key=CacheConfig.to_flags)
    verdicts = [not geometry_problems(c) for c in flag_order]
    result = exhaustive(sub, SideStreams([]), TABLE, DRAM, Metrics(1.0, 1.0))
    ranked = [r.config for r in result.ranked]
    infeasible = [config for config, _ in result.infeasible]
    parsed = [CacheConfig.from_flags(config.to_flags()) for config in flag_order]
    for built, want in ((ranked, [c for c, ok in zip(flag_order, verdicts) if ok]),
                        (infeasible, [c for c, ok in zip(flag_order, verdicts) if not ok]),
                        (parsed, flag_order)):
        assert built == want
        assert list(map(hash, built)) == list(map(hash, want))
    assert {type(config) for config in ranked + infeasible + parsed} == {CacheConfig}
    assert [i and d for (_, i), (_, d) in product(*sub.parts())] == verdicts


def count_simulations(monkeypatch) -> list:
    """Record the point of each objectives.simulate call, the seam that
    perfbench counts."""
    calls, real = [], objectives.simulate

    def counted(config, *args):
        calls.append(config)
        return real(config, *args)

    monkeypatch.setattr(objectives, "simulate", counted)
    return calls


def test_exhaustive_simulates_each_feasible_point_once(monkeypatch):
    """exhaustive calls objectives.simulate, looked up at call time, once
    per feasible point in walk order and never for an infeasible one."""
    trace = gen_synthetic("mixed", 300, 6)
    baseline = baseline_metrics(trace)
    calls = count_simulations(monkeypatch)
    sub = small_subspace(isize=(512, 1024), irepl=("l", "r"), iassoc=(1, 128),
                         dassoc=(1, 2, 128), dwback=("a", "n"))
    result = exhaustive(sub, trace, TABLE, DRAM, baseline)
    assert result.ranked and result.infeasible
    assert calls == sorted((r.config for r in result.ranked), key=CacheConfig.to_flags)


def test_a_baseline_point_inside_a_sweep_ranks_at_exactly_one():
    """The baseline priced inside a sweep has config_metrics's metrics and
    fitness exactly 1.0."""
    trace = gen_synthetic("mixed", 500, 7)
    baseline = config_metrics(DEFAULT_BASELINE, trace, TABLE, DRAM)
    sub = Subspace(isize=(512, 16384), ibsize=(32,), irepl=("l",), iassoc=(1, 4), ifetch=("d",),
                   dsize=(16384, 1024), dbsize=(32,), drepl=("l",), dassoc=(4, 32),
                   dfetch=("d",), dwback=("a", "n"))
    result = exhaustive(sub, trace, TABLE, DRAM, baseline, sim_seed_base=7)
    [point] = [r for r in result.ranked if r.config == DEFAULT_BASELINE]
    assert point.metrics == baseline
    assert point.fitness == 1.0


# I rows are (size, 8, assoc) and D rows (size, 16, assoc), so no row serves
# both sides. Walk order: I rows 2048/{1,128,2}, then 512/{1,2} (512/128 is
# infeasible); D parts 1024/{1,2} (1024/128 is infeasible), then 4096/{1,128,2}.
@pytest.mark.parametrize("missing", [
    [(512, 8, 2)],  # the last I row, met after every D part's terms are kept
    [(4096, 16, 2)],  # a D row, first met late in the first row
    [(2048, 8, 1), (1024, 16, 1)],  # the first point needs both: the I row is named
    [(512, 8, 1), (4096, 16, 128)],  # the D row is met first
])
def test_exhaustive_names_a_missing_row_where_config_metrics_does(monkeypatch, missing):
    """A missing row raises config_metrics's CharLookupError at the walk's
    first point that needs it, the I row first: the simulations before the
    error are the feasible points up to and including that point."""
    trace = gen_synthetic("mixed", 300, 8)
    table = CharTable(row for row in TABLE.rows() if row[0] not in missing)
    sub = small_subspace(isize=(2048, 512), iassoc=(1, 2, 128), dsize=(1024, 4096),
                         dbsize=(16,), dassoc=(1, 2, 128), dwback=("a", "n"))
    points = sorted(starmap(CacheConfig, product(*(getattr(sub, n) for n in DOMAINS))),
                    key=CacheConfig.to_flags)
    feasible = [config for config in points if not geometry_problems(config)]
    for reached, config in enumerate(feasible, 1):
        try:
            config_metrics(config, trace, table, DRAM)
        except CharLookupError as error:
            expected = str(error)
            break
    baseline = baseline_metrics(trace)
    calls = count_simulations(monkeypatch)
    with pytest.raises(CharLookupError) as info:
        exhaustive(sub, trace, table, DRAM, baseline)
    assert str(info.value) == expected
    assert calls == feasible[:reached]


def test_exhaustive_reports_infeasible_with_constraint():
    trace = gen_synthetic("mixed", 500, 4)
    sub = small_subspace(isize=(512,), ibsize=(64,), iassoc=(1, 128))
    result = exhaustive(sub, trace, TABLE, DRAM, baseline_metrics(trace))
    assert len(result.ranked) == 1
    assert len(result.infeasible) == 1
    config, problems = result.infeasible[0]
    assert config.iassoc == 128
    assert "I-cache" in problems[0]


def test_exhaustive_cap():
    trace = gen_synthetic("mixed", 100, 5)
    with pytest.raises(SubspaceCapError):
        exhaustive(Subspace(), trace, TABLE, DRAM, baseline_metrics(trace), cap=1000)


@pytest.mark.parametrize("cap", [0, -1])
def test_exhaustive_refuses_a_cap_below_one(cap):
    """A cap below 1 is named as such, not as a subspace over the cap,
    even for a one-point subspace."""
    trace = gen_synthetic("mixed", 100, 5)
    with pytest.raises(ValidationError, match=f"^cap must be >= 1, got {cap}$"):
        exhaustive(small_subspace(), trace, TABLE, DRAM, baseline_metrics(trace), cap=cap)


@pytest.mark.parametrize("sub", [
    small_subspace(isize=(512, 1024)),
    small_subspace(ibsize=(64,), iassoc=(128,)),
], ids=["feasible-points", "no-feasible-point"])
def test_exhaustive_refuses_a_bad_baseline_before_simulating(sub, monkeypatch):
    calls = []
    real = objectives.simulate
    monkeypatch.setattr(objectives, "simulate",
                        lambda *args: (calls.append(args), real(*args))[1])
    with pytest.raises(ValidationError, match="baseline metrics must be strictly positive"):
        exhaustive(sub, gen_synthetic("mixed", 100, 5), TABLE, DRAM, objectives.Metrics(0.0, 1.0))
    assert calls == []


def test_exhaustive_bounds_ge_best():
    trace = gen_synthetic("mixed", 2000, 6)
    sub = small_subspace(isize=(512, 65536), dsize=(512, 65536), dwback=("a", "n"))
    baseline = baseline_metrics(trace)
    result = exhaustive(sub, trace, TABLE, DRAM, baseline)
    grammar = parse_bnf(sub.grammar_text())
    for seed in range(3):
        evaluator = Evaluator(trace, TABLE, DRAM, DEFAULT_BASELINE)
        ge = evolve(GEParams(generations=5, population=8, rng_seed=seed),
                    grammar, evaluator)
        assert result.ranked[0].fitness <= ge.best.fitness


def test_reference_lru_cold_and_repeat():
    distinct = [TraceRecord(AccessKind.READ, 16 * i) for i in range(10)]
    assert reference_lru(distinct, capacity_blocks=10, block_size=16) == 10
    assert reference_lru(distinct, capacity_blocks=100, block_size=16) == 10
    repeat = [TraceRecord(AccessKind.READ, 0x40)] * 25
    assert reference_lru(repeat, capacity_blocks=1, block_size=16) == 1
    with pytest.raises(ValidationError):
        reference_lru(repeat, capacity_blocks=0)


@pytest.mark.parametrize("block_size", [0, -16])
def test_reference_lru_refuses_a_block_size_below_one(block_size):
    trace = gen_synthetic("mixed", 50, 1)
    with pytest.raises(ValidationError, match=f"block_size must be >= 1, got {block_size}"):
        reference_lru(trace, capacity_blocks=4, block_size=block_size)


def test_reference_lru_matches_cachesim():
    # fully associative LRU, demand fetch: 512 B / 16 B blocks / 32 ways
    config = CacheConfig(512, 8, "l", 64, "d", 512, 16, "l", 32, "d", "a")
    rng = random.Random(8)
    for _ in range(20):
        trace = [
            TraceRecord(rng.choice((AccessKind.READ, AccessKind.WRITE)),
                        rng.randrange(1 << 11) & ~0x3)
            for _ in range(500)
        ]
        _, dstats = simulate(config, trace)
        assert dstats.demand_misses == reference_lru(trace, 32, block_size=16)
