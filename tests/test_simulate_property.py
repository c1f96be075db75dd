"""Property tests: simulate against a step-by-step CacheUnit replay.

simulate runs each side over a prepared, run-merged block stream (a
fully associative side with prefetch over every access instead);
CacheUnit is the reference engine that applies one record at a time. The
two must agree on every SimStats field for every feasible configuration,
trace profile and seed, random replacement included.

A random-replacement side is seeded from the seed base and its own flags,
write policy left out; replay spells that rule out on its own.
"""

import random
from itertools import groupby, product
from operator import add, itemgetter

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from cacheopt import cachesim, objectives
from cacheopt.cachesim import (
    ASSOCIATIVITIES,
    BLOCK_SIZES,
    CACHE_SIZES,
    DEFAULT_BASELINE,
    FETCH_POLICIES,
    REPL_POLICIES,
    WRITE_POLICIES,
    CacheConfig,
    CacheUnit,
    SideStreams,
    SimStats,
    _open_counts,
    n_sets,
    simulate,
)
from cacheopt.charmodel import DramParams, surrogate_generate
from cacheopt.objectives import Metrics
from cacheopt.oracle import Subspace, exhaustive
from cacheopt.trace import PROFILES, AccessKind, TraceRecord, gen_synthetic, to_din

CLASSES = [(repl, fetch) for repl in REPL_POLICIES for fetch in FETCH_POLICIES]
PROPERTY = settings(max_examples=40, deadline=None)
TABLE = surrogate_generate(1)


def side_rng(base: int, side: str, size: int, block: int, assoc: int, fetch: str):
    """The generator of one random-replacement side."""
    return random.Random(f"{base} {side} {size} {block} {assoc} {fetch}")


def replay(config: CacheConfig, trace, rng_seed: int):
    """simulate's result computed record by record with CacheUnit."""
    icache = CacheUnit(
        "i", config.isize, config.ibsize, config.iassoc, config.irepl, config.ifetch,
        rng=side_rng(rng_seed, "i", config.isize, config.ibsize, config.iassoc, config.ifetch),
    )
    dcache = CacheUnit(
        "d", config.dsize, config.dbsize, config.dassoc, config.drepl, config.dfetch,
        wback=config.dwback,
        rng=side_rng(rng_seed, "d", config.dsize, config.dbsize, config.dassoc, config.dfetch),
    )
    for record in trace:
        (icache if record.kind == AccessKind.IFETCH else dcache).step(record)
    return icache.stats, dcache.stats


@st.composite
def geometry(draw, fully_associative: bool):
    """(size, block, assoc) of one feasible side."""
    if fully_associative:
        size, block = draw(st.sampled_from([
            (s, b) for s in CACHE_SIZES for b in BLOCK_SIZES if s // b in ASSOCIATIVITIES
        ]))
        return size, block, size // block
    size = draw(st.sampled_from(CACHE_SIZES))
    block = draw(st.sampled_from(BLOCK_SIZES))
    assoc = draw(st.sampled_from([a for a in ASSOCIATIVITIES if a * block <= size]))
    return size, block, assoc


@st.composite
def configs(draw, irepl, ifetch, drepl, dfetch, fully_associative=None):
    """A feasible configuration; each side is fully associative when
    fully_associative says so, or at random when it is None."""
    fa = [fully_associative if fully_associative is not None else draw(st.booleans())
          for _ in "id"]
    isize, ibsize, iassoc = draw(geometry(fa[0]))
    dsize, dbsize, dassoc = draw(geometry(fa[1]))
    return CacheConfig(
        isize, ibsize, irepl, iassoc, ifetch,
        dsize, dbsize, drepl, dassoc, dfetch, draw(st.sampled_from(WRITE_POLICIES)),
    )


traces = st.builds(
    gen_synthetic,
    st.sampled_from(PROFILES),
    st.integers(0, 600),
    st.integers(0, 2**32 - 1),
)
seeds = st.integers(0, 2**64 - 1)


def assert_matches_replay(config, trace, rng_seed):
    got = simulate(config, trace, rng_seed)
    want = replay(config, trace, rng_seed)
    assert [s._asdict() for s in got] == [s._asdict() for s in want], config.to_flags()


@pytest.mark.parametrize("repl,fetch", CLASSES)
@PROPERTY
@given(data=st.data(), trace=traces, rng_seed=seeds)
def test_simulate_matches_cacheunit_replay(repl, fetch, data, trace, rng_seed):
    other = data.draw(st.sampled_from(CLASSES))
    config = data.draw(configs(repl, fetch, *other))
    assert_matches_replay(config, trace, rng_seed)
    swapped = data.draw(configs(*other, repl, fetch))
    assert_matches_replay(swapped, trace, rng_seed)


@pytest.mark.parametrize("repl", REPL_POLICIES)
@pytest.mark.parametrize("fetch", ("m", "a"))
@PROPERTY
@given(data=st.data(), trace=traces, rng_seed=seeds)
def test_fully_associative_prefetch_matches_replay(repl, fetch, data, trace, rng_seed):
    """A prefetch lands in the block's own set here, so simulate must not
    merge runs of accesses to one block."""
    config = data.draw(configs(repl, fetch, repl, fetch, fully_associative=True))
    assert n_sets(config.isize, config.ibsize, config.iassoc) == 1
    assert n_sets(config.dsize, config.dbsize, config.dassoc) == 1
    assert_matches_replay(config, trace, rng_seed)


# LRU geometries of 2-128 ways in one set or a few, so a short trace evicts.
LRU_GEOMETRIES = {
    fully_associative: [(s, b, a) for s in CACHE_SIZES for b in BLOCK_SIZES
                        for a in ASSOCIATIVITIES[1:]
                        if n_sets(s, b, a) in ((1,) if fully_associative else (2, 4))]
    for fully_associative in (True, False)
}


@pytest.mark.parametrize("fully_associative", (True, False))
@pytest.mark.parametrize("fetch", FETCH_POLICIES)
@PROPERTY
@given(data=st.data())
def test_lru_engine_pass_matches_replay(fetch, fully_associative, data):
    """_run_side's LRU pass against a CacheUnit replay, on a side that
    evicts, so the open pass answers nothing. The trace is built while the
    replay runs: more blocks than ways in one set, a block of the next set,
    drawn accesses, a hit on a set's most recent block (no move), a hit on
    a block in the middle of a set's list (the first of two), and more
    drawn accesses. Only a fully associative `d` side never skips a move:
    its merged stream never repeats a block."""
    side = data.draw(st.sampled_from("id"))
    size, block, assoc = data.draw(st.sampled_from(LRU_GEOMETRIES[fully_associative]))
    n = n_sets(size, block, assoc)
    unit = CacheUnit(side, size, block, assoc, "l", fetch)
    trace = []

    def access(b: int) -> bool:
        write = side == "d" and data.draw(st.booleans())
        kind = AccessKind.IFETCH if side == "i" else AccessKind.WRITE if write else AccessKind.READ
        trace.append(TraceRecord(kind, b * block + data.draw(st.integers(0, block - 1))))
        return unit.step(trace[-1]).hit

    def hit(pick) -> None:
        """Access the block pick chooses from a set's tags, least recent
        first; a set other than the last access's if one holds a block."""
        last_set = (trace[-1].address // block) % n
        sets = [k for k in range(n) if unit.sets[k] and k != last_set] or [last_set]
        k = data.draw(st.sampled_from(sets))
        assert access(pick(list(unit.sets[k])) * n + k)

    home = data.draw(st.integers(0, n - 1))
    hot = [home + n * j for j in range(assoc + data.draw(st.integers(1, 3)))]
    pool = st.one_of(st.sampled_from(hot), st.integers(0, 4 * n * assoc))
    for b in [*hot, home + 1, *data.draw(st.lists(pool, max_size=60))]:
        access(b)
    hit(lambda tags: tags[-1])
    hit(lambda tags: tags[(len(tags) - 1) // 2])
    for b in data.draw(st.lists(pool, max_size=60)):
        access(b)
    streams = SideStreams(trace)
    assert _open_counts(streams, side, size, block, assoc, fetch) is None
    accesses, misses, fills, write_backs, dirty = cachesim._run_side(
        streams, side, size, block, assoc, "l", fetch, 0)
    assert SimStats(accesses, misses, fills, write_backs, 0, dirty) == unit.stats


@PROPERTY
@given(data=st.data(), trace=traces, rng_seed=seeds)
def test_trace_forms_give_equal_results(data, trace, rng_seed):
    """A generator, a list and a prebuilt SideStreams are the same trace."""
    config = data.draw(configs(*data.draw(st.sampled_from(CLASSES)),
                               *data.draw(st.sampled_from(CLASSES))))
    streams = SideStreams(trace)
    expected = simulate(config, trace, rng_seed)
    assert simulate(config, (r for r in trace), rng_seed) == expected
    assert simulate(config, streams, rng_seed) == expected
    assert simulate(config, streams, rng_seed) == expected  # streams reused


def spoil(stats) -> None:
    """Try to overwrite every counter, as a careless caller might: each
    assignment raises, so no caller can change a stored result."""
    for name in SimStats._fields:
        with pytest.raises(AttributeError):
            setattr(stats, name, -1)


@st.composite
def crossed_points(draw, repl, fetch):
    """Feasible points built from a few geometries and policy classes, so
    sides repeat and often differ from one another in a single flag. The
    first point's I-side and the second's D-side use (repl, fetch)."""
    # Small caches evict, so a random side's counters depend on its seed.
    size = draw(st.sampled_from(CACHE_SIZES[:3]))
    block = draw(st.sampled_from(BLOCK_SIZES))
    assoc = draw(st.sampled_from([a for a in ASSOCIATIVITIES if a * block <= size]))
    values = [{v, draw(st.sampled_from(domain))} for v, domain in
              zip((size, block, assoc), (CACHE_SIZES, BLOCK_SIZES, ASSOCIATIVITIES))]
    geometries = [g for g in product(*values) if n_sets(*g)]
    classes = [(repl, fetch), *draw(st.lists(st.sampled_from(CLASSES), min_size=1, max_size=2))]
    side = st.tuples(st.sampled_from(geometries), st.sampled_from(classes))
    rows = draw(st.lists(
        st.tuples(side, side, st.sampled_from(WRITE_POLICIES)), min_size=2, max_size=24,
    ))
    points = [
        CacheConfig(*igeo[:2], irepl, igeo[2], ifetch, *dgeo[:2], drepl, dgeo[2], dfetch, wback)
        for (igeo, (irepl, ifetch)), (dgeo, (drepl, dfetch)), wback in rows
    ]
    points[0] = points[0]._replace(irepl=repl, ifetch=fetch)
    points[1] = points[1]._replace(drepl=repl, dfetch=fetch)
    return points


# Each shrink step replays up to 24 points on a trace of up to 600 records,
# so shrinking a failure here takes minutes; it reports unshrunk instead.
@pytest.mark.parametrize("repl,fetch", CLASSES)
@settings(max_examples=15, deadline=None,
          phases=[phase for phase in Phase if phase is not Phase.shrink])
@given(
    data=st.data(),
    trace=st.builds(gen_synthetic, st.sampled_from(PROFILES), st.integers(100, 600),
                    st.integers(0, 2**32 - 1)),
    bases=st.lists(seeds, min_size=1, max_size=2),
)
def test_shared_side_memo_matches_fresh_streams(repl, fetch, data, trace, bases):
    """One SideStreams shared by many points and seed bases, in any order,
    gives what a fresh SideStreams per call gives; random sides mix with
    LRU/FIFO ones. Each point's write-policy twin, served from the pass the
    point just stored, matches a CacheUnit replay."""
    shared = SideStreams(trace)
    for config in data.draw(crossed_points(repl, fetch)):
        seed = data.draw(st.sampled_from(bases))
        got = simulate(config, shared, seed)
        want = simulate(config, SideStreams(trace), seed)
        assert [s._asdict() for s in got] == [s._asdict() for s in want], config.to_flags()
        twin = config._replace(dwback="n" if config.dwback == "a" else "a")
        twin_got = simulate(twin, shared, seed)
        want = replay(twin, trace, seed)
        assert [s._asdict() for s in twin_got] == [s._asdict() for s in want], twin.to_flags()
        for stats in (*got, *twin_got):
            spoil(stats)


@st.composite
def memo_points(draw):
    """Points over a pool of up to four small-cache sides, each free to
    serve as an I side or a D side; the first point has equal I and D
    value slices."""
    def side():
        size = draw(st.sampled_from(CACHE_SIZES[:3]))
        block = draw(st.sampled_from(BLOCK_SIZES))
        assoc = draw(st.sampled_from([a for a in ASSOCIATIVITIES if a * block <= size]))
        return (size, block, draw(st.sampled_from(REPL_POLICIES)), assoc,
                draw(st.sampled_from(FETCH_POLICIES)))

    pool = [side() for _ in range(draw(st.integers(1, 4)))]
    rows = draw(st.lists(st.tuples(st.sampled_from(pool), st.sampled_from(pool),
                                   st.sampled_from(WRITE_POLICIES)), max_size=12))
    return [CacheConfig(*i, *d, wback) for i, d, wback in [(pool[0], pool[0], "a"), *rows]]


def as_dicts(pair) -> list[dict]:
    return [s._asdict() for s in pair]


# Each example replays its mirrored points record by record; a failure
# reports unshrunk.
@settings(max_examples=25, deadline=None,
          phases=[phase for phase in Phase if phase is not Phase.shrink])
@given(
    data=st.data(),
    trace=st.builds(gen_synthetic, st.sampled_from(PROFILES), st.integers(100, 400),
                    st.integers(0, 2**32 - 1)),
    bases=st.lists(seeds, min_size=2, max_size=2, unique=True),
)
def test_side_memo_keeps_each_side_in_its_own_entry(data, trace, bases):
    """One warmed SideStreams answers random points under two seed bases as
    a fresh SideStreams per point does, and a point whose I and D slices
    are equal as a CacheUnit replay does: no side is served the other
    side's entry. A direct-mapped side's l, f and r twins under either base
    return one stored SimStats; a random side keeps one entry per seed
    base; an LRU or FIFO side serves both bases from one pass, and no
    distinct side runs two engine passes."""
    shared, passes, real_run_side = SideStreams(trace), [], cachesim._run_side

    def counting(streams, side, size, block, assoc, repl, fetch, rng_seed):
        if streams is shared:
            passes.append((side, size, block, assoc, repl, fetch, rng_seed if repl == "r" else 0))
        return real_run_side(streams, side, size, block, assoc, repl, fetch, rng_seed)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cachesim, "_run_side", counting)
        for config in data.draw(memo_points()):
            got = [simulate(config, shared, base) for base in bases]
            for base, pair in zip(bases, got):
                assert as_dicts(pair) == as_dicts(simulate(config, SideStreams(trace), base))
            if config[:5] == config[5:10]:
                assert as_dicts(got[0]) == as_dicts(replay(config, trace, bases[0]))
            for k, side in enumerate("id"):
                _, _, repl, assoc, _ = config[5 * k:5 * k + 5]
                first, second = got[0][k], got[1][k]
                if assoc == 1:
                    twins = [simulate(config._replace(**{side + "repl": twin}), shared, base)[k]
                             for twin in REPL_POLICIES for base in bases]
                    assert all(stats is first for stats in twins), config.to_flags()
                elif repl == "r":
                    assert first is not second, config.to_flags()
                else:
                    assert first is second, config.to_flags()
    assert len(set(passes)) == len(passes)


@st.composite
def random_side_subspaces(draw, fetch):
    """Up to two values for each flag of a small-cache subspace; both
    sides can be random with fetch, and both write policies appear."""
    def some(domain):
        return tuple(draw(st.sets(st.sampled_from(domain), min_size=1, max_size=2)))

    def policies(domain, first):
        return (first, *{draw(st.sampled_from(domain))} - {first})

    return Subspace(
        isize=some(CACHE_SIZES[:3]), ibsize=some(BLOCK_SIZES),
        irepl=policies(REPL_POLICIES, "r"), iassoc=some(ASSOCIATIVITIES[:5]),
        ifetch=policies(FETCH_POLICIES, fetch),
        dsize=some(CACHE_SIZES[:3]), dbsize=some(BLOCK_SIZES),
        drepl=policies(REPL_POLICIES, "r"), dassoc=some(ASSOCIATIVITIES[:5]),
        dfetch=policies(FETCH_POLICIES, fetch), dwback=WRITE_POLICIES,
    )


@pytest.mark.parametrize("fetch", FETCH_POLICIES)
@settings(max_examples=15, deadline=None)
@given(
    data=st.data(),
    trace=st.builds(gen_synthetic, st.sampled_from(PROFILES), st.integers(100, 600),
                    st.integers(0, 2**32 - 1)),
    base=seeds,
)
def test_random_side_depends_only_on_its_own_flags(fetch, data, trace, base):
    """As exhaustive prices a subspace, a random side's counters stay the
    same whatever the other side's flags are, and a random D-side has the
    same accesses, demand misses and prefetch fills under either write
    policy."""
    sub = data.draw(random_side_subspaces(fetch))
    priced = []

    def recording_simulate(config, trace, rng_seed=0):
        result = simulate(config, trace, rng_seed)
        priced.append((config, *result))
        return result

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(objectives, "simulate", recording_simulate)
        exhaustive(sub, trace, TABLE, DramParams(), Metrics(1.0, 1.0), sim_seed_base=base)
    isides, dsides = {}, {}
    for config, istats, dstats in priced:
        if config.irepl == "r":
            key = (config.isize, config.ibsize, config.iassoc, config.ifetch)
            assert isides.setdefault(key, istats) == istats, config.to_flags()
        if config.drepl == "r":
            key = (config.dsize, config.dbsize, config.dassoc, config.dfetch)
            counts = (dstats.accesses, dstats.demand_misses, dstats.prefetch_fills)
            assert dsides.setdefault(key, counts) == counts, config.to_flags()


def replay_side(trace, side, size, block, assoc, repl, fetch, rng_seed):
    """One side's CacheUnit after a replay of its records."""
    unit = CacheUnit(side, size, block, assoc, repl, fetch,
                     rng=side_rng(rng_seed, side, size, block, assoc, fetch))
    for record in trace:
        if (record.kind == AccessKind.IFETCH) == (side == "i"):
            unit.step(record)
    return unit


def assert_open_pass_matches(streams, trace, side, size, block, assoc, repl, fetch, rng_seed):
    """_open_counts answers exactly when the replay fills no more blocks
    than it holds at the end (it never evicted), and then with its counters."""
    got = _open_counts(streams, side, size, block, assoc, fetch)
    unit = replay_side(trace, side, size, block, assoc, repl, fetch, rng_seed)
    filled = unit.stats.demand_misses + unit.stats.prefetch_fills
    evicted = filled > sum(map(len, unit.sets))
    where = (side, size, block, assoc, repl, fetch)
    assert (got is None) == evicted, where
    if got is not None:
        accesses, misses, fills, write_backs, dirty = got
        assert SimStats(accesses, misses, fills, write_backs, 0, dirty) == unit.stats, where


# Shrinking a failure here still takes up to half a minute, so it reports
# unshrunk, within seconds.
@pytest.mark.parametrize("repl,fetch", CLASSES)
@settings(max_examples=25, deadline=None,
          phases=[phase for phase in Phase if phase is not Phase.shrink])
@given(
    data=st.data(),
    trace=st.builds(gen_synthetic, st.sampled_from(PROFILES), st.integers(0, 300),
                    st.integers(0, 2**32 - 1)),
    blocks=st.lists(st.sampled_from(BLOCK_SIZES), min_size=1, max_size=2),
    rng_seed=seeds,
)
def test_open_pass_answers_exactly_when_replay_never_evicts(
    repl, fetch, data, trace, blocks, rng_seed,
):
    """The first side uses (repl, fetch), later ones any class. All share
    one SideStreams and at most two block sizes, so they also read each
    other's distinct-block counts, open passes and set shares; fully
    associative geometries put the prefetch of block b+1 in b's own set."""
    streams = SideStreams(trace)
    classes = [(repl, fetch), *data.draw(st.lists(st.sampled_from(CLASSES), max_size=5))]
    for side_repl, side_fetch in classes:
        side = data.draw(st.sampled_from("id"))
        block = data.draw(st.sampled_from(blocks))
        size = data.draw(st.sampled_from([s for s in CACHE_SIZES if s >= block]))
        assocs = [a for a in ASSOCIATIVITIES if a * block <= size]
        assoc = data.draw(st.sampled_from([assocs[-1], *assocs]))  # often fully associative
        assert_open_pass_matches(
            streams, trace, side, size, block, assoc, side_repl, side_fetch, rng_seed,
        )


@pytest.mark.parametrize("fetch", FETCH_POLICIES)
def test_open_pass_keeps_a_prefetched_successor_dirty(fetch):
    """A prefetch that finds block b+1 resident leaves its dirty flag."""
    trace = [TraceRecord(AccessKind.WRITE, 8), TraceRecord(AccessKind.READ, 0)]
    streams = SideStreams(trace)
    for repl in REPL_POLICIES:
        assert_open_pass_matches(streams, trace, "d", 512, 8, 4, repl, fetch, 0)
    assert _open_counts(streams, "d", 512, 8, 4, fetch)[4] == 1


@pytest.mark.parametrize("blocks", [63, 64, 65])
def test_open_pass_at_the_capacity_edge(blocks):
    """A fully associative 512 B side of 8 B blocks holds 64 blocks. An
    I-side reads `blocks` distinct blocks in a row, twice. Under `a` it also
    fills the last block's successor, so 64 blocks evict. Under `m` every
    odd block was prefetched by its predecessor and prefetches nothing, so
    only an even last block (65 blocks) fills one more. One SideStreams
    serves every fetch policy and both block sizes, so no memo may mix
    their counts or shares."""
    trace = [TraceRecord(AccessKind.IFETCH, 8 * b) for b in range(blocks)] * 2
    streams = SideStreams(trace)
    for fetch in FETCH_POLICIES:
        for repl in REPL_POLICIES:
            assert_open_pass_matches(streams, trace, "i", 512, 8, 64, repl, fetch, 0)
        fits = blocks == 63 or (blocks == 64 and fetch != "a")
        assert (_open_counts(streams, "i", 512, 8, 64, fetch) is not None) == fits
    for repl, fetch in CLASSES:  # the same addresses in 16 B blocks: 32 or 33 of them
        assert_open_pass_matches(streams, trace, "i", 512, 16, 32, repl, fetch, 0)


def test_mutating_a_result_leaves_the_side_memo_alone():
    trace = gen_synthetic("mixed", 400, 1)
    streams = SideStreams(trace)
    config = DEFAULT_BASELINE._replace(dwback="n")
    first = simulate(config, streams)
    expected = [s._asdict() for s in first]
    assert expected[1]["write_throughs"] > 0
    for stats in first:
        spoil(stats)
    again = simulate(config, streams)
    assert again[0] is first[0] and again[1] is first[1]  # a hit returns the stored SimStats
    assert [s._asdict() for s in again] == expected
    # Another point with the same I-side reads the same stored counters.
    istats, _ = simulate(config._replace(dsize=512), streams)
    assert istats is first[0]


def reference_blocks(records, side: str, block: int) -> tuple[list[int], list[int]]:
    """One side's block stream by groupby: per run of consecutive accesses
    to one block, the block number and the OR of the run's write flags."""
    shift = block.bit_length() - 1
    accesses = [(r.address >> shift, r.kind == AccessKind.WRITE) for r in records
                if (r.kind == AccessKind.IFETCH) == (side == "i")]
    runs = [(b, any(w for _, w in run)) for b, run in groupby(accesses, key=itemgetter(0))]
    return [b for b, _ in runs], [int(w) for _, w in runs]


# Byte addresses near a few bases, so runs of one block are common, some
# at and above 2**32 and up to the last din address.
addresses = st.builds(
    add,
    st.sampled_from([0, 2**32 - 128, 2**32, 2**48, 2**64 - 256]),
    st.integers(0, 255),
)


@PROPERTY
@given(records=st.lists(st.builds(TraceRecord, st.sampled_from(AccessKind), addresses),
                        max_size=200))
def test_block_streams_match_a_grouped_reference(records):
    """Streams built from records and from din text hold, for each side
    and block size, the reference's block stream; I-side flags are all 0."""
    din = to_din(records).splitlines(keepends=True)
    for streams in (SideStreams(records), SideStreams.from_din(din)):
        for side in "id":
            for block in BLOCK_SIZES:
                blocks, flags = streams.blocks(side, block)
                assert (list(blocks), list(flags)) == reference_blocks(records, side, block)
                if side == "i":
                    assert not any(flags)


def test_stream_cache_keeps_one_merged_stream_per_side_and_block():
    """Every class at every block size, fully associative sides with `m`
    and `a` included, leaves only (side, block) streams in the cache, none
    longer than its side's merged stream: the per-access stream a fully
    associative prefetch pass reads is not kept."""
    trace = gen_synthetic("mixed", 600, 5)
    streams = SideStreams(trace)
    for block in BLOCK_SIZES:
        for (repl, fetch), fully_associative in product(CLASSES, (True, False)):
            assoc = 512 // block if fully_associative else 2
            simulate(CacheConfig(512, block, repl, assoc, fetch,
                                 512, block, repl, assoc, fetch, "a"), streams)
    assert set(streams._blocks) == set(product("id", BLOCK_SIZES))
    for (side, block), (blocks, flags) in streams._blocks.items():
        merged, _ = reference_blocks(trace, side, block)
        assert len(blocks) == len(flags) == len(merged)
    assert len(streams._blocks["i", 8][0]) < len(streams.iaddrs)  # runs did merge
