"""Property tests: simulate against a step-by-step CacheUnit replay.

simulate runs each side over a prepared, run-merged block stream;
CacheUnit is the reference engine that applies one record at a time. The
two must agree on every SimStats field for every feasible configuration,
trace profile and seed, random replacement included.
"""

import random
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cacheopt.cachesim import (
    ASSOCIATIVITIES,
    BLOCK_SIZES,
    CACHE_SIZES,
    FETCH_POLICIES,
    REPL_POLICIES,
    WRITE_POLICIES,
    CacheConfig,
    CacheUnit,
    SideStreams,
    n_sets,
    simulate,
)
from cacheopt.trace import PROFILES, AccessKind, gen_synthetic

CLASSES = [(repl, fetch) for repl in REPL_POLICIES for fetch in FETCH_POLICIES]
PROPERTY = settings(max_examples=40, deadline=None)


def replay(config: CacheConfig, trace, rng_seed: int):
    """simulate's result computed record by record with CacheUnit."""
    master = random.Random(rng_seed)
    icache = CacheUnit(
        "i", config.isize, config.ibsize, config.iassoc, config.irepl, config.ifetch,
        rng=random.Random(master.getrandbits(64)),
    )
    dcache = CacheUnit(
        "d", config.dsize, config.dbsize, config.dassoc, config.drepl, config.dfetch,
        wback=config.dwback, rng=random.Random(master.getrandbits(64)),
    )
    for record in trace:
        (icache if record.kind == AccessKind.IFETCH else dcache).step(record)
    dcache.stats.final_flush = dcache.count_dirty()
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
    assert [asdict(s) for s in got] == [asdict(s) for s in want], config.to_flags()


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
