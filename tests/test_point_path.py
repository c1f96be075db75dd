"""Oracle tests for the per-point path: building, checking and pricing a
design point.

Each fast path is compared with the rule it replaces, written out here as
it stood before: flag text joined pair by pair, the general flag parser
(text in any other order), the per-side problem list of geometry_problems, and the
named range checks of the pricing inputs.
"""

import math
import pickle
import sys
import tempfile
from itertools import product
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cacheopt.cachesim import (
    ASSOCIATIVITIES,
    BLOCK_SIZES,
    CACHE_SIZES,
    DEFAULT_BASELINE,
    DOMAINS,
    FLAG_ORDER,
    CacheConfig,
    SimStats,
    geometry_problems,
    n_sets,
)
from cacheopt.charmodel import (
    CharTable,
    DramParams,
    load_dram_params,
    surrogate_generate,
)
from cacheopt.errors import CharTableError, ConfigError, ValidationError
from cacheopt.evolve import Evaluator
from cacheopt.objectives import Metrics
from cacheopt.oracle import Subspace
from cacheopt.trace import gen_synthetic

configs = st.builds(CacheConfig, *(st.sampled_from(domain) for domain in DOMAINS.values()))


def joined_flags(config: CacheConfig) -> str:
    return " ".join(f"{flag} {getattr(config, flag[4:])}" for flag in FLAG_ORDER)


@settings(max_examples=200, deadline=None)
@given(config=configs, order=st.permutations(range(len(FLAG_ORDER))))
def test_to_flags_matches_joined_pairs_and_round_trips(config, order):
    text = config.to_flags()
    assert text == joined_flags(config)
    assert CacheConfig.from_flags(text) == config
    pairs = text.split()
    shuffled = " ".join(f"{pairs[2 * i]} {pairs[2 * i + 1]}" for i in order)
    assert CacheConfig.from_flags(shuffled) == config


def raised(call, *args):
    """(type, message) of the exception call raises, or None."""
    try:
        call(*args)
    except Exception as exc:  # the type itself is compared
        return type(exc), str(exc)
    return None


@settings(max_examples=200, deadline=None)
@given(
    config=configs,
    name=st.sampled_from(list(DOMAINS)),
    bad=st.sampled_from(["3000", "big", "1024.0", "-4", "0x20", "q", "7"]),
    order=st.permutations(range(len(FLAG_ORDER))),
)
def test_canonical_text_with_a_bad_value_fails_as_any_order_does(config, name, bad, order):
    pairs = [(flag, bad if flag[4:] == name else str(getattr(config, flag[4:])))
             for flag in FLAG_ORDER]
    assume(list(order) != sorted(order))  # the other order takes the general parser
    canonical = " ".join(f"{flag} {value}" for flag, value in pairs)
    shuffled = " ".join(f"{pairs[i][0]} {pairs[i][1]}" for i in order)
    fast = raised(CacheConfig.from_flags, canonical)
    assert fast is not None and issubclass(fast[0], ValidationError)
    assert fast == raised(CacheConfig.from_flags, shuffled)
    assert name in fast[1]


@settings(max_examples=200, deadline=None)
@given(config=configs, name=st.sampled_from(list(DOMAINS)),
       bad=st.sampled_from([3000, 1024.5, -4, 7, "big", "q", None]))
def test_make_and_replace_check_as_the_constructor_does(config, name, bad):
    values = [bad if field == name else value for field, value in zip(DOMAINS, config)]
    built = raised(CacheConfig, *values)
    assert built is not None and built[0] is ConfigError and name in built[1]
    assert raised(CacheConfig._make, values) == built
    assert raised(lambda: config._replace(**{name: bad})) == built


@pytest.mark.parametrize("name, bad", [("iassoc", True), ("ibsize", 32.0), ("dsize", 16384.0)])
def test_a_design_value_must_have_its_domain_type(name, bad):
    """An equal value of another type is no domain value: its flag text
    would not round-trip."""
    values = [bad if field == name else value for field, value in zip(DOMAINS, DEFAULT_BASELINE)]
    built = raised(CacheConfig, *values)
    assert built == (ConfigError, f"{name}={bad!r} outside permitted set {DOMAINS[name]}")
    assert raised(CacheConfig._make, values) == built
    assert raised(lambda: DEFAULT_BASELINE._replace(**{name: bad})) == built
    assert raised(lambda: Subspace(**{name: (bad,)})) == built


def test_metrics_make_and_replace_check_as_the_constructor_does():
    metrics = Metrics(1.0, 2.0)
    assert raised(lambda: metrics._replace(exec_time=-1.0)) == raised(Metrics, -1.0, 2.0) == (
        ValidationError, "exec_time must be finite and >= 0, got -1.0"
    )
    assert raised(Metrics._make, (1.0, math.nan)) == raised(Metrics, 1.0, math.nan)
    assert metrics._replace(energy=3.0) == Metrics(1.0, 3.0)


@settings(max_examples=100, deadline=None)
@given(config=configs)
def test_config_is_the_tuple_of_its_values(config):
    values = tuple(getattr(config, name) for name in DOMAINS)
    assert tuple(config) == values
    assert config == values and hash(config) == hash(values)
    for record in (config, Metrics(1e-3, 2e-6)):
        copy = pickle.loads(pickle.dumps(record))
        assert copy == record and type(copy) is type(record)


def test_config_keywords_are_the_field_names():
    kwargs = dict(zip(DOMAINS, DEFAULT_BASELINE))
    assert CacheConfig(**kwargs) == DEFAULT_BASELINE
    kwargs["isze"] = kwargs.pop("isize")
    with pytest.raises(TypeError, match="isze"):
        CacheConfig(**kwargs)


def listed_problems(config: CacheConfig) -> tuple[str, ...]:
    """The problem list of geometry_problems, computed side by side as it always was."""
    problems = []
    for side, size, block, assoc in (
        ("I-cache", config.isize, config.ibsize, config.iassoc),
        ("D-cache", config.dsize, config.dbsize, config.dassoc),
    ):
        span = block * assoc
        if span > size:
            problems.append(
                f"{side}: block {block} B x {assoc} ways = {span} B exceeds cache size {size} B"
            )
    return tuple(problems)


def test_validate_verdict_matches_the_problem_list_on_every_geometry_pair():
    geometries = list(product(CACHE_SIZES, BLOCK_SIZES, ASSOCIATIVITIES))
    for (isize, ibsize, iassoc), (dsize, dbsize, dassoc) in product(geometries, repeat=2):
        config = CacheConfig(isize, ibsize, "l", iassoc, "d", dsize, dbsize, "l", dassoc, "d", "a")
        problems = geometry_problems(config)
        assert problems == listed_problems(config)
        assert (problems == ()) == (n_sets(isize, ibsize, iassoc) >= 1
                                    and n_sets(dsize, dbsize, dassoc) >= 1)


TOP = sys.float_info.max


# The range checks, each value tested by name against [0, TOP].
def named_check_counters(accesses, demand_misses, prefetch_fills):
    for name, value in (("accesses", accesses), ("demand_misses", demand_misses),
                        ("prefetch_fills", prefetch_fills)):
        if not 0 <= value <= TOP:
            raise ValidationError(f"counter {name} must be finite and >= 0, got {value!r}")


def named_metrics(exec_time, energy):
    for name, value in (("exec_time", exec_time), ("energy", energy)):
        if not 0 <= value <= TOP:
            raise ValidationError(f"{name} must be finite and >= 0, got {value!r}")


BIG = int(TOP)
EDGES = [math.nan, math.inf, -math.inf, -1, -0.0, 0, 0.0, 10**400, -(10**400),
         BIG, BIG + 1, 2**1024, sys.float_info.max, 5e-324, True]
values = st.one_of(st.sampled_from(EDGES), st.floats(), st.integers(),
                   st.integers(min_value=BIG - 10, max_value=2**1025))


@settings(max_examples=300, deadline=None)
@given(a=values, b=values, c=values)
def test_counter_checks_raise_as_the_named_check(a, b, c):
    named = raised(named_check_counters, a, b, c)
    assert raised(SimStats, a, b, c) == named
    assert raised(SimStats._make, (a, b, c, 4, 5, 6)) == named
    assert raised(lambda: SimStats()._replace(accesses=a, demand_misses=b,
                                              prefetch_fills=c)) == named
    if named is None:
        assert SimStats._make((a, b, c, 4, 5, 6)) == (a, b, c, 4, 5, 6)


@settings(max_examples=300, deadline=None)
@given(a=values, b=values)
def test_characterization_and_metrics_checks_raise_as_the_named_check(a, b):
    # Characterization values are checked once, when the table is built:
    # each must be positive and within float range, an int too.
    accepted = raised(CharTable, [((512, 8, 1), (a, b))]) is None
    assert accepted == (0 < a <= TOP and 0 < b <= TOP)
    assert raised(Metrics, a, b) == raised(named_metrics, a, b)


def dram_file_outcome(text: str):
    """raised() of load_dram_params on a file whose line 1 is text."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "dram.toml"
        path.write_text(text + "\n")
        return raised(load_dram_params, path)


@settings(max_examples=300, deadline=None)
@given(value=values)
def test_every_range_site_takes_one_rule_per_bound(value):
    """SimStats and Metrics accept [0, TOP]; DramParams, CharTable and a
    DRAM file accept (0, TOP]. Each refusal ends in one message per bound."""
    at_least_zero = [
        raised(SimStats, value),
        raised(SimStats._make, (0, 0, value, 0, 0, 0)),
        raised(lambda: SimStats()._replace(demand_misses=value)),
        raised(Metrics, 0.0, value),
    ]
    positive = [
        raised(lambda: DramParams(bandwidth=value)),
        raised(CharTable, [((512, 8, 1), (1e-9, value))]),
    ]
    if isinstance(value, float):  # a file value is read back exactly as float(repr(value))
        positive.append(dram_file_outcome(f"dram.access_power_w = {value!r}"))
    for outcomes, accepted, bound in ((at_least_zero, 0 <= value <= TOP, ">="),
                                      (positive, 0 < value <= TOP, ">")):
        for outcome in outcomes:
            if accepted:
                assert outcome is None
            else:
                assert issubclass(outcome[0], ValidationError)
                assert outcome[1].endswith(f" must be finite and {bound} 0, got {value!r}")


@pytest.mark.parametrize("value", [math.nan, math.inf, -1, 10**400,
                                   pytest.param(BIG + 1, id="BIG+1"),
                                   pytest.param(2**1024, id="2**1024")])
def test_bad_pricing_inputs_still_raise(value):
    assert raised(SimStats, value) == (
        ValidationError, f"counter accesses must be finite and >= 0, got {value!r}")
    assert raised(SimStats._make, (0, value, 0, 0, 0, 0)) == (
        ValidationError, f"counter demand_misses must be finite and >= 0, got {value!r}")
    assert raised(lambda: SimStats()._replace(prefetch_fills=value)) == (
        ValidationError, f"counter prefetch_fills must be finite and >= 0, got {value!r}")
    assert raised(Metrics, value, 1.0) == (
        ValidationError, f"exec_time must be finite and >= 0, got {value!r}")


@pytest.mark.parametrize("value", [pytest.param(10**5000, id="10**5000"),
                                   pytest.param(-(10**5000), id="-(10**5000)")])
def test_ints_too_long_for_text_are_refused_by_sign_and_bit_length(value):
    """Python gives no decimal text for an int over 4,300 digits, so the
    refusal names such an int by its sign and bit length, in the shared
    error type of each input."""
    shown = f"{'a negative' if value < 0 else 'an'} int of 16610 bits"
    assert raised(SimStats, value) == (
        ValidationError, f"counter accesses must be finite and >= 0, got {shown}")
    assert raised(Metrics, value, 1.0) == (
        ValidationError, f"exec_time must be finite and >= 0, got {shown}")
    assert raised(Metrics, 1.0, value) == (
        ValidationError, f"energy must be finite and >= 0, got {shown}")
    assert raised(lambda: DramParams(access_time=value)) == (
        ValidationError, f"dram access_time must be finite and > 0, got {shown}")
    assert raised(CharTable, [((16384, 32, 4), (1e-9, value))]) == (
        CharTableError, f"access_energy for (16384, 32, 4) must be finite and > 0, got {shown}")


TRACE = gen_synthetic("mixed", 200, 5)
TABLE = surrogate_generate(1)


@settings(max_examples=40, deadline=None)
@given(config=configs, gaps=st.lists(st.sampled_from([" ", "  ", "\t", " \n "]),
                                     min_size=23, max_size=23),
       canonical_first=st.booleans())
def test_canonical_and_spaced_phenotypes_share_one_memo_key(config, gaps, canonical_first):
    evaluator = Evaluator(TRACE, TABLE, DramParams(), DEFAULT_BASELINE)
    text = config.to_flags()
    spaced = gaps[0] + "".join(token + gap for token, gap in zip(text.split(), gaps[1:]))
    assert spaced != text
    order = [text, spaced, text, spaced] if canonical_first else [spaced, text, spaced, text]
    results = [evaluator.evaluate(phenotype) for phenotype in order]
    assert all(result is results[0] for result in results)
    stats = evaluator.stats()
    assert stats.unique_keys == 1
    assert stats.memo_hits == 3
    assert stats.sim_invocations == int(results[0].feasible)
