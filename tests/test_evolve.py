import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cacheopt.evolve as EVOLVE
from cacheopt.cachesim import DEFAULT_BASELINE, CacheConfig
from cacheopt.charmodel import DramParams, surrogate_generate
from cacheopt.cli import RunConfig, run_optimize
from cacheopt.errors import FlagTextError, ValidationError
from cacheopt.evolve import (
    Evaluator,
    GEParams,
    Individual,
    MemoStats,
    evolve,
    memo_key,
    random_genotype,
)
from cacheopt.grammar import DEFAULT_GRAMMAR, map_genotype, parse_bnf
from cacheopt.objectives import INFEASIBLE_FITNESS, FitnessWeights, MissMode
from cacheopt.oracle import Subspace
from cacheopt.trace import gen_synthetic

GRAMMAR = parse_bnf(DEFAULT_GRAMMAR)


def make_evaluator(trace_len=2000, trace_seed=3, table_seed=1, **kwargs) -> Evaluator:
    return Evaluator(
        gen_synthetic("mixed", trace_len, trace_seed),
        surrogate_generate(table_seed),
        DramParams(),
        DEFAULT_BASELINE,
        **kwargs,
    )


class ScriptedRng:
    """random.Random stand-in replaying fixed randrange draws."""

    def __init__(self, draws):
        self.draws = list(draws)

    def randrange(self, n):
        return self.draws.pop(0)


def test_module_import_is_not_hidden_by_the_loop_function():
    import cacheopt.evolve as ev

    assert ev is EVOLVE
    assert ev.Evaluator is Evaluator
    assert ev.evolve is evolve and callable(ev.evolve)


# --- params ---------------------------------------------------------------

def test_geparams_defaults_match_run_recipe():
    params = GEParams()
    assert (params.generations, params.population) == (100, 50)
    assert (params.p_crossover, params.p_mutation) == (0.9, 0.01)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"generations": 0},
        {"population": 1},
        {"p_crossover": 1.5},
        {"p_mutation": -0.1},
        {"elitism": 50},
        {"tournament_size": 0},
        {"max_wraps": 0},
        {"codon_count": 0},
    ],
)
def test_geparams_validation(kwargs):
    with pytest.raises(ValidationError):
        GEParams(**kwargs)


# --- operators --------------------------------------------------------------
# The reference that _next_generation is checked against: the loop inlines
# these, making the same draws in the same order.

def tournament(population, size, rng):
    """Lowest-fitness winner among `size` contestants drawn with replacement;
    ties go to the lower population index."""
    n = len(population)
    best = None
    for _ in range(size):
        i = rng.randrange(n)
        if best is None or (population[i].fitness, i) < (population[best].fitness, best):
            best = i
    return population[best]


def single_point_crossover(a, b, cut):
    """Swap tails at `cut`; cut must lie in [1, len-1]."""
    return a[:cut] + b[cut:], b[:cut] + a[cut:]


def crossover(a, b, rng, p_crossover):
    """With probability p_crossover swap tails at one shared cut point,
    otherwise return copies. Genotypes shorter than 2 are always copied."""
    if len(a) < 2 or len(b) < 2 or rng.random() >= p_crossover:
        return list(a), list(b)
    cut = rng.randint(1, min(len(a), len(b)) - 1)
    return single_point_crossover(a, b, cut)


def mutate(genotype, p_mutation, rng):
    """Redraw each codon uniformly from [0, 255] with probability p_mutation."""
    return [rng.randrange(256) if rng.random() < p_mutation else c for c in genotype]


def test_tournament_picks_lowest_fitness():
    pop = [Individual([0], fitness=0.9), Individual([1], fitness=0.4)]
    winner = tournament(pop, 2, ScriptedRng([0, 1]))  # both sampled
    assert winner.fitness == 0.4


def test_tournament_population_of_one():
    pop = [Individual([0], fitness=0.7)]
    assert tournament(pop, 2, ScriptedRng([0, 0])) is pop[0]


def test_tournament_tie_breaks_by_index():
    pop = [Individual([0], fitness=0.5), Individual([1], fitness=0.5)]
    assert tournament(pop, 2, ScriptedRng([1, 0])) is pop[0]


def test_single_point_crossover_cut():
    a, b = [1, 2, 3, 4], [5, 6, 7, 8]
    c, d = single_point_crossover(a, b, 2)
    assert c == [1, 2, 7, 8]
    assert d == [5, 6, 3, 4]


def test_crossover_probability_zero_copies():
    rng = random.Random(0)
    a, b = [1, 2, 3, 4], [5, 6, 7, 8]
    c, d = crossover(a, b, rng, 0.0)
    assert c == a and d == b
    assert c is not a and d is not b


def test_crossover_children_are_positional():
    rng = random.Random(1)
    for _ in range(100):
        a = random_genotype(11, rng)
        b = random_genotype(11, rng)
        c, d = crossover(a, b, rng, 0.9)
        for i in range(11):
            assert c[i] in (a[i], b[i])
            assert d[i] in (a[i], b[i])
            assert {c[i], d[i]} == {a[i], b[i]}


def test_mutate_identity_at_zero():
    rng = random.Random(2)
    g = random_genotype(20, rng)
    assert mutate(g, 0.0, rng) == g


def test_mutate_redraws_all_at_one():
    rng = random.Random(3)
    g = [999 % 256 for _ in range(16)]
    out = mutate(list(g), 1.0, rng)
    assert len(out) == 16
    assert all(0 <= c <= 255 for c in out)


def test_mutate_rate_within_binomial_band():
    # >= 1e4 trials; a redraw matches the old codon 1/256 of the time, so the
    # observed change count sits just under draws*p but inside the 3-sigma band.
    rng = random.Random(4)
    trials, length, p = 10_000, 10, 0.1
    changed = 0
    for _ in range(trials):
        g = random_genotype(length, rng)
        changed += sum(1 for x, y in zip(g, mutate(g, p, rng)) if x != y)
    draws = trials * length
    sigma = math.sqrt(draws * p * (1 - p))
    assert abs(changed - draws * p) <= 3 * sigma


# --- breeding loop -----------------------------------------------------------

def reference_next_generation(population, params, rng):
    """A generation bred by composing the reference operators."""
    order = sorted(range(len(population)), key=lambda i: (population[i].fitness, i))
    new_pop = [population[i] for i in order[: params.elitism]]
    while len(new_pop) < params.population:
        p1 = tournament(population, params.tournament_size, rng)
        p2 = tournament(population, params.tournament_size, rng)
        g1, g2 = crossover(p1.genotype, p2.genotype, rng, params.p_crossover)
        new_pop.append(Individual(mutate(g1, params.p_mutation, rng)))
        if len(new_pop) < params.population:
            new_pop.append(Individual(mutate(g2, params.p_mutation, rng)))
    return new_pop


def assert_breeds_like_the_operators(population, params, seed):
    """_next_generation gives the reference's genotypes, keeps the same
    elites, and leaves the generator where the reference leaves it."""
    rng, ref_rng = random.Random(seed), random.Random(seed)
    got = EVOLVE._next_generation(population, params, rng)
    want = reference_next_generation(population, params, ref_rng)
    assert [ind.genotype for ind in got] == [ind.genotype for ind in want]
    assert got[: params.elitism] == want[: params.elitism]
    assert all(ind.fitness is None for ind in got[params.elitism:])
    assert rng.getstate() == ref_rng.getstate()


@settings(max_examples=300, deadline=None)
@given(
    size=st.integers(2, 60),
    elitism=st.integers(0, 59),
    tournament_size=st.integers(1, 4),
    p_crossover=st.sampled_from([0.0, 0.01, 0.5, 1.0]),
    p_mutation=st.sampled_from([0.0, 0.01, 0.5, 1.0]),
    codon_count=st.integers(1, 20),
    population_seed=st.integers(0, 2**32 - 1),
    seed=st.integers(0, 2**64 - 1),
)
def test_next_generation_breeds_like_the_operators(
    size, elitism, tournament_size, p_crossover, p_mutation, codon_count, population_seed, seed,
):
    params = GEParams(
        population=size, elitism=elitism % size, tournament_size=tournament_size,
        p_crossover=p_crossover, p_mutation=p_mutation, codon_count=codon_count,
    )
    # Few fitness values, so tournaments and the elite sort meet ties. Library
    # callers may breed genotypes of other lengths: crossover cuts within the
    # shorter one and never cuts one shorter than 2.
    rng = random.Random(population_seed)
    population = [
        Individual(
            random_genotype(codon_count if rng.random() < 0.5 else rng.randint(1, codon_count), rng),
            fitness=rng.choice([0.25, 0.5, 0.75, 1.0, INFEASIBLE_FITNESS]),
        )
        for _ in range(size)
    ]
    assert_breeds_like_the_operators(population, params, seed)


@pytest.mark.parametrize("width", [1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 64, 65, 128])
def test_inline_draws_are_randrange_and_randint(width):
    """The loop draws tournament indices as Random.randrange(n) and the cut
    as Random.randint(1, w) do, for n and w on both sides of each power of
    two: a population of `width` individuals, genotypes of width + 1 codons."""
    population = [Individual(list(range(i, i + width + 1)), fitness=float(i % 3))
                  for i in range(width)]
    params = GEParams(population=max(width, 2), elitism=0, tournament_size=2,
                      p_crossover=1.0, p_mutation=0.5, codon_count=width + 1)
    for seed in range(40):
        assert_breeds_like_the_operators(population, params, seed)


# --- evaluator ---------------------------------------------------------------

def test_memo_key_normalizes_whitespace():
    text = DEFAULT_BASELINE.to_flags()
    assert memo_key("  " + text.replace(" ", "   ") + "\n") == text


def test_same_config_same_key_different_dwback_differs():
    zeros = map_genotype([0] * 11, GRAMMAR)
    idents = map_genotype([8, 4, 3, 8, 3, 8, 4, 3, 8, 3, 2], GRAMMAR)
    assert memo_key(zeros) == memo_key(idents)
    flipped = map_genotype([0] * 10 + [1], GRAMMAR)
    assert memo_key(zeros) != memo_key(flipped)


def test_evaluator_memoizes():
    evaluator = make_evaluator()
    key = DEFAULT_BASELINE.to_flags()
    first = evaluator.evaluate(key)
    second = evaluator.evaluate(key)
    assert first == second
    stats = evaluator.stats()
    assert stats.sim_invocations == 1
    assert stats.memo_hits == 1
    assert first.fitness == pytest.approx(1.0, abs=1e-12)  # baseline vs itself


def test_evaluator_keys_one_config_once():
    # Non-canonical integer spellings are refused, not simulated as new keys.
    evaluator = make_evaluator(trace_len=200)
    text = DEFAULT_BASELINE.to_flags()
    evaluator.evaluate(text)
    for token in ("016384", "16_384", "+16384"):
        with pytest.raises(FlagTextError, match=f"-l1-isize .*'{re.escape(token)}'"):
            evaluator.evaluate(text.replace("-l1-isize 16384", f"-l1-isize {token}"))
    assert evaluator.stats() == MemoStats(
        unique_keys=1, sim_invocations=1, memo_hits=0
    )


def test_evaluator_failed_compute_stores_nothing(monkeypatch):
    evaluator = make_evaluator()
    key = DEFAULT_BASELINE.to_flags()

    def fail(*args, **kwargs):
        raise RuntimeError("pricing failed")

    with monkeypatch.context() as m:
        m.setattr(EVOLVE, "config_metrics", fail)
        with pytest.raises(RuntimeError):
            evaluator.evaluate(key)
    assert evaluator.stats().unique_keys == 0
    assert evaluator.evaluate(key).feasible
    assert evaluator.stats().sim_invocations == 1
    assert evaluator.stats().memo_hits == 0


def test_evaluator_marks_infeasible():
    evaluator = make_evaluator()
    bad = DEFAULT_BASELINE.to_flags().replace(
        "-l1-isize 16384", "-l1-isize 512"
    ).replace("-l1-iassoc 4", "-l1-iassoc 64")
    result = evaluator.evaluate(bad)
    assert result.feasible is False
    assert result.metrics is None
    assert result.fitness == INFEASIBLE_FITNESS
    assert evaluator.stats().sim_invocations == 0


# --- evolve -----------------------------------------------------------------

def test_evolve_degenerate_returns_better_initial():
    params = GEParams(generations=1, population=2, p_crossover=0.0,
                      p_mutation=0.0, rng_seed=7)
    result = evolve(params, GRAMMAR, make_evaluator())
    # replay the initialization stream independently
    rng = random.Random(7)
    genotypes = [random_genotype(11, rng) for _ in range(2)]
    evaluator = make_evaluator()
    expected = min(
        evaluator.evaluate(map_genotype(g, GRAMMAR)).fitness for g in genotypes
    )
    assert result.best.fitness == expected
    assert len(result.log) == 1


def test_evolve_deterministic_per_seed():
    params = GEParams(generations=6, population=10, rng_seed=11)
    a = evolve(params, GRAMMAR, make_evaluator())
    b = evolve(params, GRAMMAR, make_evaluator())
    assert a.best.phenotype == b.best.phenotype
    assert a.log == b.log
    c = evolve(GEParams(generations=6, population=10, rng_seed=12),
               GRAMMAR, make_evaluator())
    assert c.log != a.log


def test_evolve_best_is_monotone_with_elitism():
    params = GEParams(generations=12, population=10, rng_seed=5)
    result = evolve(params, GRAMMAR, make_evaluator())
    bests = [row.best for row in result.log]
    assert all(x >= y for x, y in zip(bests, bests[1:]))
    assert result.best.fitness == bests[-1]


def test_evolve_memo_property():
    params = GEParams(generations=10, population=12, rng_seed=9)
    evaluator = make_evaluator()
    evolve(params, GRAMMAR, evaluator)
    stats = evaluator.stats()
    assert stats.unique_keys >= stats.sim_invocations


def test_evolve_feasible_point_beats_sentinel():
    # two-point space: one feasible, one structurally impossible
    sub = Subspace(
        isize=(512,), ibsize=(64,), irepl=("l",), iassoc=(1, 128), ifetch=("d",),
        dsize=(1024,), dbsize=(8,), drepl=("l",), dassoc=(1,), dfetch=("d",),
        dwback=("a",),
    )
    grammar = parse_bnf(sub.grammar_text())
    params = GEParams(generations=4, population=6, rng_seed=0)
    result = evolve(params, grammar, make_evaluator(trace_len=500))
    assert result.best.metrics is not None
    assert "-l1-iassoc 1" in result.best.phenotype
    assert result.best.fitness < INFEASIBLE_FITNESS


def test_evolve_mapping_failure_marks_infeasible():
    # every derivation of this grammar is endless, so every genotype
    # exhausts the wrap limit and gets the sentinel without simulation
    grammar = parse_bnf("<S> ::= <A>\n<A> ::= <A> x\n")
    params = GEParams(generations=2, population=4, codon_count=2,
                      max_wraps=1, rng_seed=1)
    evaluator = make_evaluator(trace_len=100)
    result = evolve(params, grammar, evaluator)
    assert result.best.phenotype is None
    assert result.best.metrics is None
    assert result.best.fitness == INFEASIBLE_FITNESS
    assert evaluator.stats().sim_invocations == 0


def test_campaign_seams_a_benchmark_recounts(tmp_path, monkeypatch):
    """The counts a benchmark takes by wrapping Evaluator.evaluate and
    evolve's config_metrics in a shared-memo campaign. evaluate gets the
    phenotype text of each decoded individual not yet evaluated: every
    individual of generation 1, every one but the elite later (the default
    grammar decodes every genotype). An evaluator's memo_hits are its
    evaluate calls on a key it had seen. config_metrics prices each new
    feasible key once, plus the baseline."""
    calls, priced = [], []
    evaluate, config_metrics = Evaluator.evaluate, EVOLVE.config_metrics

    def counted_evaluate(evaluator, phenotype):
        calls.append((evaluator, phenotype))
        return evaluate(evaluator, phenotype)

    def counted_config_metrics(*args, **kwargs):
        priced.append(args[0])
        return config_metrics(*args, **kwargs)

    monkeypatch.setattr(Evaluator, "evaluate", counted_evaluate)
    monkeypatch.setattr(EVOLVE, "config_metrics", counted_config_metrics)
    params = GEParams(generations=5, population=8)
    summary = run_optimize(RunConfig(
        trace=gen_synthetic("mixed", 400, 2), table=surrogate_generate(1), dram=DramParams(),
        baseline=DEFAULT_BASELINE, params=params, weights=FitnessWeights(),
        miss_mode=MissMode.DEMAND_PLUS_PREFETCH, grammar_text=DEFAULT_GRAMMAR,
        outdir=tmp_path, runs=2, shared_memo=True, seed=4,
    ))
    per_run = params.population + (params.generations - 1) * (params.population - params.elitism)
    assert len(calls) == 2 * per_run
    assert all(CacheConfig.from_flags(text).to_flags() == text for _, text in calls)
    (evaluator,) = {id(e): e for e, _ in calls}.values()  # one shared memo
    seen, hits = set(), 0
    for _, text in calls:
        hits += memo_key(text) in seen
        seen.add(memo_key(text))
    assert 0 < hits == evaluator.stats().memo_hits
    assert len(priced) == summary["unique_evals"] + 1
    assert priced[0] == DEFAULT_BASELINE
