"""Grammatical-evolution engine with a memoized phenotype evaluator.

The loop is elitist generational replacement: binary tournament selection,
single-point crossover, per-codon integer mutation. Each run decodes a
distinct genotype once, a flat grammar from per-slot codon tables. An
Evaluator is built with its trace, table and baseline, and prices the
baseline once when built. Fitness evaluation is memoized on the
whitespace-normalized phenotype text, so one evaluator prices each
phenotype once. A grammar that spells one configuration in two
flag orders gives it two keys: it is priced twice, and the second pricing
takes both sides from simulate's side memo. Evaluators may be shared
across runs to pool that memo.
"""

from __future__ import annotations

import heapq
import random
import statistics
from dataclasses import dataclass, field
from itertools import cycle
from operator import getitem
from typing import Callable, NamedTuple

from .cachesim import CacheConfig, SideStreams, geometry_problems
from .charmodel import CharTable, DramParams
from .errors import MappingError, ValidationError
from .grammar import Grammar, map_genotype
from .objectives import (
    INFEASIBLE_FITNESS,
    FitnessWeights,
    Metrics,
    MissMode,
    config_metrics,
    fitness,
)

Genotype = list[int]


@dataclass
class GEParams:
    """Search parameters; defaults follow the standard run recipe."""

    generations: int = 100
    population: int = 50
    p_crossover: float = 0.9
    p_mutation: float = 0.01  # per codon
    elitism: int = 1
    tournament_size: int = 2
    max_wraps: int = 3
    codon_count: int = 11
    rng_seed: int = 0

    def __post_init__(self):
        if self.generations < 1:
            raise ValidationError("generations must be >= 1")
        if self.population < 2:
            raise ValidationError("population must be >= 2")
        for name in ("p_crossover", "p_mutation"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValidationError(f"{name} must lie in [0, 1]")
        if not 0 <= self.elitism < self.population:
            raise ValidationError("elitism must lie in [0, population)")
        if self.tournament_size < 1:
            raise ValidationError("tournament_size must be >= 1")
        if self.max_wraps < 1:
            raise ValidationError("max_wraps must be >= 1")
        if self.codon_count < 1:
            raise ValidationError("codon_count must be >= 1")


@dataclass(slots=True)
class Individual:
    genotype: Genotype
    phenotype: str | None = None
    metrics: Metrics | None = None
    fitness: float | None = None


def memo_key(phenotype: str) -> str:
    """Whitespace-normalized phenotype text: equal texts get equal keys, but
    one configuration in two flag orders gets two."""
    return " ".join(phenotype.split())


class EvalResult(NamedTuple):
    feasible: bool
    metrics: Metrics | None
    fitness: float


@dataclass(frozen=True)
class MemoStats:
    unique_keys: int
    sim_invocations: int  # one per distinct feasible key
    memo_hits: int


class Evaluator:
    """Phenotype -> fitness, memoized on the canonical key.

    Built whole: the baseline is priced once, here, and every fitness is
    normalized to it. Each distinct feasible key is simulated exactly once;
    later lookups return the stored result. sim_seed_base is simulate's
    seed base: a random-replacement side is seeded from it and its own
    flags, so values never depend on evaluation order.
    """

    def __init__(
        self,
        trace,
        table: CharTable,
        dram: DramParams,
        baseline: CacheConfig,
        weights: FitnessWeights = FitnessWeights(),
        miss_mode: MissMode = MissMode.DEMAND_PLUS_PREFETCH,
        sim_seed_base: int = 0,
    ):
        self.streams = SideStreams.of(trace)
        self.table = table
        self.dram = dram
        self.weights = weights
        self.miss_mode = miss_mode
        self.sim_seed_base = sim_seed_base
        # The normalization point; not counted against the memo.
        self.baseline_metrics = config_metrics(
            baseline, self.streams, table, dram, miss_mode, sim_seed_base
        )
        self._memo: dict[str, EvalResult] = {}
        self._sim_invocations = 0
        self._memo_hits = 0

    def evaluate(self, phenotype: str) -> EvalResult:
        result = self._memo.get(phenotype)  # keys are canonical: a hit needs no memo_key
        if result is None:
            result = self._memo.get(key := memo_key(phenotype))
            if result is None:
                result = self._memo[key] = self._compute(key)
                return result
        self._memo_hits += 1
        return result

    def _compute(self, key: str) -> EvalResult:
        config = CacheConfig.from_flags(key)
        if geometry_problems(config):
            return EvalResult(False, None, INFEASIBLE_FITNESS)
        metrics = config_metrics(
            config, self.streams, self.table, self.dram, self.miss_mode, self.sim_seed_base
        )
        self._sim_invocations += 1
        return EvalResult(True, metrics, fitness(metrics, self.baseline_metrics, self.weights))

    def stats(self) -> MemoStats:
        return MemoStats(
            unique_keys=len(self._memo),
            sim_invocations=self._sim_invocations,
            memo_hits=self._memo_hits,
        )


def random_genotype(length: int, rng: random.Random) -> Genotype:
    return [rng.randrange(256) for _ in range(length)]


@dataclass(frozen=True)
class GenerationLog:
    generation: int
    best: float
    mean: float
    worst: float
    unique_evals: int  # simulator invocations so far
    memo_hits: int


@dataclass
class EvolveResult:
    best: Individual
    log: list[GenerationLog] = field(default_factory=list)


def _decoder(grammar: Grammar, max_wraps: int) -> Callable[[Genotype], str | None]:
    """Genotype -> phenotype text, or None where map_genotype would raise
    MappingError, memoized on the codon tuple; equal phenotypes share one
    string object.

    A flat grammar (one start alternative whose nonterminals, the slots,
    have only all-terminal alternatives) makes the same decisions in the
    same order: slot j takes alternative codons[j % n] % k of its k. Each
    slot's table holds 256 texts, the literal text before the slot plus the
    alternative each codon value picks; a decode joins one entry per slot
    and the literal tail. Empty, out-of-range (0-255) or too short genotypes
    have no phenotype. Other grammars go to map_genotype.
    """
    rules = grammar.rules
    body, *others = rules[grammar.start]
    flat = not others and not any(
        sym in rules for slot in body for alt in rules.get(slot, ()) for sym in alt
    )
    tables: list[list[str]] = []
    literal = ""  # text since the last slot, separators included
    for i, symbol in enumerate(body if flat else ()):
        literal += " " if i else ""
        alts = rules.get(symbol)
        if alts is None:
            literal += symbol
        else:
            tables.append([literal + " ".join(alts[c % len(alts)]) for c in range(256)])
            literal = ""
    memo: dict[tuple[int, ...], str | None] = {}
    texts: dict[str, str] = {}
    missing = object()

    def decode(genotype: Genotype) -> str | None:
        key = tuple(genotype)
        text = memo.get(key, missing)
        if text is not missing:
            return text
        if flat:
            ok = key and len(tables) <= len(key) * max_wraps and 0 <= min(key) <= max(key) <= 255
            text = "".join(map(getitem, tables, cycle(key))) + literal if ok else None
        else:
            try:
                text = map_genotype(key, grammar, max_wraps)
            except MappingError:
                text = None
        if text is not None:
            text = texts.setdefault(text, text)
        memo[key] = text
        return text

    return decode


def _evaluate_population(
    population: list[Individual],
    decode: Callable[[Genotype], str | None],
    evaluator: Evaluator,
) -> None:
    for ind in population:
        if ind.fitness is not None:
            continue
        ind.phenotype = decode(ind.genotype)
        if ind.phenotype is None:
            ind.fitness = INFEASIBLE_FITNESS
            continue
        result = evaluator.evaluate(ind.phenotype)
        ind.metrics = result.metrics
        ind.fitness = result.fitness


def _next_generation(
    population: list[Individual], params: GEParams, rng: random.Random
) -> list[Individual]:
    """The elites, then children bred in one loop.

    Each pair of children makes the draws of two tournaments, one crossover
    and a mutation per child, in that order; the tests check the genotypes
    and the generator's state against reference operators composed the same
    way. randrange(n) and randint(1, w) are drawn inline as CPython's Random
    does: getrandbits(n.bit_length()), redrawn until below n.
    """
    fits = [ind.fitness for ind in population]
    n = len(fits)
    elites = heapq.nsmallest(params.elitism, range(n), key=fits.__getitem__)  # ties by index
    new_pop = [population[i] for i in elites]  # elites keep their evaluation
    getrandbits, random_ = rng.getrandbits, rng.random
    size, wanted = params.tournament_size, params.population
    p_crossover, p_mutation = params.p_crossover, params.p_mutation
    kn = n.bit_length()
    while len(new_pop) < wanted:
        parents = []
        for _ in range(2):  # tournament: lowest (fitness, index) of `size` draws
            best = -1
            for _ in range(size):
                i = getrandbits(kn)
                while i >= n:
                    i = getrandbits(kn)
                f = fits[i]
                if best < 0 or f < best_fit or (f == best_fit and i < best):
                    best, best_fit = i, f
            parents.append(population[best].genotype)
        a, b = parents
        if len(a) >= 2 and len(b) >= 2 and random_() < p_crossover:  # crossover
            w = min(len(a), len(b)) - 1
            kw = w.bit_length()
            cut = getrandbits(kw)
            while cut >= w:
                cut = getrandbits(kw)
            cut += 1
            a, b = a[:cut] + b[cut:], b[:cut] + a[cut:]
        for genotype in (a, b):  # mutate: each codon redrawn from [0, 255]
            if len(new_pop) == wanted:
                break
            child = []
            for c in genotype:
                if random_() < p_mutation:
                    c = getrandbits(9)  # 256 has 9 bits
                    while c >= 256:
                        c = getrandbits(9)
                child.append(c)
            new_pop.append(Individual(child))
    return new_pop


def evolve(params: GEParams, grammar: Grammar, evaluator: Evaluator) -> EvolveResult:
    """Run the generational loop and return the best-ever individual.

    Per-seed deterministic: the log's fitness values and the best phenotype
    depend only on (params, grammar, evaluator inputs). Ties in best-ever
    tracking keep the earliest discovery.
    """
    rng = random.Random(params.rng_seed)
    decode = _decoder(grammar, params.max_wraps)
    population = [
        Individual(random_genotype(params.codon_count, rng))
        for _ in range(params.population)
    ]
    best_ever: Individual | None = None
    log: list[GenerationLog] = []
    for generation in range(1, params.generations + 1):
        _evaluate_population(population, decode, evaluator)
        for ind in population:
            if best_ever is None or ind.fitness < best_ever.fitness:
                best_ever = ind
        fits = [ind.fitness for ind in population]
        stats = evaluator.stats()
        log.append(
            GenerationLog(
                generation=generation,
                best=min(fits),
                mean=statistics.fmean(fits),
                worst=max(fits),
                unique_evals=stats.sim_invocations,
                memo_hits=stats.memo_hits,
            )
        )
        if generation < params.generations:
            population = _next_generation(population, params, rng)
    return EvolveResult(best=best_ever, log=log)
