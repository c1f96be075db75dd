"""Exhaustive and reference implementations for desk-scale verification.

reference_lru deliberately shares nothing with the set-associative engine:
it models a fully associative LRU cache as an explicit recency list, so the
two implementations cannot confirm each other's bugs.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import product
from typing import Iterable

from .cachesim import (
    ASSOCIATIVITIES,
    BLOCK_SIZES,
    CACHE_SIZES,
    FETCH_POLICIES,
    REPL_POLICIES,
    WRITE_POLICIES,
    CacheConfig,
    SideStreams,
    config_sim_seed,
    validate,
)
from .charmodel import CharTable, DramParams
from .errors import SubspaceCapError, ValidationError
from .objectives import FitnessWeights, Metrics, MissMode, config_metrics, fitness
from .trace import TraceRecord

_DOMAINS = {
    "isize": CACHE_SIZES,
    "ibsize": BLOCK_SIZES,
    "irepl": REPL_POLICIES,
    "iassoc": ASSOCIATIVITIES,
    "ifetch": FETCH_POLICIES,
    "dsize": CACHE_SIZES,
    "dbsize": BLOCK_SIZES,
    "drepl": REPL_POLICIES,
    "dassoc": ASSOCIATIVITIES,
    "dfetch": FETCH_POLICIES,
    "dwback": WRITE_POLICIES,
}

_SUBSPACE_NONTERMINALS = {
    "isize": "<ISize>",
    "ibsize": "<IBlock>",
    "irepl": "<IRepl>",
    "iassoc": "<IAssoc>",
    "ifetch": "<IFetch>",
    "dsize": "<DSize>",
    "dbsize": "<DBlock>",
    "drepl": "<DRepl>",
    "dassoc": "<DAssoc>",
    "dfetch": "<DFetch>",
    "dwback": "<DWback>",
}


@dataclass(frozen=True)
class Subspace:
    """Per-parameter allowed-value lists; defaults cover the full space."""

    isize: tuple[int, ...] = CACHE_SIZES
    ibsize: tuple[int, ...] = BLOCK_SIZES
    irepl: tuple[str, ...] = REPL_POLICIES
    iassoc: tuple[int, ...] = ASSOCIATIVITIES
    ifetch: tuple[str, ...] = FETCH_POLICIES
    dsize: tuple[int, ...] = CACHE_SIZES
    dbsize: tuple[int, ...] = BLOCK_SIZES
    drepl: tuple[str, ...] = REPL_POLICIES
    dassoc: tuple[int, ...] = ASSOCIATIVITIES
    dfetch: tuple[str, ...] = FETCH_POLICIES
    dwback: tuple[str, ...] = WRITE_POLICIES

    def __post_init__(self):
        for f in fields(self):
            values = tuple(getattr(self, f.name))
            object.__setattr__(self, f.name, values)
            if not values:
                raise ValidationError(f"subspace {f.name} must be nonempty")
            if len(set(values)) != len(values):
                raise ValidationError(f"subspace {f.name} has duplicate values")
            outside = [v for v in values if v not in _DOMAINS[f.name]]
            if outside:
                raise ValidationError(
                    f"subspace {f.name} values {outside} outside permitted set {_DOMAINS[f.name]}"
                )

    def cardinality(self) -> int:
        n = 1
        for f in fields(self):
            n *= len(getattr(self, f.name))
        return n

    def configs(self) -> Iterable[CacheConfig]:
        names = [f.name for f in fields(self)]
        for combo in product(*(getattr(self, name) for name in names)):
            yield CacheConfig(**dict(zip(names, combo)))

    def grammar_text(self) -> str:
        """BNF restricting the decoder to exactly this subspace."""
        lines = [
            "<DineroParams> ::= "
            + " ".join(
                f"-l1-{name} {_SUBSPACE_NONTERMINALS[name]}"
                for name in _SUBSPACE_NONTERMINALS
            )
        ]
        for name, nt in _SUBSPACE_NONTERMINALS.items():
            alts = " | ".join(str(v) for v in getattr(self, name))
            lines.append(f"{nt} ::= {alts}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class RankedConfig:
    config: CacheConfig
    metrics: Metrics
    fitness: float


@dataclass(frozen=True)
class ExhaustiveResult:
    ranked: tuple[RankedConfig, ...]  # ascending fitness
    infeasible: tuple[tuple[CacheConfig, tuple[str, ...]], ...]


def exhaustive(
    sub: Subspace,
    trace: list[TraceRecord] | SideStreams,
    table: CharTable,
    dram: DramParams,
    baseline: Metrics,
    weights: FitnessWeights = FitnessWeights(),
    miss_mode: MissMode = MissMode.DEMAND_PLUS_PREFETCH,
    cap: int = 10_000,
    sim_seed_base: int = 0,
) -> ExhaustiveResult:
    """Simulate every feasible point of the subspace once and rank it.

    Deterministic and rng-free: random-replacement configurations use the
    per-configuration seed derived from sim_seed_base (default 0). Ties in
    fitness are broken by canonical flag-text order.
    """
    if sub.cardinality() > cap:
        raise SubspaceCapError(
            f"subspace holds {sub.cardinality()} points, above the cap of {cap}"
        )
    streams = SideStreams.of(trace)
    ranked = []
    infeasible = []
    for config in sub.configs():
        verdict = validate(config)
        if not verdict:
            infeasible.append((config, verdict.problems))
            continue
        metrics = config_metrics(
            config, streams, table, dram, miss_mode,
            rng_seed=config_sim_seed(config, sim_seed_base),
        )
        ranked.append(RankedConfig(config, metrics, fitness(metrics, baseline, weights)))
    ranked.sort(key=lambda r: (r.fitness, r.config.to_flags()))
    return ExhaustiveResult(tuple(ranked), tuple(infeasible))


def reference_lru(
    trace: Iterable[TraceRecord], capacity_blocks: int, block_size: int = 1
) -> int:
    """Miss count of a fully associative LRU cache over block addresses.

    Independent recency-list implementation used to cross-check the
    set-associative engine at n_sets=1 with demand fetch.
    """
    if capacity_blocks < 1:
        raise ValidationError("capacity_blocks must be >= 1")
    recency: list[int] = []  # least recent first
    misses = 0
    for record in trace:
        block = record.address // block_size
        if block in recency:
            recency.remove(block)
            recency.append(block)
        else:
            misses += 1
            if len(recency) == capacity_blocks:
                recency.pop(0)
            recency.append(block)
    return misses
