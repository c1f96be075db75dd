"""Exhaustive and reference implementations for desk-scale verification.

reference_lru deliberately shares nothing with the set-associative engine:
it models a fully associative LRU cache as an explicit recency list, so the
two implementations cannot confirm each other's bugs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from operator import itemgetter
from typing import Iterable, NamedTuple

from . import objectives
from .cachesim import (
    DOMAINS, CacheConfig, SideStreams, _check_domain, _from_checked, geometry_problems, n_sets
)
from .charmodel import CharTable, DramParams
from .errors import SubspaceCapError, ValidationError
from .objectives import (  # config_metrics is unused here, kept for perfbench's patches
    FitnessWeights, Metrics, MissMode, config_metrics, fitness, side_terms
)
from .trace import TraceRecord


@dataclass(frozen=True)
class Subspace:
    """Per-parameter allowed-value lists; defaults cover the full space."""

    isize: tuple[int, ...] = DOMAINS["isize"]
    ibsize: tuple[int, ...] = DOMAINS["ibsize"]
    irepl: tuple[str, ...] = DOMAINS["irepl"]
    iassoc: tuple[int, ...] = DOMAINS["iassoc"]
    ifetch: tuple[str, ...] = DOMAINS["ifetch"]
    dsize: tuple[int, ...] = DOMAINS["dsize"]
    dbsize: tuple[int, ...] = DOMAINS["dbsize"]
    drepl: tuple[str, ...] = DOMAINS["drepl"]
    dassoc: tuple[int, ...] = DOMAINS["dassoc"]
    dfetch: tuple[str, ...] = DOMAINS["dfetch"]
    dwback: tuple[str, ...] = DOMAINS["dwback"]

    def __post_init__(self):
        for name in DOMAINS:
            values = tuple(getattr(self, name))
            object.__setattr__(self, name, values)
            if not values:
                raise ValidationError(f"subspace {name} must be nonempty")
            if len(set(values)) != len(values):
                raise ValidationError(f"subspace {name} has duplicate values")
            for value in values:
                _check_domain(name, value)

    def cardinality(self) -> int:
        return math.prod(len(getattr(self, name)) for name in DOMAINS)

    def check_cap(self, cap: int) -> None:
        if cap < 1:
            raise ValidationError(f"cap must be >= 1, got {cap}")
        if self.cardinality() > cap:
            raise SubspaceCapError(
                f"subspace holds {self.cardinality()} points, above the cap of {cap}"
            )

    def parts(self) -> tuple[list[tuple[tuple, bool]], list[tuple[tuple, bool]]]:
        """The I parts and the D parts: each side's value tuples in to_flags()
        text order, with whether the part's geometry holds a set (n_sets,
        the rule of geometry_problems).

        A point is an I part followed by a D part, feasible when both are,
        and the product with I parts outer is in flag-text order: each
        parameter's values are sorted by their text, two flag texts first
        differ at the first differing value, and where one value's text is
        a prefix of the other's ("1" and "16"), the shorter is followed by a
        space, which sorts below every digit, as the shorter text sorts first.
        """
        lists = [sorted(getattr(self, name), key=str) for name in DOMAINS]
        iside, dside = self._feasible_sides("i"), self._feasible_sides("d")
        return ([(p, (p[0], p[1], p[3]) in iside) for p in product(*lists[:5])],
                [(p, (p[0], p[1], p[3]) in dside) for p in product(*lists[5:])])

    def _feasible_sides(self, side: str) -> set[tuple[int, int, int]]:
        """The (size, block, assoc) triples of one side ('i' or 'd') that
        hold at least one set, the rule of geometry_problems."""
        lists = (getattr(self, side + name) for name in ("size", "bsize", "assoc"))
        return {t for t in product(*lists) if n_sets(*t)}

    def triples(self) -> set[tuple[int, int, int]]:
        """(size, block, assoc) of the I and D sides of every feasible point,
        i.e. the characterization rows that exhaustive looks up."""
        iside, dside = self._feasible_sides("i"), self._feasible_sides("d")
        return iside | dside if iside and dside else set()

    def grammar_text(self) -> str:
        """BNF restricting the decoder to exactly this subspace."""
        lines = ["<DineroParams> ::= " + " ".join(f"-l1-{name} <{name}>" for name in DOMAINS)]
        for name in DOMAINS:
            lines.append(f"<{name}> ::= " + " | ".join(str(v) for v in getattr(self, name)))
        return "\n".join(lines) + "\n"


class RankedConfig(NamedTuple):
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

    Deterministic and rng-free: sim_seed_base (default 0) is simulate's seed
    base, so each distinct side runs once. The walk is Subspace.parts()'s
    product in flag-text order, one objectives.simulate call per feasible
    point. It prices an I part's side_terms once per row and a D part's once
    per walk and sums them in metrics_from_stats's order: each value has
    config_metrics's bits, and a missing row raises at the first point that
    needs it, the I row first. Fitness ties and infeasible points keep the
    walk's order. A baseline that fitness() refuses is refused up front.
    """
    sub.check_cap(cap)
    fitness(baseline, baseline, weights)  # rejects a bad baseline before anything is simulated
    streams = SideStreams.of(trace)
    simulate = objectives.simulate  # looked up per call, as callers patch it there
    ranked, infeasible = [], []
    w_time, w_energy = weights.w_time, weights.w_energy
    base_time, base_energy = baseline
    iparts, dparts = sub.parts()
    dterms = [None] * len(dparts)
    for iflags, ifeasible in iparts:
        iterms = None
        for j, (dflags, dfeasible) in enumerate(dparts):
            config = _from_checked(iflags + dflags)
            if not (ifeasible and dfeasible):
                infeasible.append((config, geometry_problems(config)))
                continue
            istats, dstats = simulate(config, streams, sim_seed_base)
            if iterms is None:
                row = table.lookup(iflags[0], iflags[1], iflags[3])
                iterms = side_terms(istats, row, iflags[1], dram, miss_mode)
            if dterms[j] is None:
                row = table.lookup(dflags[0], dflags[1], dflags[3])
                dterms[j] = side_terms(dstats, row, dflags[1], dram, miss_mode)
            it, il, ix, ie, ir, idram = iterms
            dt, dl, dx, de, dr, ddram = dterms[j]
            metrics = Metrics(it + il + ix + dt + dl + dx, ie + de + ir + dr + idram + ddram)
            # fitness()'s expression, so a score is the bits fitness() would give
            score = w_time * metrics[0] / base_time + w_energy * metrics[1] / base_energy
            ranked.append(tuple.__new__(RankedConfig, (config, metrics, score)))
    ranked.sort(key=itemgetter(2))  # the fitness
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
    if block_size < 1:
        raise ValidationError(f"block_size must be >= 1, got {block_size}")
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
