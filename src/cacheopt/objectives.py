"""Execution-time and energy models plus the normalized weighted fitness.

Execution time charges each cache access its access time, and each miss a
DRAM latency plus a line transfer over the DRAM bandwidth:

    T = Ia*It + Im*Dram_t + Im*Il/BW + Da*Dt + Dm*Dram_t + Dm*Dl/BW

Dynamic energy charges per-access energies, line refill energy, and the
DRAM service of each miss as power x time (the product keeps the term in
joules; see README):

    E = Ia*Ie + Da*De + Im*Ie*Il + Dm*De*Dl
        + Im*(P_dram*(Dram_t + Il/BW)) + Dm*(P_dram*(Dram_t + Dl/BW))

No CPU term and no write-traffic term enter either model; write-back and
write-through counters are reported by the simulator but priced at zero
here. Units are seconds, joules, watts, bytes, bytes/second throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .cachesim import _MAX_FLOAT, CacheConfig, SimStats, _check_range, simulate
from .charmodel import CharTable, DramParams
from .errors import ValidationError

#: Fitness assigned to structurally infeasible configurations. Finite so
#: selection stays total-ordered; large enough that any feasible point wins.
INFEASIBLE_FITNESS = 1.0e9


class MissMode(Enum):
    """Which fill traffic counts as a miss in the models.

    DEMAND_PLUS_PREFETCH (default) prices prefetch fills like demand
    misses, since both move a line over the DRAM interface; DEMAND_ONLY
    is available for sensitivity runs.
    """

    DEMAND_ONLY = "demand_only"
    DEMAND_PLUS_PREFETCH = "demand_plus_prefetch"


_ALL_FILLS = MissMode.DEMAND_PLUS_PREFETCH  # a global reads faster than an Enum member


class _MetricsValues(NamedTuple):
    exec_time: float  # seconds
    energy: float  # joules


class Metrics(_MetricsValues):
    """A point's (execution time, energy), each checked finite and >= 0
    (cachesim._check_range) whenever one is built."""

    __slots__ = ()

    def __new__(cls, exec_time, energy):
        if not (0 <= exec_time <= _MAX_FLOAT and 0 <= energy <= _MAX_FLOAT):
            _check_range("exec_time", exec_time)
            _check_range("energy", energy)
        return tuple.__new__(cls, (exec_time, energy))

    @classmethod
    def _make(cls, iterable) -> "Metrics":
        """Build from (exec_time, energy), checked; _replace builds through it."""
        return cls(*iterable)


@dataclass(frozen=True)
class FitnessWeights:
    """The weight of normalized time; normalized energy takes the rest."""

    w_time: float = 0.5

    def __post_init__(self):
        if not 0.0 <= self.w_time <= 1.0:
            raise ValidationError("fitness weights must lie in [0, 1]")

    @property
    def w_energy(self) -> float:
        return 1.0 - self.w_time


def side_terms(stats: SimStats, row: tuple[float, float], block: int, dram: DramParams,
               miss_mode: MissMode = MissMode.DEMAND_PLUS_PREFETCH) -> tuple[float, ...]:
    """One side's six priced terms from its counters and its characterization
    row (access time, access energy): access time, miss latency and line
    transfer, then access energy, refill energy and DRAM service."""
    accesses, misses = stats.accesses, stats.demand_misses
    if miss_mode is _ALL_FILLS:
        misses += stats.prefetch_fills
    access_time, bandwidth = dram.access_time, dram.bandwidth
    return (accesses * row[0], misses * access_time, misses * block / bandwidth,
            accesses * row[1], misses * row[1] * block,
            misses * (dram.access_power * (access_time + block / bandwidth)))


def metrics_from_stats(
    istats: SimStats,
    dstats: SimStats,
    table: CharTable,
    config: CacheConfig,
    dram: DramParams,
    miss_mode: MissMode = MissMode.DEMAND_PLUS_PREFETCH,
) -> Metrics:
    """Price simulated counters with each side's characterization row.

    The sum of both sides' side_terms in the models' order: T adds the
    three I terms, then the three D terms; E alternates I and D. Its
    inputs were checked where they were made: a SimStats checks its
    counters when built, a CharTable its rows. A missing row raises
    CharLookupError (CharTable.lookup's message), the I row's first.
    """
    isize, ibsize, _, iassoc, _, dsize, dbsize, _, dassoc, _, _ = config
    ichar, dchar = table.lookup(isize, ibsize, iassoc), table.lookup(dsize, dbsize, dassoc)
    it, il, ix, ie, ir, idram = side_terms(istats, ichar, ibsize, dram, miss_mode)
    dt, dl, dx, de, dr, ddram = side_terms(dstats, dchar, dbsize, dram, miss_mode)
    return Metrics(it + il + ix + dt + dl + dx, ie + de + ir + dr + idram + ddram)


def config_metrics(
    config: CacheConfig,
    trace,
    table: CharTable,
    dram: DramParams,
    miss_mode: MissMode = MissMode.DEMAND_PLUS_PREFETCH,
    rng_seed: int = 0,
) -> Metrics:
    """Simulate a configuration, then price it with metrics_from_stats.

    trace is passed to simulate as is: records or a SideStreams. simulate
    raises InfeasibleConfigError for an impossible geometry. rng_seed is
    simulate's seed base: a random-replacement side is seeded from it and
    its own flags, so results do not depend on evaluation order.
    """
    istats, dstats = simulate(config, trace, rng_seed)
    return metrics_from_stats(istats, dstats, table, config, dram, miss_mode)


def fitness(
    candidate: Metrics,
    baseline: Metrics,
    weights: FitnessWeights = FitnessWeights(),
) -> float:
    """Weighted sum of time and energy, each normalized to the baseline.

    Lower is better; the baseline itself scores exactly 1.0.
    """
    if baseline.exec_time <= 0 or baseline.energy <= 0:
        raise ValidationError(
            "baseline metrics must be strictly positive; simulate the baseline first"
        )
    return (
        weights.w_time * candidate.exec_time / baseline.exec_time
        + weights.w_energy * candidate.energy / baseline.energy
    )
