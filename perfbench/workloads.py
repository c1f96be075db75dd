"""Workload definitions: the inputs each workload feeds the program.

A workload names a trace profile and length, and the calls it times.
Inputs derive only from the benchmark seed: the trace is generated with
that seed, which is also the first GE `--seed` (see GECampaign) and the
simulation seed base of `exhaustive`. The characterization table is
always the surrogate table of seed 1 with DRAM defaults.

`full` is the scale the benchmark measures; `tiny` exists only for the
smoke test under smoke/.
"""

from __future__ import annotations

from dataclasses import dataclass

TABLE_SEED = 1
SCALES = ("full", "tiny")

SIZES = (512, 1024, 2048, 4096, 8192, 16384, 32768, 65536)

# The eight policy classes of sweep_policies_random: (replacement, fetch)
# shared by both sides. LRU with demand fetch is sweep_lru_demand's class.
POLICY_CLASSES = (
    ("l", "m"), ("l", "a"),
    ("f", "d"), ("f", "m"), ("f", "a"),
    ("r", "d"), ("r", "m"), ("r", "a"),
)
FETCH_NAMES = {"d": "demand", "m": "miss", "a": "always"}
REPL_NAMES = {"l": "lru", "f": "fifo", "r": "random"}


@dataclass(frozen=True)
class GECampaign:
    """Arguments of cli.run_optimize beyond the inputs.

    The workload makes `calls` campaigns of `runs` runs each; call k uses
    --seed seed + k * runs, so together they run seeds seed .. seed +
    calls * runs - 1, as one campaign of calls * runs runs would.
    """

    calls: int
    runs: int
    generations: int
    population: int


@dataclass(frozen=True)
class Workload:
    name: str
    profile: str
    records: int
    # Exactly one of campaign / subspaces is set.
    campaign: GECampaign | None = None
    subspaces: tuple[dict, ...] = ()


def _lru_demand_space(sizes, iblocks, iassocs, dblocks, dassocs) -> dict:
    return dict(
        isize=sizes, ibsize=iblocks, irepl=("l",), iassoc=iassocs, ifetch=("d",),
        dsize=sizes, dbsize=dblocks, drepl=("l",), dassoc=dassocs, dfetch=("d",),
        dwback=("a", "n"),
    )


def _policy_spaces(sizes, iblocks, iassocs, dblocks, dassocs) -> tuple[dict, ...]:
    spaces = []
    for repl, fetch in POLICY_CLASSES:
        space = _lru_demand_space(sizes, iblocks, iassocs, dblocks, dassocs)
        space.update(irepl=(repl,), ifetch=(fetch,), drepl=(repl,), dfetch=(fetch,))
        spaces.append(space)
    return tuple(spaces)


_FULL = (
    Workload(
        "ge_mixed", "mixed", 200,
        campaign=GECampaign(calls=5, runs=2, generations=100, population=50),
    ),
    Workload(
        "sweep_lru_demand", "mixed", 500,
        # Holds the baseline (16384/32/4 on both sides) and fully
        # associative sides at 512/32/16 (I) and 1024/32/32 (D).
        subspaces=(_lru_demand_space(SIZES, (32,), (1, 4, 16), (32,), (4, 32)),),
    ),
    Workload(
        "sweep_policies_random", "random", 500,
        subspaces=_policy_spaces((512, 2048), (16,), (4, 32), (32,), (4, 32)),
    ),
)

_TINY = (
    Workload(
        "ge_mixed", "mixed", 60,
        campaign=GECampaign(calls=2, runs=2, generations=4, population=8),
    ),
    Workload(
        "sweep_lru_demand", "mixed", 120,
        subspaces=(_lru_demand_space((512, 16384), (32,), (4, 16), (32,), (4, 32)),),
    ),
    Workload(
        "sweep_policies_random", "random", 60,
        subspaces=_policy_spaces((512, 1024), (16,), (32,), (32,), (4,)),
    ),
)

WORKLOADS = {
    "full": {w.name: w for w in _FULL},
    "tiny": {w.name: w for w in _TINY},
}
NAMES = tuple(w.name for w in _FULL)
