"""Output checks that feed `error_rate` (failed checks / checks attempted).

The Recorder captures every `simulate` result and every priced point of
one untimed workload call. The checks then hold the program
to facts it cannot confirm by itself:

- invariants on every simulated point: per-side accesses equal the ifetch
  and data line counts of the din text (counted here, not by the
  program), demand misses never exceed accesses, the I-side never writes,
  and the D-side counts one write-through per write exactly when the
  write policy is `n`;
- the call simulates each feasible point it prices once, plus the baseline;
- the baseline prices to fitness exactly 1.0;
- every fully associative LRU-demand side matches `oracle.reference_lru`;
- at the recorded seed and scale, the LRU and FIFO results match the
  values in expected.json (random-replacement points are left out, since
  their seeding may change);
- every repetition's output equals the first one's, traced or not.
"""

from __future__ import annotations

import hashlib
import importlib
from pathlib import Path

import cacheopt.objectives
import cacheopt.oracle
from cacheopt.cachesim import DEFAULT_BASELINE, n_sets
from cacheopt.objectives import fitness
from cacheopt.oracle import reference_lru
from cacheopt.trace import AccessKind, TraceRecord

from spans import Tracer

# The package re-exports the evolve() function under the submodule's name.
EVOLVE = importlib.import_module("cacheopt.evolve")


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


class Recorder(Tracer):
    """Captures every simulate result and every priced point while active.

    Runs only on the untimed repetition, so the spans' cost does not matter.
    """

    def __init__(self):
        super().__init__()
        self.sims: list = []  # (config, istats, dstats)
        self.priced: list = []  # (config, metrics)

    def __enter__(self):
        def keep_sim(span, args, kwargs, result):
            self.sims.append((args[0], *result))

        def keep_priced(span, args, kwargs, result):
            self.priced.append((args[0], result))

        self.patch(cacheopt.objectives, "simulate", "cachesim.simulate", keep_sim)
        self.patch(EVOLVE, "config_metrics", "objectives.config_metrics", keep_priced)
        self.patch(cacheopt.oracle, "config_metrics", "objectives.config_metrics", keep_priced)
        return self

    def __exit__(self, *exc):
        self.restore()


def count_kinds(din_path: Path) -> dict[str, int]:
    """Count din labels straight from the text, independently of parse_din."""
    counts = {"0": 0, "1": 0, "2": 0}
    with open(din_path) as fh:
        for line in fh:
            fields = line.split()
            if fields and not fields[0].startswith("#"):
                counts[fields[0]] += 1
    return {"ifetch": counts["2"], "data": counts["0"] + counts["1"], "write": counts["1"]}


def check_sims(checks: Checks, sims, kinds: dict[str, int]) -> None:
    for config, istats, dstats in sims:
        flags = config.to_flags()
        checks.check(istats.accesses == kinds["ifetch"], f"I accesses != ifetch lines: {flags}")
        checks.check(dstats.accesses == kinds["data"], f"D accesses != data lines: {flags}")
        checks.check(istats.demand_misses <= istats.accesses, f"I misses > accesses: {flags}")
        checks.check(dstats.demand_misses <= dstats.accesses, f"D misses > accesses: {flags}")
        checks.check(istats.write_backs == istats.write_throughs == istats.final_flush == 0,
                     f"I-side wrote: {flags}")
        expected_wt = kinds["write"] if config.dwback == "n" else 0
        checks.check(dstats.write_throughs == expected_wt, f"D write-throughs wrong: {flags}")


def check_baseline(checks: Checks, baseline_metrics, priced, weights) -> None:
    """The baseline scores exactly 1.0, wherever it is priced."""
    checks.check(fitness(baseline_metrics, baseline_metrics, weights) == 1.0,
                 "baseline does not price to fitness 1.0")
    for config, metrics in priced:
        if config == DEFAULT_BASELINE:
            checks.check(fitness(metrics, baseline_metrics, weights) == 1.0,
                         "baseline point inside the call does not price to 1.0")


def check_reference_lru(checks: Checks, sims, trace: list[TraceRecord]) -> None:
    """Differential check of every fully associative LRU-demand side."""
    streams = {
        "i": [r for r in trace if r.kind == AccessKind.IFETCH],
        "d": [r for r in trace if r.kind != AccessKind.IFETCH],
    }
    cache: dict[tuple, int] = {}
    for config, istats, dstats in sims:
        for side, stats in (("i", istats), ("d", dstats)):
            size, block, assoc, repl, fetch = (
                getattr(config, side + name)
                for name in ("size", "bsize", "assoc", "repl", "fetch")
            )
            if repl != "l" or fetch != "d" or n_sets(size, block, assoc) != 1:
                continue
            key = (side, assoc, block)
            if key not in cache:
                cache[key] = reference_lru(streams[side], assoc, block)
            checks.check(stats.demand_misses == cache[key],
                         f"{side.upper()}-side differs from reference_lru: {config.to_flags()}")


def random_free(config) -> bool:
    return config.irepl != "r" and config.drepl != "r"


def point_line(config, metrics, fit=None) -> str:
    """One result as ranked.csv renders it (fitness omitted when absent)."""
    head = f"{fit!r}," if fit is not None else ""
    return f"{head}{metrics.exec_time!r},{metrics.energy!r},{config.to_flags()}"


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def sweep_digest(results) -> str:
    """Digest of every LRU and FIFO point of a sweep, in rank order."""
    lines = [
        point_line(r.config, r.metrics, r.fitness)
        for result in results for r in result.ranked if random_free(r.config)
    ]
    return sha("\n".join(lines))


def point_map(priced) -> dict[str, str]:
    """flags hash -> value hash for every LRU and FIFO point priced.

    A GE campaign's trajectory depends on random-replacement fitness, so
    its set of points is not fixed; checking point by point keeps the LRU
    and FIFO values checkable when that set changes.
    """
    return {
        sha(config.to_flags())[:8]: sha(point_line(config, metrics))[:8]
        for config, metrics in priced if random_free(config)
    }


def check_point_map(checks: Checks, points: dict[str, str], expected: dict[str, str]) -> int:
    """Check every point also in the expected map; returns how many were."""
    covered = 0
    for key, value in points.items():
        if key in expected:
            covered += 1
            checks.check(expected[key] == value, f"LRU/FIFO point value changed (flags hash {key})")
    return covered
