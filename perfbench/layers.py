"""Traced run: spans around each layer's entry points and per-layer metrics.

Each wrapper sits where the caller looks the name up, so the program runs
unchanged apart from the wrapper's own cost (reported as
bench.trace_overhead_frac).
"""

from __future__ import annotations

import importlib
import statistics

import cacheopt.charmodel
import cacheopt.cli
import cacheopt.objectives
import cacheopt.oracle
import cacheopt.trace
from cacheopt.evolve import memo_key

from checks import EVOLVE
from spans import Tracer
from workloads import FETCH_NAMES, POLICY_CLASSES, REPL_NAMES

SIM_COUNTERS = ("accesses", "demand_misses", "prefetch_fills", "write_backs")
CLASSES = ("lru_demand",) + tuple(f"{REPL_NAMES[r]}_{FETCH_NAMES[f]}" for r, f in POLICY_CLASSES)

# name -> unit, in report order.
PER_LAYER = {
    "trace.parse_us_per_line": "us",
    "trace.records": "count",
    "charmodel.load_table_ms": "ms",
    "grammar.decode_calls": "count",
    "grammar.decode_us": "us",
    "grammar.wrap_failures": "count",
    "evolve.evaluate_calls": "count",
    "evolve.memo_hits": "count",
    "evolve.memo_hit_ratio": "ratio",
    "evolve.hit_us": "us",
    "evolve.infeasible_keys": "count",
    "evolve.loop_self_s": "s",
    "objectives.price_calls": "count",
    "objectives.price_self_us": "us",
    "cachesim.simulate_calls": "count",
    "cachesim.accesses": "count",
    "cachesim.self_s": "s",
    "cachesim.share": "ratio",
    "cachesim.ns_per_access": "ns",
    "cachesim.simulate_ms_p50": "ms",
    "cachesim.simulate_ms_p90": "ms",
    **{f"cachesim.ns_per_access.{c}": "ns" for c in CLASSES},
    "cachesim.demand_miss_ratio": "ratio",
    "cachesim.prefetch_fill_ratio": "ratio",
    "cachesim.write_backs": "count",
    "oracle.points": "count",
    "oracle.infeasible_points": "count",
    "oracle.self_s": "s",
    "cli.self_s": "s",
    "bench.trace_overhead_frac": "ratio",
}


def _simulate_attrs(span, args, kwargs, result):
    config = args[0]
    istats, dstats = result
    span.attrs = {k: getattr(istats, k) + getattr(dstats, k) for k in SIM_COUNTERS}
    if (config.irepl, config.ifetch) == (config.drepl, config.dfetch):
        span.attrs["class"] = f"{REPL_NAMES[config.irepl]}_{FETCH_NAMES[config.ifetch]}"


def _exhaustive_attrs(span, args, kwargs, result):
    span.attrs = {"points": len(result.ranked), "infeasible": len(result.infeasible)}


class LayerTracer(Tracer):
    """A Tracer patched into every layer of the program."""

    def __init__(self):
        super().__init__()
        self.evaluators: dict[int, object] = {}
        self._seen_keys: set[tuple[int, str]] = set()

    def _evaluate_attrs(self, span, args, kwargs, result):
        evaluator, phenotype = args[0], args[1]
        self.evaluators[id(evaluator)] = evaluator
        key = (id(evaluator), memo_key(phenotype))
        if key in self._seen_keys:
            span.attrs = {"hit": True}
        else:
            self._seen_keys.add(key)
            span.attrs = {"hit": False, "feasible": result.feasible}

    def install(self) -> "LayerTracer":
        patches = (
            (cacheopt.trace, "parse_din", "trace.parse_din", None),
            (cacheopt.charmodel, "load_table", "charmodel.load_table", None),
            (cacheopt.cli, "run_optimize", "cli.run_optimize", None),
            (cacheopt.cli, "evolve", "evolve.evolve", None),
            (EVOLVE, "map_genotype", "grammar.map_genotype", None),
            (EVOLVE.Evaluator, "evaluate", "evolve.evaluate", self._evaluate_attrs),
            (EVOLVE, "config_metrics", "objectives.config_metrics", None),
            (cacheopt.oracle, "config_metrics", "objectives.config_metrics", None),
            (cacheopt.objectives, "simulate", "cachesim.simulate", _simulate_attrs),
            (cacheopt.oracle, "exhaustive", "oracle.exhaustive", _exhaustive_attrs),
        )
        for owner, attr, name, annotate in patches:
            self.patch(owner, attr, name, annotate)
        return self

    def program_memo_hits(self) -> int:
        return sum(e.stats().memo_hits for e in self.evaluators.values())

    def sim_totals(self, inside_layers: bool = False) -> dict[str, int]:
        """Simulated statistics summed over simulate calls: every call, or
        only those made by a traced layer (not the benchmark's own
        baseline pricing for the sweeps)."""
        totals = dict.fromkeys(SIM_COUNTERS, 0)
        totals["calls"] = 0
        for s in self.spans:
            if s.name == "cachesim.simulate" and (s.parent >= 0 or not inside_layers):
                totals["calls"] += 1
                for k in SIM_COUNTERS:
                    totals[k] += s.attrs[k]
        return totals

    def metrics(self, run_s: float, trace_records: int) -> dict[str, float]:
        """Per-layer metrics of one traced repetition whose call took run_s."""
        own = self.self_ns()
        by_name: dict[str, list[int]] = {}
        for i, s in enumerate(self.spans):
            by_name.setdefault(s.name, []).append(i)
        spans = self.spans

        def count(name):
            return len(by_name.get(name, ()))

        def dur_s(name):
            return sum(spans[i].duration_ns for i in by_name.get(name, ())) / 1e9

        def self_s(name):
            return sum(own[i] for i in by_name.get(name, ())) / 1e9

        def ratio(a, b):
            return a / b if b else 0.0

        evals = [spans[i] for i in by_name.get("evolve.evaluate", ())]
        hits = [s for s in evals if s.attrs and s.attrs["hit"]]
        sims = [spans[i] for i in by_name.get("cachesim.simulate", ()) if spans[i].parent >= 0]
        sim_ms = sorted(s.duration_ns / 1e6 for s in sims)
        totals = self.sim_totals(inside_layers=True)
        exh = [spans[i].attrs for i in by_name.get("oracle.exhaustive", ()) if spans[i].attrs]
        cache_self = sum(s.duration_ns for s in sims) / 1e9  # simulate has no traced children

        m = {
            "trace.parse_us_per_line": ratio(dur_s("trace.parse_din") * 1e6, trace_records),
            "trace.records": trace_records,
            "charmodel.load_table_ms": dur_s("charmodel.load_table") * 1e3,
            "grammar.decode_calls": count("grammar.map_genotype"),
            "grammar.decode_us": ratio(dur_s("grammar.map_genotype") * 1e6,
                                       count("grammar.map_genotype")),
            "grammar.wrap_failures": sum(
                1 for i in by_name.get("grammar.map_genotype", ())
                if spans[i].attrs and spans[i].attrs.get("error") == "MappingError"
            ),
            "evolve.evaluate_calls": len(evals),
            "evolve.memo_hits": len(hits),
            "evolve.memo_hit_ratio": ratio(len(hits), len(evals)),
            "evolve.hit_us": ratio(sum(s.duration_ns for s in hits) / 1e3, len(hits)),
            "evolve.infeasible_keys": sum(
                1 for s in evals if s.attrs and not s.attrs["hit"] and not s.attrs["feasible"]
            ),
            "evolve.loop_self_s": self_s("evolve.evolve"),
            "objectives.price_calls": count("objectives.config_metrics"),
            "objectives.price_self_us": ratio(self_s("objectives.config_metrics") * 1e6,
                                              count("objectives.config_metrics")),
            "cachesim.simulate_calls": totals["calls"],
            "cachesim.accesses": totals["accesses"],
            "cachesim.self_s": cache_self,
            "cachesim.share": ratio(cache_self, run_s),
            "cachesim.ns_per_access": ratio(cache_self * 1e9, totals["accesses"]),
            "cachesim.simulate_ms_p50": _quantile(sim_ms, 0.5),
            "cachesim.simulate_ms_p90": _quantile(sim_ms, 0.9),
        }
        for c in CLASSES:
            cls = [s for s in sims if s.attrs.get("class") == c]
            m[f"cachesim.ns_per_access.{c}"] = ratio(
                sum(s.duration_ns for s in cls), sum(s.attrs["accesses"] for s in cls)
            )
        m.update({
            "cachesim.demand_miss_ratio": ratio(totals["demand_misses"], totals["accesses"]),
            "cachesim.prefetch_fill_ratio": ratio(totals["prefetch_fills"], totals["accesses"]),
            "cachesim.write_backs": totals["write_backs"],
            "oracle.points": sum(a["points"] for a in exh),
            "oracle.infeasible_points": sum(a["infeasible"] for a in exh),
            "oracle.self_s": self_s("oracle.exhaustive"),
            "cli.self_s": self_s("cli.run_optimize"),
        })
        return m


def _quantile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank quantile; 0.0 when there are no values."""
    if not sorted_values:
        return 0.0
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def median_metrics(reps: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(r[name] for r in reps) for name in reps[0]}
