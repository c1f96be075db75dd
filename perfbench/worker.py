"""One workload in one single-threaded process (started by run.py).

Reads the generated din text and characterization CSV from --workdir,
runs one untimed, recorded repetition whose outputs are checked, then
repeats set-up plus the workload's timed calls until --seconds have
passed. Every timed call runs between two reference-kernel runs and is
reported in reference seconds (see calibrate.py). With --trace 1 the
repetitions alternate between untraced and traced. The last stdout line
is the result as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import cacheopt.charmodel
import cacheopt.cli
import cacheopt.oracle
import cacheopt.trace
from cacheopt.cachesim import DEFAULT_BASELINE, config_sim_seed
from cacheopt.charmodel import DramParams
from cacheopt.evolve import GEParams
from cacheopt.grammar import DEFAULT_GRAMMAR
from cacheopt.objectives import FitnessWeights, MissMode, config_metrics
from cacheopt.oracle import Subspace

import checks as chk
from calibrate import REF_S, Clock
from layers import PER_LAYER, SIM_COUNTERS, LayerTracer, median_metrics
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
WEIGHTS = FitnessWeights()
SETUPS_PER_REP = 3
MISS_MODE = MissMode.DEMAND_PLUS_PREFETCH

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "configs_per_s": "1/s",
    "peak_rss_mb": "MiB",
}


@dataclass
class Outcome:
    parts_s: tuple[float, ...]  # wall time of each timed call
    scaled_s: tuple[float, ...]  # the same in reference seconds
    configs: int  # distinct feasible design points priced
    digest: str  # of every output, random points included
    baseline: object  # baseline Metrics the calls priced against (sweeps)
    results: tuple = ()  # ExhaustiveResult per subspace (sweeps only)

    @property
    def run_s(self) -> float:
        return sum(self.parts_s)


def setup(din_path: Path, csv_path: Path):
    """din text -> parse_din and CSV -> load_table."""
    with open(din_path) as fh:
        trace = cacheopt.trace.parse_din(fh)
    return trace, cacheopt.charmodel.load_table(csv_path)


def ge_call(spec: Workload, seed: int, outdir: Path):
    campaign = spec.campaign

    def call(trace, table, clock: Clock) -> Outcome:
        parts, scaled, configs = [], [], 0
        digest = hashlib.sha256()
        for k in range(campaign.calls):
            call_seed = seed + k * campaign.runs
            rc = cacheopt.cli.RunConfig(
                trace=trace, table=table, dram=DramParams(), baseline=DEFAULT_BASELINE,
                params=GEParams(
                    generations=campaign.generations,
                    population=campaign.population,
                    rng_seed=call_seed,
                ),
                weights=WEIGHTS, miss_mode=MISS_MODE, grammar_text=DEFAULT_GRAMMAR,
                outdir=outdir / str(k), runs=campaign.runs, jobs=1, shared_memo=True,
                seed=call_seed,
            )
            with contextlib.redirect_stdout(io.StringIO()):
                summary, wall, ref = clock.time(cacheopt.cli.run_optimize, rc)
            parts.append(wall)
            scaled.append(ref)
            configs += summary["unique_evals"]
            for path in sorted(rc.outdir.iterdir()):
                digest.update(f"{k}/{path.name}".encode() + b"\0" + path.read_bytes())
        return Outcome(tuple(parts), tuple(scaled), configs, digest.hexdigest(), None)

    return call


def sweep_call(spec: Workload, seed: int):
    subspaces = [Subspace(**s) for s in spec.subspaces]

    def call(trace, table, clock: Clock) -> Outcome:
        dram = DramParams()
        baseline = config_metrics(
            DEFAULT_BASELINE, trace, table, dram, MISS_MODE,
            rng_seed=config_sim_seed(DEFAULT_BASELINE, seed),
        )
        parts, scaled, results = [], [], []
        for sub in subspaces:
            result, wall, ref = clock.time(
                cacheopt.oracle.exhaustive,
                sub, trace, table, dram, baseline, WEIGHTS, MISS_MODE, sim_seed_base=seed,
            )
            results.append(result)
            parts.append(wall)
            scaled.append(ref)
        lines = [
            chk.point_line(r.config, r.metrics, r.fitness)
            for result in results for r in result.ranked
        ] + [
            f"{config.to_flags()},{'; '.join(problems)}"
            for result in results for config, problems in result.infeasible
        ]
        configs = sum(len(result.ranked) for result in results)
        return Outcome(tuple(parts), tuple(scaled), configs, chk.sha("\n".join(lines)),
                       baseline, tuple(results))

    return call


def median_sum(parts: list[tuple[float, ...]]) -> float:
    """Sum over the timed calls of each call's median over repetitions."""
    return sum(statistics.median(times) for times in zip(*parts))


def check_first(checks, spec, call, args, din_path, csv_path, expected):
    """The untimed, recorded repetition and its checks; returns its outcome
    and the simulated totals that traced repetitions must reproduce."""
    kinds = chk.count_kinds(din_path)
    trace, table = setup(din_path, csv_path)
    with chk.Recorder() as rec:
        out = call(trace, table, Clock())
    if spec.campaign is None:
        baseline, baseline_pricings = out.baseline, 1
    else:  # each campaign prices the baseline before it searches
        baseline = next(m for c, m in rec.priced if c == DEFAULT_BASELINE)
        baseline_pricings = spec.campaign.calls
    chk.check_sims(checks, rec.sims, kinds)
    checks.check(len(rec.sims) == out.configs + baseline_pricings,
                 "simulations != feasible points priced + baseline pricings")
    chk.check_baseline(checks, baseline, rec.priced, WEIGHTS)
    chk.check_reference_lru(checks, rec.sims, trace)
    if spec.campaign is None:
        values = {"digest": chk.sweep_digest(out.results)}
    else:
        values = {"points": chk.point_map(rec.priced)}
    if args.record:
        expected = {"seed": args.seed, "scale": args.scale,
                    "workloads": {**expected.get("workloads", {}), spec.name: values}}
        args.expected.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    elif expected.get("seed") == args.seed and expected.get("scale") == args.scale:
        recorded = expected["workloads"][spec.name]
        if "digest" in recorded:
            checks.check(values["digest"] == recorded["digest"],
                         "LRU/FIFO digest differs from expected.json")
        else:
            covered = chk.check_point_map(checks, values["points"], recorded["points"])
            checks.check(covered > 0, "no LRU/FIFO point of expected.json was priced")
    totals = {k: sum(getattr(i, k) + getattr(d, k) for _, i, d in rec.sims) for k in SIM_COUNTERS}
    totals["calls"] = len(rec.sims)
    return out, totals, len(trace)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", default="full")
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--expected", type=Path, default=HERE / "expected.json")
    ap.add_argument("--spans", type=Path, default=None)
    ap.add_argument("--record", action="store_true",
                    help="write this seed's LRU/FIFO results into --expected instead of checking")
    args = ap.parse_args(argv)

    spec = WORKLOADS[args.scale][args.workload]
    din_path, csv_path = args.workdir / "trace.din", args.workdir / "chars.csv"
    if spec.campaign is not None:
        call = ge_call(spec, args.seed, args.workdir / "ge_out")
    else:
        call = sweep_call(spec, args.seed)
    expected = json.loads(args.expected.read_text()) if args.expected.exists() else {}
    checks = chk.Checks()
    first, totals, records = check_first(
        checks, spec, call, args, din_path, csv_path, expected
    )

    setups, parts, walls, traced_parts, traced_metrics = [], [], [], [], []
    last_tracer = None
    clock = Clock()
    deadline = perf_counter() + args.seconds
    rep, rep_walls = 0, []
    while True:
        rep_start = perf_counter()
        traced = bool(args.trace) and rep % 2 == 1
        tracer = LayerTracer().install() if traced else None
        try:
            rep_setups = []
            for _ in range(SETUPS_PER_REP):
                (trace, table), _, ref = clock.time(setup, din_path, csv_path)
                rep_setups.append(ref)
            out = call(trace, table, clock)
        finally:
            if tracer is not None:
                tracer.restore()
        checks.check(out.digest == first.digest, f"repetition {rep} output differs")
        if traced:
            traced_parts.append(out.scaled_s)
            checks.check(tracer.sim_totals() == totals,
                         "traced simulated statistics differ from untraced")
            if spec.campaign is not None:
                checks.check(tracer.program_memo_hits() == sum(
                    1 for s in tracer.spans if s.name == "evolve.evaluate" and s.attrs["hit"]),
                    "traced memo hits differ from the evaluator's count")
            traced_metrics.append(tracer.metrics(out.run_s, records))
            last_tracer = tracer
        else:
            parts.append(out.scaled_s)
            walls.append(out.run_s)
            setups.extend(rep_setups)
        rep += 1
        rep_walls.append(perf_counter() - rep_start)
        # Stop when another repetition would end after the deadline.
        if (traced_parts or not args.trace) and (
            perf_counter() + statistics.median(rep_walls) > deadline
        ):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    run_s = median_sum(parts)
    kernel = clock.kernel_times
    for line in checks.messages:
        print(f"check failed: {line}", file=sys.stderr)
    print(f"{spec.name}: {len(parts)} untraced repetitions of {len(parts[0])} timed call(s); "
          f"wall time per repetition: min {min(walls):.6f} s, "
          f"median {statistics.median(walls):.6f} s, max {max(walls):.6f} s; "
          f"reference kernel ({REF_S} s at reference speed): min {min(kernel):.6f} s, "
          f"median {statistics.median(kernel):.6f} s, max {max(kernel):.6f} s")
    if args.trace:
        metrics = median_metrics(traced_metrics)
        metrics["bench.trace_overhead_frac"] = median_sum(traced_parts) / run_s - 1
        units = PER_LAYER
        if args.spans is not None:
            args.spans.parent.mkdir(parents=True, exist_ok=True)
            last_tracer.dump(args.spans)
            print(f"spans of the last traced repetition written to {args.spans}")
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "run_s": run_s,
            "configs_per_s": first.configs / run_s,
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
    for name, value in metrics.items():
        print(f"{spec.name} {name} = {value:.6g} {units[name]}")
    print(f"{spec.name} error_rate = {checks.error_rate:.6g} ratio "
          f"({checks.failed} of {checks.attempted} checks failed)")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
