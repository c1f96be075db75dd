"""Command-line surface wiring traces, tables, models, search and reports.

Subcommands: gentrace, characterize, simulate, optimize, exhaustive,
report. Every command is deterministic given its flags and --seed; data
files carry no timestamps, so reruns overwrite byte-identical outputs.
Exit codes: 0 success, 2 validation error, 1 internal error.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import statistics
import sys
from contextlib import nullcontext
from dataclasses import dataclass, replace
from itertools import islice
from pathlib import Path

from .cachesim import (
    DEFAULT_BASELINE,
    DOMAINS,
    FLAG_ORDER,
    VALUE_TOKENS,
    CacheConfig,
    SideStreams,
    geometry_problems,
    n_sets,
    simulate,
)
from .charmodel import (
    CharTable,
    DramParams,
    load_dram_params,
    load_table,
    save_table,
    surrogate_generate,
)
from .errors import CacheOptError, InfeasibleConfigError, ValidationError
from .evolve import Evaluator, GEParams, evolve
from .grammar import DEFAULT_GRAMMAR, Grammar, parse_bnf
from .objectives import FitnessWeights, MissMode, config_metrics, metrics_from_stats
from .oracle import Subspace, exhaustive
from .trace import PROFILES, TraceRecord, synthetic_records, to_din


@dataclass
class RunConfig:
    """Resolved inputs for one optimization campaign.

    params.rng_seed is not read: run i evolves from seed + i."""

    trace: list[TraceRecord] | SideStreams
    table: CharTable
    dram: DramParams
    baseline: CacheConfig
    params: GEParams
    weights: FitnessWeights
    miss_mode: MissMode
    grammar_text: str
    outdir: Path
    runs: int = 10
    jobs: int = 1  # only 1: evaluation is serial; perfbench/worker.py still passes jobs=1
    shared_memo: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.runs < 1:
            raise ValidationError("runs must be >= 1")
        if self.jobs != 1:
            raise ValidationError(f"jobs must be 1 (evaluation is serial), got {self.jobs}")
        if not self.trace:
            raise ValidationError("the trace holds no records")
        _check_baseline(self.baseline)


def _check_baseline(config: CacheConfig) -> None:
    if problems := geometry_problems(config):
        raise ValidationError("baseline configuration is infeasible: " + "; ".join(problems))


def _side_triples(config: CacheConfig) -> set[tuple[int, int, int]]:
    return {(config.isize, config.ibsize, config.iassoc),
            (config.dsize, config.dbsize, config.dassoc)}


def _not_a_flag(token: str) -> ValidationError:
    """The fault of a token found where only a flag can stand."""
    if not any(token in tokens for tokens in VALUE_TOKENS.values()):
        return ValidationError(f"grammar terminal {token!r} is neither a flag nor a value")
    return ValidationError(f"grammar can derive a phenotype of more than {2 * len(FLAG_ORDER)}"
                           f" tokens, not {2 * len(FLAG_ORDER)} (each flag with one value)")


def _check_grammar(grammar: Grammar) -> tuple[set[tuple[int, int, int]], int]:
    """Check that every phenotype of the grammar is flag text that
    CacheConfig.from_flags accepts; return the (size, block, assoc) rows of
    the feasible sides it derives (none if no point can be feasible) and the
    fewest codons any derivation consumes, wraps included.

    A fixed point over the rules reachable from the start symbol finds the
    shapes each symbol derives: (first token, flags held, the flag it ends
    with if that still needs a value, the values it gives one side's three
    geometry flags). A join of two shapes checks that a flag is followed by
    a value of it, a value by a flag, and that no flag repeats. Each start
    shape must begin with a flag, end with a value and hold all 11 flags; a
    reachable symbol with no shape derives nothing. One pass per side keeps
    the rows exact when the grammar picks I and D geometry independently,
    and a superset otherwise. Each visit also sets a symbol's codon count
    to 1 + the least sum of counts over its alternatives, terminals 0; the
    root expansion of a single-alternative start rule consumes no codon,
    as in map_genotype.
    """
    rules, flags_all = grammar.rules, frozenset(FLAG_ORDER)
    reachable = [grammar.start]
    for symbol in reachable:  # grows as it is walked
        for alt in rules[symbol]:
            for sym in alt:
                if sym in rules and sym not in reachable:
                    reachable.append(sym)

    def of(sym: str) -> dict:
        if sym in rules:
            return shapes[sym]
        held = flags_all & {sym}
        return {(sym, held, sym if held else None, frozenset()): None}

    def join(left, right):
        first, flags, pending, geometry = left
        token = right[0]
        if pending is not None:
            values = VALUE_TOKENS[pending[4:]]
            if token not in values:
                raise ValidationError(f"grammar gives {pending} the value {token!r}, "
                                      f"outside permitted set {DOMAINS[pending[4:]]}")
            if pending in side:
                geometry = geometry | {(pending, values[token])}
        elif token not in flags_all:
            raise _not_a_flag(token)
        if flags & right[1]:
            flag = min(flags & right[1], key=FLAG_ORDER.index)
            raise ValidationError(f"grammar can derive a phenotype with {flag} more than once")
        return first, flags | right[1], right[2], geometry | right[3]

    rows = []
    for side in ([f"-l1-{s}{n}" for n in ("size", "bsize", "assoc")] for s in "id"):
        shapes = {symbol: {} for symbol in reachable}  # dicts as ordered sets
        codons = dict.fromkeys(reachable, math.inf)
        used = {}  # the shape-set sizes and codon counts each symbol was last built from
        changed = True
        while changed:
            changed = False
            for symbol in reversed(reachable):
                inputs = [(len(shapes[sym]), codons[sym])
                          for alt in rules[symbol] for sym in alt if sym in rules]
                if used.get(symbol) == inputs:
                    continue
                used[symbol] = inputs
                fewest = 1 + min(sum(codons.get(sym, 0) for sym in alt) for alt in rules[symbol])
                changed |= fewest != codons[symbol]
                codons[symbol] = fewest
                for alt in rules[symbol]:
                    acc = of(alt[0])
                    for sym in alt[1:]:
                        acc = dict.fromkeys(join(left, right) for left in acc for right in of(sym))
                    size = len(shapes[symbol])
                    shapes[symbol].update(acc)
                    changed |= len(shapes[symbol]) != size
        for symbol in reachable:
            if not shapes[symbol]:
                raise ValidationError(f"grammar rule {symbol} derives nothing: it never ends")
        for first, flags, pending, _ in shapes[grammar.start]:
            if pending is not None:
                raise ValidationError(
                    f"grammar can end the phenotype with {pending}, which needs a value")
            for flag in FLAG_ORDER:
                if flag not in flags:
                    raise ValidationError(f"grammar can derive a phenotype without {flag}")
            if first not in flags_all:
                raise _not_a_flag(first)
        triples = {tuple(map(dict(shape[3]).get, side)) for shape in shapes[grammar.start]}
        rows.append({triple for triple in triples if n_sets(*triple)})
    need = codons[grammar.start]
    if len(rules[grammar.start]) == 1:
        need -= 1
    return rows[0] | rows[1] if all(rows) else set(), need


def _baseline(args) -> CacheConfig:
    config = CacheConfig.from_flags(args.baseline_flags)
    _check_baseline(config)
    return config


def _fmt(value: float) -> str:
    return repr(float(value))


def _write_csv(path: Path, header, rows) -> None:
    """Write one result CSV: a header row, then rows, each line ended by "\n"."""
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _load_trace(args) -> SideStreams:
    cap = args.max_records
    if cap is not None and cap < 0:
        raise ValidationError(f"--max-records must be >= 0, got {cap}")
    with Path(args.trace).open() as fh:
        return SideStreams.from_din(fh, max_records=cap)


def _load_campaign_trace(args) -> SideStreams:
    """The trace of an optimize or exhaustive campaign, which needs a record."""
    trace = _load_trace(args)
    if not trace:
        raise ValidationError(f"trace {args.trace} holds no records")
    return trace


def _load_char_table(args) -> CharTable:
    if args.table is not None:
        return load_table(args.table, strict=args.strict_table)
    return surrogate_generate(args.surrogate_seed)


def _load_dram(args) -> DramParams:
    dram = load_dram_params(args.dram_config) if args.dram_config else DramParams()
    overrides = {name: value for name in ("access_time", "bandwidth", "access_power")
                 if (value := getattr(args, "dram_" + name)) is not None}
    return replace(dram, **overrides) if overrides else dram


def _add_trace_options(parser) -> None:
    parser.add_argument("--trace", required=True, help="din trace file")
    parser.add_argument(
        "--max-records", type=int, default=None, metavar="N",
        help="ingest at most N trace records",
    )


def _add_table_options(parser) -> None:
    parser.add_argument("--table", default=None, help="characterization CSV file")
    parser.add_argument(
        "--strict-table", action="store_true",
        help="require all 256 hardware triples in --table",
    )
    parser.add_argument(
        "--surrogate-seed", type=int, default=0, metavar="SEED",
        help="generate a surrogate table with this seed when --table is absent",
    )


def _add_dram_options(parser) -> None:
    parser.add_argument("--dram-config", default=None, help="dram.* key-value file")
    parser.add_argument("--dram-access-time", type=float, default=None, metavar="S")
    parser.add_argument("--dram-bandwidth", type=float, default=None, metavar="BPS")
    parser.add_argument("--dram-access-power", type=float, default=None, metavar="W")


def _add_model_options(parser) -> None:
    parser.add_argument(
        "--miss-mode", choices=[m.value for m in MissMode],
        default=MissMode.DEMAND_PLUS_PREFETCH.value,
        help="whether prefetch fills are priced like demand misses",
    )
    parser.add_argument(
        "--w-time", type=float, default=FitnessWeights.w_time, metavar="W",
        help="fitness weight on execution time (energy gets 1-W)",
    )
    parser.add_argument(
        "--baseline-flags", default=DEFAULT_BASELINE.to_flags(), metavar="FLAGS",
        help="baseline configuration as simulator flag text",
    )


DIN_CHUNK = 1 << 16  # records gentrace renders per write: it never holds a whole trace


def cmd_gentrace(args) -> None:
    records = synthetic_records(args.profile, args.records, args.seed)
    with open(args.out, "w") if args.out else nullcontext(sys.stdout) as out:
        out.writelines(iter(lambda: to_din(islice(records, DIN_CHUNK)), ""))
    if args.out:
        print(f"wrote {args.records} records to {args.out}")


def cmd_characterize(args) -> None:
    if not args.surrogate:
        raise ValidationError("only surrogate generation is supported; pass --surrogate")
    table = surrogate_generate(args.seed)
    save_table(table, args.out)
    print(f"wrote {len(table)} characterization rows to {args.out}")


def cmd_simulate(args) -> None:
    config = CacheConfig.from_flags(args.flags)
    if problems := geometry_problems(config):
        raise InfeasibleConfigError("; ".join(problems))
    table = _load_char_table(args)
    table.check_complete(_side_triples(config))  # before the trace is read
    dram = _load_dram(args)
    trace = _load_trace(args)
    istats, dstats = simulate(config, trace, rng_seed=args.seed)
    metrics = metrics_from_stats(istats, dstats, table, config, dram, MissMode(args.miss_mode))
    rows = [
        ("icache_accesses", istats.accesses),
        ("icache_demand_misses", istats.demand_misses),
        ("icache_prefetch_fills", istats.prefetch_fills),
        ("dcache_accesses", dstats.accesses),
        ("dcache_demand_misses", dstats.demand_misses),
        ("dcache_prefetch_fills", dstats.prefetch_fills),
        ("dcache_write_backs", dstats.write_backs),
        ("dcache_write_throughs", dstats.write_throughs),
        ("dcache_final_flush", dstats.final_flush),
        ("exec_time_s", _fmt(metrics.exec_time)),
        ("energy_j", _fmt(metrics.energy)),
    ]
    print(
        f"I-cache: accesses={istats.accesses} demand_misses={istats.demand_misses} "
        f"prefetch_fills={istats.prefetch_fills}"
    )
    print(
        f"D-cache: accesses={dstats.accesses} demand_misses={dstats.demand_misses} "
        f"prefetch_fills={dstats.prefetch_fills} write_backs={dstats.write_backs} "
        f"write_throughs={dstats.write_throughs} final_flush={dstats.final_flush}"
    )
    print(f"exec_time_s = {_fmt(metrics.exec_time)}")
    print(f"energy_j = {_fmt(metrics.energy)}")
    if args.out:
        _write_csv(Path(args.out), ("key", "value"), rows)


def run_optimize(rc: RunConfig) -> dict:
    """Execute the multi-run campaign and write the result bundle.

    Run i uses seed rc.seed + i. With rc.shared_memo one evaluator serves
    every run; otherwise each run gets its own, which prices the baseline
    again.
    """
    grammar = parse_bnf(rc.grammar_text)
    rc.outdir.mkdir(parents=True, exist_ok=True)
    streams = SideStreams.of(rc.trace)
    evaluator = None
    bests = []
    total_sims = 0
    for run in range(rc.runs):
        if evaluator is None or not rc.shared_memo:
            evaluator = Evaluator(
                streams, rc.table, rc.dram, rc.baseline, rc.weights, rc.miss_mode,
                sim_seed_base=rc.seed,
            )
        sims_before = evaluator.stats().sim_invocations
        result = evolve(replace(rc.params, rng_seed=rc.seed + run), grammar, evaluator)
        total_sims += evaluator.stats().sim_invocations - sims_before
        bests.append(result.best)
        _write_csv(
            rc.outdir / f"run_{run:02d}_log.csv",
            ("generation", "best", "mean", "worst", "unique_evals", "memo_hits"),
            ((row.generation, _fmt(row.best), _fmt(row.mean), _fmt(row.worst),
              row.unique_evals, row.memo_hits) for row in result.log),
        )
    baseline = evaluator.baseline_metrics  # every evaluator prices the same baseline

    best_fits = [best.fitness for best in bests]
    best_fitness = min(best_fits)
    max_evals = rc.runs * rc.params.population * rc.params.generations
    savings_pct = 100.0 * (1.0 - total_sims / max_evals)

    rows, pct_times, pct_energies = [], [], []
    for run, best in enumerate(bests):
        head = (run, rc.seed + run, _fmt(best.fitness))
        if best.metrics is None:
            rows.append((*head, "", "", "", "", ""))
            continue
        t, e = best.metrics
        pct_t, pct_e = 100.0 * t / baseline.exec_time, 100.0 * e / baseline.energy
        pct_times.append(pct_t)
        pct_energies.append(pct_e)
        rows.append((*head, _fmt(t), _fmt(e), _fmt(pct_t), _fmt(pct_e), best.phenotype))

    _write_csv(
        rc.outdir / "runs.csv",
        ("run", "seed", "best_fitness", "exec_time_s", "energy_j",
         "pct_time", "pct_energy", "phenotype"),
        rows,
    )

    summary = {
        "runs": rc.runs,
        "generations": rc.params.generations,
        "population": rc.params.population,
        "mean_best_fitness": statistics.fmean(best_fits),
        "stddev_best_fitness": statistics.stdev(best_fits) if len(best_fits) > 1 else 0.0,
        "best_fitness": best_fitness,
        "best_count": sum(1 for f in best_fits if f == best_fitness),
        "avg_pct_time": statistics.fmean(pct_times) if pct_times else float("nan"),
        "avg_pct_energy": statistics.fmean(pct_energies) if pct_energies else float("nan"),
        "unique_evals": total_sims,
        "max_evals": max_evals,
        "memo_savings_pct": savings_pct,
    }
    _write_csv(
        rc.outdir / "summary.csv",
        summary.keys(),
        [[_fmt(v) if isinstance(v, float) else v for v in summary.values()]],
    )

    best = bests[best_fits.index(best_fitness)]
    lines = [best.phenotype or "", f"fitness = {_fmt(best.fitness)}"]
    if best.metrics is not None:
        lines.append(f"exec_time_s = {_fmt(best.metrics.exec_time)}")
        lines.append(f"energy_j = {_fmt(best.metrics.energy)}")
    (rc.outdir / "best.txt").write_text("\n".join(lines) + "\n")

    print(f"best fitness {_fmt(best_fitness)} over {rc.runs} run(s)")
    print(f"best phenotype: {best.phenotype}")
    print(f"memo savings: {savings_pct:.2f}% ({total_sims} of {max_evals} evaluations run)")
    return summary


# The GEParams fields that optimize takes as options, defaults and all;
# rng_seed is --seed + run.
_GE_OPTIONS = ("generations", "population", "p_crossover", "p_mutation", "elitism",
               "tournament_size", "max_wraps", "codon_count")


def cmd_optimize(args) -> None:
    if args.runs < 1:
        raise ValidationError(f"--runs must be >= 1, got {args.runs}")
    grammar_text = (
        Path(args.grammar).read_text() if args.grammar else DEFAULT_GRAMMAR
    )
    grammar = parse_bnf(grammar_text)  # a bad grammar fails before any input is read
    triples, need = _check_grammar(grammar)
    if not triples:
        raise ValidationError("grammar derives no feasible configuration: on some side,"
                              " every block x assoc it can pick exceeds its cache size")
    params = GEParams(**{name: getattr(args, name) for name in _GE_OPTIONS})
    budget = params.codon_count * params.max_wraps
    if budget < need:
        raise ValidationError(
            f"--codon-count {params.codon_count} x --max-wraps {params.max_wraps} gives"
            f" {budget} codons, but every derivation of the grammar consumes at least"
            f" {need}: no genotype would decode")
    baseline = _baseline(args)
    weights = FitnessWeights(args.w_time)
    table = _load_char_table(args)
    table.check_complete(triples | _side_triples(baseline))  # not mid-campaign
    dram = _load_dram(args)
    rc = RunConfig(
        trace=_load_campaign_trace(args),
        table=table,
        dram=dram,
        baseline=baseline,
        params=params,
        weights=weights,
        miss_mode=MissMode(args.miss_mode),
        grammar_text=grammar_text,
        outdir=Path(args.outdir),
        runs=args.runs,
        shared_memo=not args.no_shared_memo,
        seed=args.seed,
    )
    run_optimize(rc)


def cmd_exhaustive(args) -> None:
    baseline_config = _baseline(args)
    weights = FitnessWeights(args.w_time)
    miss_mode = MissMode(args.miss_mode)
    values = {}
    for name in DOMAINS:
        raw = getattr(args, name)
        if raw is not None:
            parts = [p.strip() for p in raw.split(",") if p.strip()]
            # as flag text spells them; Subspace names any other token
            values[name] = tuple(VALUE_TOKENS[name].get(p, p) for p in parts)
    sub = Subspace(**values)
    sub.check_cap(args.cap)
    table = _load_char_table(args)
    dram = _load_dram(args)
    # Every row the baseline and the enumeration will look up, checked
    # before anything is simulated.
    table.check_complete(sub.triples() | _side_triples(baseline_config))
    trace = _load_campaign_trace(args)
    baseline = config_metrics(baseline_config, trace, table, dram, miss_mode, args.seed)
    result = exhaustive(
        sub, trace, table, dram, baseline, weights, miss_mode,
        cap=args.cap, sim_seed_base=args.seed,
    )
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_csv(
        outdir / "ranked.csv",
        ("fitness", "exec_time_s", "energy_j", "phenotype"),
        ((_fmt(r.fitness), _fmt(r.metrics.exec_time), _fmt(r.metrics.energy),
          r.config.to_flags()) for r in result.ranked),
    )
    _write_csv(
        outdir / "infeasible.csv",
        ("phenotype", "problem"),
        ((config.to_flags(), "; ".join(problems)) for config, problems in result.infeasible),
    )
    print(
        f"evaluated {len(result.ranked)} feasible configurations "
        f"({len(result.infeasible)} infeasible)"
    )
    if result.ranked:
        top = result.ranked[0]
        print(f"optimum fitness {_fmt(top.fitness)}: {top.config.to_flags()}")


def cmd_report(args) -> None:
    rows = []
    for directory in args.rundirs:
        path = Path(directory) / "summary.csv"
        if not path.exists():
            raise ValidationError(f"no summary.csv under {directory}")
        with path.open(newline="") as fh:
            summary = next(csv.DictReader(fh), {})
        for column in ("avg_pct_energy", "avg_pct_time"):
            value = summary.get(column)
            if not value:
                raise ValidationError(f"{path}: no {column} value")
            try:
                finite = math.isfinite(float(value))
            except ValueError:
                finite = False
            if not finite:
                raise ValidationError(f"{path}: {column} value {value!r} is not a finite number")
        name = Path(os.path.abspath(directory)).name  # "." and "run/.." name a directory
        rows.append((name, summary["avg_pct_energy"], summary["avg_pct_time"]))
    _write_csv(Path(args.out), ("benchmark", "pct_energy", "pct_time"), rows)
    for name, pct_e, pct_t in rows:
        print(f"{name}: energy {pct_e}% of baseline, time {pct_t}% of baseline")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cacheopt",
        description="Search L1 instruction/data cache configurations for a "
        "memory-access trace by grammatical evolution.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gentrace", help="generate a synthetic din trace")
    p.add_argument("--profile", choices=PROFILES, required=True)
    p.add_argument("-n", "--records", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--out", default=None, help="output din file (default stdout)")
    p.set_defaults(func=cmd_gentrace)

    p = sub.add_parser("characterize", help="emit a characterization table CSV")
    p.add_argument("--surrogate", action="store_true",
                   help="generate the surrogate table (the only supported source)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_characterize)

    p = sub.add_parser("simulate", help="simulate one configuration over a trace")
    _add_trace_options(p)
    _add_table_options(p)
    _add_dram_options(p)
    p.add_argument("--flags", default=DEFAULT_BASELINE.to_flags(),
                   help="configuration as simulator flag text (default: baseline)")
    p.add_argument("--miss-mode", choices=[m.value for m in MissMode],
                   default=MissMode.DEMAND_PLUS_PREFETCH.value)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--out", default=None, help="also write counters as CSV")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("optimize", help="evolve cache configurations against a trace")
    _add_trace_options(p)
    _add_table_options(p)
    _add_dram_options(p)
    _add_model_options(p)
    p.add_argument("--grammar", default=None, help="BNF grammar file (default: built-in)")
    p.add_argument("--runs", type=int, default=RunConfig.runs)
    for name in _GE_OPTIONS:
        default = getattr(GEParams, name)
        p.add_argument("--" + name.replace("_", "-"), type=type(default), default=default)
    p.add_argument("--seed", type=int, default=0, help="master seed; run i uses seed+i")
    p.add_argument("--no-shared-memo", action="store_true",
                   help="give each run its own evaluation memo")
    p.add_argument("-o", "--outdir", required=True)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("exhaustive", help="rank every configuration of a subspace")
    _add_trace_options(p)
    _add_table_options(p)
    _add_dram_options(p)
    _add_model_options(p)
    for name in DOMAINS:
        p.add_argument(f"--{name}", default=None, metavar="V1,V2,...",
                       help=f"allowed {name} values (default: full set)")
    p.add_argument("--cap", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--outdir", required=True)
    p.set_defaults(func=cmd_exhaustive)

    p = sub.add_parser("report", help="merge optimize outputs into a percent-of-baseline CSV")
    p.add_argument("rundirs", nargs="+", help="optimize output directories")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (ValidationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CacheOptError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
