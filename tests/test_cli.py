import csv
from dataclasses import fields

import pytest

import cacheopt.evolve as EVOLVE
from cacheopt import cli, objectives
from cacheopt.charmodel import CharTable, DramParams, save_table, surrogate_generate
from cacheopt.cli import RunConfig, _build_parser, _check_grammar, main, run_optimize
from cacheopt.cachesim import DEFAULT_BASELINE, SideStreams, simulate
from cacheopt.errors import ValidationError
from cacheopt.evolve import GEParams
from cacheopt.grammar import DEFAULT_GRAMMAR, parse_bnf
from cacheopt.objectives import INFEASIBLE_FITNESS, FitnessWeights, MissMode, metrics_from_stats
from cacheopt.oracle import Subspace
from cacheopt.trace import AccessKind, TraceRecord, gen_synthetic, parse_din, to_din

ONE_POINT_GRAMMAR = """\
<DineroParams> ::= -l1-isize <S> -l1-ibsize <B> -l1-irepl <R> -l1-iassoc <A>
                   -l1-ifetch <F> -l1-dsize <S> -l1-dbsize <B> -l1-drepl <R>
                   -l1-dassoc <A> -l1-dfetch <F> -l1-dwback <W>
<S> ::= 16384
<B> ::= 32
<R> ::= l
<A> ::= 4
<F> ::= d
<W> ::= a
"""


def write_trace(path, n=200, profile="mixed", seed=3):
    assert main(["gentrace", "--profile", profile, "-n", str(n),
                 "--seed", str(seed), "-o", str(path)]) == 0
    return path


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# --- gentrace / characterize ----------------------------------------------

def test_gentrace_writes_din_file(tmp_path):
    out = tmp_path / "t.din"
    assert main(["gentrace", "--profile", "sequential", "-n", "3", "-o", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines == ["2 0", "2 4", "2 8"]
    with out.open() as fh:
        assert len(parse_din(fh)) == 3


def test_gentrace_stdout(capsys):
    assert main(["gentrace", "--profile", "sequential", "-n", "2"]) == 0
    assert capsys.readouterr().out == "2 0\n2 4\n"


@pytest.mark.parametrize("chunk,n", [(7, 0), (7, 6), (7, 7), (7, 8), (7, 23), (None, 1 << 16 | 3)])
def test_gentrace_chunks_write_one_text(tmp_path, capsys, monkeypatch, chunk, n):
    """gentrace renders DIN_CHUNK records at a time (7 here, or its own
    size): across chunk boundaries the file and stdout each hold exactly
    to_din(gen_synthetic(...))."""
    if chunk is not None:
        monkeypatch.setattr(cli, "DIN_CHUNK", chunk)
    args = ["gentrace", "--profile", "mixed", "-n", str(n), "--seed", "3"]
    want = to_din(gen_synthetic("mixed", n, 3))
    out = tmp_path / "t.din"
    assert main([*args, "-o", str(out)]) == 0
    assert out.read_bytes() == want.encode()
    assert capsys.readouterr().out == f"wrote {n} records to {out}\n"
    assert main(args) == 0
    assert capsys.readouterr().out == want


def test_characterize_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["characterize", "--surrogate", "--seed", "1", "-o", str(a)]) == 0
    assert main(["characterize", "--surrogate", "--seed", "1", "-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert len(a.read_text().splitlines()) == 257  # header + 256 rows


def test_characterize_requires_surrogate_flag(tmp_path, capsys):
    assert main(["characterize", "-o", str(tmp_path / "x.csv")]) == 2
    assert "surrogate" in capsys.readouterr().err


# --- simulate ----------------------------------------------------------------

def test_simulate_repeat_trace_matches_library(tmp_path, capsys):
    trace_path = tmp_path / "t.din"
    trace_path.write_text("2 0\n2 0\n")
    out_csv = tmp_path / "stats.csv"
    assert main(["simulate", "--trace", str(trace_path), "-o", str(out_csv)]) == 0
    printed = capsys.readouterr().out
    assert "accesses=2" in printed and "demand_misses=1" in printed
    rows = {r["key"]: r["value"] for r in read_csv(out_csv)}
    assert rows["icache_accesses"] == "2"
    assert rows["icache_demand_misses"] == "1"
    # the CLI must price the counters exactly like the library
    table = surrogate_generate(0)
    istats, dstats = simulate(DEFAULT_BASELINE, parse_din(["2 0", "2 0"]))
    expected = metrics_from_stats(istats, dstats, table, DEFAULT_BASELINE, DramParams())
    assert float(rows["exec_time_s"]) == expected.exec_time
    assert float(rows["energy_j"]) == expected.energy


def test_simulate_infeasible_flags_exit_2(tmp_path, capsys):
    trace_path = write_trace(tmp_path / "t.din", n=10)
    flags = DEFAULT_BASELINE.to_flags().replace(
        "-l1-isize 16384", "-l1-isize 512"
    ).replace("-l1-ibsize 32", "-l1-ibsize 32").replace("-l1-iassoc 4", "-l1-iassoc 64")
    rc = main(["simulate", "--trace", str(trace_path), "--flags", flags])
    assert rc == 2
    err = capsys.readouterr().err
    assert "I-cache" in err and "exceeds" in err


def test_simulate_non_canonical_integer_exit_2(tmp_path, capsys):
    trace_path = write_trace(tmp_path / "t.din", n=10)
    flags = DEFAULT_BASELINE.to_flags().replace("-l1-dsize 16384", "-l1-dsize 016384")
    rc = main(["simulate", "--trace", str(trace_path), "--flags", flags])
    assert rc == 2
    assert "-l1-dsize" in capsys.readouterr().err


def test_exhaustive_value_list_takes_integers_as_flag_text_spells_them(tmp_path, capsys):
    rc = main(["exhaustive", "--trace", str(tmp_path / "absent.din"),
               "--isize", "512,016384", "-o", str(tmp_path / "ex")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "'016384'" in err and "absent.din" not in err


def test_simulate_empty_trace_zero_metrics(tmp_path, capsys):
    trace_path = tmp_path / "e.din"
    trace_path.write_text("")
    assert main(["simulate", "--trace", str(trace_path)]) == 0
    out = capsys.readouterr().out
    assert "exec_time_s = 0.0" in out
    assert "energy_j = 0.0" in out


def test_simulate_max_records(tmp_path, capsys):
    trace_path = write_trace(tmp_path / "t.din", n=100, profile="sequential")
    assert main(["simulate", "--trace", str(trace_path), "--max-records", "10"]) == 0
    assert "accesses=10" in capsys.readouterr().out


def test_simulate_max_records_stops_before_bad_lines(tmp_path, capsys):
    """Only the first N records are parsed, so a bad line after them is
    never read as a record."""
    trace_path = write_trace(tmp_path / "t.din", n=20, profile="random")
    lines = trace_path.read_text().splitlines(keepends=True)
    bad = tmp_path / "bad.din"
    bad.write_text("".join(lines) + "garbage\n")
    head = tmp_path / "head.din"
    head.write_text("".join(lines[:5]))
    capsys.readouterr()
    assert main(["simulate", "--trace", str(head)]) == 0
    expected = capsys.readouterr().out
    assert "accesses=5" not in expected  # both sides see some of the five
    assert main(["simulate", "--trace", str(bad), "--max-records", "5"]) == 0
    assert capsys.readouterr().out == expected


OUT_OF_DOMAIN_FLAGS = DEFAULT_BASELINE.to_flags().replace("-l1-iassoc 4", "-l1-iassoc 3")
INFEASIBLE_BASELINE = (
    DEFAULT_BASELINE.to_flags()
    .replace("-l1-dsize 16384", "-l1-dsize 512")
    .replace("-l1-dassoc 4", "-l1-dassoc 128")
)


@pytest.mark.parametrize("args, named", [
    (["simulate", "--max-records", "-1"], "--max-records"),
    (["simulate", "--flags", OUT_OF_DOMAIN_FLAGS], "iassoc=3"),
    (["optimize", "--max-records", "-2"], "--max-records"),
    (["optimize", "--baseline-flags", OUT_OF_DOMAIN_FLAGS], "iassoc=3"),
    (["optimize", "--baseline-flags", INFEASIBLE_BASELINE], "baseline configuration is infeasible"),
    (["exhaustive", "--baseline-flags", INFEASIBLE_BASELINE], "D-cache"),
    (["exhaustive", "--dassoc", "3"], "dassoc"),
    (["exhaustive"], "10616832 points, above the cap of 10000"),
    (["optimize", "--runs", "0"], "runs must be >= 1"),
    (["simulate", "--flags", INFEASIBLE_BASELINE], "D-cache"),
    pytest.param(["simulate", "--dram-access-time", "9" * 401],
                 "dram access_time must be finite and > 0", id="dram-access-time-inf"),
    pytest.param(["exhaustive", "--cap", "-1"], "cap must be >= 1, got -1", id="cap-negative"),
    pytest.param(["exhaustive", "--cap", "0"], "cap must be >= 1, got 0", id="cap-zero"),
])
def test_bad_flags_fail_before_trace_is_read(tmp_path, capsys, args, named):
    if args[0] != "simulate":
        args = [*args, "-o", str(tmp_path / "out")]
    assert main([*args, "--trace", str(tmp_path / "absent.din")]) == 2
    err = capsys.readouterr().err
    assert named in err
    assert "absent.din" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("line, named", [
    ("dram.access_time_s = 1e400", "'dram.access_time_s' must be finite and > 0, got inf"),
    ("dram.access_time_s = -1", "'dram.access_time_s' must be finite and > 0, got -1.0"),
    ("dram.access_time_s = 0", "'dram.access_time_s' must be finite and > 0, got 0.0"),
    ("dram.size_bytes = 67108864", "unknown key 'dram.size_bytes'"),
], ids=["infinite", "negative", "zero", "size"])
def test_bad_dram_file_fails_before_trace_is_read(tmp_path, capsys, line, named):
    dram_path = tmp_path / "dram.toml"
    dram_path.write_text(line + "\n")
    assert main(["optimize", "--dram-config", str(dram_path), "--trace",
                 str(tmp_path / "absent.din"), "-o", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"{dram_path}: line 1: {named}" in err
    assert "absent.din" not in err
    assert not (tmp_path / "out").exists()


def test_optimize_bad_grammar_fails_before_trace_is_read(tmp_path, capsys):
    grammar_path = tmp_path / "bad.bnf"
    grammar_path.write_text("<A> ::= <B>\n")
    assert main(["optimize", "--grammar", str(grammar_path),
                 "--trace", str(tmp_path / "absent.din"), "-o", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "undefined nonterminal <B>" in err
    assert "absent.din" not in err
    assert not (tmp_path / "out").exists()


def test_optimize_grammar_with_no_feasible_point_fails_before_trace_is_read(tmp_path, capsys):
    # Every I geometry the grammar derives is 8 B x 128 ways in a 512 B cache.
    grammar_path = tmp_path / "infeasible.bnf"
    grammar_path.write_text(
        "<P> ::= -l1-isize 512 -l1-ibsize 8 -l1-irepl l -l1-iassoc 128 -l1-ifetch d"
        " -l1-dsize <S> -l1-dbsize 32 -l1-drepl l -l1-dassoc 4 -l1-dfetch d -l1-dwback a\n"
        "<S> ::= 512 | 1024\n")
    assert main(["optimize", "--grammar", str(grammar_path),
                 "--trace", str(tmp_path / "absent.din"), "-o", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "grammar derives no feasible configuration" in err
    assert "absent.din" not in err
    assert not (tmp_path / "out").exists()


# CI's nested.bnf: the I side is one slot of its own, so a derivation takes 7 codons.
NESTED_GRAMMAR = """\
<P> ::= <I> -l1-dsize <S> -l1-dbsize 32 -l1-drepl l -l1-dassoc <A> -l1-dfetch d -l1-dwback <W>
<I> ::= -l1-isize <S> -l1-ibsize 32 -l1-irepl <R> -l1-iassoc <A> -l1-ifetch d
<S> ::= 1024 | 4096 | 16384
<A> ::= 1 | 4
<R> ::= l | r
<W> ::= a | n
"""

# (grammar text or None for the default, the largest --codon-count that is
# refused at the default 3 wraps, the fewest codons a derivation consumes)
CODON_BUDGETS = {"default": (None, 3, 11), "nested": (NESTED_GRAMMAR, 2, 7)}


def _grammar_args(tmp_path, grammar_text):
    if grammar_text is None:
        return []
    path = tmp_path / "g.bnf"
    path.write_text(grammar_text)
    return ["--grammar", str(path)]


@pytest.mark.parametrize("name", CODON_BUDGETS)
def test_optimize_codon_budget_no_derivation_fits_fails_before_trace_is_read(
        tmp_path, capsys, name):
    # 3 codons x 3 wraps give only 9 of the default grammar's 11; 2 x 3 give 6 of 7.
    grammar_text, short, need = CODON_BUDGETS[name]
    assert main(["optimize", "--codon-count", str(short), "--runs", "2", "--generations", "3",
                 "--population", "6", "--trace", str(tmp_path / "absent.din"),
                 "-o", str(tmp_path / "out"), *_grammar_args(tmp_path, grammar_text)]) == 2
    err = capsys.readouterr().err
    assert f"gives {3 * short} codons" in err and f"consumes at least {need}" in err
    assert "absent.din" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", CODON_BUDGETS)
def test_optimize_codon_budget_that_fits_with_wraps_runs(tmp_path, name):
    grammar_text, short, _ = CODON_BUDGETS[name]
    trace_path = write_trace(tmp_path / "t.din")
    outdir = tmp_path / "run"
    assert main(["optimize", "--codon-count", str(short + 1), "--runs", "1",
                 "--generations", "2", "--population", "4", "--trace", str(trace_path),
                 "-o", str(outdir), *_grammar_args(tmp_path, grammar_text)]) == 0
    assert float(read_csv(outdir / "summary.csv")[0]["best_fitness"]) < INFEASIBLE_FITNESS


def run_config_kwargs(tmp_path, trace):
    return dict(
        trace=trace, table=surrogate_generate(0), dram=DramParams(), baseline=DEFAULT_BASELINE,
        params=GEParams(), weights=FitnessWeights(), miss_mode=MissMode.DEMAND_ONLY,
        grammar_text=DEFAULT_GRAMMAR, outdir=tmp_path,
    )


def test_run_config_accepts_only_one_job(tmp_path):
    kwargs = run_config_kwargs(tmp_path, [TraceRecord(AccessKind.IFETCH, 0)])
    assert RunConfig(**kwargs, jobs=1).jobs == 1
    with pytest.raises(ValidationError, match="jobs"):
        RunConfig(**kwargs, jobs=2)


def test_optimize_defaults_are_the_library_defaults():
    # Every GEParams field but the per-run seed is an option of its own.
    args = _build_parser().parse_args(["optimize", "--trace", "t.din", "-o", "out"])
    for field in fields(GEParams):
        if field.name != "rng_seed":
            assert getattr(args, field.name) == field.default, field.name
    assert args.runs == next(f.default for f in fields(RunConfig) if f.name == "runs")
    assert args.w_time == FitnessWeights().w_time


def test_run_config_rejects_an_empty_trace(tmp_path):
    with pytest.raises(ValidationError, match="no records"):
        RunConfig(**run_config_kwargs(tmp_path, []))
    with pytest.raises(ValidationError, match="no records"):
        RunConfig(**run_config_kwargs(tmp_path, SideStreams.from_din(["# none\n"])))


def test_run_config_takes_streams_read_from_din(tmp_path, capsys):
    """A campaign on SideStreams.from_din writes what one on records writes."""
    records = gen_synthetic("mixed", 300, 3)
    streams = SideStreams.from_din(to_din(records).splitlines(keepends=True))
    outputs = []
    for name, trace in (("records", records), ("streams", streams)):
        kwargs = run_config_kwargs(tmp_path / name, trace)
        kwargs["params"] = GEParams(generations=3, population=6)
        run_optimize(RunConfig(**kwargs, runs=2))
        outputs.append({p.name: p.read_bytes() for p in sorted((tmp_path / name).iterdir())})
    assert outputs[0] == outputs[1] and len(outputs[0]) == 5


EXHAUSTIVE_POINT = [
    "--isize", "512", "--ibsize", "32", "--irepl", "l", "--iassoc", "4", "--ifetch", "d",
    "--dsize", "512", "--dbsize", "32", "--drepl", "l", "--dassoc", "4", "--dfetch", "d",
    "--dwback", "a",
]


@pytest.mark.parametrize("command", [
    ["optimize", "--runs", "1", "--generations", "2", "--population", "4"],
    ["exhaustive", *EXHAUSTIVE_POINT],
], ids=["optimize", "exhaustive"])
@pytest.mark.parametrize("text,extra", [
    ("", []),
    ("# a comment\n\n", []),
    (None, ["--max-records", "0"]),
], ids=["empty", "comment-only", "max-records-0"])
def test_campaign_on_an_empty_trace_fails_before_the_baseline(
    tmp_path, capsys, monkeypatch, command, text, extra
):
    trace_path = tmp_path / "t.din"
    if text is None:
        write_trace(trace_path, n=50)
    else:
        trace_path.write_text(text)
    monkeypatch.setattr(objectives, "simulate", None)  # any simulation fails the test
    outdir = tmp_path / "run"
    rc = main([*command, "--trace", str(trace_path), *extra, "-o", str(outdir)])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"trace {trace_path} holds no records" in err
    assert not outdir.exists()


def test_simulate_missing_trace_exit_2(tmp_path, capsys):
    rc = main(["simulate", "--trace", str(tmp_path / "absent.din")])
    assert rc == 2
    assert "absent.din" in capsys.readouterr().err


# --- optimize / report --------------------------------------------------------

def test_optimize_one_point_grammar_savings(tmp_path, capsys):
    trace_path = write_trace(tmp_path / "t.din")
    grammar_path = tmp_path / "one.bnf"
    grammar_path.write_text(ONE_POINT_GRAMMAR)
    outdir = tmp_path / "run"
    rc = main([
        "optimize", "--trace", str(trace_path), "--grammar", str(grammar_path),
        "--runs", "1", "--generations", "3", "--population", "6",
        "-o", str(outdir),
    ])
    assert rc == 0
    summary = read_csv(outdir / "summary.csv")[0]
    # a single memoized phenotype out of 18 possible evaluations
    assert float(summary["unique_evals"]) == 1
    assert float(summary["memo_savings_pct"]) == pytest.approx(
        100.0 * (1 - 1 / 18), abs=1e-9
    )
    assert int(summary["best_count"]) <= 1
    best = (outdir / "best.txt").read_text().splitlines()
    assert best[0] == DEFAULT_BASELINE.to_flags()
    assert best[1] == "fitness = 1.0"  # the only point is the baseline


def test_optimize_outputs_and_best_count(tmp_path):
    trace_path = write_trace(tmp_path / "t.din", n=400)
    outdir = tmp_path / "run"
    rc = main([
        "optimize", "--trace", str(trace_path), "--runs", "3",
        "--generations", "4", "--population", "8", "--seed", "5",
        "-o", str(outdir),
    ])
    assert rc == 0
    runs = read_csv(outdir / "runs.csv")
    assert [r["run"] for r in runs] == ["0", "1", "2"]
    assert [r["seed"] for r in runs] == ["5", "6", "7"]
    summary = read_csv(outdir / "summary.csv")[0]
    assert 1 <= int(summary["best_count"]) <= 3
    best_fits = [float(r["best_fitness"]) for r in runs]
    assert float(summary["best_fitness"]) == min(best_fits)
    for i in range(3):
        assert (outdir / f"run_{i:02d}_log.csv").exists()


def test_optimize_deterministic_outputs(tmp_path):
    trace_path = write_trace(tmp_path / "t.din", n=300)
    args = ["--trace", str(trace_path), "--runs", "2", "--generations", "3",
            "--population", "6", "--seed", "1"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["optimize", *args, "-o", str(a)]) == 0
    assert main(["optimize", *args, "-o", str(b)]) == 0
    files = sorted(p.name for p in a.iterdir())
    assert files == sorted(p.name for p in b.iterdir())
    for name in files:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_report_identity_runs_are_100_percent(tmp_path, capsys):
    trace_path = write_trace(tmp_path / "t.din")
    grammar_path = tmp_path / "one.bnf"
    grammar_path.write_text(ONE_POINT_GRAMMAR)
    outdir = tmp_path / "adpcm_like"
    assert main([
        "optimize", "--trace", str(trace_path), "--grammar", str(grammar_path),
        "--runs", "2", "--generations", "2", "--population", "4",
        "-o", str(outdir),
    ]) == 0
    report_csv = tmp_path / "report.csv"
    assert main(["report", str(outdir), "-o", str(report_csv)]) == 0
    rows = read_csv(report_csv)
    assert rows[0]["benchmark"] == "adpcm_like"
    assert float(rows[0]["pct_energy"]) == pytest.approx(100.0)
    assert float(rows[0]["pct_time"]) == pytest.approx(100.0)


def test_optimize_no_shared_memo_resimulates(tmp_path):
    trace_path = write_trace(tmp_path / "t.din")
    grammar_path = tmp_path / "one.bnf"
    grammar_path.write_text(ONE_POINT_GRAMMAR)
    args = ["--trace", str(trace_path), "--grammar", str(grammar_path),
            "--runs", "2", "--generations", "3", "--population", "6"]
    shared, solo = tmp_path / "shared", tmp_path / "solo"
    assert main(["optimize", *args, "-o", str(shared)]) == 0
    assert main(["optimize", *args, "--no-shared-memo", "-o", str(solo)]) == 0
    assert int(read_csv(shared / "summary.csv")[0]["unique_evals"]) == 1
    assert int(read_csv(solo / "summary.csv")[0]["unique_evals"]) == 2


def test_shared_and_unshared_memos_write_the_same_results(tmp_path, monkeypatch):
    """The memo only saves work: runs.csv, best.txt and each run's fitness
    columns are the same with one evaluator for the campaign or one per run,
    and every evaluator prices the baseline exactly once."""
    real = EVOLVE.config_metrics
    priced = []
    monkeypatch.setattr(EVOLVE, "config_metrics",
                        lambda config, *args: (priced.append(config), real(config, *args))[1])
    # 48 points, small enough that the runs meet again; the baseline's
    # 16384 B sides are outside it, so no search point prices the baseline.
    grammar = Subspace(
        isize=(512, 1024), ibsize=(32,), irepl=("l", "r"), iassoc=(4,), ifetch=("d",),
        dsize=(512, 1024, 2048), dbsize=(32,), drepl=("l",), dassoc=(1, 2), dfetch=("d",),
    ).grammar_text()
    runs, outputs, sims = 3, {}, {}
    for shared in (True, False):
        priced.clear()
        kwargs = run_config_kwargs(tmp_path / str(shared), gen_synthetic("mixed", 300, 4))
        kwargs.update(params=GEParams(generations=4, population=8), grammar_text=grammar)
        summary = run_optimize(RunConfig(**kwargs, runs=runs, shared_memo=shared, seed=5))
        evaluators = 1 if shared else runs
        assert priced.count(DEFAULT_BASELINE) == evaluators
        assert len(priced) == summary["unique_evals"] + evaluators
        sims[shared] = summary["unique_evals"]
        outdir = kwargs["outdir"]
        logs = [[line.split(",")[:4]
                 for line in (outdir / f"run_{run:02d}_log.csv").read_text().splitlines()]
                for run in range(runs)]
        outputs[shared] = ((outdir / "runs.csv").read_bytes(),
                           (outdir / "best.txt").read_bytes(), logs)
    assert outputs[True] == outputs[False]
    assert sims[True] < sims[False]  # the shared memo served later runs


def test_gentrace_negative_count_exit_2(tmp_path, capsys):
    rc = main(["gentrace", "--profile", "mixed", "-n", "-5",
               "-o", str(tmp_path / "t.din")])
    assert rc == 2
    assert ">= 0" in capsys.readouterr().err


def test_report_rejects_missing_summary(tmp_path, capsys):
    rc = main(["report", str(tmp_path / "nowhere"), "-o", str(tmp_path / "r.csv")])
    assert rc == 2
    assert "summary.csv" in capsys.readouterr().err


@pytest.mark.parametrize("text,message", [
    ("a,b\n1,2\n", "no avg_pct_energy value"),
    ("avg_pct_energy,b\n1,2\n", "no avg_pct_time value"),
    ("avg_pct_energy,avg_pct_time\n97.5\n", "no avg_pct_time value"),
    ("avg_pct_energy,avg_pct_time\nnan,nan\n",
     "avg_pct_energy value 'nan' is not a finite number"),
    ("avg_pct_energy,avg_pct_time\n97.5,fast\n",
     "avg_pct_time value 'fast' is not a finite number"),
    ("", "no avg_pct_energy value"),
    ("avg_pct_energy,avg_pct_time\n", "no avg_pct_energy value"),
], ids=["no-columns", "no-time-column", "short-row", "nan", "not-a-number", "empty", "no-rows"])
def test_report_rejects_a_summary_without_its_values(tmp_path, capsys, text, message):
    rundir = tmp_path / "run"
    rundir.mkdir()
    (rundir / "summary.csv").write_text(text)
    rc = main(["report", str(rundir), "-o", str(tmp_path / "r.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "summary.csv" in err and message in err
    assert not (tmp_path / "r.csv").exists()


def test_report_rejects_a_campaign_with_no_feasible_design(tmp_path, capsys):
    """Only <S> = 8192 makes this 128-way I-cache feasible, and seed 0's two
    genotypes miss it: optimize writes nan averages and report refuses them."""
    grammar_path = tmp_path / "rare.bnf"
    grammar_path.write_text(
        "<P> ::= -l1-isize <S> -l1-ibsize 64 -l1-irepl l -l1-iassoc 128 -l1-ifetch d"
        " -l1-dsize 512 -l1-dbsize 32 -l1-drepl l -l1-dassoc 4 -l1-dfetch d -l1-dwback a\n"
        "<S> ::= 512 | 1024 | 2048 | 4096 | 512 | 1024 | 2048 | 8192\n"
    )
    outdir = tmp_path / "rare_out"
    assert main([
        "optimize", "--trace", str(write_trace(tmp_path / "t.din")),
        "--grammar", str(grammar_path), "--runs", "1", "--generations", "1",
        "--population", "2", "--seed", "0", "-o", str(outdir),
    ]) == 0
    assert read_csv(outdir / "summary.csv")[0]["avg_pct_energy"] == "nan"
    capsys.readouterr()
    assert main(["report", str(outdir), "-o", str(tmp_path / "r.csv")]) == 2
    assert "avg_pct_energy value 'nan'" in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


def test_report_names_a_relative_directory_after_itself(tmp_path, monkeypatch, capsys):
    rundir = tmp_path / "bench"
    (rundir / "sub").mkdir(parents=True)
    (rundir / "summary.csv").write_text("avg_pct_energy,avg_pct_time\n37.5,59.5\n")
    monkeypatch.chdir(rundir)
    assert main(["report", ".", "sub/..", str(rundir), "-o", str(tmp_path / "r.csv")]) == 0
    assert [row["benchmark"] for row in read_csv(tmp_path / "r.csv")] == ["bench"] * 3
    assert capsys.readouterr().out.startswith("bench: energy 37.5% of baseline")


# --- exhaustive ----------------------------------------------------------------

def test_exhaustive_cli_ranked_output(tmp_path):
    trace_path = write_trace(tmp_path / "t.din", n=300)
    outdir = tmp_path / "exh"
    rc = main([
        "exhaustive", "--trace", str(trace_path),
        "--isize", "512,65536", "--ibsize", "8", "--irepl", "l",
        "--iassoc", "1,64", "--ifetch", "d", "--dsize", "512",
        "--dbsize", "8", "--drepl", "l", "--dassoc", "1", "--dfetch", "d",
        "--dwback", "a", "-o", str(outdir),
    ])
    assert rc == 0
    ranked = read_csv(outdir / "ranked.csv")
    infeasible = read_csv(outdir / "infeasible.csv")
    # 512B with 64 ways x 8B blocks is feasible (1 set); all 4 points rank
    assert len(ranked) + len(infeasible) == 4
    fits = [float(r["fitness"]) for r in ranked]
    assert fits == sorted(fits)


def test_exhaustive_ranks_default_baseline_at_one(tmp_path):
    trace_path = write_trace(tmp_path / "t.din", n=300)
    outdir = tmp_path / "exh"
    assert main([
        "exhaustive", "--trace", str(trace_path),
        "--isize", "16384", "--ibsize", "32", "--irepl", "l,r", "--iassoc", "4",
        "--ifetch", "d,m", "--dsize", "16384", "--dbsize", "32", "--drepl", "l",
        "--dassoc", "4", "--dfetch", "d", "--dwback", "a,n", "-o", str(outdir),
    ]) == 0
    ranked = {r["phenotype"]: r["fitness"] for r in read_csv(outdir / "ranked.csv")}
    assert len(ranked) == 8
    assert ranked[DEFAULT_BASELINE.to_flags()] == "1.0"


def test_exhaustive_missing_table_row_fails_before_simulating(tmp_path, capsys):
    trace_path = write_trace(tmp_path / "t.din", n=100)
    table_path = tmp_path / "chars.csv"
    rows = [row for row in surrogate_generate(0).rows() if row[0] != (65536, 64, 8)]
    save_table(CharTable(rows), table_path)
    outdir = tmp_path / "exh"
    rc = main([
        "exhaustive", "--trace", str(trace_path), "--table", str(table_path),
        "--isize", "512,65536", "--ibsize", "64", "--irepl", "l", "--iassoc", "8",
        "--ifetch", "d", "--dsize", "512", "--dbsize", "8", "--drepl", "l",
        "--dassoc", "1", "--dfetch", "d", "--dwback", "a", "-o", str(outdir),
    ])
    assert rc == 2
    assert "size=65536 block=64 assoc=8" in capsys.readouterr().err
    assert not (outdir / "ranked.csv").exists()


def test_simulate_missing_table_row_fails_before_reading_the_trace(tmp_path, capsys):
    table_path = tmp_path / "chars.csv"
    save_table(CharTable([((16384, 32, 4), (1e-9, 1e-11))]), table_path)
    flags = DEFAULT_BASELINE._replace(isize=512).to_flags()
    rc = main(["simulate", "--table", str(table_path), "--flags", flags,
               "--trace", str(tmp_path / "absent.din")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "size=512 block=32 assoc=4" in err
    assert "absent.din" not in err


def test_exhaustive_table_with_an_overlong_field_exits_2(tmp_path, capsys):
    """A 140,000-character float on line 2 is a bad table (exit 2 naming the
    line), not a csv.Error traceback."""
    trace_path = write_trace(tmp_path / "t.din", n=100)
    table_path = tmp_path / "chars.csv"
    save_table(surrogate_generate(0), table_path)
    header, first, *rest = table_path.read_text().splitlines(keepends=True)
    size, block, assoc, access_time, _ = first.rstrip("\n").split(",")
    long_float = "1." + "0" * 139_995 + "e-9"
    table_path.write_text(header + f"{size},{block},{assoc},{access_time},{long_float}\n"
                          + "".join(rest))
    outdir = tmp_path / "exh"
    rc = main([
        "exhaustive", "--trace", str(trace_path), "--table", str(table_path),
        "--isize", "512", "--ibsize", "8", "--irepl", "l", "--iassoc", "1",
        "--ifetch", "d", "--dsize", "512", "--dbsize", "8", "--drepl", "l",
        "--dassoc", "1", "--dfetch", "d", "--dwback", "a", "-o", str(outdir),
    ])
    assert rc == 2
    assert "chars.csv: line 2: field larger than field limit" in capsys.readouterr().err
    assert not outdir.exists()


# --- optimize: table check up front ---------------------------------------------

def _table_without(tmp_path, triple):
    table_path = tmp_path / "chars.csv"
    rows = [row for row in surrogate_generate(0).rows() if row[0] != triple]
    save_table(CharTable(rows), table_path)
    return table_path


def test_grammar_triples_of_flat_grammars():
    assert _check_grammar(parse_bnf(DEFAULT_GRAMMAR))[0] == Subspace().triples()
    sub = Subspace(isize=(512, 65536), ibsize=(64,), iassoc=(8, 16), dsize=(1024,),
                   dbsize=(8, 16), dassoc=(1, 128))
    assert _check_grammar(parse_bnf(sub.grammar_text()))[0] == sub.triples()
    # A fixed terminal after the flag counts as its one value.
    pinned = ONE_POINT_GRAMMAR.replace("-l1-dsize <S>", "-l1-dsize 512")
    assert _check_grammar(parse_bnf(pinned))[0] == {(16384, 32, 4), (512, 32, 4)}


def test_grammar_triples_of_nested_grammars():
    # A geometry flag inside a slot, and a side whose geometry is picked as one unit.
    slotted = ONE_POINT_GRAMMAR.replace("-l1-dsize <S>", "<D>") + "<D> ::= -l1-dsize 512\n"
    assert _check_grammar(parse_bnf(slotted))[0] == {(16384, 32, 4), (512, 32, 4)}
    per_alternative = ONE_POINT_GRAMMAR.replace(
        "-l1-isize <S> -l1-ibsize <B>", "<G>").replace("-l1-iassoc <A>", "") + (
        "<G> ::= -l1-isize 512 -l1-ibsize 8 -l1-iassoc 64 | <H>\n"
        "<H> ::= -l1-isize 65536 -l1-ibsize 64 -l1-iassoc <A> | -l1-iassoc 2 -l1-isize 1024 <B8>\n"
        "<B8> ::= -l1-ibsize 8\n")
    assert _check_grammar(parse_bnf(per_alternative))[0] == {
        (512, 8, 64), (65536, 64, 4), (1024, 8, 2), (16384, 32, 4)}
    # No point is feasible when no I side is.
    no_i_side = ONE_POINT_GRAMMAR.replace("-l1-isize <S>", "-l1-isize 512").replace(
        "-l1-iassoc <A>", "-l1-iassoc 128")
    assert _check_grammar(parse_bnf(no_i_side))[0] == set()
    # A slot that reaches its values through a unit cycle: rows and count
    # come out of a fixed point that runs through <C> and <D>.
    cycle = ONE_POINT_GRAMMAR.replace("-l1-dsize <S>", "-l1-dsize <C>") + (
        "<C> ::= <D> | 512\n<D> ::= <C>\n")
    assert _check_grammar(parse_bnf(cycle)) == ({(16384, 32, 4), (512, 32, 4)}, 11)
    # Unit rules whose counts settle sweeps after their shapes do: <N1> and
    # <N3> first reach 32 through the longer <N6>, then through <N0> and <N1>.
    late = parse_bnf(
        "<P> ::= -l1-isize 1024 -l1-ibsize <N0> -l1-irepl l -l1-iassoc <N1> -l1-ifetch d"
        " -l1-dsize 1024 -l1-dbsize <N2> -l1-drepl l -l1-dassoc <N3> -l1-dfetch d -l1-dwback a\n"
        "<N0> ::= 32\n<N1> ::= <N0> | <N6>\n<N2> ::= <N5>\n<N3> ::= <N1> | <N6>\n"
        "<N4> ::= 32\n<N5> ::= <N4>\n<N6> ::= <N5>\n")
    assert _check_grammar(late) == ({(1024, 32, 32)}, 9)


@pytest.mark.parametrize("old,new,named", [
    ("<S> ::= 16384", "<S> ::= 3000 | 1024", "-l1-isize the value '3000'"),
    ("<B> ::= 32", "<B> ::= 32 | big", "-l1-ibsize the value 'big'"),
    ("<R> ::= l", "<R> ::= l | f | x", "-l1-irepl the value 'x'"),
    ("<W> ::= a", "<W> ::= a | n | q", "-l1-dwback the value 'q'"),
], ids=["isize-3000", "ibsize-big", "irepl-x", "dwback-q"])
@pytest.mark.parametrize("trace_exists", [False, True])
def test_optimize_grammar_value_outside_domain_fails_before_trace_is_read(
    tmp_path, capsys, old, new, named, trace_exists
):
    trace_path = tmp_path / "t.din"
    if trace_exists:
        write_trace(trace_path, n=100)
    grammar_path = tmp_path / "bad.bnf"
    grammar_path.write_text(ONE_POINT_GRAMMAR.replace(old, new))
    outdir = tmp_path / "run"
    rc = main(["optimize", "--trace", str(trace_path), "--grammar", str(grammar_path),
               "--runs", "1", "--generations", "2", "--population", "4", "-o", str(outdir)])
    assert rc == 2
    err = capsys.readouterr().err
    assert named in err and "t.din" not in err
    assert not outdir.exists()


def test_optimize_missing_table_row_fails_before_reading_trace(tmp_path, capsys):
    table_path = _table_without(tmp_path, (65536, 64, 8))
    outdir = tmp_path / "run"
    rc = main(["optimize", "--trace", str(tmp_path / "absent.din"),
               "--table", str(table_path), "-o", str(outdir)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "size=65536 block=64 assoc=8" in err and "absent.din" not in err
    assert not outdir.exists()


def test_optimize_missing_table_row_fails_before_the_campaign(tmp_path, capsys):
    trace_path = write_trace(tmp_path / "t.din", n=100)
    table_path = _table_without(tmp_path, (65536, 64, 8))
    grammar_path = tmp_path / "big.bnf"
    grammar_path.write_text(ONE_POINT_GRAMMAR.replace(
        "-l1-isize <S> -l1-ibsize <B>", "-l1-isize 65536 -l1-ibsize 64"
    ).replace("-l1-iassoc <A>", "-l1-iassoc 8"))
    outdir = tmp_path / "run"
    rc = main(["optimize", "--trace", str(trace_path), "--table", str(table_path),
               "--grammar", str(grammar_path), "--runs", "1", "--generations", "2",
               "--population", "4", "-o", str(outdir)])
    assert rc == 2
    assert "size=65536 block=64 assoc=8" in capsys.readouterr().err
    assert not outdir.exists()


def test_optimize_table_check_skips_unreachable_rows(tmp_path):
    # The one-point grammar never reaches 65536/64/8, so its absence is fine.
    trace_path = write_trace(tmp_path / "t.din", n=100)
    table_path = _table_without(tmp_path, (65536, 64, 8))
    grammar_path = tmp_path / "one.bnf"
    grammar_path.write_text(ONE_POINT_GRAMMAR)
    assert main(["optimize", "--trace", str(trace_path), "--table", str(table_path),
                 "--grammar", str(grammar_path), "--runs", "1", "--generations", "2",
                 "--population", "4", "-o", str(tmp_path / "run")]) == 0


def test_optimize_non_flat_grammar_keeps_the_late_lookup(tmp_path, capsys):
    # This nested grammar reaches only 16384/32/4, so the missing 65536/64/8
    # row passes the up-front check and the trace is read next.
    table_path = _table_without(tmp_path, (65536, 64, 8))
    grammar_path = tmp_path / "nested.bnf"
    grammar_path.write_text(ONE_POINT_GRAMMAR.replace("<S> ::= 16384", "<S> ::= <T>\n<T> ::= 16384"))
    rc = main(["optimize", "--trace", str(tmp_path / "absent.din"), "--table", str(table_path),
               "--grammar", str(grammar_path), "-o", str(tmp_path / "run")])
    assert rc == 2
    assert "absent.din" in capsys.readouterr().err


def test_optimize_non_flat_grammar_reaching_a_missing_row_fails_up_front(tmp_path, capsys):
    table_path = _table_without(tmp_path, (65536, 64, 8))
    grammar_path = tmp_path / "nested.bnf"
    grammar_path.write_text(
        ONE_POINT_GRAMMAR.replace("<S> ::= 16384", "<S> ::= <T>\n<T> ::= 16384 | 65536")
        .replace("<B> ::= 32", "<B> ::= 32 | 64")
        .replace("<A> ::= 4", "<A> ::= 4 | <E>\n<E> ::= 8"))
    outdir = tmp_path / "run"
    rc = main(["optimize", "--trace", str(tmp_path / "absent.din"), "--table", str(table_path),
               "--grammar", str(grammar_path), "-o", str(outdir)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "size=65536 block=64 assoc=8" in err and "absent.din" not in err
    assert not outdir.exists()


def test_optimize_nested_grammar_sharing_a_size_rule_reaching_a_missing_row_fails_up_front(
    tmp_path, capsys
):
    # <S> and <A> give both sides their size and assoc, the I side's through
    # the nested <I> rule, so some points look up the missing 4096/32/4 row.
    table_path = _table_without(tmp_path, (4096, 32, 4))
    grammar_path = tmp_path / "nested.bnf"
    grammar_path.write_text(
        "<P> ::= <I> -l1-dsize <S> -l1-dbsize 32 -l1-drepl l -l1-dassoc <A> -l1-dfetch d"
        " -l1-dwback <W>\n"
        "<I> ::= -l1-isize <S> -l1-ibsize 32 -l1-irepl <R> -l1-iassoc <A> -l1-ifetch d\n"
        "<S> ::= 1024 | 4096 | 16384\n<A> ::= 1 | 4\n<R> ::= l | r\n<W> ::= a | n\n"
    )
    outdir = tmp_path / "run"
    rc = main(["optimize", "--trace", str(tmp_path / "absent.din"), "--table", str(table_path),
               "--grammar", str(grammar_path), "--runs", "1", "--generations", "3",
               "--population", "6", "-o", str(outdir)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "size=4096 block=32 assoc=4" in err and "absent.din" not in err
    assert not outdir.exists()


def test_optimize_non_flat_grammar_with_an_impossible_terminal_fails_up_front(tmp_path, capsys):
    grammar_path = tmp_path / "bad_nested.bnf"
    grammar_path.write_text(
        "<P> ::= <I> -l1-dsize 1024 -l1-dbsize 32 -l1-drepl l -l1-dassoc 4"
        " -l1-dfetch d -l1-dwback a\n"
        "<I> ::= -l1-isize <S> -l1-ibsize 32 -l1-irepl l -l1-iassoc 4 -l1-ifetch d\n"
        "<S> ::= 1024 | 3000\n"
    )
    outdir = tmp_path / "run"
    rc = main(["optimize", "--trace", str(tmp_path / "absent.din"),
               "--grammar", str(grammar_path), "-o", str(outdir)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "'3000'" in err and "absent.din" not in err
    assert not outdir.exists()


@pytest.mark.parametrize("terminal", ["-l1-isize", "512", "l", "a", "128"])
def test_optimize_non_flat_grammar_accepts_flags_and_values(tmp_path, capsys, terminal):
    # A flag, or a value its flag can come before, passes the up-front check;
    # the trace is read next. The flag meets its value across two rules.
    if terminal.startswith("-"):
        text = ONE_POINT_GRAMMAR.replace("::= -l1-isize <S>", "::= <T> <S>")
        text += f"<T> ::= <U>\n<U> ::= {terminal}\n"
    else:
        rule = {"512": "<S> ::= 16384", "l": "<R> ::= l", "a": "<W> ::= a", "128": "<A> ::= 4"}
        lhs, first = rule[terminal].split(" ::= ")
        text = ONE_POINT_GRAMMAR.replace(
            rule[terminal], f"{lhs} ::= <T>\n<T> ::= {first} | <U>\n<U> ::= {terminal}")
    grammar_path = tmp_path / "nested.bnf"
    grammar_path.write_text(text)
    rc = main(["optimize", "--trace", str(tmp_path / "absent.din"),
               "--grammar", str(grammar_path), "-o", str(tmp_path / "run")])
    assert rc == 2
    assert "absent.din" in capsys.readouterr().err


NESTED_I = (
    "<P> ::= <I> -l1-dsize 1024 -l1-dbsize 32 -l1-drepl l -l1-dassoc 4"
    " -l1-dfetch d -l1-dwback a\n"
    "<I> ::= -l1-isize <S> -l1-ibsize 32 -l1-irepl l -l1-iassoc 4 -l1-ifetch d\n"
)


ALL_BUT_DWBACK = (
    "<P> ::= -l1-isize 1024 -l1-ibsize 32 -l1-irepl l -l1-iassoc 4 -l1-ifetch d"
    " -l1-dsize 1024 -l1-dbsize 32 -l1-drepl l -l1-dassoc 4 -l1-dfetch d <W>\n"
)


@pytest.mark.parametrize("grammar,named", [
    (NESTED_I + "<S> ::= 1024 | l\n", "-l1-isize the value 'l'"),
    (NESTED_I + "<S> ::= 1024 | <T>\n<T> ::= 0512\n", "-l1-isize the value '0512'"),
    (NESTED_I.replace("-l1-isize <S>", "<F> <S>") + "<F> ::= -l1-isize\n<S> ::= 1024 | a\n",
     "-l1-isize the value 'a'"),
    (NESTED_I.replace("-l1-dwback a", "<W>")
     + "<S> ::= 1024\n<W> ::= -l1-dwback a | -l1-dwback\n", "end the phenotype with -l1-dwback"),
    (ALL_BUT_DWBACK + "<W> ::= -l1-dwback a | -l1-dwback n -l1-dwback a | -l1-dfetch d\n",
     "-l1-dwback more than once"),
    (ALL_BUT_DWBACK + "<W> ::= -l1-dwback a | -l1-dwback n -l1-dfetch d\n",
     "-l1-dfetch more than once"),
    (ALL_BUT_DWBACK + "<W> ::= -l1-dwback a | <M> -l1-dwback n\n<M> ::= -l1-dwback a | <M> a\n",
     "more than 22 tokens, not 22"),
    (ALL_BUT_DWBACK + "<W> ::= -l1-dwback a | <M> -l1-dwback n\n<M> ::= -l1-dwback a | <M>\n",
     "-l1-dwback more than once"),
    (ONE_POINT_GRAMMAR.replace("-l1-dwback <W>", "-l1-dwback <W> -l1-isize 512"),
     "-l1-isize more than once"),
    (ALL_BUT_DWBACK + "<W> ::= -l1-dwback a | <M>\n<M> ::= <M> -l1-dwback n\n",
     "grammar rule <M> derives nothing"),
    (ALL_BUT_DWBACK + "<W> ::= -l1-dwback a | <M>\n<M> ::= <M>\n",
     "grammar rule <M> derives nothing"),
    ("<P> ::= <I> -l1-dsize 512\n<I> ::= -l1-isize <S>\n<S> ::= 512\n", "without -l1-ibsize"),
    (ALL_BUT_DWBACK.replace("-l1-ifetch d ", "") + "<W> ::= -l1-dwback a\n",
     "without -l1-ifetch"),
    (ALL_BUT_DWBACK + "<W> ::= -l1-dwback a | -l1-dwback a n\n",
     "more than 22 tokens, not 22"),
    (ALL_BUT_DWBACK + "<W> ::= -l1-dwback <V>\n<V> ::= a | <V> n\n",
     "more than 22 tokens, not 22"),
    (ONE_POINT_GRAMMAR.replace("<A> ::= 4", "<A> ::= 4 | 8 -l1-x"),
     "'-l1-x' is neither a flag nor a value"),
    ("<P> ::= -l1-isize 1024 -l1-ibsize 32 -l1-irepl <R> -l1-iassoc 4 -l1-ifetch d"
     " -l1-dsize 1024 -l1-dbsize 32 -l1-drepl l -l1-dassoc 4 -l1-dfetch d -l1-dwback a\n"
     "<R> ::= l | f | x\n", "-l1-irepl the value 'x'"),
], ids=["value-of-another-flag", "0512", "through-follow", "flag-at-the-end", "repeated-flag",
        "repeated-flag-alone", "recursive-flag", "recursive-repeat", "repeated-geometry-flag",
        "unproductive-recursion", "unproductive-loop", "missing-nested-flags", "missing-flag",
        "extra-value", "recursive-value", "stray-after-a-value", "flat-irepl-x"])
def test_optimize_grammar_with_a_value_its_flag_cannot_take_fails_up_front(
    tmp_path, capsys, grammar, named
):
    # Each token that can come right after a flag is checked against that
    # flag's domain, in its one canonical spelling, before the trace is read.
    # So is the shape of every phenotype (each flag once, with one value),
    # and every reachable rule must derive something.
    grammar_path = tmp_path / "bad_nested.bnf"
    grammar_path.write_text(grammar)
    outdir = tmp_path / "run"
    rc = main(["optimize", "--trace", str(tmp_path / "absent.din"),
               "--grammar", str(grammar_path), "-o", str(outdir)])
    assert rc == 2
    err = capsys.readouterr().err
    assert named in err and "absent.din" not in err
    assert not outdir.exists()


def test_optimize_walk_skips_unreachable_rules(tmp_path, capsys):
    grammar_path = tmp_path / "nested.bnf"
    grammar_path.write_text(ONE_POINT_GRAMMAR.replace("<S> ::= 16384", "<S> ::= <T>\n<T> ::= 16384")
                            + "<Unused> ::= 3000\n")
    rc = main(["optimize", "--trace", str(tmp_path / "absent.din"),
               "--grammar", str(grammar_path), "-o", str(tmp_path / "run")])
    assert rc == 2
    assert "absent.din" in capsys.readouterr().err
