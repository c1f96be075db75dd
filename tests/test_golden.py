"""Golden result files: sha256 of every file the commands write, for fixed
inputs and seeds.

These pin the rule that result files stay byte-identical. A change that
alters any of these bytes must say in CHANGES.md which files changed and
why, and update the digests here in the same change.
"""

import hashlib

import pytest

from cacheopt.cli import main
from cacheopt.oracle import Subspace

OPTIMIZE = ["--runs", "2", "--generations", "6", "--population", "12", "--seed", "3"]

# Mixes random replacement with prefetching sides, including fully
# associative ones (512 B / 32 B x 16 ways on the I side, 512 B / 16 B x
# 32 ways on the D side); 512 B / 32 B x 32 ways is infeasible.
EXHAUSTIVE = [
    "--isize", "512,1024", "--ibsize", "32", "--irepl", "l,r", "--iassoc", "1,16,32",
    "--ifetch", "d,a", "--dsize", "512", "--dbsize", "16", "--drepl", "r,f",
    "--dassoc", "32", "--dfetch", "m", "--dwback", "a,n", "--seed", "5",
]

# LRU and FIFO only, every fetch policy and both write policies, so no
# side draws from a random generator; 512 B / 32 B x 16 ways is fully
# associative and 512 B / 32 B x 32 ways is infeasible.
EXHAUSTIVE_LRU_FIFO = [
    "--isize", "1024", "--ibsize", "16,32", "--irepl", "l,f", "--iassoc", "1,4",
    "--ifetch", "m,d,a", "--dsize", "512,2048", "--dbsize", "32", "--drepl", "l,f",
    "--dassoc", "2,16,32", "--dfetch", "m,d,a", "--dwback", "a,n", "--seed", "5",
]

LRU_FIFO_GRAMMAR = Subspace(irepl=("l", "f"), drepl=("l", "f")).grammar_text()

# Not flat: <iside> and <dside> expand to further nonterminals, and <size>
# reaches <big>, so these decode through map_genotype.
NONFLAT_GRAMMAR = """\
<DineroParams> ::= <iside> <dside> -l1-dwback <wb>
<iside> ::= -l1-isize <size> -l1-ibsize <bsize> -l1-irepl <repl> -l1-iassoc <assoc>
            -l1-ifetch <fetch>
<dside> ::= -l1-dsize <size> -l1-dbsize <bsize> -l1-drepl <repl> -l1-dassoc <assoc>
            -l1-dfetch <fetch>
<size> ::= 1024 | 4096 | 16384 | <big>
<big> ::= 32768 | 65536
<bsize> ::= 16 | 32
<repl> ::= l | f | r
<assoc> ::= 1 | 2 | 4 | 8
<fetch> ::= d | m | a
<wb> ::= a | n
"""

# Flat, with multi-token slot alternatives and flags out of canonical order.
MULTITOKEN_GRAMMAR = """\
<DineroParams> ::= -l1-isize <size> -l1-ibsize <bsize> <irepl> -l1-iassoc <assoc>
                   -l1-ifetch <fetch> <dgeom> -l1-drepl <repl> -l1-dfetch <fetch>
                   -l1-dwback <wb>
<irepl> ::= -l1-irepl l | -l1-irepl f | -l1-irepl r
<dgeom> ::= -l1-dsize 2048 -l1-dbsize 32 -l1-dassoc 4
          | -l1-dassoc 2 -l1-dbsize 16 -l1-dsize 8192
          | -l1-dsize 512 -l1-dbsize 64 -l1-dassoc 16
<size> ::= 512 | 2048 | 8192 | 32768
<bsize> ::= 16 | 32 | 64
<assoc> ::= 1 | 4 | 16
<repl> ::= l | r
<fetch> ::= d | a
<wb> ::= a | n
"""

SIMULATE_FLAGS = (
    "-l1-isize 1024 -l1-ibsize 32 -l1-irepl r -l1-iassoc 32 -l1-ifetch a "
    "-l1-dsize 2048 -l1-dbsize 16 -l1-drepl r -l1-dassoc 4 -l1-dfetch m -l1-dwback n"
)

GOLDEN = {
    "exhaustive": {
        "infeasible.csv": "abae49586d710b5074d66491c450b549518bcea4e28cc84f00c25a12dbb39d1a",
        "ranked.csv": "540532da9915398c3228366463f1a3e9d497f4dab8c900481f3388420d696387",
    },
    "exhaustive_lru_fifo": {
        "infeasible.csv": "e079c0f6c7d731256d5f754232a0a32ec0db4cda67f6b7e4c51a526827db7130",
        "ranked.csv": "424b1cae4aea68ebe795db7759fe479ec6ffb1c9fda0aff1be044565586fa99b",
    },
    "optimize_lru_fifo": {
        "best.txt": "8e385e5a2c2d8ec31ca4c16dcbcb0ba310908632771c8fe9381309f02363aed9",
        "run_00_log.csv": "7b2a2aaa269054f8b1243872ef88c7f45f9d687ed3d7ddf03d4befe505419195",
        "run_01_log.csv": "c05384cadfdeba2c39418a6d53dc7ccb468edcaa6a69bd942f90e35a898147ba",
        "runs.csv": "dffaca261bf80ca4b3742c92fc543b1bb4551d2d709de0d18f98b12cb9797421",
        "summary.csv": "de023f97bffeb20e0ceb635f23539ae28b428518fff356f4ee79e4fe3b8765c4",
    },
    "optimize_multitoken": {
        "best.txt": "36540c5496e1ac0d42696d78c311d8a41dc613767938d93bfcfa4f485d22078f",
        "run_00_log.csv": "f8cd842537ddb4d9afc13051d8ee5f6a04b641346c89ecaf4dde5680b857837f",
        "run_01_log.csv": "dac1c1d0477eafdd142bc2d77d59abc5b376c62d16fac4ee8bde447092a8bb0d",
        "runs.csv": "74f8444444cf8ec7ea111288308ae048b5f7e5a0af9262b6ca1ac7d6b06e98a6",
        "summary.csv": "d766e605052fd43ed7dacb18080861b7721fec80c9c7db03669ed0d2cb89bef0",
    },
    "optimize_nonflat": {
        "best.txt": "a99798c953ef34d8b9079e41f6524e098f31bb139672d95c103db5515905c61d",
        "run_00_log.csv": "cac9ecfcacf881b3da8b3a869e8b1b920cd5c9ea9cc96e098638afd8e31de22a",
        "run_01_log.csv": "729b7f95f25d086913831d914e6a9c80798c3c6bbc39c0b4381a0066b8319513",
        "runs.csv": "24e73e26ee15c879c3effac616505ecb75ccc52e69ffcb3600e13b00748064ea",
        "summary.csv": "4c1979fdee43cde10cf59ab1e0e1f6d5fb44169dd763c4cc0833c518b70ceb37",
    },
    "optimize_shared": {
        "best.txt": "76ffd8d2e3e06d195369d97898f6316c2390f8bc2e9417467804dfccb5752ef9",
        "run_00_log.csv": "472444a950b0fff474ae5586b1764139e4f85aa97bb0384821dadcc7bc3526ea",
        "run_01_log.csv": "067198dfaa179686770e5f444982cd5ffb1c0a43c0fa6f2ad4bf89dff785fc76",
        "runs.csv": "551988e9f133be7383b9c621b658ddec9476a9b3e0dd73a9bab674c4fcbba666",
        "summary.csv": "c23cb06d859b40f9b69111a3ccbbc9765d358ed8033daf07bc0d4e4b455e0f3c",
    },
    "optimize_unshared": {
        "best.txt": "76ffd8d2e3e06d195369d97898f6316c2390f8bc2e9417467804dfccb5752ef9",
        "run_00_log.csv": "472444a950b0fff474ae5586b1764139e4f85aa97bb0384821dadcc7bc3526ea",
        "run_01_log.csv": "53835d8d59cab1f8cb8fbd168c6ab52e8d06c465dde8d345338fa68639f1f41a",
        "runs.csv": "551988e9f133be7383b9c621b658ddec9476a9b3e0dd73a9bab674c4fcbba666",
        "summary.csv": "c23cb06d859b40f9b69111a3ccbbc9765d358ed8033daf07bc0d4e4b455e0f3c",
    },
    "optimize_wrap": {
        "best.txt": "c8dc56a9d161966d6cd71adbfff55d1c6f3741d358f12787fed648f6f2c6e19b",
        "run_00_log.csv": "e152151a30abcb919ab2018b0f109b5b52f97331a19918994b218164168d6432",
        "run_01_log.csv": "e0e03e580c9bc0448ca1af8dd9c58b183580c38d2568685b2a05c7c46936fb22",
        "runs.csv": "02a6077954ec2ac6abfee6b68801eb5c1cbda233b55badb96e16b968035ed6e9",
        "summary.csv": "8ac74f64f3870946a15d0f6e2757baa555d1afb0f8791951adcbad216e7ad60f",
    },
    "simulate": {
        "counters.csv": "192b8af36eb70800d98933c214ef6626bd1121e194d6a7b7e6da14b37f5a6023",
    },
}


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden") / "mixed.din"
    assert main(["gentrace", "--profile", "mixed", "-n", "2000",
                 "--seed", "7", "-o", str(path)]) == 0
    return path


def _digests(outdir):
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(outdir.iterdir())
    }


def _run(case, trace, out):
    grammars = {
        "optimize_nonflat": NONFLAT_GRAMMAR,
        "optimize_multitoken": MULTITOKEN_GRAMMAR,
        "optimize_lru_fifo": LRU_FIFO_GRAMMAR,
    }
    if case in grammars:
        grammar = f"{out}.bnf"
        with open(grammar, "w") as fh:
            fh.write(grammars[case])
        return main(["optimize", "--trace", trace, *OPTIMIZE, "--grammar", grammar, "-o", out])
    if case == "optimize_wrap":
        return main(["optimize", "--trace", trace, *OPTIMIZE,
                     "--codon-count", "5", "--max-wraps", "3", "-o", out])
    if case == "optimize_shared":
        return main(["optimize", "--trace", trace, *OPTIMIZE, "-o", out])
    if case == "optimize_unshared":
        return main(["optimize", "--trace", trace, *OPTIMIZE, "--no-shared-memo", "-o", out])
    if case == "exhaustive":
        return main(["exhaustive", "--trace", trace, *EXHAUSTIVE, "-o", out])
    if case == "exhaustive_lru_fifo":
        return main(["exhaustive", "--trace", trace, *EXHAUSTIVE_LRU_FIFO, "-o", out])
    return main(["simulate", "--trace", trace, "--flags", SIMULATE_FLAGS,
                 "--seed", "5", "-o", f"{out}/counters.csv"])


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_result_files_are_golden(case, trace_path, tmp_path):
    out = tmp_path / case
    out.mkdir()
    assert _run(case, str(trace_path), str(out)) == 0
    assert _digests(out) == GOLDEN[case]
