"""Golden result files: sha256 of every file the commands write, for fixed
inputs and seeds.

These pin the rule that result files stay byte-identical. A change that
alters any of these bytes must say in CHANGES.md which files changed and
why, and update the digests here in the same change.
"""

import hashlib

import pytest

from cacheopt.cli import main

OPTIMIZE = ["--runs", "2", "--generations", "6", "--population", "12", "--seed", "3"]

# Mixes random replacement with prefetching sides, including fully
# associative ones (512 B / 32 B x 16 ways on the I side, 512 B / 16 B x
# 32 ways on the D side); 512 B / 32 B x 32 ways is infeasible.
EXHAUSTIVE = [
    "--isize", "512,1024", "--ibsize", "32", "--irepl", "l,r", "--iassoc", "1,16,32",
    "--ifetch", "d,a", "--dsize", "512", "--dbsize", "16", "--drepl", "r,f",
    "--dassoc", "32", "--dfetch", "m", "--dwback", "a,n", "--seed", "5",
]

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
        "infeasible.csv": "b1a26ba62eb3f88988ecf474b08697aa708d116faecf6593d38b8b8bb4bd9aff",
        "ranked.csv": "e4550df00377bccc31a5f06daf00f440e2d5e69b75d624418cd3b650da8b8bdd",
    },
    "optimize_multitoken": {
        "best.txt": "f1c569a3f73f95db38f1df1210ec23532fe029175e4c4e0358b57c851a1d759b",
        "run_00_log.csv": "62ee5a7c403265b202daf396644ff47d8aae0d5987e255e7e5fde94b249bd735",
        "run_01_log.csv": "ce737c197c6dca1e8cc3ce13a65d8408fe7a352e9704da5d3da8aca5232dbe9d",
        "runs.csv": "c8ece8c21ea995dc393b220077a9f37191fe9558fb025848abd3a2af89dc2821",
        "summary.csv": "640778d026734c0221384da58f46ad937aacab8b9e08f0ac11204f4b1b64efdc",
    },
    "optimize_nonflat": {
        "best.txt": "8e7e5eb18ace0028ddf8425edeae9f296082db26c7825e0d00f14b32a098bde9",
        "run_00_log.csv": "6c1460514c12ef641e1126dc2c8bbb4a618475ebaa40422fbd75825e589bf8e1",
        "run_01_log.csv": "efb634efac888785dba06255ec489d6caa6c515e29eaa0c334296b325265bd33",
        "runs.csv": "defab9e4535fa7b3f805a8d6110df78416229c0831257db758edfd0b45284708",
        "summary.csv": "52f68678f9a12b8762c483fed62a9f4f2977257f74b2859d8d147ce97f700f0e",
    },
    "optimize_shared": {
        "best.txt": "21ed3c890ffaccb40c919d4736087f08f4a4abec8aaf3a4ab8df46c3f0af255e",
        "run_00_log.csv": "71339f3957a61a945b73abc7b4ca1507cc6dbac86f6df0c2583276dde4277319",
        "run_01_log.csv": "a064ae7c4d131af1fc261b0331b989dd60696d3234507ecaaf2811a579059485",
        "runs.csv": "8d658659dadd9ca614b4104a828688e3fa16ae9759a9e104d895e52a1b88f78d",
        "summary.csv": "8a7c314280775618b4203b534056cdd51f43d5a89c7fa1a323859609e25d1dff",
    },
    "optimize_unshared": {
        "best.txt": "21ed3c890ffaccb40c919d4736087f08f4a4abec8aaf3a4ab8df46c3f0af255e",
        "run_00_log.csv": "71339f3957a61a945b73abc7b4ca1507cc6dbac86f6df0c2583276dde4277319",
        "run_01_log.csv": "7e1ed5315aeb6146f8e20057f6552880bfba6305e8c4c2ce6de054230ceb3c4d",
        "runs.csv": "8d658659dadd9ca614b4104a828688e3fa16ae9759a9e104d895e52a1b88f78d",
        "summary.csv": "8a7c314280775618b4203b534056cdd51f43d5a89c7fa1a323859609e25d1dff",
    },
    "optimize_wrap": {
        "best.txt": "542047710ccfd890c306d8749a884cc7cbfbefddc9547f546ca38d25f97acfeb",
        "run_00_log.csv": "8fe337a3232facb853bf10656056fa9dd5de7cd7777b8e5747ec2e5de70df23f",
        "run_01_log.csv": "6a335cfab747927dcdeb98065c281db1f595ced0c92af01de8ffa3bf093f22f6",
        "runs.csv": "ebe303a15e4e0c76ac7721efb7c7cdee753150e3b20e445c3a4a1f0742cd5824",
        "summary.csv": "3ba965f0084252b25c1188780d58277a7c7fbf0cbbb1aec4bcc806ec21aa942d",
    },
    "simulate": {
        "counters.csv": "3d8e46ac072303f3ab0d0fb22dfa0da18c66706457944e09927f4c5de436ae7d",
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
    grammars = {"optimize_nonflat": NONFLAT_GRAMMAR, "optimize_multitoken": MULTITOKEN_GRAMMAR}
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
    return main(["simulate", "--trace", trace, "--flags", SIMULATE_FLAGS,
                 "--seed", "5", "-o", f"{out}/counters.csv"])


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_result_files_are_golden(case, trace_path, tmp_path):
    out = tmp_path / case
    out.mkdir()
    assert _run(case, str(trace_path), str(out)) == 0
    assert _digests(out) == GOLDEN[case]
