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
        "ranked.csv": "63be64722d56892c5f1c82b84b6a2d529fe69e64773c8330f43b66fb3769ef53",
    },
    "exhaustive_lru_fifo": {
        "infeasible.csv": "e079c0f6c7d731256d5f754232a0a32ec0db4cda67f6b7e4c51a526827db7130",
        "ranked.csv": "90d8f175b6bd3c24df92c1445eb5916ce48d2c9cd04c823e35570ebca8ee78cf",
    },
    "optimize_lru_fifo": {
        "best.txt": "d1aa75b6591bb93e434ea078c99ad3412ac2ea1191087938fc1f36b649e4ee2a",
        "run_00_log.csv": "1805ceb31e308c5a8f350463911a6cc93c94634e72e054c376ff86d940bf98db",
        "run_01_log.csv": "a5ff247887b34dfe23b08e898e20625c6133d8c39d5bc71ab55045a1cdcaeb9f",
        "runs.csv": "1b0061b016d91ee70e09c3ac5e6c951960079e2d3b6fcc41a8c857a0890b70ae",
        "summary.csv": "d021c3b56441b007a287e2ae9cc12edc7a8c51a6f315737e43beaec20beea92b",
    },
    "optimize_multitoken": {
        "best.txt": "f1c569a3f73f95db38f1df1210ec23532fe029175e4c4e0358b57c851a1d759b",
        "run_00_log.csv": "74d2a3ff27dc173ee1ed9e570afc2e1243b44a7c99fd3a0cf5b5df4d4b607eb5",
        "run_01_log.csv": "e6172301639636503574967b2a2178de94ebe7840355a2619f71ce0650f77d78",
        "runs.csv": "c8ece8c21ea995dc393b220077a9f37191fe9558fb025848abd3a2af89dc2821",
        "summary.csv": "640778d026734c0221384da58f46ad937aacab8b9e08f0ac11204f4b1b64efdc",
    },
    "optimize_nonflat": {
        "best.txt": "8e7e5eb18ace0028ddf8425edeae9f296082db26c7825e0d00f14b32a098bde9",
        "run_00_log.csv": "40d7b98c50d62f182828b2a601ca0a20056bb274b62653e7e62a7ba7077869a1",
        "run_01_log.csv": "e31a6fe16f255d8eee207571c2fda729cb0e345e990284e4ea54b84322ba8102",
        "runs.csv": "defab9e4535fa7b3f805a8d6110df78416229c0831257db758edfd0b45284708",
        "summary.csv": "52f68678f9a12b8762c483fed62a9f4f2977257f74b2859d8d147ce97f700f0e",
    },
    "optimize_shared": {
        "best.txt": "21ed3c890ffaccb40c919d4736087f08f4a4abec8aaf3a4ab8df46c3f0af255e",
        "run_00_log.csv": "552398bd59b06e6d8c2ffd9b206e8a469c58b8bc19141c857ff3dc833fcb094b",
        "run_01_log.csv": "9a144de1c965cfac24fec75f650846d75ad458e910f1c2f523cf764861822790",
        "runs.csv": "66434e48afd04b8ea9707c4c74b7176542fd9470ab94779494058d0904e845c6",
        "summary.csv": "0abf8b719c2d4412e29b392eb0398284b1f90ef9a3cab86fd26cb378674c6450",
    },
    "optimize_unshared": {
        "best.txt": "21ed3c890ffaccb40c919d4736087f08f4a4abec8aaf3a4ab8df46c3f0af255e",
        "run_00_log.csv": "552398bd59b06e6d8c2ffd9b206e8a469c58b8bc19141c857ff3dc833fcb094b",
        "run_01_log.csv": "4cc5be175a62f310c2e0d7b91bac18cf83f090926f963a5eb7eec2384841c11e",
        "runs.csv": "66434e48afd04b8ea9707c4c74b7176542fd9470ab94779494058d0904e845c6",
        "summary.csv": "0abf8b719c2d4412e29b392eb0398284b1f90ef9a3cab86fd26cb378674c6450",
    },
    "optimize_wrap": {
        "best.txt": "542047710ccfd890c306d8749a884cc7cbfbefddc9547f546ca38d25f97acfeb",
        "run_00_log.csv": "76af84d498992f0263d84266dd5c47125b88efb8bdd2ff49e0b5665d11dff08d",
        "run_01_log.csv": "db4a300e05babf5136f5c635560bfc3a199185edd979a2a17a3fd7a0dac52181",
        "runs.csv": "ebe303a15e4e0c76ac7721efb7c7cdee753150e3b20e445c3a4a1f0742cd5824",
        "summary.csv": "3ba965f0084252b25c1188780d58277a7c7fbf0cbbb1aec4bcc806ec21aa942d",
    },
    "simulate": {
        "counters.csv": "8eeb07c1162abe4a6a61143b19bd3637a762c8b607a0ae70d8c5148859845cbd",
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
