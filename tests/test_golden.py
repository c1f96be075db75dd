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

SIMULATE_FLAGS = (
    "-l1-isize 1024 -l1-ibsize 32 -l1-irepl r -l1-iassoc 32 -l1-ifetch a "
    "-l1-dsize 2048 -l1-dbsize 16 -l1-drepl r -l1-dassoc 4 -l1-dfetch m -l1-dwback n"
)

GOLDEN = {
    "exhaustive": {
        "infeasible.csv": "b1a26ba62eb3f88988ecf474b08697aa708d116faecf6593d38b8b8bb4bd9aff",
        "ranked.csv": "e4550df00377bccc31a5f06daf00f440e2d5e69b75d624418cd3b650da8b8bdd",
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
