"""cacheopt benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Generates the workload's inputs from the
seed (din text and a characterization CSV, under .perfbench_work/), then
runs the workload in its own single-threaded worker process against the
checkout's src/cacheopt. Prints every metric by name and unit, then, as
the last line, one JSON object: correct, attempted, failed and metrics
(end-to-end metrics with --trace 0, per-layer metrics with --trace 1).
A traced run also writes its spans to .perfbench_out/.

`--workload all` runs every workload in turn. See perfbench/README.md for
the workloads, metrics and the predictions they support.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TIME_LIMIT_S = 175

sys.path.insert(0, str(HERE))
from workloads import NAMES, SCALES, TABLE_SEED, WORKLOADS  # noqa: E402


def make_inputs(workdir: Path, profile: str, records: int, seed: int) -> None:
    from cacheopt.charmodel import save_table, surrogate_generate
    from cacheopt.trace import gen_synthetic, to_din

    workdir.mkdir(parents=True, exist_ok=True)
    (workdir / "trace.din").write_text(to_din(gen_synthetic(profile, records, seed)))
    save_table(surrogate_generate(TABLE_SEED), workdir / "chars.csv")


def run_workload(name: str, args, started: float) -> dict | None:
    """Run one workload in a worker process, within TIME_LIMIT_S of started;
    return its result or None."""
    spec = WORKLOADS[args.scale][name]
    workdir = ROOT / ".perfbench_work" / f"{name}-{args.seed}-{os.getpid()}"
    try:
        make_inputs(workdir, spec.profile, spec.records, args.seed)
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--scale", args.scale, "--workdir", str(workdir),
        ]
        if args.expected is not None:
            cmd += ["--expected", str(args.expected.resolve())]
        if args.record:
            cmd += ["--record"]
        if args.trace:
            spans = ROOT / ".perfbench_out" / f"spans-{name}-seed{args.seed}.jsonl"
            cmd += ["--spans", str(spans)]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        try:
            proc = subprocess.run(
                cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                timeout=max(1.0, TIME_LIMIT_S - (monotonic() - started)),
            )
        except subprocess.TimeoutExpired:
            print(f"error: workload {name} exceeded the time limit", file=sys.stderr)
            return None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only when no other run is using it
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if proc.returncode != 0 or not isinstance(result, dict):
        sys.stderr.write(proc.stdout)
        print(f"error: workload {name} failed (exit {proc.returncode})", file=sys.stderr)
        return None
    print("\n".join(lines[:-1]))
    return result


def main(argv=None) -> int:
    started = monotonic()
    # Turn SIGTERM into SystemExit, so subprocess.run kills and reaps the
    # worker and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    ap = argparse.ArgumentParser(description="cacheopt benchmark")
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=SCALES, default="full",
                    help="'tiny' shrinks every workload (smoke test only)")
    ap.add_argument("--expected", type=Path, default=None,
                    help="recorded results to check against (default perfbench/expected.json)")
    ap.add_argument("--record", action="store_true",
                    help="record this seed's LRU/FIFO results into --expected, checking none")
    args = ap.parse_args(argv)

    if not (SRC / "cacheopt" / "__init__.py").is_file():
        print(f"error: no cacheopt sources under {SRC}; run from a checkout's root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    names = NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result = run_workload(name, args, started)
        started = monotonic()
        if result is None:
            return 1
        results[name] = result
    if args.workload == "all":
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
