"""Smoke test of the benchmark at tiny scale (about ten seconds).

    python3 perfbench/smoke/run_smoke.py

From the root of a checkout, for every workload it checks that:
- the untraced run prints every end-to-end metric of BENCHMARK.json and
  the traced run every per-layer metric, each by name with its unit, and
  error_rate is 0;
- a wrong expected digest makes error_rate rise above 0, so the check can
  fail;
- in a directory holding only BENCHMARK.json and perfbench/, the
  benchmark exits non-zero without printing a result.
Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
WORK = ROOT / ".perfbench_work" / "smoke"
SEED = 5
failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--seed", str(SEED), "--seconds", "0.5",
           "--scale", "tiny", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def last_json(proc) -> dict | None:
    try:
        return json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return None


def error_rate(proc, workload: str) -> float | None:
    match = re.search(rf"^{workload} error_rate = (\S+) ratio", proc.stdout, re.M)
    return float(match.group(1)) if match else None


def check_metrics(workload: str, trace: int, declared: list[dict], expected: Path) -> None:
    proc = bench("--workload", workload, "--trace", str(trace), "--expected", str(expected))
    result = last_json(proc)
    label = f"{workload} --trace {trace}"
    expect(proc.returncode == 0 and result is not None and result["correct"],
           f"{label}: exits 0 with a correct result")
    if result is None:
        return
    expect(result["failed"] == 0 and error_rate(proc, workload) == 0,
           f"{label}: error_rate is 0 ({result['attempted']} checks)")
    expect(set(result["metrics"]) == {m["name"] for m in declared},
           f"{label}: reports exactly the metrics BENCHMARK.json names")
    wrong = []
    for m in declared:
        printed = re.search(rf"^{workload} {re.escape(m['name'])} = \S+ (\S+)$",
                            proc.stdout, re.M)
        reported = result["metrics"].get(m["name"], {})
        if printed is None or printed.group(1) != m["unit"] or reported.get("unit") != m["unit"]:
            wrong.append(m["name"])
    expect(not wrong, f"{label}: all {len(declared)} metrics printed with their units {wrong or ''}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    try:
        good = WORK / "expected.json"
        proc = bench("--workload", "all", "--record", "--expected", str(good))
        expect(proc.returncode == 0 and good.exists(), "records tiny-scale expected results")

        recorded = json.loads(good.read_text())
        for values in recorded["workloads"].values():
            if "digest" in values:
                values["digest"] = "0" * 64
            else:
                values["points"] = {k: "00000000" for k in values["points"]}
        wrong = WORK / "wrong.json"
        wrong.write_text(json.dumps(recorded))

        for w in spec["workloads"]:
            name = w["name"]
            check_metrics(name, 0, spec["end_to_end"], good)
            check_metrics(name, 1, spec["per_layer"], good)
            proc = bench("--workload", name, "--trace", "0", "--expected", str(wrong))
            result = last_json(proc)
            rate = error_rate(proc, name)
            expect(proc.returncode != 0 and result is not None and not result["correct"]
                   and rate is not None and rate > 0,
                   f"{name}: a wrong expected digest raises error_rate to {rate}")

        bare = WORK / "bare"
        bare.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("--workload", spec["workloads"][0]["name"], "--trace", "0", cwd=bare)
        expect(proc.returncode != 0 and last_json(proc) is None,
               "without the program's sources: exits non-zero and prints no result")
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
