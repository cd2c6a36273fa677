"""Tiny end-to-end smoke run of the benchmark command.

    python3 perfbench/selftest.py

Runs every workload at the tiny graph size, untraced and traced, each in
its own process exactly as the benchmark command is run, and checks:

* the last output line is the result object with exactly its four keys,
  ``correct`` is true and nothing failed;
* the untraced run reports every end-to-end metric and the traced run
  every per-layer metric, each a finite number with its unit;
* in the traced run the layer self times plus ``other.self_ms`` sum to
  the traced wall time;
* without the program next to it (only ``BENCHMARK.json`` and the
  benchmark's own files), the command exits non-zero and prints no
  result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SECONDS = "3"
SEED = 7
TIMEOUT = 300


def run(cwd: Path, workload: str, trace: int):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(SEED), "--seconds", SECONDS, "--trace", str(trace),
           "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=TIMEOUT)


def check_result(proc, workload: str, names: dict,
                 traced: bool) -> list[str]:
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr[-2000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"correct={result['correct']} "
                        f"attempted={result['attempted']} "
                        f"failed={result['failed']}")
    metrics = result["metrics"]
    if set(metrics) != set(names):
        problems.append(f"metric names differ: {set(metrics) ^ set(names)}")
    for name, m in metrics.items():
        if not math.isfinite(m["value"]) or m["unit"] != names.get(name):
            problems.append(f"{name}: {m}")
    if traced:
        stem = f"{workload}-seed{SEED}-trace1.json"
        table = json.loads((HERE / "out" / stem).read_text())["layers"]
        layers = sum(v for k, v in table.items() if k.endswith(".self_ms"))
        wall = table["bench.traced_wall_ms"]
        if not math.isclose(layers, wall, rel_tol=1e-9):
            problems.append(f"self times sum to {layers} ms, traced wall "
                            f"is {wall} ms")
    return problems


def check_without_program() -> list[str]:
    bare = HERE / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = run(bare, "ppr-products", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return ["a checkout without the program still printed a result"]
    return []


def main() -> int:
    sys.path.insert(0, str(HERE))
    from run import END_TO_END, PER_LAYER

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, names in ((0, END_TO_END), (1, PER_LAYER)):
            problems = check_result(run(ROOT, workload, trace), workload,
                                    names, traced=bool(trace))
            status = "ok" if not problems else "FAIL"
            print(f"{workload:<16} trace={trace} {status}")
            failures += [f"{workload} trace={trace}: {p}" for p in problems]
    problems = check_without_program()
    print(f"{'no program':<16} exit!=0 {'ok' if not problems else 'FAIL'}")
    failures += problems
    for f in failures:
        print(f"  {f}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
