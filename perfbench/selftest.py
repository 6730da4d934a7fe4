"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Run from the repository root; takes under a minute. Checks that

* tiny versions of all four workloads finish and pass the output check,
  untraced and traced;
* every metric named in BENCHMARK.json appears in the result with its unit;
* a repetition with one flipped byte in a CSV artifact counts as failed;
* run.py exits nonzero, printing no result, in a directory that holds only
  BENCHMARK.json and the benchmark's own files.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

from run import HERE, RUNS_DIR, execute, finish, load, measure, summarize


def check_workloads(root, design, expected, bench) -> list[str]:
    names = list(design["workloads"])
    reps = measure(root, design, expected, names, 0.0, 0, True, tiny=True)
    errors = []
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        result = summarize(design, names, reps, trace)
        if result["failed"]:
            errors.append(f"{result['failed']} of {result['attempted']} tiny runs failed")
        for name in names:
            for metric in bench[section]:
                got = result["metrics"].get(f"{name}.{metric['name']}")
                if got is None:
                    errors.append(f"{name}: metric {metric['name']} missing")
                elif got["unit"] != metric["unit"]:
                    errors.append(f"{name}: {metric['name']} unit {got['unit']} "
                                  f"!= {metric['unit']}")
    return errors


def check_flipped_byte(root, design, expected) -> list[str]:
    rep = execute(root, "sec4_n100", True, False)
    path = os.path.join(rep.out, "snapshots_u.csv")
    with open(path, "r+b") as fh:
        fh.seek(os.path.getsize(path) // 2)
        byte = fh.read(1)
        fh.seek(-1, os.SEEK_CUR)
        fh.write(bytes([byte[0] ^ 0x01]))
    finish(rep, design, expected)
    if not rep.failed or not any("snapshots_u.csv" in p for p in rep.problems):
        return [f"a flipped artifact byte was not counted as a failure: {rep.problems}"]
    return []


def check_without_program(root) -> list[str]:
    bare = tempfile.mkdtemp(dir=os.path.join(root, RUNS_DIR))
    try:
        shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "sec4_n100",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return [f"without src/ the benchmark exited {proc.returncode} with {proc.stdout!r}"]
    return []


def main() -> int:
    root = os.getcwd()
    design, expected = load("workloads.json"), load("expected.json")
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    os.makedirs(os.path.join(root, RUNS_DIR), exist_ok=True)
    try:
        errors = (check_workloads(root, design, expected, bench)
                  + check_flipped_byte(root, design, expected)
                  + check_without_program(root))
    finally:
        shutil.rmtree(os.path.join(root, RUNS_DIR), ignore_errors=True)
    for msg in errors:
        print(f"selftest FAILED: {msg}")
    print("selftest: ok" if not errors else f"selftest: {len(errors)} failures")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
