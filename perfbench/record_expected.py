"""Record the reference artifacts that every benchmark repetition is checked against.

    python3 perfbench/record_expected.py

Run from the repository root, at the commit whose outputs are the
reference. Runs every workload once at full and once at tiny size, then
writes ``perfbench/expected.json``: the sha256 of every CSV artifact and
the spectral values parsed from each ``summary.txt``. Stepping is required
to stay bit-identical, so the file is recorded once and later changes to
the package are checked against it.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from run import HERE, RUNS_DIR, artifact_digest, execute, load


def main() -> int:
    root = os.getcwd()
    design = load("workloads.json")
    expected = {}
    for name, spec in design["workloads"].items():
        expected[name] = {}
        for size in ("full", "tiny"):
            rep = execute(root, name, size == "tiny", False)
            try:
                if rep.exit_code != 0 or rep.record is None:
                    print(f"{name} ({size}) failed:\n{rep.stderr}", file=sys.stderr)
                    return 1
                digest = artifact_digest(rep.out, spec["kind"])
            finally:
                shutil.rmtree(rep.rep_dir, ignore_errors=True)
            expected[name][size] = {"csv": digest["csv"], "summaries": digest["summaries"]}
            print(f"{name} ({size}): {len(digest['csv'])} CSV files, work {digest['work']}")
    shutil.rmtree(os.path.join(root, RUNS_DIR), ignore_errors=True)
    with open(os.path.join(HERE, "expected.json"), "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
