"""End-to-end and per-layer benchmark of tipwave.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a tipwave source tree; the package is imported from
``./src`` (nothing is installed). Every repetition is a fresh worker
process (``worker.py``) that imports tipwave, parses the workload's
configs (set-up), then runs them through ``scenarios.run_scenario`` and
writes the artifacts. One repetition runs at a time (closed loop, no
extra threads). Each workload first gets one warm-up repetition at tiny
size (it compiles the bytecode and fills the file cache), checked but not
timed; then rounds of full-size repetitions run, in an order
shuffled by ``--seed``, until ``--seconds`` per workload have passed.
The workload inputs are the fixed presets in ``workloads.json``; the seed
only orders the repetitions, so the output check below always applies.

Every repetition is checked against ``expected.json``, recorded from the
seed version of the package by ``record_expected.py``: the sha256 of every
CSV artifact, and the spectral abscissae, eigenvalue counts and maximum
residual parsed from ``summary.txt`` (whose float reprs depend on the
NumPy version, so it is not hashed). A repetition fails on a nonzero
exit, an exception or a failed check.

``--trace 0`` reports the end-to-end metrics, medians over the timed
repetitions. On a shared host the speed can swing by up to 2x within
seconds (other tenants contend for the cores, and CPU time slows with
wall time), so the run time in the result line is ``wall_rel``: each
repetition's wall time divided by the mean time of a fixed probe
(``probe.py``) sampled before, during and after it in the same process.
Wall seconds and throughput are printed beside it.

``--trace 1`` interleaves untraced repetitions with
traced ones, in which ``tracing.py`` wraps each module's public functions
from outside the package, and reports the per-layer metrics. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import random
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
RUNS_DIR = ".perfbench_runs"
MIN_REPS = 3
ABSCISSA_TOL = 1e-12
RESIDUAL_TOL = 1e-10

_FLOAT = r"(?:np\.float64\()?([-+0-9.eE]+|nan|inf)\)?"


def load(name: str) -> dict:
    with open(os.path.join(HERE, name)) as fh:
        return json.load(fh)


@dataclass
class Rep:
    """One repetition: its process, its timings and its output check."""

    workload: str
    tiny: bool
    rep_dir: str
    exit_code: int = -1
    setup_s: float = float("nan")
    rss_mb: float = float("nan")
    record: dict | None = None
    stderr: str = ""
    problems: list[str] = field(default_factory=list)
    work: int = 0
    files: int = 0
    bytes: int = 0

    @property
    def out(self) -> str:
        return os.path.join(self.rep_dir, "out")

    @property
    def failed(self) -> bool:
        return self.exit_code != 0 or self.record is None or bool(self.problems)


def execute(root: str, workload: str, tiny: bool, trace: bool) -> Rep:
    """Run one worker process to completion; its artifacts stay on disk."""
    runs = os.path.join(root, RUNS_DIR)
    os.makedirs(runs, exist_ok=True)
    rep = Rep(workload, tiny, tempfile.mkdtemp(dir=runs))
    err_path = os.path.join(rep.rep_dir, "stderr.txt")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload,
           str(int(tiny)), str(int(trace)), rep.out]
    with open(err_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, stderr=err, text=True)
        try:
            ready = proc.stdout.readline()
            t_ready = time.perf_counter()
            lines = proc.stdout.read().splitlines()
        except BaseException:
            proc.kill()
            raise
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
    rep.exit_code = proc.returncode
    rep.rss_mb = usage.ru_maxrss / 1024.0
    if ready.strip() == "ready":
        rep.setup_s = t_ready - t0
        if lines:
            try:
                rep.record = json.loads(lines[-1])
            except json.JSONDecodeError:
                rep.problems.append(f"unreadable worker output {lines[-1]!r}")
    with open(err_path) as fh:
        rep.stderr = fh.read()
    return rep


def _hash_file(path: str) -> tuple[str, int]:
    h, newlines = hashlib.sha256(), 0
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
            newlines += block.count(b"\n")
    return h.hexdigest(), newlines


def artifact_digest(out: str, kind: str) -> dict:
    """Hashes of the CSVs, values parsed from the summaries, counts."""
    csv, summaries, files, nbytes, work = {}, {}, 0, 0, 0
    for path in sorted(glob.glob(os.path.join(out, "**", "*"), recursive=True)):
        if not os.path.isfile(path):
            continue
        rel = os.path.relpath(path, out).replace(os.sep, "/")
        files += 1
        nbytes += os.path.getsize(path)
        if rel.endswith(".csv"):
            csv[rel], newlines = _hash_file(path)
            name = os.path.basename(rel)
            if kind == "spectrum" and name.startswith("spectrum_"):
                work += newlines - 1  # one row per eigenvalue
            elif kind == "simulate" and name == "boundary_states.csv":
                work += newlines - 2  # rows at t = 0 and after each step
        elif os.path.basename(rel) == "summary.txt":
            with open(path) as fh:
                summaries[rel] = parse_summary(fh.read())
    return {"csv": csv, "summaries": summaries, "files": files, "bytes": nbytes, "work": work}


def parse_summary(text: str) -> dict:
    """Spectral values of a summary.txt, as numbers."""
    out: dict = {"abscissae": {}}
    for line in text.splitlines():
        m = re.fullmatch(r"spectral abscissa (\w+) = " + _FLOAT, line)
        if m:
            out["abscissae"][m.group(1)] = float(m.group(2))
        m = re.fullmatch(r"(abscissa|max_residual) = " + _FLOAT, line)
        if m:
            out[m.group(1)] = float(m.group(2))
        m = re.fullmatch(r"eigenvalues = (\d+)", line)
        if m:
            out["eigenvalues"] = int(m.group(1))
    return out


def check(digest: dict, expected: dict) -> list[str]:
    """Differences between one repetition's artifacts and the recorded ones."""
    problems = []
    if sorted(digest["csv"]) != sorted(expected["csv"]):
        problems.append(f"CSV set {sorted(digest['csv'])} != {sorted(expected['csv'])}")
    for rel, sha in expected["csv"].items():
        got = digest["csv"].get(rel)
        if got is not None and got != sha:
            problems.append(f"{rel}: sha256 {got} != recorded {sha}")
    for rel, want in expected["summaries"].items():
        got = digest["summaries"].get(rel)
        if got is None:
            problems.append(f"{rel} missing")
            continue
        if sorted(got["abscissae"]) != sorted(want["abscissae"]):
            problems.append(f"{rel}: abscissa tags {sorted(got['abscissae'])}")
        for tag, value in want["abscissae"].items():
            if not abs(got["abscissae"].get(tag, float("nan")) - value) <= ABSCISSA_TOL:
                problems.append(f"{rel}: abscissa {tag} = {got['abscissae'].get(tag)} "
                                f"!= {value}")
        if "abscissa" in want and not abs(got.get("abscissa", float("nan"))
                                          - want["abscissa"]) <= ABSCISSA_TOL:
            problems.append(f"{rel}: abscissa {got.get('abscissa')} != {want['abscissa']}")
        if "eigenvalues" in want and got.get("eigenvalues") != want["eigenvalues"]:
            problems.append(f"{rel}: {got.get('eigenvalues')} eigenvalues "
                            f"!= {want['eigenvalues']}")
        if "max_residual" in want and not got.get("max_residual", float("inf")) <= RESIDUAL_TOL:
            problems.append(f"{rel}: max_residual {got.get('max_residual')} > {RESIDUAL_TOL}")
    return problems


def finish(rep: Rep, design: dict, expected: dict) -> Rep:
    """Check a repetition's artifacts and delete them."""
    try:
        if rep.exit_code != 0:
            tail = rep.stderr.strip().splitlines()[-1:] or [""]
            rep.problems.append(f"worker exit code {rep.exit_code}: {tail[0]}")
        kind = design["workloads"][rep.workload]["kind"]
        digest = artifact_digest(rep.out, kind)
        rep.work, rep.files, rep.bytes = digest["work"], digest["files"], digest["bytes"]
        rep.problems += check(digest, expected[rep.workload]["tiny" if rep.tiny else "full"])
    finally:
        shutil.rmtree(rep.rep_dir, ignore_errors=True)
    return rep


def run_rep(root, design, expected, workload, tiny=False, trace=False) -> Rep:
    return finish(execute(root, workload, tiny, trace), design, expected)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def measure(root, design, expected, workloads, seconds, seed, trace, tiny=False):
    """All repetitions of the named workloads: {workload: {"warmup", "plain", "traced"}}."""
    rng = random.Random(seed)
    kinds = [(w, t) for w in workloads for t in ((False, True) if trace else (False,))]
    reps = {w: {"warmup": [], "plain": [], "traced": []} for w in workloads}
    for w in workloads:
        reps[w]["warmup"].append(run_rep(root, design, expected, w, True))
    start = time.perf_counter()
    rounds = 0
    while rounds < MIN_REPS or time.perf_counter() - start < seconds * len(workloads):
        order = kinds[:]
        rng.shuffle(order)
        for w, t in order:
            reps[w]["traced" if t else "plain"].append(
                run_rep(root, design, expected, w, tiny, t))
        rounds += 1
    return reps


def end_to_end(plain: list[Rep]) -> dict[str, list[float]]:
    """Every end-to-end value of the untraced repetitions, reported or printed only."""
    timed = [r for r in plain if r.record is not None]
    return {
        "wall_rel": [r.record["wall_s"] / r.record["probe_s"] for r in timed],
        "setup_s": [r.setup_s for r in timed],
        "peak_rss_mb": [r.rss_mb for r in timed],
        "wall_s": [r.record["wall_s"] for r in timed],
        "work_per_s": [r.work / r.record["wall_s"] for r in timed],
        "probe_s": [r.record["probe_s"] for r in timed],
    }


def per_layer(plain: list[Rep], traced: list[Rep]) -> dict[str, list[float]]:
    timed = [r for r in traced if r.record is not None]
    if not timed or all(r.record is None for r in plain):
        return {}
    out: dict[str, list[float]] = {}
    for r in timed:
        for name, value in r.record["layers"].items():
            out.setdefault(name, []).append(value)
    out["io.files_written"] = [r.files for r in timed]
    out["io.bytes_written"] = [r.bytes for r in timed]
    every = [r for r in plain + traced if r.record is not None]
    out["setup.import_s"] = [r.record["import_s"] for r in every]
    out["setup.parse_s"] = [r.record["parse_s"] for r in every]
    untraced = statistics.median(r.record["wall_s"] for r in plain if r.record is not None)
    out["trace.overhead_s"] = [statistics.median(r.record["wall_s"] for r in timed) - untraced]
    return out


def _read_text(path: str) -> str:
    with open(path) as fh:
        return fh.read().strip()


def _cache_info() -> list[dict]:
    caches = []
    for d in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            caches.append({k: _read_text(os.path.join(d, k)) for k in ("level", "type", "size")})
        except OSError:
            continue
    return caches


def _size_bytes(text: str) -> int:
    m = re.fullmatch(r"(\d+)([KMG]?)", text)
    if not m:
        return 0
    return int(m.group(1)) * {"": 1, "K": 1 << 10, "M": 1 << 20, "G": 1 << 30}[m.group(2)]


def env_stamp(design: dict, reps: dict, seed: int) -> dict:
    cpu_model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = _cache_info()
    llc = max(caches, key=lambda c: int(c["level"]), default=None)
    records = {name: next((r.record for r in g["warmup"] + g["plain"] if r.record), {})
               for name, g in reps.items()}
    record = next((r for r in records.values() if r), {})
    arrays = {}
    for name, rec in records.items():
        nodes = rec.get("n_nodes", 0)
        arrays[name] = {
            "field_level_bytes": 8 * nodes,
            # three time levels per field
            "working_set_bytes": 8 * nodes * 3 * design["workloads"][name]["fields"],
        }
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": record.get("numpy"),
        "tipwave": record.get("tipwave"),
        "backend": record.get("backend"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        "llc_bytes": _size_bytes(llc["size"]) if llc else None,
        "computed_array_bytes": arrays,
    }


def _row(name, unit, values, extra="") -> str:
    q1, med, q3 = quartiles(values)
    return (f"  {name:<26} {unit:<6} median {med:<14.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
            f"n {len(values)}{extra}")


def report(design, name, groups, trace) -> tuple[dict, int, int]:
    """Print one workload's table; return (metrics, attempted, failed)."""
    every = groups["warmup"] + groups["plain"] + groups["traced"]
    attempted, failed = len(every), sum(r.failed for r in every)
    print(f"workload {name}: {attempted} runs ({len(groups['warmup'])} warm-up, "
          f"{len(groups['plain'])} untraced, {len(groups['traced'])} traced), {failed} failed")
    for r in every:
        for msg in r.problems:
            print(f"  FAILED run: {msg}")
    e2e_units = {k: v["unit"] for k, v in design["end_to_end"].items()}
    e2e_units.update({k: v["unit"] for k, v in design["printed_only"].items()})
    e2e = end_to_end(groups["plain"])
    throughput = "eigenvalues_per_s" if design["workloads"][name]["kind"] == "spectrum" \
        else "steps_per_s"
    for metric, values in e2e.items():
        label = throughput if metric == "work_per_s" else metric
        print(_row(label, e2e_units[metric], values))
    print(f"  {'failed_ratio':<26} {'1':<6} {failed}/{attempted} = {failed / attempted:g}")
    if not trace:
        return ({k: statistics.median(v) for k, v in e2e.items() if v and k in design["end_to_end"]},
                attempted, failed)
    layers = per_layer(groups["plain"], groups["traced"])
    if layers:
        wall = statistics.median(r.record["wall_s"] for r in groups["traced"] if r.record)
        print(f"  traced wall_s median {wall:.6g} s; self times as a share of it:")
    for metric, spec in design["per_layer"].items():
        values = layers.get(metric, [])
        if not values:
            continue
        share = (f"  ({100 * statistics.median(values) / wall:.1f}% of traced wall_s)"
                 if metric.endswith("self_s") else "")
        print(_row(metric, spec["unit"], values, share))
    missing = sorted({m for r in groups["traced"] if r.record for m in r.record["missing"]})
    if missing:
        print(f"  not traced (absent from the package): {', '.join(missing)}")
    return {k: statistics.median(v) for k, v in layers.items() if v}, attempted, failed


def summarize(design, workloads, reps, trace) -> dict:
    """Print every workload's table; return the result object (the last line)."""
    units = {k: v["unit"] for k, v in
             (design["per_layer"] if trace else design["end_to_end"]).items()}
    metrics, attempted, failed = {}, 0, 0
    for name in workloads:
        values, a, f = report(design, name, reps[name], trace)
        attempted, failed = attempted + a, failed + f
        prefix = "" if len(workloads) == 1 else name + "."
        for metric in units:
            if metric in values:
                metrics[prefix + metric] = {"value": values[metric], "unit": units[metric]}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    design = load("workloads.json")
    names = list(design["workloads"])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "tipwave", "__init__.py")):
        print(f"no tipwave source tree at {root}/src/tipwave; run from the repository root",
              file=sys.stderr)
        return 2
    expected = load("expected.json")
    workloads = names if args.workload == "all" else [args.workload]
    trace = bool(args.trace)
    reps = measure(root, design, expected, workloads, args.seconds, args.seed, trace)
    shutil.rmtree(os.path.join(root, RUNS_DIR), ignore_errors=True)

    print("env: " + json.dumps(env_stamp(design, reps, args.seed)))
    result = summarize(design, workloads, reps, trace)
    wanted = len(workloads) * len(design["per_layer"] if trace else design["end_to_end"])
    if len(result["metrics"]) < wanted:
        print("no completed run to measure; see the FAILED lines above", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
