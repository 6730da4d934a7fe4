"""One benchmark repetition in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD TINY TRACE OUT_DIR

Run from the root of a tipwave source tree; the package is imported from
``./src``. Protocol on standard output: the line ``ready`` once tipwave
is imported and the workload configs are parsed (the end of set-up), then
one JSON object with the run's own timings, including the mean time of the
host-speed probe (``probe.py``) sampled around and during an untraced run;
its wall time excludes the probe samples. Artifacts go to OUT_DIR
(spectrum: one subdirectory per family). Exit code 0 means the run raised
nothing and no configured threshold failed.
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def workload_configs(spec: dict, tiny: bool) -> list[tuple[str, list[str]]]:
    """(artifact subdirectory, overrides) for every run_scenario call."""
    if spec["kind"] == "spectrum":
        n_max = spec["tiny_n_max"] if tiny else spec["n_max"]
        return [(family, ["mode=spectrum", f"family={family}", f"n_max={n_max}"])
                for family in spec["families"]]
    return [("", list(spec["tiny_overrides"] if tiny else spec["overrides"]))]


def main(argv: list[str]) -> int:
    name, tiny, trace, out_dir = argv[0], argv[1] == "1", argv[2] == "1", argv[3]
    with open(os.path.join(HERE, "workloads.json")) as fh:
        spec = json.load(fh)["workloads"][name]
    src = os.path.join(os.getcwd(), "src")

    t0 = time.perf_counter()
    sys.path.insert(0, src)
    import numpy
    import tipwave
    from tipwave import scenarios
    t1 = time.perf_counter()
    if not os.path.abspath(tipwave.__file__).startswith(src + os.sep):
        print(f"tipwave imported from {tipwave.__file__}, not from {src}", file=sys.stderr)
        return 1
    text = f"preset = {spec['preset']}\n"
    runs = [(os.path.join(out_dir, sub), scenarios.parse_config(text, overrides=ov))
            for sub, ov in workload_configs(spec, tiny)]
    t2 = time.perf_counter()
    print("ready", flush=True)

    sys.path.insert(0, HERE)
    from probe import Sampler, probe

    probe(20)  # first NumPy calls and bytecode, not timed
    failures = []
    if trace:
        # No probe samples here: they would land in the layers' self times.
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        t3 = time.perf_counter()
        for out, config in runs:
            failures += scenarios.run_scenario(config, out_dir=out).threshold_failures
        wall = time.perf_counter() - t3
        probe_s = None
    else:
        tracer = None
        with Sampler() as sampler:
            t3 = time.perf_counter()
            for out, config in runs:
                failures += scenarios.run_scenario(config, out_dir=out).threshold_failures
            wall = time.perf_counter() - t3 - sampler.inside_s
        probe_s = sampler.probe_s

    record = {
        "wall_s": wall,
        "probe_s": probe_s,
        "import_s": t1 - t0,
        "parse_s": t2 - t1,
        "numpy": numpy.__version__,
        "tipwave": tipwave.__version__,
        "backend": tipwave.default_backend_name(),
        "n_nodes": 0 if spec["kind"] == "spectrum" else runs[0][1].grid().n_nodes,
    }
    if tracer is not None:
        record["layers"] = tracer.metrics(wall)
        record["missing"] = tracer.missing
    print(json.dumps(record), flush=True)
    for msg in failures:
        print(f"threshold failed: {msg}", file=sys.stderr)
    return 3 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
