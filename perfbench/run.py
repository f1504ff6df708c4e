"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload batch-smp --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
also runs one pass with every layer entry point wrapped and reports the
per-layer metrics (and writes the spans as JSONL under ``.perfbench_out/``).
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (name -> value and unit), holding
exactly the metrics ``BENCHMARK.json`` declares for the chosen mode.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

#: Fresh interpreters timed from start to ``import repro`` done.
IMPORT_REPS = 5
_IMPORT_PROBE = ("import time; started = time.perf_counter(); import repro; "
                 "print(time.perf_counter() - started)")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _declared(mode: str):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec[mode]}


def _import_seconds(reps: int = IMPORT_REPS) -> float:
    """Median time a fresh interpreter spends importing the package."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    samples = []
    for _ in range(reps):
        probe = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env,
                               capture_output=True, text=True, check=True,
                               timeout=60)
        samples.append(float(probe.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"repro sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    # Untraced figures need the program's own tracing off, and the kernel
    # backend auto-detected as a user gets it.
    os.environ.pop("REPRO_TRACE", None)
    os.environ.pop("REPRO_KERNEL_BACKEND", None)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import workloads
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; known: "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    declared = _declared("per_layer" if args.trace else "end_to_end")
    import_s = _import_seconds()

    runner = workloads.run_stream if workload.streaming \
        else workloads.run_batch
    outcome = runner(workload, args.seed, args.seconds, bool(args.trace),
                     import_s, OUT_DIR)

    from repro.kernels import backend as kernel_backend
    print(f"workload {workload.name}: python {sys.version.split()[0]} "
          f"({sys.executable}), kernel backend {kernel_backend()}; inputs "
          + json.dumps(workload.inputs(args.seed), sort_keys=True))
    for note in outcome.notes:
        print(note)
    for problem in outcome.problems:
        print(f"FAILED: {problem}")
    for name, (value, unit) in sorted(outcome.metrics.items()):
        print(f"{name} = {value:.6g} {unit}")
    if set(outcome.metrics) != set(declared):
        print("metrics differ from BENCHMARK.json: missing "
              f"{sorted(set(declared) - set(outcome.metrics))}, extra "
              f"{sorted(set(outcome.metrics) - set(declared))}",
              file=sys.stderr)
        return 3
    for name, unit in declared.items():
        if outcome.metrics[name][1] != unit:
            print(f"{name}: unit {outcome.metrics[name][1]!r} != declared "
                  f"{unit!r}", file=sys.stderr)
            return 3
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": outcome.metrics[name][0], "unit": unit}
                    for name, unit in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
