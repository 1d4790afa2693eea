"""The repo benchmark: one command, four workloads, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N   # every workload, shuffled

Workloads: stream-unseen, ingress-paced, iss-sweep, iss-table3 (their
names, the metrics and bounds are in ``BENCHMARK.json``; ``spec.py``
says what each metric means).  Inputs derive from ``--seed`` only.
Each run checks the program's outputs outside the timed region and
prints every metric by name with its unit; the last stdout line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}`` holding
the end-to-end metrics (``--trace 0``) or the per-layer metrics of a
traced run (``--trace 1``).  Traced runs write their spans under
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import subprocess
import sys
from pathlib import Path

import harness
import spec


def _runner(name: str):
    import ingress_paced
    import iss
    import stream_unseen

    return {
        "stream-unseen": stream_unseen.run,
        "ingress-paced": ingress_paced.run,
        "iss-sweep": iss.run_sweep,
        "iss-table3": iss.run_table3,
    }[name]


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    result = _runner(name)(seed, seconds, trace, harness.OUT_DIR)
    outcome = result["outcome"]
    print(f"workload {name}  seed {seed}  seconds {seconds:g}  trace {int(trace)}")
    print(f"  host speed index (reference loop, nominal = 1): {result['host']}")
    units = {**spec.per_layer_units(), **spec.end_to_end_units()}
    for key, value in result["e2e"].items():
        text = f"  {key}: {value:.6g} {units[key]}"
        if key in result.get("raw", {}):
            text += f" at nominal host speed ({result['raw'][key]:.6g} measured)"
        print(text)
    for key, value in result.get("detail", {}).items():
        print(f"  {key}: {value}")
    print(
        f"  operations: {outcome.attempted} attempted, {outcome.failed} failed"
        f" {outcome.reasons or ''}".rstrip()
    )
    if trace:
        layer = dict(result["layer"])
        layer["failed_ratio"] = outcome.failed_ratio
        layer["latency_p50_ms"] = result["e2e"]["latency_p50_ms"]
        units = spec.per_layer_units()
        # A layer the workload does not exercise reports 0.
        metrics = {name: float(layer.get(name, 0.0)) for name in units}
        for key, value in metrics.items():
            print(f"  {key}: {value:.6g} {units[key]}")
    else:
        units = spec.end_to_end_units()
        metrics = {key: float(result["e2e"][key]) for key in units}
    bad = [key for key, value in metrics.items() if not math.isfinite(value)]
    if bad:
        raise RuntimeError(f"no measurement for {bad}; run longer")
    print("provenance " + json.dumps(harness.provenance(seed, [name])))
    return {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            key: {"value": value, "unit": units[key]} for key, value in metrics.items()
        },
    }


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Every workload in its own process, in a seeded random order."""
    order = list(spec.WORKLOADS)
    random.Random(seed).shuffle(order)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in order:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", str(int(trace))],
            cwd=harness.ROOT,
            capture_output=True,
            text=True,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise RuntimeError(f"{name} exited with {proc.returncode}")
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] = combined["correct"] and last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for key, value in last["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    print("provenance " + json.dumps(harness.provenance(seed, order)))
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*spec.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        harness.use_repo_sources()
    except harness.MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
