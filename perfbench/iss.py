"""Workloads ``iss-sweep`` and ``iss-table3``: the cycle-level ISS.

``iss-sweep`` runs the subject-0 model on the Wolf cluster (8 cores,
bit-manipulation built-ins, D=10,000) over real quantised subject-1
windows, 64 per ``run_window_levels_batch`` call: the window-laned
lockstep path.  ``iss-table3`` repeats ``run_table3(engine="fast")``
over the five machine configurations: the scalar fast path.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

import numpy as np

from repro.experiments import table3
from repro.experiments.table1 import run_table1
from repro.kernels import HDChainSimulator
from repro.kernels.chain import chain_batch_telemetry, reset_chain_batch_telemetry
from repro.pulp import fastpath_telemetry, reset_fastpath_telemetry
from repro.pulp.lockstep import lockstep_telemetry, reset_lockstep_telemetry
from repro.pulp.soc import WOLF_SOC

import harness
import inputs
import layers
from harness import Outcome, Timing

HERE = Path(__file__).resolve().parent
BATCH = 64
#: Calls of the fixed-work section whose counters must repeat exactly.
COUNT_CALLS = 4
#: Windows re-run one at a time to prove the batch bit- and cycle-exact.
EXACT_SAMPLE = 4


def _chain_counters(results) -> Dict[str, float]:
    """Simulated totals over ChainResults (exact for a given input)."""
    instrs = cycles = core_cycles = sync = dma = 0
    for r in results:
        for run in (r.encode_run, r.am_run):
            instrs += run.total_instrs
            cycles += run.total_cycles
            core_cycles += run.total_cycles * run.n_cores
            sync += run.fork_cycles + run.join_cycles + run.barrier_cycles
            dma += run.dma_bytes
    n = max(len(results), 1)
    return {
        "instrs": instrs,
        "pulp.ipc": instrs / core_cycles,
        "pulp.sync_cycle_share": sync / cycles,
        "pulp.dma_bytes_per_window": dma / n,
        "pulp.sim_kcycles_per_window": cycles / n / 1e3,
    }


def _engine_counters(windows: int, compile_rejects: int) -> Dict[str, float]:
    """Fast-path and lockstep counters since their last reset."""
    fast = fastpath_telemetry()
    lock = lockstep_telemetry()
    return {
        "pulp.fastpath.engagements": fast.total_engagements / windows,
        "pulp.fastpath.trips_per_engagement": fast.total_trips / max(fast.total_engagements, 1),
        "pulp.fastpath.bails": fast.total_bails / windows,
        "pulp.fastpath.compile_rejects": compile_rejects,
        "pulp.lockstep.lanes_per_run": lock["lanes"] / max(lock["runs"], 1),
        "pulp.lockstep.bails": sum(lock["bails"].values()) / windows,
        "pulp.lockstep.predicated": lock["predicated"] / windows,
    }


def _reset_engine_counters() -> None:
    reset_fastpath_telemetry()
    reset_lockstep_telemetry()
    reset_chain_batch_telemetry()


def _compile_rejects() -> int:
    return sum(fastpath_telemetry().compile_rejects.values())


def _set_up_sweep():
    start = time.perf_counter()
    subjects = inputs.generate_subjects()
    windows = inputs.paper_windows(subjects.unseen)
    generated = time.perf_counter()
    reference = inputs.fit_reference(subjects.train)
    levels = reference.encoder.spatial.quantize_batch(windows)
    fitted = time.perf_counter()
    _reset_engine_counters()
    sim = HDChainSimulator.from_classifier(
        reference, WOLF_SOC, n_cores=8, use_builtins=True, window=5
    )
    sim.run_window_levels_batch(levels[:2])  # compile warm-up
    rejects = _compile_rejects()
    done = time.perf_counter()
    parts = {
        "emg_generate_s": subjects.generate_s,
        "hdc_fit_s": fitted - generated,
        "kernels_compile_s": done - fitted,
    }
    return (subjects, windows, reference, levels, sim, rejects), parts


def run_sweep(seed: int, seconds: float, trace: bool, out_dir) -> dict:
    setup = harness.repeat_setup(_set_up_sweep)
    subjects, windows, reference, levels, sim, rejects = setup.product
    order = np.random.default_rng(seed).permutation(len(levels))
    # Reference labels for the output check, made before any timing.
    library = inputs.fit_batch(subjects.train)
    predicted = [  # in slices: one pass over every window would be huge
        label for i in range(0, len(windows), 512) for label in library.predict(windows[i : i + 512])
    ]
    labels = reference.associative_memory.labels
    outcome = Outcome()
    sample = []  # the first windows' full results, for the exactness check

    def batch(call: int):
        picks = order[(call * BATCH + np.arange(BATCH)) % len(order)]
        return picks, levels[picks]

    def check(prepared, results) -> None:
        picks = prepared[0]
        outcome.attempt(len(picks))
        outcome.check(
            "ISS label differs from BatchHDClassifier.predict",
            harness.count_mismatches(
                [labels[r.label_index] for r in results], [predicted[i] for i in picks]
            ),
        )
        if not sample:
            sample.extend(zip(picks[:EXACT_SAMPLE], results[:EXACT_SAMPLE]))

    layer: Dict[str, float] = {}
    first = 0
    if trace:
        # Fixed work first: counters over exactly COUNT_CALLS calls.
        _reset_engine_counters()
        counted = []
        for n in range(COUNT_CALLS):
            prepared = batch(n)
            results = sim.run_window_levels_batch(prepared[1])
            check(prepared, results)
            counted.extend(results)
        first = COUNT_CALLS
        layer.update(_engine_counters(len(counted), rejects))
        telemetry = chain_batch_telemetry()
        layer["kernels.laned_window_ratio"] = telemetry["laned_windows"] / max(
            telemetry["laned_windows"] + telemetry["fallback_windows"], 1
        )
        counters = _chain_counters(counted)
        instrs_per_window = counters.pop("instrs") / len(counted)
        layer.update(counters)
        del counted

    tracer = layers.chain_tracer() if trace else None
    reset_chain_batch_telemetry()
    timed = harness.timed_calls(
        lambda n: batch(first + n),
        lambda prepared: sim.run_window_levels_batch(prepared[1]),
        check,
        seconds,
        tracer,
    )
    phases = chain_batch_telemetry()["phase_s"]

    # Batched results must be bit- and cycle-exact to sequential runs.
    for index, batched in sample:
        single = sim.run_window_levels(levels[index])
        exact = (
            single.label_index == batched.label_index
            and np.array_equal(single.distances, batched.distances)
            and single.encode_cycles == batched.encode_cycles
            and single.am_cycles == batched.am_cycles
        )
        outcome.check("batched window differs from sequential run_window_levels", int(not exact))

    plain = timed.seconds[False]
    result = {
        "outcome": outcome,
        # Every window of a call waits for the whole call.
        **harness.host_e2e(setup.nominal(), setup.median(), timed, BATCH, 1e3 * sum(plain) / len(plain)),
        "detail": {
            "setup": Timing.of(setup.seconds).describe("s"),
            "call time": Timing.of([1e3 * t for t in plain]).describe("ms"),
            "calls": first + timed.calls,
            "windows_per_call": BATCH,
        },
    }
    if not trace:
        return result
    n_windows = BATCH * timed.calls
    for phase, total in phases.items():
        layer[f"kernels.{phase}.ms_per_window"] = 1e3 * total / n_windows
    rate = result["raw"]["windows_per_s"]
    layer.update(
        {
            "host.speed_index": timed.host.index,
            "pulp.sim_minstr_per_s": instrs_per_window * rate / 1e6,
            "setup.emg_generate_s": setup.median("emg_generate_s"),
            "setup.hdc_fit_s": setup.median("hdc_fit_s"),
            "setup.kernels_compile_s": setup.median("kernels_compile_s"),
            "trace.overhead_ratio": timed.overhead_ratio(),
        }
    )
    tracer.dump(out_dir / f"trace-iss-sweep-seed{seed}.json", {"workload": "iss-sweep", "seed": seed})
    result["layer"] = layer
    return result


def _table3_cycles(result) -> List[tuple]:
    return [(c.key, c.encode_cycles, c.am_cycles) for c in result.columns]


def speedup_error_pct(result) -> float:
    """Mean |simulated - paper| / paper Table 3 speed-up, in percent,
    over the four non-baseline configurations."""
    errors = [
        abs(result.speedup(key) - paper["sp"]) / paper["sp"]
        for key, paper in table3.PAPER.items()
        if "sp" in paper
    ]
    return 100.0 * sum(errors) / len(errors)


def _cold_table3(seed: int):
    """Set up ``iss-table3`` the way a user pays for it: the first
    invocation in a fresh interpreter (``table3_cold.py``)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "table3_cold.py"), str(seed)],
        cwd=harness.ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return None, json.loads(proc.stdout.strip().splitlines()[-1])


def run_table3(seed: int, seconds: float, trace: bool, out_dir) -> dict:
    # Later invocations in a process reuse the compiled fast-path plans,
    # so only a fresh process shows the set-up.  Each child scales its
    # own time: it runs the reference loop next to the cold invocation.
    setup = harness.repeat_setup(lambda: _cold_table3(seed))
    setup_s = harness.percentile(
        [s * i for s, i in zip(setup.parts["cold_s"], setup.parts["host_index"])], 50.0
    )

    tracer = layers.chain_tracer() if trace else None
    captured: List = []
    if trace:
        # Fixed work: one invocation's simulated totals and counters.
        _reset_engine_counters()
        capture = layers.chain_tracer(capture=captured)
        with capture.active():
            first = table3.run_table3(engine="fast", seed=seed)
        rejects = _compile_rejects()
        layer = _engine_counters(len(captured), rejects)
        counters = _chain_counters(captured)
        instrs_per_call = counters.pop("instrs")
        layer.update(counters)

    # The output check's reference: interpreter cycles, once per run.
    oracle = _table3_cycles(table3.run_table3(engine="interp", seed=seed))
    outcome = Outcome()

    def check(_prepared, table) -> None:
        cycles = _table3_cycles(table)
        outcome.attempt(len(cycles))
        outcome.check("fast-path cycles differ from the interpreter", harness.count_mismatches(cycles, oracle))

    timed = harness.timed_calls(
        lambda n: None,
        lambda _: table3.run_table3(engine="fast", seed=seed),
        check,
        seconds,
        tracer,
    )
    n_configs = len(oracle)
    plain = timed.seconds[False]
    result = {
        "outcome": outcome,
        # Every configuration's window waits for the whole table.
        **harness.host_e2e(
            setup_s, setup.median("cold_s"), timed, n_configs, 1e3 * sum(plain) / len(plain)
        ),
        "detail": {
            "setup (cold invocation)": Timing.of(setup.parts["cold_s"]).describe("s"),
            "program import": Timing.of(setup.parts["import_s"]).describe("s"),
            "invocation time": Timing.of([1e3 * t for t in plain]).describe("ms"),
            "invocations": timed.calls,
        },
    }
    if not trace:
        return result
    rate = result["raw"]["windows_per_s"]
    layer["host.speed_index"] = timed.host.index
    for column in first.columns:
        layer[f"table3.{column.key}.encode_kcycles"] = column.encode_cycles / 1e3
        layer[f"table3.{column.key}.am_kcycles"] = column.am_cycles / 1e3
    layer.update(
        {
            "table3.speedup_error_pct": speedup_error_pct(first),
            "table1.svm_hd_cycle_ratio": run_table1(n_subjects=1).svm_over_hd,
            "pulp.sim_minstr_per_s": instrs_per_call / len(first.columns) * rate / 1e6,
            "setup.kernels_compile_s": setup_s,
            "trace.overhead_ratio": timed.overhead_ratio(),
        }
    )
    tracer.dump(out_dir / f"trace-iss-table3-seed{seed}.json", {"workload": "iss-table3", "seed": seed})
    result["layer"] = layer
    return result
