"""What the benchmark measures: workload names, metric names, units and
bounds, read from ``BENCHMARK.json`` at the repository root.

End-to-end metrics (``--trace 0``, every workload):

- ``setup_s``: median of the run's repeated set-ups, scaled to nominal
  host speed.  stream-unseen: EMG generation and fit; iss-sweep: EMG
  generation, fit, simulator build and compile warm-up; iss-table3: the
  first, cold ``run_table3`` invocation in a fresh interpreter
  (simulator builds, model loads, fast-path plan compilation), three
  fresh processes per run; ingress-paced: server process start (program
  import, EMG generation, fit, listening socket), one per load level.
- ``windows_per_s``: windows decided over the untraced passes or calls
  per second of them, scaled to nominal host speed; ingress-paced:
  decisions delivered per second at the overload rate.
- ``peak_rss_mb``: peak resident memory of the benchmark process;
  ingress-paced: of the server process at the mid rate.

What each per-layer metric should move, and where it should not:

- ``hdc.{encode,quantize,am_search}.us_per_window`` -> windows_per_s on
  stream-unseen; little effect on ingress-paced (most windows hit the
  caches there).
- ``stream.decision_cache.{hit_ratio,evictions}``,
  ``hdc.row_cache.hit_ratio`` -> windows_per_s, latency and
  ``ingress.max_ok_rate_wps`` on ingress-paced; ~none on stream-unseen.
- ``stream.{windower,record}.us_per_window``,
  ``stream.scheduler.self_us_per_window``, ``stream.batch.mean_windows``
  -> windows_per_s on stream-unseen; ``stream.queue_age.p99_{ticks,ms}``
  -> latency on ingress-paced.  None of them moves iss-sweep.
- ``stream.replay_ceiling_windows_per_s``: the labelled cache-replay
  ceiling, never a headline.
- ``wire.*``, ``ingress.{sessions_rejected,protocol_errors,slow_disconnects}``
  -> latency and ``failed_ratio`` on ingress-paced; nothing elsewhere.
- ``ingress.rate_<low|mid|high>.latency_{p50,p99}_ms`` and
  ``loadgen.lateness_p99_ms`` -> the inputs of ``ingress.max_ok_rate_wps``;
  lateness shows whether the generator kept its schedule.
- ``kernels.*``, ``pulp.lockstep.*`` -> windows_per_s on iss-sweep
  (``lanes_per_run`` is the lane-cap number); not on iss-table3.
- ``pulp.fastpath.*``, ``pulp.sim_minstr_per_s`` -> windows_per_s on
  iss-table3 and iss-sweep; not on stream-unseen.
- ``pulp.{ipc,sync_cycle_share,dma_bytes_per_window}`` ->
  ``pulp.sim_kcycles_per_window`` on the iss-* workloads; a
  simulator-only change leaves all of them identical.
- ``table3.*``, ``table1.svm_hd_cycle_ratio`` (paper 2.03) -> the Table
  3 and Table 1 reproduction gaps on iss-table3; not on iss-sweep.
- ``setup.*`` -> ``setup_s`` of the workloads that pay them.
- ``host.speed_index``: the host, not the program.
  ``trace.overhead_ratio``: the cost of tracing itself.
- ``latency_p50_ms``: wait for a decision from the call that submitted
  it (median per pass or call, averaged over the run, scaled);
  ingress-paced: from its chunk's due time at the mid rate, median of
  quarter-second medians, unscaled.  Not end to end: on ingress-paced
  it rose fivefold for minutes while other tenants loaded the host.
- ``failed_ratio``: failed / attempted operations of the run.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
SPEC = json.loads(BENCHMARK_JSON.read_text())

RUN_SECONDS = SPEC["run_seconds"]
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def end_to_end_units() -> Dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC["end_to_end"]}


def per_layer_units() -> Dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC["per_layer"]}
