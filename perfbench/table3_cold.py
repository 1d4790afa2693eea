"""One cold ``run_table3(engine="fast")`` in a fresh interpreter: the
set-up of the ``iss-table3`` workload.

    python3 perfbench/table3_cold.py SEED

Prints one JSON line with the seconds the program's imports took
(``import_s``), the seconds the first invocation took (``cold_s``):
five simulator builds and model loads plus the fast path's plan
compilation, which every later invocation in the process reuses, and
this process's host speed index around that invocation
(``host_index``, see ``harness.HostSpeed``).
"""

from __future__ import annotations

import json
import sys
import time

import harness


def main(argv=None) -> int:
    seed = int((sys.argv[1:] if argv is None else argv)[0])
    harness.use_repo_sources()
    start = time.perf_counter()
    from repro.experiments import table3

    imported = time.perf_counter()
    host = harness.HostSpeed()
    host.sample(3)
    start_cold = time.perf_counter()
    table3.run_table3(engine="fast", seed=seed)
    cold_s = time.perf_counter() - start_cold
    host.sample(3)
    print(json.dumps({"import_s": imported - start, "cold_s": cold_s, "host_index": host.index}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
