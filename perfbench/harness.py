"""Shared plumbing of the benchmark: repo paths, timing statistics, the
failed-operation ledger, resource and provenance records.

Nothing here imports the program under test, so ``run.py`` can refuse
cleanly (non-zero exit, no result line) in a directory that holds the
benchmark but not the program.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Where traced runs write their spans (kept out of version control).
OUT_DIR = Path(__file__).resolve().parent / "out"

#: Percentile ladder for the tail rule, lowest first.
TAIL_LADDER = (50.0, 90.0, 95.0, 99.0, 99.9, 99.99)
#: A percentile is reportable only with this many samples beyond it.
MIN_BEYOND = 10


class MissingProgram(RuntimeError):
    """The checkout does not contain the program under test."""


def use_repo_sources() -> None:
    """Put the repo's ``src`` on the import path, or refuse."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise MissingProgram(
            f"program sources not found under {SRC}; run from a full "
            f"checkout of the repository"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


# -- timing statistics ------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (numpy's default rule)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def tail_quantile(n: int) -> Optional[float]:
    """Highest ladder percentile with at least ``MIN_BEYOND`` samples
    beyond it in a sample of ``n``, or None when even the median has
    too few."""
    best = None
    for q in TAIL_LADDER:
        if supports(n, q):
            best = q
    return best


def supports(n: int, q: float) -> bool:
    """Whether a sample of ``n`` has enough values beyond ``q``."""
    return n * (100.0 - q) >= 100.0 * MIN_BEYOND - 1e-6  # 100 - 99.9 is inexact


@dataclass(frozen=True)
class Timing:
    """A timing sample reduced to median, tail percentile and count."""

    n: int
    median: float
    tail_q: Optional[float]
    tail: Optional[float]

    @classmethod
    def of(cls, values: Sequence[float]) -> "Timing":
        values = list(values)
        q = tail_quantile(len(values))
        return cls(
            n=len(values),
            median=percentile(values, 50.0),
            tail_q=q,
            tail=percentile(values, q) if q is not None else None,
        )

    def describe(self, unit: str) -> str:
        tail = (
            f"p{self.tail_q:g} {self.tail:.4g} {unit}"
            if self.tail_q is not None
            else "no tail (n too small)"
        )
        return f"median {self.median:.4g} {unit}, {tail}, n={self.n}"


def stretch_medians(groups: Iterable[Sequence[float]]) -> List[float]:
    """The median of each non-empty stretch (pass, call or interval)."""
    return [percentile(list(g), 50.0) for g in groups if len(g)]


def mean_of_medians(groups: Iterable[Sequence[float]]) -> float:
    """Mean over short stretches of each stretch's median.

    Shared hosts switch between speed states every few seconds.  One
    median over a whole run then lands on whichever state held most
    samples and flips between runs; averaging per-stretch medians
    tracks the share of time spent in each state instead.
    """
    medians = stretch_medians(groups)
    if not medians:
        raise ValueError("no samples")
    return sum(medians) / len(medians)


# -- host speed ---------------------------------------------------------------

#: Seconds the reference loop takes on the nominal host that the
#: end-to-end host times are scaled to.
NOMINAL_REF_S = 0.010


def reference_loop() -> float:
    """Seconds taken by one fixed unit of interpreter and numpy work."""
    import numpy as np

    start = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc += i * i
    words = np.arange(200_000, dtype=np.uint64)
    int((words ^ (words >> np.uint64(3))).sum())
    return time.perf_counter() - start


class HostSpeed:
    """How fast the host runs the reference loop during a run.

    Shared hosts change speed by tens of percent over seconds to
    minutes, so one workload's host time drifts between runs of
    unchanged code.  Sampling a fixed reference between the timed
    stretches of the same run, and scaling host times to the nominal
    host, cancels most of that drift; program changes still show in
    full, because the reference runs none of the program.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        reference_loop()  # first call pays allocation, not speed

    def sample(self, n: int = 1) -> None:
        for _ in range(n):
            self.samples.append(reference_loop())

    @property
    def index(self) -> float:
        """Host speed relative to nominal (above 1: faster)."""
        return NOMINAL_REF_S * len(self.samples) / sum(self.samples)

    def seconds(self, measured_s: float) -> float:
        """A measured duration, as it would read on the nominal host."""
        return measured_s * self.index

    def rate(self, measured_per_s: float) -> float:
        """A measured rate, as it would read on the nominal host."""
        return measured_per_s / self.index


# -- repeated set-up and the timed call loop --------------------------------

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5


@dataclass
class Setup:
    """Repeated set-ups: the last one's product, every set-up's wall
    time and named parts, and the host speed around them."""

    product: object
    seconds: List[float]
    parts: Dict[str, List[float]]
    host: HostSpeed

    def median(self, part: Optional[str] = None) -> float:
        return percentile(self.seconds if part is None else self.parts[part], 50.0)

    def nominal(self) -> float:
        """The median set-up, at nominal host speed."""
        return self.host.seconds(self.median())


def repeat_setup(
    build: Callable[[], Tuple[object, Dict[str, float]]], repeats: int = SETUP_REPEATS
) -> Setup:
    """Time ``build`` (returning its product and named part times)
    ``repeats`` times, sampling host speed between the set-ups."""
    host = HostSpeed()
    seconds: List[float] = []
    parts: Dict[str, List[float]] = {}
    product = None
    for _ in range(repeats):
        host.sample()
        start = time.perf_counter()
        product, named = build()
        seconds.append(time.perf_counter() - start)
        for key, value in named.items():
            parts.setdefault(key, []).append(value)
    host.sample()
    return Setup(product, seconds, parts, host)


@dataclass
class TimedCalls:
    """Call times of untraced (False) and traced (True) calls."""

    seconds: Dict[bool, List[float]]
    host: HostSpeed

    @property
    def calls(self) -> int:
        return len(self.seconds[False]) + len(self.seconds[True])

    def overhead_ratio(self) -> float:
        """Mean traced call time over mean untraced call time, minus one."""
        traced, plain = self.seconds[True], self.seconds[False]
        return (sum(traced) / len(traced)) / (sum(plain) / len(plain)) - 1.0


def timed_calls(
    prepare: Callable[[int], object],
    call: Callable[[object], object],
    check: Callable[[object, object], None],
    seconds: float,
    tracer=None,
    host_samples: int = 1,
) -> TimedCalls:
    """Call ``call(prepare(n))`` for n = 0, 1, ... until ``seconds``
    have passed, timing only ``call``.

    ``check(prepared, result)`` runs after each call, outside its time.
    With a ``tracer``, every second call runs traced, so traced and
    untraced calls share the host's slow and fast stretches; there is
    at least one of each.  Host speed is sampled before every call.
    """
    times: Dict[bool, List[float]] = {False: [], True: []}
    host = HostSpeed()
    deadline = time.perf_counter() + seconds
    n = 0
    while time.perf_counter() < deadline or not times[False] or (tracer and not times[True]):
        host.sample(host_samples)
        prepared = prepare(n)
        traced = tracer is not None and n % 2 == 1
        start = time.perf_counter()
        if traced:
            with tracer.active():
                result = call(prepared)
        else:
            result = call(prepared)
        times[traced].append(time.perf_counter() - start)
        check(prepared, result)
        n += 1
    return TimedCalls(times, host)


def host_e2e(setup_s: float, setup_measured_s: float, timed: TimedCalls,
             windows_per_call: int, latency_ms: float) -> dict:
    """End-to-end metrics of an in-process workload whose untraced calls
    each decide ``windows_per_call`` windows, scaled to nominal host
    speed, with the measured values alongside.  ``setup_s`` is already
    at nominal host speed."""
    plain = timed.seconds[False]
    raw = {
        "setup_s": setup_measured_s,
        "windows_per_s": windows_per_call * len(plain) / sum(plain),
        "latency_p50_ms": latency_ms,
    }
    host = timed.host
    return {
        "e2e": {
            "setup_s": setup_s,
            "windows_per_s": host.rate(raw["windows_per_s"]),
            "latency_p50_ms": host.seconds(raw["latency_p50_ms"]),
            "peak_rss_mb": peak_rss_mb(),
        },
        "raw": raw,
        "host": {"run": host.index},
    }


# -- failed-operation ledger ------------------------------------------------


@dataclass
class Outcome:
    """Operations attempted and failed, with reasons.

    A failure is anything a user would not get right: an operation
    that errored or was refused (:meth:`fail`), or an output that
    disagrees with its reference (:meth:`check`).  Checks run outside
    the timed region and add to the same ledger; only they decide
    whether the program's outputs were *correct*.
    """

    attempted: int = 0
    failed: int = 0
    mismatched: int = 0
    reasons: Dict[str, int] = field(default_factory=dict)

    def attempt(self, n: int = 1) -> None:
        self.attempted += int(n)

    def fail(self, reason: str, n: int = 1) -> None:
        if n <= 0:
            return
        self.failed += int(n)
        self.reasons[reason] = self.reasons.get(reason, 0) + int(n)

    def check(self, reason: str, mismatches: int) -> None:
        """Record an output check that found ``mismatches`` bad items."""
        self.fail(reason, mismatches)
        self.mismatched += max(int(mismatches), 0)

    def merge(self, other: "Outcome", prefix: str = "") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.mismatched += other.mismatched
        for reason, n in other.reasons.items():
            key = prefix + reason
            self.reasons[key] = self.reasons.get(key, 0) + n

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.mismatched == 0


def count_mismatches(got: Iterable, want: Iterable) -> int:
    """Positions where two sequences differ, plus any length gap."""
    got, want = list(got), list(want)
    n = min(len(got), len(want))
    return sum(1 for i in range(n) if got[i] != want[i]) + abs(
        len(got) - len(want)
    )


# -- resources and provenance ----------------------------------------------


def peak_rss_mb() -> float:
    """Peak resident set of this process image, in MiB.

    Reads ``VmHWM``: ``getrusage`` keeps the larger peak of the process
    before ``exec``, so a freshly started server would report its
    parent's memory.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def commit() -> str:
    """The checked-out commit, or "unknown" outside a git work tree."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def provenance(seed: int, order: List[str]) -> dict:
    import numpy

    return {
        "commit": commit(),
        "nproc": usable_cores(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "seed": seed,
        "order": order,
    }
