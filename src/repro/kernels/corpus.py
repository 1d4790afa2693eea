"""The kernel corpus the static analyzer certifies against.

Every shipped kernel is enumerated here twice over:

* :func:`static_entries` — assembled programs (chain encode/AM across a
  machine × cores × workload grid, the standalone spatial/N-gram/AM
  builders, and the fixed-point SVM kernel), each paired with its
  module's :data:`STATIC_CONTRACT` for the analyzer to check.
* :func:`certify` — the differential harness: it runs the chain grid on
  the fast engine (scalar and laned-batch paths), snapshots
  ``fastpath_telemetry`` / ``chain_batch_telemetry``, and cross-checks
  every observed compile reject, engagement, bail, and lockstep
  fallback against the analyzer's verdicts.  A certified-clean site
  that bails — or an observed reason the analyzer did not predict — is
  a failure in either the analyzer or the engine.

The grid intentionally uses small dimensions: certification is about
which loop sites engage/bail, which is dimension-independent beyond
"more than one trip", and the CLI/CI step must stay fast.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Tuple

import numpy as np

from ..pulp.analyze import AnalysisReport, StaticContract, analyze_program
from ..pulp.dispatch import LANED_BAIL_PREFIX
from ..pulp.fastpath import fastpath_telemetry, reset_fastpath_telemetry
from ..pulp.isa import ArchProfile
from ..pulp.memory import MemoryConfig
from ..pulp.soc import CORTEX_M4_SOC, PULPV3_SOC, WOLF_SOC, SoCConfig
from . import am_search, chain, spatial, svm_kernel, temporal
from .chain import (
    ChainConfig,
    ChainDims,
    HDChainSimulator,
    chain_batch_telemetry,
    reset_chain_batch_telemetry,
)
from .layout import make_layout


@dataclass(frozen=True)
class CorpusEntry:
    """One analyzable program plus the contract that governs it."""

    name: str
    program: object
    profile: ArchProfile
    memory: MemoryConfig
    n_cores: int
    contract: StaticContract
    args: Optional[dict] = None


#: machine × cores × workload grid for the chain kernels (mirrors the
#: shapes of ``tests/pulp/test_fastpath_differential.KERNEL_CONFIGS``
#: at corpus-friendly dimensions).
GRID: List[Tuple[str, SoCConfig, int, bool, dict]] = [
    ("pulpv3_1", PULPV3_SOC, 1, False, {}),
    ("pulpv3_4", PULPV3_SOC, 4, False, {}),
    ("wolf_1_bi", WOLF_SOC, 1, True, {}),
    ("wolf_8_bi", WOLF_SOC, 8, True, {}),
    ("m4", CORTEX_M4_SOC, 1, False, {}),
    ("wolf_8_ngram", WOLF_SOC, 8, True, {"ngram": 3, "window": 4}),
    ("m4_carry_save", CORTEX_M4_SOC, 1, False, {"n_channels": 8}),
    ("wolf_8_memory", WOLF_SOC, 8, False, {"strategy": "memory"}),
]

_DIM = 256  # corpus hypervector width (small but multi-trip)


def _grid_dims(overrides: dict) -> ChainDims:
    overrides = dict(overrides)
    overrides.pop("strategy", None)
    return ChainDims(
        dim=_DIM,
        n_channels=overrides.pop("n_channels", 4),
        n_levels=10,
        n_classes=4,
        ngram=overrides.pop("ngram", 1),
        window=overrides.pop("window", 5),
    )


def _make_sim(
    soc: SoCConfig, n_cores: int, builtins: bool, overrides: dict,
    engine: Optional[str] = None,
) -> HDChainSimulator:
    return HDChainSimulator(ChainConfig(
        soc=soc,
        n_cores=n_cores,
        dims=_grid_dims(overrides),
        use_builtins=builtins,
        strategy=dict(overrides).get("strategy", "auto"),
        engine=engine,
    ))


def _load_model(sim: HDChainSimulator, seed: int = 17) -> np.ndarray:
    dims = sim.config.dims
    rng = np.random.default_rng(seed)
    im = rng.integers(
        0, 2**32, size=(dims.n_channels, dims.n_words), dtype=np.uint32
    )
    cim = rng.integers(
        0, 2**32, size=(dims.n_levels, dims.n_words), dtype=np.uint32
    )
    am = rng.integers(
        0, 2**32, size=(dims.n_classes, dims.n_words), dtype=np.uint32
    )
    sim.load_model(im, cim, am)
    return rng.integers(
        0, dims.n_levels, size=(dims.n_samples, dims.n_channels)
    )


def _svm_sim() -> svm_kernel.SVMKernelSimulator:
    from ..svm import (
        FixedPointConfig,
        FixedPointSVM,
        MulticlassSVM,
        SVMConfig,
    )

    rng = np.random.default_rng(5)
    centers = rng.normal(0, 2.0, size=(3, 4))
    x = np.vstack(
        [c + rng.normal(0, 0.6, size=(12, 4)) for c in centers]
    )
    y = np.repeat(np.arange(3), 12)
    svm = MulticlassSVM(SVMConfig(kernel="linear", c=10.0)).fit(x, y)
    fp = FixedPointSVM.from_float(svm, FixedPointConfig(exp_terms=2))
    sim = svm_kernel.SVMKernelSimulator(fp)
    sim._corpus_features = x  # stashed for certify()
    return sim


def static_entries(
    machine: Optional[str] = None,
) -> Iterator[CorpusEntry]:
    """Yield every shipped kernel program with its governing contract."""
    for key, soc, n_cores, builtins, overrides in GRID:
        if machine is not None and soc.name != machine:
            continue
        sim = _make_sim(soc, n_cores, builtins, overrides)
        memory = soc.memory_config()
        yield CorpusEntry(
            f"chain/{key}/encode", sim.encode_program, soc.profile,
            memory, n_cores, chain.STATIC_CONTRACT,
        )
        yield CorpusEntry(
            f"chain/{key}/am", sim.am_program, soc.profile,
            memory, n_cores, chain.STATIC_CONTRACT,
        )
    for soc, n_cores in ((WOLF_SOC, 4), (PULPV3_SOC, 1)):
        if machine is not None and soc.name != machine:
            continue
        dims = ChainDims(
            dim=_DIM, n_channels=4, n_levels=10, n_classes=4,
            ngram=2, window=3,
        )
        layout = make_layout(
            dims=dims, n_cores=n_cores, uses_dma=soc.uses_dma
        )
        memory = soc.memory_config()
        yield CorpusEntry(
            f"spatial/{soc.name}_x{n_cores}",
            spatial.build_spatial_program(soc.profile, layout, n_cores),
            soc.profile, memory, n_cores, spatial.STATIC_CONTRACT,
        )
        yield CorpusEntry(
            f"ngram/{soc.name}_x{n_cores}",
            temporal.build_ngram_program(soc.profile, layout, n_cores),
            soc.profile, memory, n_cores, temporal.STATIC_CONTRACT,
        )
        yield CorpusEntry(
            f"am/{soc.name}_x{n_cores}",
            am_search.build_am_program(
                soc.profile, layout, n_cores, uses_dma=soc.uses_dma
            ),
            soc.profile, memory, n_cores, am_search.STATIC_CONTRACT,
        )
    if machine is None or CORTEX_M4_SOC.name == machine:
        sim = _svm_sim()
        yield CorpusEntry(
            "svm/m4", sim.program, sim.soc.profile,
            sim.soc.memory_config(), 1, svm_kernel.STATIC_CONTRACT,
        )


# ---------------------------------------------------------------------------
# Differential certification.
# ---------------------------------------------------------------------------

def _crosscheck(
    name: str,
    reports: List[AnalysisReport],
    telem,
    check_rejects: bool,
) -> List[str]:
    """Compare one telemetry window against the analyzer's verdicts."""
    failures: List[str] = []
    predicted_rejects: Counter = Counter()
    accepted: Set[Tuple[str, int]] = set()
    site_bails: Dict[Tuple[str, int], Set[str]] = {}
    for rep in reports:
        for v in rep.loop_verdicts:
            if not v.accepted:
                predicted_rejects[v.reject_reason] += 1
            elif not v.disqualified:
                accepted.add((v.kind, v.head))
                site_bails.setdefault(
                    (v.kind, v.head), set()
                ).update(v.possible_bails)
    if check_rejects:
        observed_rejects = Counter(telem.compile_rejects)
        if observed_rejects != predicted_rejects:
            failures.append(
                f"{name}: compile rejects diverge — engine "
                f"{dict(observed_rejects)} vs analyzer "
                f"{dict(predicted_rejects)}"
            )
    for key in telem.engaged:
        if key not in accepted:
            failures.append(
                f"{name}: engaged plan {key} was not certified "
                "acceptable"
            )
    for (kind, head, reason), count in telem.plan_bails.items():
        allowed = site_bails.get((kind, head))
        if allowed is None:
            failures.append(
                f"{name}: bail {reason!r} ×{count} at unknown site "
                f"({kind}, {head})"
            )
        elif reason not in allowed:
            tag = "certified-clean site" if not allowed else "site"
            failures.append(
                f"{name}: {tag} ({kind}, {head}) bailed with "
                f"unpredicted reason {reason!r} ×{count} "
                f"(predicted ⊆ {sorted(allowed)})"
            )
    return failures


def certify(machine: Optional[str] = None) -> List[str]:
    """Run the corpus on the fast engine and cross-check telemetry.

    Returns a list of human-readable failures (empty = certified)."""
    failures: List[str] = []
    for key, soc, n_cores, builtins, overrides in GRID:
        if machine is not None and soc.name != machine:
            continue
        sim = _make_sim(soc, n_cores, builtins, overrides, engine="fast")
        levels = _load_model(sim)
        memory = soc.memory_config()
        reports = [
            analyze_program(
                prog, soc.profile, memory=memory, n_cores=n_cores
            )
            for prog in (sim.encode_program, sim.am_program)
        ]
        reset_fastpath_telemetry()
        sim.run_window_levels(levels)
        failures.extend(_crosscheck(
            f"chain/{key}", reports, fastpath_telemetry(),
            check_rejects=True,
        ))
        # Laned batch path: lockstep fallbacks must be predicted too.
        batch = np.stack([levels, (levels + 1) % sim.config.dims.n_levels])
        reset_fastpath_telemetry()
        reset_chain_batch_telemetry()
        sim.run_window_levels_batch(batch)
        failures.extend(_crosscheck(
            f"chain/{key}/batch", reports, fastpath_telemetry(),
            check_rejects=False,
        ))
        predicted_ls = set()
        for rep in reports:
            predicted_ls |= rep.lockstep_reasons
        observed_ls = chain_batch_telemetry()["fallbacks"]
        for reason, count in observed_ls.items():
            base = reason
            if base.startswith(LANED_BAIL_PREFIX):
                base = base[len(LANED_BAIL_PREFIX):]
            if base not in predicted_ls:
                failures.append(
                    f"chain/{key}/batch: lockstep fallback {reason!r} "
                    f"×{count} not predicted "
                    f"(⊆ {sorted(predicted_ls)})"
                )
    if machine is None or CORTEX_M4_SOC.name == machine:
        sim = _svm_sim()
        report = analyze_program(
            sim.program, sim.soc.profile,
            memory=sim.soc.memory_config(), n_cores=1,
        )
        reset_fastpath_telemetry()
        for xi in sim._corpus_features[::6]:
            sim.classify(xi)
        failures.extend(_crosscheck(
            "svm/m4", [report], fastpath_telemetry(), check_rejects=True,
        ))
    return failures
