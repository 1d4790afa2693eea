"""Both fast engines make the same loop-vectorization decisions.

The scalar fast path and the window-laned lockstep engine run one loop
vectorizer, and the scalar engine is its one-lane case.  One window
through ``run_window_levels`` and N copies of it through
``run_window_levels_batch`` must therefore engage the same loop plans,
for the same trip counts, and bail for the same reasons.
"""

import numpy as np
import pytest

from repro.kernels import ChainConfig, ChainDims, HDChainSimulator
from repro.pulp import fastpath_telemetry, reset_fastpath_telemetry
from repro.pulp.soc import PULPV3_SOC, WOLF_SOC

N_COPIES = 4


@pytest.mark.parametrize(
    "soc,n_cores,builtins",
    [
        (PULPV3_SOC, 1, False),
        (PULPV3_SOC, 4, False),
        (WOLF_SOC, 1, False),
        (WOLF_SOC, 8, True),
    ],
    ids=["pulpv3-1c", "pulpv3-4c", "wolf-1c", "wolf-8c-bi"],
)
def test_scalar_and_laned_runs_vectorize_alike(soc, n_cores, builtins):
    rng = np.random.default_rng(41)
    dims = ChainDims(
        dim=2016, n_channels=4, n_levels=22, n_classes=5, ngram=4,
        window=5,
    )
    sim = HDChainSimulator(
        ChainConfig(
            soc=soc, n_cores=n_cores, dims=dims, use_builtins=builtins
        )
    )
    n_words = dims.n_words
    sim.load_model(
        rng.integers(0, 2**32, size=(4, n_words), dtype=np.uint32),
        rng.integers(0, 2**32, size=(22, n_words), dtype=np.uint32),
        rng.integers(0, 2**32, size=(5, n_words), dtype=np.uint32),
    )
    levels = rng.integers(0, 22, size=(dims.n_samples, dims.n_channels))
    sim.run_window_levels(levels)  # compile outside the measured runs

    reset_fastpath_telemetry()
    sim.run_window_levels(levels)
    scalar = fastpath_telemetry()
    reset_fastpath_telemetry()
    sim.run_window_levels_batch(np.stack([levels] * N_COPIES))
    laned = fastpath_telemetry()

    assert scalar.total_engagements > 0
    assert laned.engaged == scalar.engaged
    assert laned.trips == scalar.trips
    assert laned.bails == scalar.bails
