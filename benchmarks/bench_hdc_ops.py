"""Microbenchmarks of the core HD library primitives (numpy side).

The scalar cases track the object-per-vector API; the batched cases
track the packed uint64 engine the whole stack now runs on — in
particular the bulk-bind and AM-search cases at n = 1000, D = 10,000,
with the seed's dense int64-matmul distance kept as an explicit baseline
so the packed-vs-dense gap stays visible in every benchmark run.  The
dedup-curve case publishes ``results/hdc_encode_batch.txt``: encode cost
per window on real EMG windows against the batch size, with the
spatial encoder's duplicate-row scan at its threshold and forced off.
"""

import contextlib
import os
import time

import numpy as np
import pytest

from benchmarks.conftest import publish

from repro.hdc import (
    BinaryHypervector,
    BatchHDClassifier,
    HDClassifierConfig,
    HypervectorArray,
    bind,
    bulk_distances,
    bundle,
)
from repro.hdc import encoder as encoder_module
from repro.hdc import engine

DIM = 10_000
N_BULK = 1_000
N_CLASSES = 5


@pytest.fixture(scope="module")
def vectors():
    rng = np.random.default_rng(11)
    return [BinaryHypervector.random(DIM, rng) for _ in range(9)]


@pytest.fixture(scope="module")
def bulk_arrays():
    """Packed query/prototype batches for the engine-level cases."""
    rng = np.random.default_rng(13)
    queries = HypervectorArray.random(N_BULK, DIM, rng)
    prototypes = HypervectorArray.random(N_CLASSES, DIM, rng)
    return queries, prototypes


@pytest.fixture(scope="module")
def bulk_bits(bulk_arrays):
    """The same batches unpacked, for the dense-matmul baseline."""
    queries, prototypes = bulk_arrays
    return queries.to_bits(), prototypes.to_bits()


def test_bench_bind(benchmark, vectors):
    benchmark(bind, vectors[0], vectors[1])


def test_bench_bundle_five(benchmark, vectors):
    """The per-sample channel bundle of the EMG chain."""
    benchmark(bundle, vectors[:5])


def test_bench_rotate(benchmark, vectors):
    benchmark(vectors[0].rotate, 1)


def test_bench_hamming(benchmark, vectors):
    benchmark(vectors[0].hamming, vectors[1])


def test_bench_bulk_distances(benchmark, vectors):
    matrix = np.stack([v.words for v in vectors[:5]])
    benchmark(bulk_distances, vectors[5].words, matrix)


# -- batched engine cases ---------------------------------------------------


def test_bench_bulk_bind(benchmark, bulk_arrays):
    """Bulk binding: 1000 query rows XOR one key row at 10,000-D."""
    queries, prototypes = bulk_arrays
    key = prototypes[0]
    result = benchmark(lambda: queries ^ key)
    assert len(result) == N_BULK


def test_bench_bulk_rotate(benchmark, bulk_arrays):
    """Bulk ρ¹ over 1000 packed rows (the temporal kernel's inner op)."""
    queries, _ = bulk_arrays
    result = benchmark(queries.rotate, 1)
    assert len(result) == N_BULK


def test_bench_am_search_packed(benchmark, bulk_arrays):
    """Packed AM search, 1000 queries × 5 prototypes at 10,000-D.

    This is the engine kernel behind ``BatchHDClassifier.distances``;
    compare against the dense-matmul baseline case below.
    """
    queries, prototypes = bulk_arrays
    indices, dists = benchmark(
        engine.am_search, queries.words, prototypes.words
    )
    assert dists.shape == (N_BULK, N_CLASSES)


def test_bench_am_search_dense_matmul_baseline(benchmark, bulk_bits):
    """The seed's dense int64-matmul distance on the same inputs.

    Kept as a baseline: the packed AM-search case above must beat this
    (it runs on 64× fewer bytes per component).
    """
    q_bits, p_bits = bulk_bits

    def dense():
        q = q_bits.astype(np.int32)
        p = p_bits.astype(np.int32)
        q_ones = q.sum(axis=1, dtype=np.int64)
        p_ones = p.sum(axis=1, dtype=np.int64)
        cross = q.astype(np.int64) @ p.T.astype(np.int64)
        return q_ones[:, None] + p_ones[None, :] - 2 * cross

    dists = benchmark(dense)
    assert dists.shape == (N_BULK, N_CLASSES)


def test_packed_matches_dense(bulk_arrays, bulk_bits):
    """The two distance paths agree exactly (not a timing case)."""
    queries, prototypes = bulk_arrays
    q_bits, p_bits = bulk_bits
    packed = engine.hamming_matrix(queries.words, prototypes.words)
    dense = (
        q_bits.sum(axis=1, dtype=np.int64)[:, None]
        + p_bits.sum(axis=1, dtype=np.int64)[None, :]
        - 2 * (q_bits.astype(np.int64) @ p_bits.T.astype(np.int64))
    )
    np.testing.assert_array_equal(packed, dense)


def test_bench_batch_window_encode(benchmark):
    """Vectorised encoding throughput (windows/second at 10,000-D)."""
    rng = np.random.default_rng(12)
    clf = BatchHDClassifier(HDClassifierConfig(dim=DIM))
    windows = rng.uniform(0, 21, size=(64, 5, 4))
    benchmark(clf.encoder.encode_batch, windows)


#: Windows per call for the published dedup curve.
DEDUP_CURVE = (1, 5, 25, 125, 1000)


def _emg_window_sets():
    """Real EMG envelope windows at W=5: the unseen serving subject at
    stride 5 in trial order and interleaved across 50 trials (the mix a
    multi-session service batch sees), and the training subject at
    stride 1 in trial order."""
    from repro.emg import EMGDatasetConfig, WindowConfig, generate_subject
    from repro.emg.windows import windows_from_trial, windows_from_trials

    dataset = EMGDatasetConfig(n_subjects=2)
    stride5 = WindowConfig(window_samples=5, stride_samples=5, skip_onset_s=0.0)
    stride1 = WindowConfig(window_samples=5, stride_samples=1, skip_onset_s=0.0)
    unseen = generate_subject(dataset, 1)
    per_trial = [
        np.asarray(windows_from_trial(trial, stride5))
        for trial in unseen.trials[:50]
    ]
    depth = min(len(w) for w in per_trial)
    interleaved = np.stack([w[:depth] for w in per_trial], axis=1)
    return {
        "unseen EMG, stride 5": np.asarray(
            windows_from_trials(unseen.trials, stride5)[0]
        ),
        "unseen, 50 interleaved": interleaved.reshape(-1, 5, 4),
        "training EMG, stride 1": np.asarray(
            windows_from_trials(generate_subject(dataset, 0).trials, stride1)[0]
        ),
    }


def _us_per_window(encode, windows, n_per_call, budget_windows=3000):
    """Mean µs/window over consecutive ``n_per_call``-window calls."""
    n_calls = max(3, budget_windows // n_per_call)
    span = len(windows) - n_per_call
    starts = [(i * n_per_call) % span for i in range(n_calls)]
    start = time.perf_counter()
    for s in starts:
        encode(windows[s : s + n_per_call])
    return 1e6 * (time.perf_counter() - start) / (n_calls * n_per_call)


@contextlib.contextmanager
def _dedup_threshold(rows):
    """Patch the spatial encoder's duplicate-row threshold for a block."""
    saved = encoder_module._DEDUP_MIN_ROWS
    encoder_module._DEDUP_MIN_ROWS = rows
    try:
        yield
    finally:
        encoder_module._DEDUP_MIN_ROWS = saved


def test_dedup_curve_emg_windows():
    """µs/window of ``encode_batch`` against windows per call, with the
    duplicate-row scan at ``_DEDUP_MIN_ROWS``, forced on at every size
    and forced off.

    The forced runs patch the module constant, here only; each point
    takes the best of three alternating rounds.  Every setting must
    encode every window bit-identically.
    """
    clf = BatchHDClassifier(HDClassifierConfig(dim=DIM))
    encode = clf.encoder.encode_batch
    threshold = encoder_module._DEDUP_MIN_ROWS
    modes = {"threshold": threshold, "always": 0, "off": 1 << 62}
    lines = [
        "HD encode_batch cost vs batch size - real EMG windows "
        f"(D = {DIM:,}, W = 5, 4 channels)",
        f"  duplicate-row scan from {threshold} rows (_DEDUP_MIN_ROWS); "
        "'always'/'off' patch the threshold to 0 / past any batch",
        f"  host: {os.cpu_count()} cores, numpy {np.__version__}",
        f"  {'input':<24s}{'windows':>8s}{'rows':>6s}"
        f"{'thresh us/w':>13s}{'always':>8s}{'off':>8s}{'off/always':>12s}",
    ]
    for name, windows in _emg_window_sets().items():
        words = []
        for rows in modes.values():
            with _dedup_threshold(rows):
                words.append(encode(windows[:1000]).words)
        assert all(np.array_equal(words[0], w) for w in words[1:])
        for n_per_call in DEDUP_CURVE:
            best = dict.fromkeys(modes, float("inf"))
            for _ in range(3):
                for mode, rows in modes.items():
                    with _dedup_threshold(rows):
                        cost = _us_per_window(encode, windows, n_per_call)
                    best[mode] = min(best[mode], cost)
            lines.append(
                f"  {name:<24s}{n_per_call:>8d}{5 * n_per_call:>6d}"
                f"{best['threshold']:>13.1f}{best['always']:>8.1f}"
                f"{best['off']:>8.1f}"
                f"{best['off'] / best['always']:>12.2f}"
            )
    lines.append(
        "  off/always > 1: the scan wins at that batch size; the "
        "threshold column should track the cheaper of the two."
    )
    publish("hdc_encode_batch", "\n".join(lines))
